"""The public calls the traced run wraps, and how their spans fold into
the per-layer metrics.

One :class:`LayerTrace` per process: the benchmark process traces the
in-process workloads, the wire server process traces its own side of
wire_fleet.  Times are reported per completed benchmark operation, so
the self times of one workload add up to about its mean operation
latency.
"""

from __future__ import annotations

import itertools

from repro.core.cluster import QueryShardCoordinator
from repro.core.cluster import coordinator as cluster_coordinator
from repro.core.extractor.manager import ExtractorManager
from repro.core.instances.generator import InstanceGenerator
from repro.core.middleware import S2SMiddleware
from repro.core.query import executor as query_executor
from repro.core.query.executor import QueryHandler, QueryResult
from repro.core.query.planner import QueryPlanner
from repro.core.store import delta as store_delta
from repro.core.store import DeltaRefresher, SemanticStore
from repro.obs import DEFAULT_REGISTRY
from repro.sources.flaky import FlakySource
from repro.sources.relational import RelationalDataSource
from repro.sources.textfiles import TextDataSource
from repro.sources.web import WebDataSource
from repro.sources.xmlstore import XmlDataSource

from .spans import SpanRecorder

#: per-layer metric prefix -> connector class whose execute_rule it times
SOURCE_LAYERS = {
    "sources.relational": RelationalDataSource,
    "sources.xmlstore": XmlDataSource,
    "sources.web": WebDataSource,
    "sources.textfiles": TextDataSource,
}

#: Deterministic per-layer counts, from the fixed-length counting pass.
COUNTERS = ("extractor.rules", "sources.relational.rules",
            "sources.xmlstore.rules", "sources.web.rules",
            "sources.textfiles.rules", "sources.relational.rows_scanned",
            "sources.web.fetches", "instances.entities",
            "store.refreshed_per_write")


def _counter(name: str):
    def on_result(recorder, span, args, result) -> None:
        recorder.count(name)
        recorder.count("extractor.rules")
    return on_result


def _count_entities(recorder, span, args, result) -> None:
    recorder.count("instances.entities", len(result.entities))


def _count_serving(recorder, span, args, result) -> None:
    recorder.count("store.reads")
    if result is not None:
        recorder.count("store.hits")


def substrate_counts(scenario) -> dict[str, float]:
    """SQL rows scanned and web pages fetched so far, from the sources'
    own counters."""
    rows = DEFAULT_REGISTRY.get("sql_rows_scanned_total")
    return {"sources.relational.rows_scanned":
            rows.total() if rows is not None else 0.0,
            "sources.web.fetches": float(scenario.web.total_fetches)}


class LayerTrace:
    """Wraps every layer's entry points while tracing is on."""

    def __init__(self, *, server: bool = False) -> None:
        self.recorder = SpanRecorder()
        self.server = server
        #: fleet request id -> when its QueryShardCoordinator.execute began
        self.admitted: dict[str, float] = {}
        self._handled = itertools.count(1)

    def _mark_admission(self, recorder, span, args, result) -> None:
        for item in result.items.values():
            self.admitted[item.request_id] = span.start

    def install(self) -> None:
        wrap = self.recorder.wrap
        wrap(query_executor, "parse_s2sql", "query.parse")
        wrap(QueryPlanner, "plan", "query.plan")
        wrap(ExtractorManager, "extract", "extractor.extract")
        wrap(FlakySource, "execute_rule", "sources.partner")
        for prefix, connector in SOURCE_LAYERS.items():
            wrap(connector, "execute_rule", f"{prefix}.rule",
                 on_result=_counter(f"{prefix}.rules"))
        wrap(InstanceGenerator, "generate", "instances.generate",
             on_result=_count_entities)
        wrap(QueryResult, "serialize", "instances.serialize")
        wrap(SemanticStore, "serve", "store.serve", on_result=_count_serving)
        wrap(DeltaRefresher, "refresh", "store.refresh")
        wrap(store_delta, "fingerprint_source", "store.fingerprint")
        wrap(QueryShardCoordinator, "execute", "cluster.execute",
             on_result=self._mark_admission)
        wrap(cluster_coordinator, "run_query_item", "cluster.item",
             on_result=lambda recorder, span, args, result: recorder.count(
                 f"cluster.worker{args[0]}.items"),
             request_of=lambda args: args[1].request_id)
        wrap(S2SMiddleware, "register_attribute", "mapping.register")
        if self.server:
            def request_of(args) -> str:
                return f"server-{next(self._handled)}"

            wrap(QueryHandler, "aexecute", "server.handle",
                 request_of=request_of)
            wrap(QueryHandler, "aexecute_many", "server.handle",
                 request_of=request_of)

    def restore(self) -> None:
        self.recorder.restore()

    def reset(self) -> None:
        self.recorder.reset()
        self.admitted = {}

    def fold(self) -> dict[str, float]:
        """Raw totals (seconds and counts) of everything recorded since
        the last reset; :func:`per_layer` turns them into metrics."""
        own = self.recorder.self_times()
        inclusive = self.recorder.inclusive_times()
        totals = {f"self:{name}": seconds for name, seconds in own.items()}
        totals.update({f"incl:{name}": seconds
                       for name, seconds in inclusive.items()})
        totals.update({f"count:{name}": amount
                       for name, amount in self.recorder.counts.items()})
        totals["cluster.wait"] = sum(
            span.start - self.admitted[span.request_id]
            for span in self.recorder.spans
            if span.name == "cluster.item"
            and span.request_id in self.admitted)
        return totals


def per_layer(totals: dict[str, float], n_ops: int, *,
              fleet_workers: int = 0) -> dict[str, float]:
    """Per-operation layer costs (ms) and ratios from folded totals."""
    def ms(kind: str, name: str) -> float:
        return totals.get(f"{kind}:{name}", 0.0) * 1e3 / max(n_ops, 1)

    reads = totals.get("count:store.reads", 0.0)
    items = [totals.get(f"count:cluster.worker{worker}.items", 0.0)
             for worker in range(fleet_workers)]
    mean_items = sum(items) / len(items) if items else 0.0
    return {
        "query.parse_ms": ms("self", "query.parse"),
        "query.plan_ms": ms("self", "query.plan"),
        "extractor.extract_ms": ms("self", "extractor.extract"),
        "sources.relational.rule_ms": ms("self", "sources.relational.rule"),
        "sources.xmlstore.rule_ms": ms("self", "sources.xmlstore.rule"),
        "sources.web.rule_ms": ms("self", "sources.web.rule"),
        "sources.textfiles.rule_ms": ms("self", "sources.textfiles.rule"),
        "sources.partner_wait_ms": ms("self", "sources.partner"),
        "instances.generate_ms": ms("self", "instances.generate"),
        "instances.serialize_ms": ms("self", "instances.serialize"),
        "store.serve_ms": ms("self", "store.serve"),
        "store.hit_ratio": (totals.get("count:store.hits", 0.0) / reads
                            if reads else 0.0),
        "store.refresh_ms": ms("self", "store.refresh"),
        "store.fingerprint_ms": ms("self", "store.fingerprint"),
        "cluster.execute_ms": ms("self", "cluster.execute"),
        "cluster.item_ms": ms("incl", "cluster.item"),
        "cluster.wait_ms": totals.get("cluster.wait", 0.0) * 1e3
        / max(n_ops, 1),
        "cluster.shard_skew": (max(items) / mean_items if mean_items
                               else 0.0),
        "server.handle_ms": ms("incl", "server.handle"),
    }
