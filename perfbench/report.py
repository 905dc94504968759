"""Metric names, units, summary statistics and the result line."""

from __future__ import annotations

import json
import resource
import statistics

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_per_s": "1/s",
    "batch_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "max_rate_qps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "query.parse_ms": "ms",
    "query.plan_ms": "ms",
    "query.queries_per_scan": "count",
    "extractor.extract_ms": "ms",
    "extractor.rules": "count",
    "sources.relational.rule_ms": "ms",
    "sources.xmlstore.rule_ms": "ms",
    "sources.web.rule_ms": "ms",
    "sources.textfiles.rule_ms": "ms",
    "sources.partner_wait_ms": "ms",
    "sources.relational.rules": "count",
    "sources.xmlstore.rules": "count",
    "sources.web.rules": "count",
    "sources.textfiles.rules": "count",
    "sources.relational.rows_scanned": "count",
    "sources.web.fetches": "count",
    "instances.generate_ms": "ms",
    "instances.entities": "count",
    "instances.serialize_ms": "ms",
    "store.serve_ms": "ms",
    "store.hit_ratio": "ratio",
    "store.refresh_ms": "ms",
    "store.fingerprint_ms": "ms",
    "store.refreshed_per_write": "count",
    "cluster.execute_ms": "ms",
    "cluster.item_ms": "ms",
    "cluster.wait_ms": "ms",
    "cluster.shard_skew": "ratio",
    "cluster.worker_restarts": "count",
    "server.handle_ms": "ms",
    "server.wire_ms": "ms",
    "server.rejected": "count",
    "mapping.register_ms": "ms",
    "loadgen.lag_p90_ms": "ms",
    "trace.overhead_pct": "%",
}


def quantile(values: list[float], share: float) -> float:
    """The ``share`` quantile (0 < share < 1), linearly interpolated."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcomes:
    """Latency samples per operation kind, attempt/failure counts and the
    total time operations took."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0

    def add(self, kind: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.busy += seconds
        if ok:
            self.samples.setdefault(kind, []).append(seconds * 1e3)
        else:
            self.failed += 1

    def ms(self, kind: str) -> list[float]:
        return self.samples.get(kind, [])


def emit(workload: str, traced: bool, correct: bool, attempted: int,
         failed: int, metrics: dict[str, float], details: list[str]) -> None:
    """Print a readable report, then the result line (always last)."""
    units = PER_LAYER if traced else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for line in details:
        print(f"# {line}")
    print(f"# {workload}: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / max(attempted, 1):.6f}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
