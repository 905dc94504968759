"""live_mixed and store_churn: one in-process client in a closed loop.

Each workload repeats a fixed cycle of operations whose read templates
are shuffled by the seed.  An operation is timed without its answer
check; the check runs right after it and a failed check counts the
operation as failed.
"""

from __future__ import annotations

import gc
import random
import sys
import time
import traceback
from dataclasses import dataclass

from repro.obs import DEFAULT_REGISTRY

from .layers import COUNTERS, LayerTrace, per_layer, substrate_counts
from .report import Outcomes, median, peak_rss_mb, quantile
from .spans import set_request, reset_request
from .speed import SpeedReference
from .world import (BATCH_CLASSES, LIVE_SHAPE, SELECTIVITY, AnswerChecker,
                    apply_write, build_scenario, read_templates,
                    write_targets)

SETUP_REPS = 7
#: Reference kernel samples taken before each set-up.
SETUP_SAMPLES = 20
#: Operations in the traced run's counting pass (two cycles of either
#: workload).
COUNT_OPS = 20


@dataclass
class World:
    """One set-up middleware plus what the checks need."""

    scenario: object
    s2s: object
    templates: dict
    checker: AnswerChecker
    targets: list
    writes: int = 0
    refreshed: int = 0
    last_written: str = ""

    def close(self) -> None:
        self.s2s.close()


class ClosedLoop:
    """Shared driver; subclasses define the cycle and the operations."""

    name = ""
    store = False
    #: read p90 above which max_rate_qps reports that no rate was met
    latency_limit_ms = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- set-up ---------------------------------------------------------

    def setup(self, speed: SpeedReference) -> tuple[World, float]:
        """Generate the sources, then time registration through the first
        answered read."""
        scenario = build_scenario(LIVE_SHAPE, self.seed)
        templates = read_templates(scenario, self.seed)
        # Earlier set-ups' garbage would otherwise be collected inside
        # this one's timing.
        gc.collect()
        speed.sample(SETUP_SAMPLES)
        started = time.perf_counter()
        s2s = scenario.build_middleware(store=self.store)
        if self.store:
            s2s.materialize(templates["all"].text)
        first = self.read(s2s, templates["all"])
        seconds = time.perf_counter() - started
        world = World(scenario, s2s, templates, AnswerChecker(scenario),
                      write_targets(scenario, self.seed))
        if not self.check_read(world, templates["all"], first):
            raise RuntimeError(f"{self.name}: wrong first answer")
        return world, seconds

    # -- operations -----------------------------------------------------

    def read(self, s2s, template):
        return s2s.query(template.text)

    def check_read(self, world: World, template, result) -> bool:
        return (result.store_hit == self.store
                and world.checker.check(template, result))

    def write(self, world: World, org, country: str):
        apply_write(world.scenario, org, country)

    def check_write(self, world: World, org, payload) -> bool:
        return True

    def perform(self, world: World, op: tuple):
        kind = op[0]
        if kind == "read":
            return self.read(world.s2s, world.templates[op[1]])
        if kind == "batch":
            return self.batch(world)
        org = world.targets[world.writes % len(world.targets)]
        country = f"ZZ{world.writes:05d}"
        payload = self.write(world, org, country)
        world.writes += 1
        world.checker.countries[org.source_id] = country
        world.last_written = org.source_id
        return org, payload

    def batch(self, world: World):
        return world.s2s.query_many(
            [world.templates[name].text for name in BATCH_CLASSES])

    def verify(self, world: World, op: tuple, payload) -> bool:
        kind = op[0]
        if kind == "read":
            ok = self.check_read(world, world.templates[op[1]], payload)
            if len(op) > 2:
                ok = ok and world.checker.check_written(payload,
                                                        world.last_written)
            return ok
        if kind == "batch":
            return len(payload) == len(BATCH_CLASSES) and all(
                self.check_read(world, world.templates[name], result)
                for name, result in zip(BATCH_CLASSES, payload))
        org, result = payload
        return self.check_write(world, org, result)

    def final_check(self, world: World) -> bool:
        """Every written source reads back with its latest value."""
        result = world.s2s.query(world.templates["all"].text)
        return all(world.checker.check_written(result, source_id)
                   for source_id in world.checker.countries)

    # -- loop -----------------------------------------------------------

    def cycle(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def operations(self):
        rng = random.Random(f"ops-{self.name}-{self.seed}")
        while True:
            yield from self.cycle(rng)

    def run_ops(self, world: World, ops, speed: SpeedReference, *,
                seconds: float | None = None, count: int | None = None
                ) -> tuple[Outcomes, Outcomes]:
        """Run operations for ``seconds`` or ``count`` operations, each
        right after one reference kernel sample.  Returns the outcomes
        scaled to nominal machine speed and the unscaled ones."""
        deadline = (time.perf_counter() + seconds if seconds is not None
                    else None)
        timed = []
        while (time.perf_counter() < deadline if deadline is not None
               else len(timed) < count):
            op = next(ops)
            index = speed.sample()
            request = set_request(f"{self.name}-{len(timed)}")
            op_started = time.perf_counter()
            try:
                payload = self.perform(world, op)
                elapsed = time.perf_counter() - op_started
                ok = self.verify(world, op, payload)
            except Exception:
                elapsed = time.perf_counter() - op_started
                traceback.print_exc(file=sys.stderr)
                ok = False
            finally:
                reset_request(request)
            if not ok:
                print(f"{self.name}: operation {op} failed its check",
                      file=sys.stderr)
            timed.append((op[0], elapsed, ok, index))
        scaled, raw = Outcomes(), Outcomes()
        for kind, elapsed, ok, index in timed:
            raw.add(kind, elapsed, ok)
            scaled.add(kind, elapsed / speed.factor_at(index), ok)
        return scaled, raw

    # -- runs -----------------------------------------------------------

    def end_to_end(self, outcomes: Outcomes, setups: list[float]
                   ) -> dict[str, float]:
        reads = outcomes.ms("read")
        p90 = quantile(reads, 0.9)
        completed = outcomes.attempted - outcomes.failed
        return {
            "setup_s": median(setups),
            "query_p50_ms": median(reads),
            "query_p90_ms": p90,
            "query_per_s": len(reads) / outcomes.busy,
            "batch_p50_ms": median(outcomes.ms("batch")),
            "write_p50_ms": median(outcomes.ms("write")),
            "write_p90_ms": quantile(outcomes.ms("write"), 0.9),
            "max_rate_qps": (completed / outcomes.busy
                             if p90 <= self.latency_limit_ms else 0.0),
            "peak_rss_mb": peak_rss_mb(),
        }

    def run_untraced(self, seconds: float, *, smoke: bool):
        speed = SpeedReference()
        setups, raw_setups = [], []
        world = None
        for _ in range(1 if smoke else SETUP_REPS):
            if world is not None:
                world.close()
            world, setup_seconds = self.setup(speed)
            raw_setups.append(setup_seconds)
            setups.append(setup_seconds / speed.recent_factor(SETUP_SAMPLES))
        try:
            outcomes, raw = self.run_ops(world, self.operations(), speed,
                                         seconds=seconds)
            correct = self.final_check(world)
        finally:
            world.close()
        metrics = self.end_to_end(outcomes, setups)
        details = [f"{kind}: {len(samples)} samples"
                   for kind, samples in sorted(outcomes.samples.items())]
        details.append(f"latency limit {self.latency_limit_ms:g} ms on "
                       f"query_p90_ms; {raw.busy:.3f} s of operations")
        details.append("unscaled: " + ", ".join(
            f"{name}={value:.6g}"
            for name, value in self.end_to_end(raw, raw_setups).items()))
        return correct, outcomes, metrics, details

    def run_traced(self, seconds: float, *, spans_path):
        trace = LayerTrace()
        speed = SpeedReference()
        trace.install()
        try:
            world, _ = self.setup(speed)
            register = trace.fold().get("incl:mapping.register", 0.0)
            setup_factor = speed.recent_factor(SETUP_SAMPLES)
            ops = self.operations()
            counters = self.counting_pass(world, ops, speed, trace)
        finally:
            trace.restore()
        try:
            untraced, _ = self.run_ops(world, ops, speed,
                                       seconds=seconds / 2)
            trace.reset()
            batches_before = _histogram(DEFAULT_REGISTRY, "queries_per_scan")
            trace.install()
            try:
                traced, traced_raw = self.run_ops(world, ops, speed,
                                                  seconds=seconds / 2)
            finally:
                trace.restore()
            batches_after = _histogram(DEFAULT_REGISTRY, "queries_per_scan")
            correct = self.final_check(world)
        finally:
            world.close()
        trace.recorder.dump(spans_path)
        factor = traced_raw.busy / traced.busy
        metrics = {name: value / factor if name.endswith("_ms") else value
                   for name, value in per_layer(trace.fold(),
                                                traced.attempted).items()}
        metrics.update(counters)
        scans = batches_after[1] - batches_before[1]
        before, after = median(untraced.ms("read")), median(traced.ms("read"))
        metrics.update({
            "query.queries_per_scan": ((batches_after[0] - batches_before[0])
                                       / scans if scans else 0.0),
            "cluster.worker_restarts": _counter(DEFAULT_REGISTRY,
                                                "worker_restarts_total"),
            "server.wire_ms": 0.0,
            "server.rejected": 0.0,
            "mapping.register_ms": register * 1e3 / setup_factor,
            "loadgen.lag_p90_ms": 0.0,
            "trace.overhead_pct": ((after / before - 1.0) * 100
                                   if before else 0.0),
        })
        outcomes = Outcomes()
        outcomes.attempted = untraced.attempted + traced.attempted
        outcomes.failed = untraced.failed + traced.failed
        details = [f"spans written to {spans_path}",
                   f"traced operations: {traced.attempted}",
                   f"traced half ran {factor:.4f}x slower than nominal"]
        return correct, outcomes, metrics, details

    def counting_pass(self, world: World, ops, speed: SpeedReference,
                      trace: LayerTrace) -> dict[str, float]:
        """Run the first COUNT_OPS operations and return the layer
        counts; they depend on the seed only."""
        trace.reset()
        before = substrate_counts(world.scenario)
        writes, refreshed = world.writes, world.refreshed
        outcomes, _ = self.run_ops(world, ops, speed, count=COUNT_OPS)
        if outcomes.failed:
            raise RuntimeError(f"{self.name}: counting pass answers wrong")
        counts = trace.recorder.counts
        result = {name: counts.get(name, 0.0) for name in COUNTERS}
        for name, value in substrate_counts(world.scenario).items():
            result[name] = value - before[name]
        result["store.refreshed_per_write"] = (
            (world.refreshed - refreshed) / (world.writes - writes)
            if world.writes > writes else 0.0)
        return result


class LiveMixed(ClosedLoop):
    """Live extraction on the serial engine; every answer rendered as OWL."""

    name = "live_mixed"
    latency_limit_ms = 1000.0

    def read(self, s2s, template):
        result = s2s.query(template.text)
        result.serialize("owl")
        return result

    def batch(self, world: World):
        results = super().batch(world)
        for result in results:
            result.serialize("owl")
        return results

    def cycle(self, rng: random.Random) -> list[tuple]:
        reads = list(SELECTIVITY)
        rng.shuffle(reads)
        # Writes cost well under a millisecond here, so four per cycle
        # buy enough write samples for a steady p90 at almost no time.
        return [("read", reads[0]), ("write",), ("read", reads[1]),
                ("write",), ("read", reads[2]), ("batch",), ("write",),
                ("read", reads[3]), ("write",), ("read", reads[4])]


class StoreChurn(ClosedLoop):
    """Store-served reads; each write re-extracts its source by delta."""

    name = "store_churn"
    store = True
    latency_limit_ms = 100.0

    def write(self, world: World, org, country: str):
        apply_write(world.scenario, org, country)
        return world.s2s.refresh_store()

    def check_write(self, world: World, org, payload) -> bool:
        extracted = [source_id for result in payload
                     for source_id in result.extracted_sources]
        world.refreshed += len(extracted)
        return extracted == [org.source_id]

    def cycle(self, rng: random.Random) -> list[tuple]:
        rest = ["none", "low", "mid", "high", "all", "mid"]
        rng.shuffle(rest)
        return [("write",), ("read", "all", "after_write"),
                ("read", rest[0]), ("read", rest[1]), ("batch",),
                ("read", rest[2]), ("read", rest[3]), ("read", rest[4]),
                ("batch",), ("read", rest[5])]


def _counter(registry, name: str) -> float:
    metric = registry.get(name)
    return metric.total() if metric is not None else 0.0


def _histogram(registry, name: str) -> tuple[float, int]:
    metric = registry.get(name)
    return (metric.sum(), metric.count()) if metric is not None else (0.0, 0)
