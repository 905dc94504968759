"""Trace and counter parity across the serial, thread and asyncio engines.

The equivalence suites compare answers and health; this one compares
what an operator sees.  One FakeClock world runs on every engine: a
primary fails twice, trips its breaker and is served by its replica
from then on; the replica itself fails once and recovers on retry; the
other primaries are healthy.  That covers retry, backoff, breaker-open
and failover spans.

Every fault is scripted per source, and every fake-clock advance (the
backoff sleeps) happens inside the one faulty source's chain, so the
thread and asyncio engines see the same times as the serial one however
their workers interleave; the breaker cooldown outlasts the run and
backoff has no jitter.  Under every engine the span multiset below the
extraction span, the per-source ``retries_total`` /
``breaker_rejections_total`` / ``failovers_total`` counters and
``QueryResult.health`` must be identical.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario

ENGINES = ("serial", "thread", "asyncio")
QUERY = "SELECT product"
COUNTERS = ("retries_total", "breaker_rejections_total", "failovers_total")

#: Per-source fault scripts (True fails that call, then healthy), keyed
#: by organization index; ``None`` leaves the source unwrapped.
PRIMARY_SCRIPTS = {0: [True, True]}
REPLICA_SCRIPTS = {0: [True]}


def parity_world(mode: str):
    clock = FakeClock()
    scenario = B2BScenario(n_sources=3, n_products=6, seed=7)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0,
                          jitter="none"),
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=1e6),
        clock=clock)
    metrics = MetricsRegistry()
    s2s = scenario.build_middleware(resilience=config, concurrency=mode,
                                    metrics=metrics, tracer=Tracer(clock))
    replica_ids = scenario.add_replicas(s2s)
    for org in scenario.organizations:
        for source_id, scripts in ((org.source_id, PRIMARY_SCRIPTS),
                                   (replica_ids[org.source_id],
                                    REPLICA_SCRIPTS)):
            if org.index in scripts:
                s2s.source_repository.register(
                    FlakySource(s2s.source_repository.get(source_id),
                                failure_rate=0.0, seed=org.index,
                                failure_plan=scripts[org.index],
                                clock=clock),
                    replace=True)
    return s2s, metrics


def span_multiset(result) -> Counter:
    """Name and attributes of every span below the extraction span."""
    extract = result.trace.find("extract")
    assert extract is not None
    return Counter(
        (span.name, span.status, tuple(sorted(
            (key, repr(value)) for key, value in span.attributes.items())))
        for span in extract.walk() if span is not extract)


def counters(metrics: MetricsRegistry) -> dict:
    snapshot = {}
    for name in COUNTERS:
        metric = metrics.get(name)
        snapshot[name] = (sorted(metric.series()) if metric is not None
                          else [])
    return snapshot


def observe(mode: str) -> list:
    """Two queries: the first trips the breaker, the second meets it
    already open."""
    s2s, metrics = parity_world(mode)
    try:
        observed = []
        for _ in range(2):
            result = s2s.query(QUERY)
            observed.append((span_multiset(result), result.health))
        observed.append(counters(metrics))
        return observed
    finally:
        s2s.close()


@pytest.fixture(scope="module")
def serial_view():
    return observe("serial")


def test_the_world_exercises_every_policy_branch(serial_view):
    first_spans, first_health = serial_view[0]
    names = Counter()
    for (name, _status, _attrs), count in first_spans.items():
        names[name] += count
    for name in ("source", "entry", "attempt", "backoff", "failover",
                 "breaker-open"):
        assert names[name] > 0, name
    tripped = [h for h in first_health.values() if h.breaker_trips]
    assert len(tripped) == 1 and tripped[0].failovers > 0
    totals = {name: sum(value for _labels, value in series)
              for name, series in serial_view[-1].items()}
    assert all(totals[name] > 0 for name in COUNTERS), totals


@pytest.mark.parametrize("mode", [m for m in ENGINES if m != "serial"])
def test_engine_matches_serial(mode, serial_view):
    view = observe(mode)
    for (spans, health), (serial_spans, serial_health) in zip(
            view[:-1], serial_view[:-1]):
        assert spans == serial_spans
        assert health == serial_health
    assert view[-1] == serial_view[-1]
