"""Interleaved fleets end to end: concurrency, chaos, sharing, the wire.

The unit scheduler suite (``tests/core/test_fleet_scheduler``) drives
scripted extractions; this file runs *real worlds* through the
interleaving coordinator: two genuinely concurrent queries surviving a
worker kill with entity-for-entity correct answers, one shared fleet
serving several tenants' middlewares, a query and a durable ingest run
interleaved on one fleet, the STATUS fleet block over the wire, and
fleet-quota pushback arriving at the client as the same
:class:`ServerBusyError` the server's own admission control produces.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.clock import FakeClock, SystemClock
from repro.config import ConcurrencyConfig, FleetConfig, ResilienceConfig
from repro.core.cluster import FleetRequest, QueryShardCoordinator
from repro.core.ingest import STAGE, IngestJournal, IngestTarget
from repro.core.query.parser import parse_s2sql
from repro.core.resilience import RetryPolicy
from repro.errors import FleetQuotaExceeded, S2SError
from repro.obs import MetricsRegistry
from repro.server import (S2SClient, S2SServer, ServerBusyError,
                          ServerThread, Tenant, TenantRegistry)
from repro.sources.flaky import (FlakySource, KillableWorker, WorkerCrashed,
                                 WorkerFault)
from repro.workloads import B2BScenario
from tests.core.test_batch_equivalence import result_key


def chaos_world(fail_plan, *, workers=2):
    """A sharded world where one source's extraction kills its worker
    (same construction as the equivalence suite's chaos worlds)."""
    clock = FakeClock()
    metrics = MetricsRegistry()
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter="none"),
        breaker=None, failover=False, clock=clock)
    scenario = B2BScenario(n_sources=4, n_products=16, seed=7)
    s2s = scenario.build_middleware(
        resilience=config, metrics=metrics,
        concurrency=ConcurrencyConfig.sharded(workers))
    victim = scenario.organizations[0].source_id
    s2s.source_repository.register(
        FlakySource(s2s.source_repository.get(victim), failure_rate=0.0,
                    failure_plan=fail_plan, error_factory=WorkerCrashed,
                    clock=clock),
        replace=True)
    return s2s, metrics


class TestConcurrentChaos:
    def test_two_concurrent_queries_survive_a_worker_kill(self):
        """The satellite bar: two queries share a 2-worker fleet, one
        worker dies mid-flight, and *both* queries come back
        entity-for-entity equal to a never-failed serial run."""
        reference = B2BScenario(n_sources=4, n_products=16,
                                seed=7).build_middleware()
        with reference:
            expected = result_key(reference.query("SELECT product"))
        s2s, metrics = chaos_world(fail_plan=[True])
        boxes: list[dict] = [{}, {}]

        def run(box):
            try:
                box["result"] = s2s.query("SELECT product")
            except Exception as exc:
                box["error"] = exc

        with s2s:
            threads = [threading.Thread(target=run, args=(box,))
                       for box in boxes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            for box in boxes:
                assert "result" in box, box.get("error")
                assert result_key(box["result"]) == expected
            assert metrics.counter("worker_restarts_total").total() >= 1


class TestSharedFleet:
    def _shared_pair(self, fleet_config: FleetConfig):
        shared = QueryShardCoordinator(clock=SystemClock(),
                                       fleet=fleet_config,
                                       metrics=MetricsRegistry())
        worlds = {}
        for name, seed in (("acme", 7), ("globex", 11)):
            scenario = B2BScenario(n_sources=3, n_products=8, seed=seed)
            s2s = scenario.build_middleware(
                concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
            s2s.attach_fleet(shared, tenant=name)
            worlds[name] = (scenario, s2s)
        return shared, worlds

    def test_one_fleet_answers_every_tenant(self):
        shared, worlds = self._shared_pair(FleetConfig(n_workers=2))
        try:
            for name, (scenario, s2s) in worlds.items():
                assert s2s.manager.fleet is shared
                with scenario.build_middleware() as twin:
                    assert result_key(s2s.query("SELECT product")) == \
                        result_key(twin.query("SELECT product"))
            snap = shared.snapshot()
            assert snap["shared"] is True
            assert snap["tenants"] == ["acme", "globex"]
            # Tenant middlewares closing must not kill the shared fleet.
            for _scenario, s2s in worlds.values():
                s2s.close()
            assert shared.started
        finally:
            shared.shutdown()
        assert not shared.started

    def test_binding_survives_a_mapping_reload(self):
        shared, worlds = self._shared_pair(FleetConfig(n_workers=2))
        try:
            scenario, s2s = worlds["acme"]
            before = result_key(s2s.query("SELECT product"))
            by_id = {org.source_id: org for org in scenario.organizations}
            s2s.load_mapping(s2s.dump_mapping(),
                             lambda sid, info: scenario.connector(by_id[sid]))
            assert s2s.manager.fleet is shared  # re-attached, not forked
            assert result_key(s2s.query("SELECT product")) == before
        finally:
            for _scenario, s2s in worlds.values():
                s2s.close()
            shared.shutdown()


def wait_for(predicate, timeout: float = 10.0) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _GatedSource(FlakySource):
    """A fault-free source whose rules wait for a gate to open."""

    def __init__(self, inner, gate: threading.Event) -> None:
        super().__init__(inner, failure_rate=0.0)
        self.gate = gate

    def execute_rule(self, rule: str) -> list[str]:
        assert self.gate.wait(timeout=60.0)
        return super().execute_rule(rule)


class TestMixedRequestKinds:
    def test_query_and_ingest_interleave_on_one_fleet(self, tmp_path,
                                                      monkeypatch):
        """A query and an ingest run in flight on one 2-worker fleet at
        once; a worker dies mid-STAGE on an ingest job.  The query's
        answer is the in-process answer, the ingest store is the
        fault-free store, and each request resolves exactly once."""
        def world():
            return B2BScenario(n_sources=4, n_products=8, seed=7)

        with world().build_middleware(store=True) as reference:
            reference.ingest("SELECT product",
                             journal_dir=str(tmp_path / "reference"))
            expected_store = sorted(
                reference.store.export("ntriples").splitlines())
            expected_answer = result_key(reference.query("SELECT product"))

        resolved: dict[str, int] = {}
        finish = FleetRequest.finish

        def counting_finish(request):
            resolved[request.request_id] = \
                resolved.get(request.request_id, 0) + 1
            finish(request)

        monkeypatch.setattr(FleetRequest, "finish", counting_finish)

        clock = FakeClock()
        metrics = MetricsRegistry()
        # A huge heartbeat timeout: the gated query worker is silent on
        # purpose and must not be mistaken for a dead one.
        fleet_config = FleetConfig(n_workers=2, heartbeat_timeout=1e6)
        ingest_world = world().build_middleware(store=True)
        journal_dir = str(tmp_path / "journal")
        coordinator = ingest_world.ingest_coordinator(
            journal_dir, clock=clock, metrics=metrics, fleet=fleet_config)
        fleet = QueryShardCoordinator(
            clock=clock, fleet=fleet_config,
            context_factory=coordinator.worker_context, metrics=metrics)
        victim = sorted(ingest_world.manager.sources.ids())[0]
        fleet.killable = KillableWorker(
            [WorkerFault("kill", source_id=victim, stage=STAGE)])

        gate = threading.Event()
        query_world = world().build_middleware(
            concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
        gated = sorted(query_world.source_repository.ids())[-1]
        query_world.source_repository.register(
            _GatedSource(query_world.source_repository.get(gated), gate),
            replace=True)
        query_world.attach_fleet(fleet, tenant="query")
        plan = ingest_world.query_handler.planner.plan(
            parse_s2sql("SELECT product"))
        target = IngestTarget(plan.class_name,
                              list(plan.required_attributes))
        boxes: dict[str, dict] = {"query": {}, "ingest": {}}

        def run(box, call):
            try:
                box["result"] = call()
            except Exception as exc:  # surfaced by the asserts below
                box["error"] = exc

        try:
            query = threading.Thread(target=run, args=(
                boxes["query"], lambda: query_world.query("SELECT product")))
            query.start()
            # The query holds a worker on the gate, so the ingest run
            # is admitted while the query is still in flight.
            assert wait_for(lambda: fleet.snapshot()["inflight_requests"])
            ingest = threading.Thread(target=run, args=(
                boxes["ingest"], lambda: coordinator.run_on(fleet,
                                                            [target])))
            ingest.start()
            ingest.join(timeout=60.0)
            assert not ingest.is_alive()
            assert fleet.snapshot()["inflight_requests"] == 1
            gate.set()
            query.join(timeout=60.0)
            assert not query.is_alive()
        finally:
            gate.set()
            fleet.shutdown()
            ingest_world.close()
            query_world.close()

        assert "result" in boxes["query"], boxes["query"].get("error")
        assert result_key(boxes["query"]["result"]) == expected_answer
        report = boxes["ingest"].get("result")
        assert report is not None, boxes["ingest"].get("error")
        assert not report.aborted and report.dead == 0
        assert (report.completed, report.worker_restarts,
                report.released) == (4, 1, 1)
        assert sorted(ingest_world.store.export(
            "ntriples").splitlines()) == expected_store
        assert metrics.counter("worker_restarts_total").total() == 1
        claims = [record["job"]["job_id"]
                  for record in IngestJournal(journal_dir).records()
                  if record.get("event") == "claim"]
        killed = [job_id for job_id in claims
                  if job_id.rsplit(":", 1)[-1] == victim]
        assert len(killed) == 2
        assert sorted(resolved.values()) == [1, 1]

    def test_a_failing_ingest_run_leaves_the_fleet_serving(
            self, tmp_path, monkeypatch):
        """The store write raises on the scheduler thread: the ingest
        caller gets the error, and the shared fleet keeps answering
        queries."""
        def world():
            return B2BScenario(n_sources=3, n_products=6, seed=11)

        with world().build_middleware() as reference:
            expected_answer = result_key(reference.query("SELECT product"))
        fleet_config = FleetConfig(n_workers=2)
        fleet = QueryShardCoordinator(clock=FakeClock(), fleet=fleet_config)
        ingest_world = world().build_middleware(store=True)
        coordinator = ingest_world.ingest_coordinator(
            str(tmp_path / "journal"), fleet=fleet_config)
        fleet.register_tenant("ingest", coordinator.worker_context)
        query_world = world().build_middleware(
            concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
        query_world.attach_fleet(fleet, tenant="query")

        def broken_upsert(*_args, **_kwargs):
            raise S2SError("the store refused the slice")

        monkeypatch.setattr(ingest_world.store, "upsert", broken_upsert)
        plan = ingest_world.query_handler.planner.plan(
            parse_s2sql("SELECT product"))
        target = IngestTarget(plan.class_name,
                              list(plan.required_attributes))
        box: dict = {}

        def run_ingest():
            try:
                coordinator.run_on(fleet, [target])
            except S2SError as exc:
                box["error"] = exc

        try:
            ingest = threading.Thread(target=run_ingest, daemon=True)
            ingest.start()
            ingest.join(timeout=60.0)
            assert not ingest.is_alive(), "the ingest run hung"
            assert "refused the slice" in str(box.get("error"))
            assert result_key(
                query_world.query("SELECT product")) == expected_answer
            assert fleet.snapshot()["inflight_requests"] == 0
        finally:
            fleet.shutdown()
            ingest_world.close()
            query_world.close()


@pytest.fixture()
def fleet_server():
    """A live server whose two tenants share one 2-worker fleet."""
    fleet_config = FleetConfig(n_workers=2, tenant_quota=4)
    shared = QueryShardCoordinator(clock=SystemClock(), fleet=fleet_config,
                                   metrics=MetricsRegistry())
    registry = TenantRegistry()
    for name, seed in (("acme", 7), ("globex", 11)):
        s2s = B2BScenario(n_sources=3, n_products=8,
                          seed=seed).build_middleware(
            concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
        s2s.attach_fleet(shared, tenant=name)
        registry.add(Tenant(name, s2s, owned=True))
    thread = ServerThread(S2SServer(registry))
    host, port = thread.start()
    yield {"host": host, "port": port, "registry": registry}
    thread.stop()
    shared.shutdown()


class TestFleetOverTheWire:
    def test_status_reply_carries_the_fleet_block(self, fleet_server):
        with S2SClient(fleet_server["host"], fleet_server["port"],
                       tenant="acme") as client:
            client.query("SELECT product")
            status = client.status()
        engine = status["middleware"]["engine"]
        assert engine["mode"] == "sharded"
        fleet = engine["fleet"]
        assert fleet["shared"] is True
        assert fleet["tenants"] == ["acme", "globex"]
        assert fleet["workers"] == 2
        assert fleet["tenant_quota"] == 4
        assert "ready_queue_depth" in fleet

    def test_quota_rejection_becomes_retry_after(self, fleet_server):
        tenant = fleet_server["registry"].tenants["acme"]

        async def refuse(*_args, **_kwargs):
            raise FleetQuotaExceeded("tenant 'acme' is at its in-flight "
                                     "shard quota (4)", tenant="acme",
                                     scope="tenant", retry_after=0.25)

        original = tenant.middleware.aquery
        tenant.middleware.aquery = refuse
        try:
            with S2SClient(fleet_server["host"], fleet_server["port"],
                           tenant="acme") as client:
                with pytest.raises(ServerBusyError) as info:
                    client.query("SELECT product")
            assert info.value.retry_after == pytest.approx(0.25)
        finally:
            tenant.middleware.aquery = original
