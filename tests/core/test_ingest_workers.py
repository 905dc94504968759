"""Ingest workers: the stage waterfall, the two pools, picklability.

The subprocess pool's whole contract is "everything crossing the
boundary pickles" — the picklability tests here are what keeps that
contract honest without paying a process spawn per test.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.clock import FakeClock
from repro.config import FleetConfig
from repro.core.cluster.pool import SubprocessWorkerPool, ThreadWorkerPool
from repro.core.ingest import (CLEAN, EXTRACT, MATERIALIZE, STAGE,
                               IngestJob, StagedBatch, UpsertPayload,
                               WorkItem, WorkerContext, execute_stage,
                               job_id_for, run_item, worker_loop)
from repro.core.query.parser import parse_s2sql
from repro.errors import TransientSourceError
from repro.sources.flaky import (FlakySource, KillableWorker, WorkerCrashed,
                                 WorkerFault)
from repro.workloads import B2BScenario


@pytest.fixture
def world():
    scenario = B2BScenario(n_sources=4, n_products=6, seed=3)
    s2s = scenario.build_middleware(store=True)
    plan = s2s.query_handler.planner.plan(parse_s2sql("SELECT product"))
    schema = s2s.manager.obtain_extraction_schema(
        list(plan.required_attributes))
    return scenario, s2s, plan, schema


def make_context(s2s, *, killable=None, with_extractors=True):
    return WorkerContext(s2s.manager.sources, s2s.query_handler.generator,
                         killable=killable,
                         extractors=(s2s.manager.extractors
                                     if with_extractors else None))


def make_item(plan, schema, source_id):
    attributes = frozenset(str(p) for p in plan.required_attributes)
    job = IngestJob(job_id_for(plan.class_name, attributes, source_id),
                    source_id, plan.class_name, attributes)
    return job, WorkItem(job.to_dict(), list(schema.by_source[source_id]))


def drain_until(pool, kind, timeout=10.0):
    """Collect pool events until one of ``kind`` arrives (real time)."""
    collected = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for event in pool.events(0.05):
            collected.append(event)
            if event["kind"] == kind:
                return collected
    raise AssertionError(f"no {kind!r} event within {timeout}s: {collected}")


class TestStageWaterfall:
    def test_full_waterfall_produces_an_upsert_payload(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        job, item = make_item(plan, schema, source_id)
        ctx = make_context(s2s)
        payload = None
        for stage in (EXTRACT, STAGE, CLEAN, MATERIALIZE):
            payload = execute_stage(stage, job, item, payload, ctx)
        assert isinstance(payload, UpsertPayload)
        assert payload.source_id == source_id
        assert payload.entities
        assert payload.fingerprint  # every demo connector fingerprints

    def test_clean_stage_merges_on_the_merge_key(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        job, item = make_item(plan, schema, source_id)
        job.merge_key = ("product.brand",)
        ctx = make_context(s2s)
        payload = execute_stage(EXTRACT, job, item, None, ctx)
        staged = execute_stage(STAGE, job, item, payload, ctx)
        before = len(staged.entities)
        cleaned = execute_stage(CLEAN, job, item, staged, ctx)
        assert len(cleaned.entities) <= before

    def test_run_item_emits_the_event_sequence(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        _job, item = make_item(plan, schema, source_id)
        events = []
        run_item(0, item, make_context(s2s), events.append)
        kinds = [(e["kind"], e.get("stage")) for e in events]
        assert kinds == [("beat", None), ("stage", EXTRACT),
                         ("stage", STAGE), ("stage", CLEAN), ("done", None)]

    def test_run_item_resumes_after_the_checkpointed_stage(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        job, item = make_item(plan, schema, source_id)
        ctx = make_context(s2s)
        extracted = execute_stage(EXTRACT, job, item, None, ctx)
        staged = execute_stage(STAGE, job, item, extracted, ctx)
        item.resume_stage = STAGE
        item.resume_payload = staged
        events = []
        run_item(0, item, ctx, events.append)
        kinds = [(e["kind"], e.get("stage")) for e in events]
        assert kinds == [("beat", None), ("stage", CLEAN), ("done", None)]

    def test_journal_claims_without_checkpoint_restart_from_extract(
            self, world):
        """The journal may say stages completed, but if no checkpoint
        survived, the only safe resume point is the top."""
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        job, item = make_item(plan, schema, source_id)
        job.stage = CLEAN
        item.job = job.to_dict()
        events = []
        run_item(0, item, make_context(s2s), events.append)
        stages = [e.get("stage") for e in events if e["kind"] == "stage"]
        assert stages == [EXTRACT, STAGE, CLEAN]

    def test_poison_fault_emits_a_non_retryable_failure(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        killable = KillableWorker([WorkerFault("poison",
                                               source_id=source_id)])
        _job, item = make_item(plan, schema, source_id)
        events = []
        run_item(0, item, make_context(s2s, killable=killable),
                 events.append)
        failed = [e for e in events if e["kind"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["retryable"] is False
        assert "poison" in failed[0]["error"]

    def test_transient_source_error_is_retryable(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]

        class DownRepository:
            def get(self, _source_id):
                raise TransientSourceError("source is down")

        _job, item = make_item(plan, schema, source_id)
        ctx = WorkerContext(DownRepository(), s2s.query_handler.generator)
        events = []
        run_item(0, item, ctx, events.append)
        failed = [e for e in events if e["kind"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["retryable"] is True

    def test_kill_fault_raises_worker_crashed_in_threads(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        killable = KillableWorker([WorkerFault("kill", source_id=source_id,
                                               stage=STAGE)])
        job, item = make_item(plan, schema, source_id)
        ctx = make_context(s2s, killable=killable)
        with pytest.raises(WorkerCrashed):
            run_item(0, item, ctx, lambda event: None)
        assert [fault.action for fault in killable.fired] == ["kill"]
        # consumed: the re-run sails through
        events = []
        run_item(0, item, ctx, events.append)
        assert events[-1]["kind"] == "done"


class TestPicklability:
    """The subprocess boundary contract, without spawning processes."""

    def round_trip(self, value):
        return pickle.loads(pickle.dumps(value))

    def test_source_repository_round_trips(self, world):
        _scenario, s2s, _plan, _schema = world
        copy = self.round_trip(s2s.manager.sources)
        assert copy.ids() == s2s.manager.sources.ids()

    def test_flaky_source_keeps_fault_state(self, world):
        scenario, _s2s, _plan, _schema = world
        inner = scenario.connector(scenario.organizations[0])
        flaky = FlakySource(inner, failure_plan=[True, False], seed=5)
        copy = self.round_trip(flaky)
        assert copy.source_id == flaky.source_id
        assert copy._plan == [True, False]

    def test_killable_worker_keeps_its_fault_plan(self):
        killable = KillableWorker([WorkerFault("kill", source_id="db_0")])
        copy = self.round_trip(killable)
        assert [fault.action for fault in copy.faults] == ["kill"]
        copy.schedule(WorkerFault("poison"))  # lock was re-created
        assert len(copy.faults) == 2

    def test_worker_context_drops_extractors_and_rebuilds(self, world):
        _scenario, s2s, _plan, _schema = world
        ctx = make_context(s2s)
        copy = self.round_trip(ctx)
        assert copy.extractors is None  # transform lambdas don't pickle
        assert copy.registry() is copy.registry()  # rebuilt once, cached

    def test_work_item_with_real_entries_round_trips(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        _job, item = make_item(plan, schema, source_id)
        copy = self.round_trip(item)
        assert len(copy.entries) == len(item.entries)
        assert copy.job["job_id"] == item.job["job_id"]

    def test_fake_clock_round_trips(self):
        clock = FakeClock()
        clock.advance(42.0)
        assert self.round_trip(clock).monotonic() == clock.monotonic()

    def test_staged_batch_payload_round_trips(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        job, item = make_item(plan, schema, source_id)
        ctx = make_context(s2s)
        extracted = execute_stage(EXTRACT, job, item, None, ctx)
        staged = execute_stage(STAGE, job, item, extracted, ctx)
        copy = self.round_trip(staged)
        assert isinstance(copy, StagedBatch)
        assert len(copy.entities) == len(staged.entities)


class TestThreadWorkerPool:
    def test_submit_and_collect_done_event(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        pool = ThreadWorkerPool(make_context(s2s), n_workers=2,
                                loop=worker_loop)
        pool.start()
        try:
            _job, item = make_item(plan, schema, source_id)
            pool.submit(0, item)
            events = drain_until(pool, "done")
            assert events[-1]["payload"].entities
        finally:
            pool.shutdown()

    def test_killed_worker_goes_dead_and_restart_revives_it(self, world):
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        killable = KillableWorker([WorkerFault("kill",
                                               source_id=source_id)])
        pool = ThreadWorkerPool(make_context(s2s, killable=killable),
                                n_workers=1, loop=worker_loop)
        pool.start()
        try:
            _job, item = make_item(plan, schema, source_id)
            pool.submit(0, item)
            deadline = time.monotonic() + 10.0
            while pool.alive(0) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not pool.alive(0)
            # died silently: a beat from job pickup, but no failure event
            assert all(event["kind"] == "beat"
                       for event in pool.events(0.05))
            pool.restart(0)
            assert pool.alive(0)
            pool.submit(0, item)  # fault consumed: the re-run completes
            events = drain_until(pool, "done")
            assert events[-1]["kind"] == "done"
        finally:
            pool.shutdown()

    def test_rejects_empty_pool(self, world):
        _scenario, s2s, _plan, _schema = world
        with pytest.raises(ValueError):
            ThreadWorkerPool(make_context(s2s), n_workers=0,
                             loop=worker_loop)


class TestSubprocessWorkerPool:
    def test_end_to_end_item_through_a_spawned_child(self, world):
        """The real pickling contract: context at spawn, item on submit,
        payload on the way back — all across a process boundary."""
        _scenario, s2s, plan, schema = world
        source_id = sorted(schema.by_source)[0]
        pool = SubprocessWorkerPool(make_context(s2s), n_workers=1,
                                    loop=worker_loop)
        pool.start()
        try:
            _job, item = make_item(plan, schema, source_id)
            pool.submit(0, item)
            events = drain_until(pool, "done", timeout=60.0)
            payload = events[-1]["payload"]
            assert payload.entities
            assert payload.source_id == source_id
        finally:
            pool.shutdown()

    def test_full_ingest_run_on_spawn_workers_matches_threads(self,
                                                             tmp_path):
        """A whole coordinator run on spawned workers commits the same
        store entities as the same run on thread workers."""
        def ingest(pool):
            s2s = B2BScenario(n_sources=4, n_products=6,
                              seed=3).build_middleware(store=True)
            report = s2s.ingest("SELECT product",
                                journal_dir=str(tmp_path / pool),
                                fleet=FleetConfig(n_workers=2, pool=pool))
            assert not report.aborted and report.dead == 0
            return sorted(s2s.store.export("ntriples").splitlines())

        spawned = ingest("spawn")
        assert spawned and spawned == ingest("thread")
