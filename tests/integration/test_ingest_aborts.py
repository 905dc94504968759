"""How a durable ingest run ends when it cannot finish.

A run is one request on the fleet scheduler, so its failures have to
reach the caller of :meth:`ShardCoordinator.run` without wedging the
scheduler: a job that keeps killing its worker aborts the run after
the documented number of restarts, and an exception raised while the
scheduler commits a job propagates instead of hanging the waiter.
"""

from __future__ import annotations

import threading

import pytest

from repro.clock import FakeClock
from repro.config import FleetConfig
from repro.core.cluster import QueryShardCoordinator
from repro.core.ingest import STAGE
from repro.errors import S2SError
from repro.sources.flaky import KillableWorker, WorkerFault
from tests.integration.test_ingest_recovery import World


def run_bounded(call, timeout: float = 60.0) -> dict:
    """Run ``call`` on a thread; a hang fails the test instead of it."""
    box: dict = {}

    def target():
        try:
            box["result"] = call()
        except Exception as exc:  # inspected by the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the ingest run hung"
    return box


class TestRestartBudget:
    def test_a_job_killing_every_worker_aborts_after_the_budget(
            self, tmp_path):
        """Each attempt of the victim's job kills the worker it lands
        on, whichever of the two it is; the run aborts at the
        ``max_worker_restarts + 1``-th death."""
        world = World(tmp_path)
        victim = sorted(world.s2s.manager.sources.ids())[0]
        killable = KillableWorker(
            [WorkerFault("kill", source_id=victim, stage=STAGE)] * 10)
        coordinator = world.coordinator(
            killable=killable,
            fleet=FleetConfig(n_workers=2, max_worker_restarts=2))
        report = run_bounded(lambda: coordinator.run([world.target]))["result"]
        assert report.aborted
        assert report.worker_restarts == 2
        assert any("restart budget (2)" in error for error in report.errors)
        victim_claims = [count for job_id, count
                         in world.claim_counts().items()
                         if job_id.rsplit(":", 1)[-1] == victim]
        assert victim_claims == [3]
        assert len(killable.fired) == 3


class TestCommitErrors:
    def test_a_store_error_during_commit_propagates_from_run(
            self, tmp_path, monkeypatch):
        world = World(tmp_path)

        def broken_upsert(*_args, **_kwargs):
            raise S2SError("no materialization for the key")

        monkeypatch.setattr(world.s2s.store, "upsert", broken_upsert)
        coordinator = world.coordinator()
        box = run_bounded(lambda: coordinator.run([world.target]))
        assert isinstance(box.get("error"), S2SError), box
        assert "no materialization" in str(box["error"])
        # Nothing was committed, so a clean rerun does every job.
        monkeypatch.undo()
        report = world.coordinator().run([world.target])
        assert not report.aborted and report.dead == 0
        assert report.completed == len(world.s2s.manager.sources.ids())


class TestRunOn:
    def test_a_fleet_without_the_ingest_context_is_rejected(self, tmp_path):
        world = World(tmp_path)
        coordinator = world.coordinator()
        other = world.coordinator()
        fleet = QueryShardCoordinator(clock=FakeClock(),
                                      context_factory=other.worker_context)
        try:
            with pytest.raises(ValueError, match="worker_context"):
                coordinator.run_on(fleet, [world.target])
        finally:
            fleet.shutdown()
        # Rejected before planning: the journal recorded no run.
        assert coordinator.status()["last_run"] is None
