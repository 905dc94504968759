"""The shard coordinator: supervised, crash-recoverable ingest runs.

The :class:`ShardCoordinator` turns materialization targets into
per-source :class:`~repro.core.ingest.jobs.IngestJob`\\ s and serves
them as one request on the fleet scheduler that queries use
(:class:`~repro.core.cluster.coordinator.QueryShardCoordinator`).  The
scheduler owns the fleet — events, supervision, restarts, feeding free
workers; the run (:class:`_IngestRun`) owns what is ingest-specific:

* every job transition is journaled (fsync'd) *before* taking effect,
  so a coordinator killed at any instruction boundary resumes exactly
  the unfinished jobs on restart (``recover()`` replay);
* a job whose worker died is re-enqueued — at-least-once delivery,
  made effectively exactly-once by the store's idempotent per-source
  slice replacement; past the restart budget the run aborts;
* job failures feed the existing per-source circuit breakers, and
  breaker-open sources keep serving last-known-good data instead of
  burning the run's budget;
* jobs that exhaust their retry budget, or raise non-retryable errors
  (poison payloads), are quarantined to the dead-letter ledger and
  never block sibling jobs.

Workers compute, the run commits: all
:class:`~repro.core.store.SemanticStore` writes happen on the
scheduler thread, one at a time, so thread and spawn pools behave
identically and jobs can take whichever worker is free.

``stop_after=N`` is the crash seam for tests and the E17 benchmark: the
run is abandoned (no clean shutdown record) at the Nth completed job,
simulating sudden death mid-run.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any

from ...clock import Clock, SystemClock
from ...obs import NULL_SPAN, MetricsRegistry, Tracer
from ..cluster.coordinator import (FleetRequest, QueryShardCoordinator,
                                   QueryWorkerContext)
from ..extractor.manager import ExtractorManager
from ..instances.generator import InstanceGenerator
from ..resilience import RetryPolicy
from ..resilience.config import FleetConfig
from ..store.delta import DeltaRefresher
from ..store.store import SemanticStore, StoreKey
from .jobs import DEAD, DONE, MATERIALIZE, IngestJob, job_id_for
from .journal import DeadLetterLedger, IngestJournal
from .queue import DurableJobQueue
from .staging import StagingArea
from .workers import UpsertPayload, WorkItem


@dataclass
class IngestTarget:
    """One materialization to ingest: class + required attributes."""

    class_name: str
    required: list  # list[AttributePath]
    merge_key: tuple[str, ...] | None = None

    @property
    def key(self) -> StoreKey:
        return (self.class_name,
                frozenset(str(path) for path in self.required))


@dataclass
class IngestReport:
    """What one coordinator run did."""

    run_id: str
    jobs_total: int = 0
    completed: int = 0
    replayed: int = 0
    skipped_unchanged: int = 0
    kept_stale: int = 0
    dead: int = 0
    released: int = 0
    worker_restarts: int = 0
    elapsed_seconds: float = 0.0
    #: True when the run ended without draining the queue (stop_after
    #: crash seam, the restart budget, or an error).
    aborted: bool = False
    trace: object | None = None
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "aborted" if self.aborted else "completed"
        return (f"run {self.run_id} {state}: {self.completed} done, "
                f"{self.replayed} replayed, "
                f"{self.skipped_unchanged} skipped, {self.dead} dead, "
                f"{self.worker_restarts} worker restarts")


class ShardCoordinator:
    """Drives durable staged ingest as one request on a fleet scheduler.

    ``fleet`` shapes the private scheduler :meth:`run` builds; ingest
    has no admission, so its quotas must be unset."""

    def __init__(self, store: SemanticStore, manager: ExtractorManager,
                 generator: InstanceGenerator, journal_dir: str, *,
                 fleet: FleetConfig | None = None,
                 clock: Clock | None = None,
                 retry_policy: RetryPolicy | None = None,
                 restart_policy: RetryPolicy | None = None,
                 killable: Any = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 fsync: bool = True,
                 stop_after: int | None = None) -> None:
        fleet = fleet or FleetConfig()
        if (fleet.max_inflight_requests is not None
                or fleet.tenant_quota is not None):
            raise ValueError("ingest has no admission control; "
                             "max_inflight_requests and tenant_quota "
                             "must be None")
        self.store = store
        self.manager = manager
        self.generator = generator
        self.clock = clock or manager.config.clock or SystemClock()
        self.tracer = tracer
        self.metrics = metrics
        self.fleet = fleet
        self.killable = killable
        self.stop_after = stop_after
        self.restart_policy = restart_policy
        self.journal = IngestJournal(journal_dir, fsync=fsync,
                                     metrics=metrics)
        self.dead_letter = DeadLetterLedger(journal_dir, fsync=fsync,
                                            metrics=metrics)
        self.staging = StagingArea(journal_dir, fsync=fsync, metrics=metrics)
        self.queue = DurableJobQueue(
            self.journal, clock=self.clock,
            retry_policy=retry_policy or manager.config.retry,
            dead_letter=self.dead_letter, metrics=metrics).recover()
        self._entries: dict[str, list] = {}  # job_id -> mapping entries
        self._keys: dict[str, StoreKey] = {}  # job_id -> store key

    # -- planning ----------------------------------------------------------

    def plan(self, targets: list[IngestTarget], *, force: bool = False,
             root=NULL_SPAN) -> IngestReport:
        """Turn targets into enqueued jobs; returns a partial report
        carrying the skip/replay tallies (``run`` completes it).

        Planning is where crash recovery and change detection meet: a
        journaled-done job whose source fingerprint still matches is
        skipped; an unfinished journaled job is already pending from
        ``recover()`` and is only re-labelled; everything else gets a
        fresh job.  Fingerprints come from the read-only cheap probe
        (:meth:`DeltaRefresher.plan_changes`), so unchanged web sources
        never enqueue work — or cost a counted fetch."""
        report = IngestReport(run_id=uuid.uuid4().hex[:12])
        report.replayed = self.queue.replayed
        refresher = DeltaRefresher(self.store, self.manager, self.generator)
        with root.child("plan", targets=len(targets)) as span:
            for target in targets:
                self._plan_target(target, refresher, force, report, span)
        report.jobs_total = len(self.queue.pending) + len(self.queue.running)
        return report

    def _plan_target(self, target: IngestTarget, refresher: DeltaRefresher,
                     force: bool, report: IngestReport, span) -> None:
        mat = self.store.ensure(target.class_name, list(target.required))
        schema = self.manager.obtain_extraction_schema(list(target.required))
        delta = refresher.plan_changes(mat, force=force)
        for source_id in delta.removed:
            self.store.tombstone(mat.key, source_id)
            span.child("source", source=source_id,
                       verdict="tombstoned").finish()
        for source_id in delta.kept_stale:
            self.store.mark_slice_stale(mat.key, source_id)
            report.kept_stale += 1
            span.child("source", source=source_id,
                       verdict="breaker-open").finish()
        for source_id in sorted(schema.by_source):
            if source_id in delta.kept_stale:
                continue
            job_id = job_id_for(target.class_name, mat.attribute_ids,
                                source_id)
            self._keys[job_id] = mat.key
            self._entries[job_id] = list(schema.by_source[source_id])
            existing = self.queue.get(job_id)
            if existing is not None and not existing.finished:
                # Resurrected by journal replay: resume, don't re-plan.
                existing.merge_key = target.merge_key
                span.child("source", source=source_id,
                           verdict="resumed").finish()
                continue
            fingerprint = delta.fingerprints.get(source_id)
            if source_id in delta.unchanged:
                finished = self.queue.finished.get(job_id)
                if (finished is None or finished.status == DONE):
                    report.skipped_unchanged += 1
                    self.queue.record_skip(
                        IngestJob(job_id, source_id, target.class_name,
                                  mat.attribute_ids,
                                  merge_key=target.merge_key,
                                  fingerprint=fingerprint),
                        "unchanged")
                    span.child("source", source=source_id,
                               verdict="unchanged").finish()
                    continue
            if existing is not None and existing.status == DEAD:
                # Quarantined: stays dead until an explicit requeue.
                span.child("source", source=source_id,
                           verdict="dead-letter").finish()
                continue
            job = IngestJob(job_id, source_id, target.class_name,
                            mat.attribute_ids, merge_key=target.merge_key,
                            fingerprint=fingerprint)
            self.queue.enqueue(job)
            span.child("source", source=source_id,
                       verdict="enqueued").finish()

    # -- the run ---------------------------------------------------------

    def worker_context(self) -> QueryWorkerContext:
        """The fleet worker context ingest jobs run with (shared live by
        thread workers, pickled per child for spawn workers)."""
        manager = self.manager
        return QueryWorkerContext(
            attributes=manager.attributes, sources=manager.sources,
            resilience=manager.config, strict=manager.strict,
            extractors=manager.extractors, generator=self.generator)

    def run(self, targets: list[IngestTarget], *,
            force: bool = False) -> IngestReport:
        """Plan and drain: the whole ingest run, on a private fleet."""
        scheduler = QueryShardCoordinator(
            clock=self.clock, fleet=self.fleet,
            context_factory=self.worker_context,
            restart_policy=self.restart_policy, metrics=self.metrics)
        scheduler.killable = self.killable
        try:
            return self.run_on(scheduler, targets, force=force)
        finally:
            scheduler.shutdown()

    def run_on(self, scheduler: QueryShardCoordinator,
               targets: list[IngestTarget], *,
               force: bool = False) -> IngestReport:
        """Plan, then serve the run as one request on ``scheduler``, on
        the tenant registered with :meth:`worker_context` (ValueError if
        none).  Faults come from the scheduler's ``killable``."""
        tenant = scheduler.tenant_of(self.worker_context)
        if tenant is None:
            raise ValueError("no tenant of this fleet is registered with "
                             "the ingest coordinator's worker_context")
        started = time.perf_counter()
        root = (self.tracer.start("ingest", targets=len(targets),
                                  workers=scheduler.fleet_config.n_workers,
                                  pool=scheduler.fleet_config.pool)
                if self.tracer is not None else NULL_SPAN)
        report = self.plan(targets, force=force, root=root)
        self.journal.record_run("started", report.run_id,
                                self.clock.monotonic(),
                                jobs=report.jobs_total)
        if self.metrics is not None:
            self.metrics.counter("ingest_runs_total",
                                 "coordinator ingest runs").inc()
        run = _IngestRun(self, report, root, tenant,
                         scheduler.fleet_config.max_worker_restarts)
        try:
            scheduler.serve(run)
        finally:
            for span in run.job_spans.values():
                span.finish()
            root.finish()
        if not report.aborted:
            self.journal.record_run("finished", report.run_id,
                                    self.clock.monotonic(),
                                    completed=report.completed,
                                    dead=report.dead)
            self._touch_clean_targets(targets)
        report.elapsed_seconds = time.perf_counter() - started
        if self.metrics is not None:
            self.metrics.histogram(
                "ingest_run_seconds",
                "wall-clock time of one ingest run").observe(
                    report.elapsed_seconds)
        report.trace = (self.tracer.trace_of(root)
                        if self.tracer is not None else None)
        return report

    def _touch_clean_targets(self, targets: list[IngestTarget]) -> None:
        """Re-stamp materializations whose every job finished cleanly."""
        dead_keys = {self._keys.get(job.job_id)
                     for job in self.queue.finished.values()
                     if job.status == DEAD}
        for target in targets:
            if target.key not in dead_keys:
                mat = self.store.materialization(target.key)
                if mat is not None and mat.slices:
                    self.store.touch(target.key)

    # -- operator surface --------------------------------------------------

    def status(self) -> dict:
        """Journal-level run status (for `ingest status`)."""
        state = self.journal.replay()
        counts = state.counts()
        return {
            "journal": str(self.journal.path),
            "jobs": counts,
            "unfinished": [job.describe() for job in state.unfinished()],
            "dead_letter": len(self.dead_letter.entries()),
            "last_run": state.runs[-1] if state.runs else None,
        }

    def dead_letters(self) -> list[dict]:
        """Dead-letter entries with their captured errors."""
        return self.dead_letter.entries()

    def requeue(self, job_ids: list[str] | None = None) -> list[IngestJob]:
        """Release dead-letter jobs back to pending (fresh budget)."""
        targets = set(job_ids) if job_ids else None
        return self.queue.requeue_dead(targets)

    def close(self) -> None:
        self.journal.close()


class _IngestRun(FleetRequest):
    """One ingest run as a fleet request: the queue drains through it.

    The scheduler calls every method under its lock (on its dispatcher
    thread, or the admitting thread at admission), so the journal, the
    staging area and the store see one writer at a time."""

    def __init__(self, coordinator: ShardCoordinator, report: IngestReport,
                 root, tenant: str, max_restarts: int) -> None:
        super().__init__(tenant)
        self.coordinator = coordinator
        self.queue = coordinator.queue
        self.report = report
        self.root = root
        self.max_restarts = max_restarts
        self.job_spans: dict[str, Any] = {}
        #: job id -> workers lost while holding it.
        self.lost: dict[str, int] = {}

    # -- scheduler interface -----------------------------------------------

    def backlog(self) -> int:
        return len(self.queue.pending) + len(self.queue.running)

    def ready_depth(self) -> int:
        return len(self.queue.pending)

    def resolved(self) -> bool:
        stop_after = self.coordinator.stop_after
        if stop_after is not None and self.report.completed >= stop_after:
            # Simulated coordinator crash at exactly the Nth completion:
            # walk away mid-run.  No shutdown record, no store touch —
            # recovery must come entirely from the journal.
            self.report.aborted = True
        return self.report.aborted or self.queue.drained

    def cancel(self, message: str) -> None:
        self.report.aborted = True
        self.report.errors.append(message)

    def next_item(self, worker: int) -> WorkItem | None:
        """The next eligible job past the breaker gate, claimed for
        ``worker``; gated and mapping-less jobs resolve on the way."""
        coordinator = self.coordinator
        for job in self.queue.eligible():
            if not self._breaker_admits(job):
                continue
            entries = coordinator._entries.get(job.job_id)
            if entries is None:
                # A replayed job whose mapping vanished since the crash.
                self.queue.claim(job, worker)
                self.queue.fail(job, "no mapping entries for source "
                                f"{job.source_id!r} after recovery",
                                retryable=False)
                self.report.dead += 1
                continue
            self.queue.claim(job, worker)
            if (coordinator.tracer is not None
                    and job.job_id not in self.job_spans):
                self.job_spans[job.job_id] = self.root.child(
                    "job", job_id=job.job_id, source=job.source_id,
                    shard=worker, attempt=job.attempts + 1)
            resume_stage, resume_payload = coordinator.staging.latest(
                job.job_id, job.stage)
            return WorkItem(job.to_dict(), entries,
                            resume_stage=resume_stage,
                            resume_payload=resume_payload,
                            request_id=self.request_id, tenant=self.tenant)
        return None

    def apply(self, worker: int, event: dict) -> bool:
        if self.resolved():
            return False  # e.g. the crash seam fired: drop late events
        job_id = event["item"]
        job = self.queue.get(job_id)
        if job is None or job.finished:
            return False  # late event from a worker declared dead
        kind = event.get("kind")
        span = self.job_spans.get(job_id, NULL_SPAN)
        if kind == "stage":
            stage = event["stage"]
            self.coordinator.staging.checkpoint(job_id, stage,
                                                event.get("payload"))
            self.queue.advance(job, stage)
            span.child(stage.lower()).finish()
        elif kind == "done":
            self._commit(job, event["payload"])
            self.queue.advance(job, MATERIALIZE)
            self.queue.complete(job)
            self.coordinator.staging.discard(job_id)
            self.report.completed += 1
            span.annotate(outcome="done")
            self.job_spans.pop(job_id, NULL_SPAN).finish()
        else:
            error = event.get("error", "unknown worker failure")
            retryable = bool(event.get("retryable", False))
            breaker = self._breaker(job)
            if breaker is not None and retryable:
                breaker.record_failure()
            failed = self.queue.fail(job, error, retryable=retryable)
            if failed.status == DEAD:
                self.report.dead += 1
                self.report.errors.append(f"{job_id}: {error}")
                span.fail(error)
                self.job_spans.pop(job_id, NULL_SPAN).finish()
            else:
                span.annotate(retry=failed.attempts)
        return True

    def worker_lost(self, key: str, *, budget_error: str | None) -> bool:
        job = self.queue.get(key)
        if job is not None and not job.finished:
            self.queue.release(job)
            self.report.released += 1
            self.job_spans.get(key, NULL_SPAN).annotate(released=True)
        # Jobs move between workers, so the per-worker budget alone
        # would let one job kill up to n_workers times as many.
        lost = self.lost[key] = self.lost.get(key, 0) + 1
        if budget_error is None and lost > self.max_restarts:
            budget_error = (f"job {key} lost {lost} workers, past the "
                            f"restart budget ({self.max_restarts})")
        if budget_error is None:
            self.report.worker_restarts += 1
        else:
            self.report.errors.append(budget_error)
            self.report.aborted = True
        return True

    # -- ingest semantics --------------------------------------------------

    def _breaker(self, job: IngestJob):
        breakers = self.coordinator.manager.breakers
        return breakers.get(job.source_id) if breakers is not None else None

    def _commit(self, job: IngestJob, payload: UpsertPayload) -> None:
        """The only store write path: idempotent per-source upsert.

        Re-delivery of the same payload (at-least-once redelivery after
        a worker or coordinator death) replaces the slice with identical
        content — effectively exactly-once."""
        store = self.coordinator.store
        key = self._key(job)
        store.upsert(key, job.source_id, payload.entities,
                     fingerprint=payload.fingerprint)
        if payload.error_entries:
            store.replace_errors(key, payload.error_entries,
                                 for_sources=[job.source_id])
        breaker = self._breaker(job)
        if breaker is not None:
            breaker.record_success()

    def _key(self, job: IngestJob) -> StoreKey:
        return self.coordinator._keys.get(
            job.job_id, (job.class_name, job.attribute_ids))

    def _breaker_admits(self, job: IngestJob) -> bool:
        """Dispatch-time breaker gate.

        Open breaker + a stored slice → keep serving last-known-good
        data, job completes as kept-stale.  Open breaker with nothing
        stored → the job fails retryably (backoff), eventually dying to
        the dead-letter ledger if the source never heals."""
        breaker = self._breaker(job)
        if breaker is None or breaker.allow():
            return True
        store = self.coordinator.store
        key = self._key(job)
        mat = store.materialization(key)
        slice_exists = mat is not None and job.source_id in mat.slices
        self.queue.claim(job, -1)
        if slice_exists:
            store.mark_slice_stale(key, job.source_id)
            self.queue.complete(job)
            self.report.kept_stale += 1
        else:
            failed = self.queue.fail(job, f"circuit breaker open for "
                                     f"{job.source_id!r}", retryable=True)
            if failed.status == DEAD:
                self.report.dead += 1
        return False
