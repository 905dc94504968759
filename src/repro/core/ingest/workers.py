"""Supervised ingest workers: the stage waterfall a pool worker runs.

A worker owns one *shard* (a stable partition of the source space, see
:func:`~repro.core.ingest.jobs.shard_of`) and runs the per-job stage
waterfall, reporting progress to the coordinator as plain-dict events on
a results queue:

* ``beat`` — liveness heartbeat, emitted when a job is picked up and at
  every stage boundary (the coordinator stamps receipt time on its own
  clock, so heartbeat detection works identically for threads and
  subprocesses, and under :class:`~repro.clock.FakeClock`);
* ``stage`` — one stage completed, carrying its output payload (the
  coordinator checkpoints it and journals the transition);
* ``done`` — the job's :class:`UpsertPayload` is ready to commit;
* ``failed`` — the job raised; ``retryable`` says whether the queue
  should back off and retry or dead-letter it.

Workers *compute*; the coordinator *commits*.  No worker ever touches
the :class:`~repro.core.store.SemanticStore` or the journal — that is
what makes the two pool flavours of :mod:`repro.core.cluster.pool`
interchangeable: a spawned child works on pickled copies of the sources
and its mutations are discarded, while the committed results flow back
through the event queue either way.

Spawned children re-import and re-pickle everything (no forked shared
state), so the pickling contract the thread pool never exercises is
enforced in tests.  Custom user-registered transform *functions* do not
cross the boundary — children rebuild a default
:class:`~repro.core.mapping.rules.TransformRegistry` (built-ins plus
``scale:``/``map:`` forms); mappings needing bespoke transforms should
use thread workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...errors import (CircuitOpenError, PoisonPayloadError, S2SError,
                       TransientSourceError)
from ...sources.flaky import KillableWorker, WorkerCrashed
from ..extractor.extractors import ExtractorRegistry
from ..extractor.manager import ExtractionOutcome
from ..extractor.records import SourceRecordSet
from ..instances.generator import InstanceGenerator
from ..mapping.rules import TransformRegistry
from ..store.snapshot import fingerprint_source
from .jobs import CLEAN, EXTRACT, MATERIALIZE, STAGE, STAGES, IngestJob

@dataclass
class WorkerContext:
    """Everything a worker needs to run stages, picklable as a unit.

    ``extractors`` rides along for thread workers only — subprocess
    children rebuild a fresh registry (transform lambdas don't pickle).
    """

    sources: Any  # DataSourceRepository
    generator: InstanceGenerator
    killable: KillableWorker | None = None
    extractors: ExtractorRegistry | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["extractors"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def registry(self) -> ExtractorRegistry:
        if self.extractors is None:
            self.extractors = ExtractorRegistry(TransformRegistry())
        return self.extractors


@dataclass
class WorkItem:
    """One dispatched job: the job plus everything stage-running needs.

    ``resume_stage`` / ``resume_payload`` carry the newest intact
    staging checkpoint so a resumed job continues mid-waterfall."""

    job: dict
    entries: list  # list[MappingEntry]
    resume_stage: str | None = None
    resume_payload: Any = None


@dataclass
class ExtractBatch:
    """EXTRACT output: raw record set + content fingerprint at read time."""

    record_set: SourceRecordSet
    fingerprint: str | None = None


@dataclass
class StagedBatch:
    """STAGE/CLEAN output: assembled entities + their error entries."""

    entities: list = field(default_factory=list)
    error_entries: list = field(default_factory=list)
    fingerprint: str | None = None


@dataclass
class UpsertPayload:
    """MATERIALIZE output: everything the coordinator commits."""

    source_id: str
    class_name: str
    entities: list = field(default_factory=list)
    error_entries: list = field(default_factory=list)
    fingerprint: str | None = None


def execute_stage(stage: str, job: IngestJob, item: WorkItem, payload: Any,
                  ctx: WorkerContext, *, cancel: Any = None,
                  in_subprocess: bool = False) -> Any:
    """Run one stage of one job; returns the stage's output payload."""
    if ctx.killable is not None:
        ctx.killable.check(job.source_id, stage, cancel=cancel,
                           in_subprocess=in_subprocess)
    if stage == EXTRACT:
        source = ctx.sources.get(job.source_id)
        extractor = ctx.registry().for_source(source)
        record_set = SourceRecordSet(job.source_id)
        for entry in item.entries:
            record_set.add(extractor.extract(source, entry))
        return ExtractBatch(record_set, fingerprint_source(source))
    if stage == STAGE:
        batch: ExtractBatch = payload
        record_sets = ({job.source_id: batch.record_set}
                       if batch.record_set.fragments else {})
        outcome = ExtractionOutcome(
            record_sets=record_sets,
            per_source_seconds={job.source_id: 0.0})
        generation = ctx.generator.generate(outcome, job.class_name)
        return StagedBatch(generation.entities,
                           list(generation.errors.entries),
                           batch.fingerprint)
    if stage == CLEAN:
        staged: StagedBatch = payload
        if job.merge_key:
            from ..instances.errors import ErrorReport
            report = ErrorReport(list(staged.error_entries))
            staged.entities = InstanceGenerator._merge(
                staged.entities, list(job.merge_key), report)
            staged.error_entries = list(report.entries)
        return staged
    if stage == MATERIALIZE:
        staged = payload
        return UpsertPayload(job.source_id, job.class_name,
                             staged.entities, staged.error_entries,
                             staged.fingerprint)
    raise S2SError(f"unknown ingest stage {stage!r}")


def run_item(shard: int, item: WorkItem, ctx: WorkerContext, emit, *,
             cancel: Any = None, in_subprocess: bool = False) -> None:
    """Run one work item's remaining stages, emitting progress events.

    ``emit`` receives plain dicts.  :class:`WorkerCrashed` propagates —
    the caller's loop dies with it, which is the point."""
    job = IngestJob.from_dict(item.job)
    emit({"kind": "beat", "shard": shard, "job_id": job.job_id})
    if item.resume_stage is not None:
        start = STAGES.index(item.resume_stage) + 1
        payload = item.resume_payload
    else:
        start = STAGES.index(job.stage) if job.stage in STAGES else 0
        payload = None
        if start > 0:
            # The journal says earlier stages completed but no intact
            # checkpoint survived: fall back to the top of the waterfall.
            start = 0
    try:
        for stage in STAGES[start:]:
            payload = execute_stage(stage, job, item, payload, ctx,
                                    cancel=cancel,
                                    in_subprocess=in_subprocess)
            if stage == MATERIALIZE:
                emit({"kind": "done", "shard": shard, "job_id": job.job_id,
                      "payload": payload})
            else:
                emit({"kind": "stage", "shard": shard, "job_id": job.job_id,
                      "stage": stage, "payload": payload})
    except (TransientSourceError, CircuitOpenError) as exc:
        emit({"kind": "failed", "shard": shard, "job_id": job.job_id,
              "stage": job.stage, "error": str(exc), "retryable": True})
    except PoisonPayloadError as exc:
        emit({"kind": "failed", "shard": shard, "job_id": job.job_id,
              "stage": job.stage, "error": str(exc), "retryable": False})
    except S2SError as exc:
        emit({"kind": "failed", "shard": shard, "job_id": job.job_id,
              "stage": job.stage, "error": str(exc), "retryable": False})


def worker_loop(shard: int, inbox, results, ctx: WorkerContext, *,
                cancel: Any = None, in_subprocess: bool = False) -> None:
    """The worker main loop: drain the inbox until the None sentinel.

    Shared verbatim by thread and subprocess workers; only the queue
    implementations and the kill mechanism differ."""
    while True:
        item = inbox.get()
        if item is None:
            return
        try:
            run_item(shard, item, ctx, results.put, cancel=cancel,
                     in_subprocess=in_subprocess)
        except WorkerCrashed:
            # Simulated sudden death: exit the loop without reporting
            # anything — no failure event, no further heartbeats.  The
            # supervisor must notice on its own.
            return
