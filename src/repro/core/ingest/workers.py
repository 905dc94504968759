"""Ingest work items: the stage waterfall a fleet worker runs.

An ingest :class:`WorkItem` is one journaled job dispatched to
whichever fleet worker is free; it runs itself inside the fleet's one
worker loop (:func:`~repro.core.cluster.coordinator.query_worker_loop`)
with the tenant's :class:`~repro.core.cluster.coordinator.
QueryWorkerContext` (sources, extractor registry, instance generator,
fault injection).  Progress goes back to the scheduler as plain-dict
events on the pool's results queue:

* ``beat`` — liveness heartbeat, emitted when a job is picked up (the
  scheduler stamps receipt time on its own clock);
* ``stage`` — one stage completed, carrying its output payload (the
  ingest run checkpoints it and journals the transition);
* ``done`` — the job's :class:`UpsertPayload` is ready to commit;
* ``failed`` — the job raised; ``retryable`` says whether the queue
  should back off and retry or dead-letter it.

Workers *compute*; the ingest run *commits*.  No worker ever touches
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

from ...errors import CircuitOpenError, S2SError, TransientSourceError
from ..cluster.coordinator import QueryWorkerContext
from ..extractor.manager import ExtractionOutcome
from ..extractor.records import SourceRecordSet
from ..instances.generator import InstanceGenerator
from ..store.snapshot import fingerprint_source
from .jobs import CLEAN, EXTRACT, MATERIALIZE, STAGE, STAGES, IngestJob


@dataclass
class WorkItem:
    """One dispatched job: the job plus everything stage-running needs.

    ``resume_stage`` / ``resume_payload`` carry the newest intact
    staging checkpoint so a resumed job continues mid-waterfall."""

    job: dict
    entries: list  # list[MappingEntry]
    resume_stage: str | None = None
    resume_payload: Any = None
    request_id: str = ""
    tenant: str = "default"

    @property
    def key(self) -> str:
        """The item's identity within its ingest run: the job id."""
        return self.job["job_id"]

    def run(self, worker: int, ctx, emit, **options) -> None:
        run_item(worker, self, ctx, emit, **options)


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
                  ctx: QueryWorkerContext, *, cancel: Any = None,
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


def run_item(shard: int, item: WorkItem, ctx, emit, *,
             cancel: Any = None, in_subprocess: bool = False) -> None:
    """Run one work item's remaining stages, emitting progress events.

    ``emit`` receives plain dicts tagged with ``shard`` (the worker),
    ``request_id`` and ``item`` (the job id).  :class:`WorkerCrashed`
    propagates — the caller's loop dies with it, which is the point."""
    job = IngestJob.from_dict(item.job)
    ctx = ctx.for_tenant(item.tenant)

    def event(kind: str, **fields) -> None:
        emit({"kind": kind, "shard": shard, "request_id": item.request_id,
              "item": job.job_id, **fields})

    event("beat")
    if item.resume_stage is not None:
        start = STAGES.index(item.resume_stage) + 1
        payload = item.resume_payload
    else:
        # Whatever stage the journal says completed, with no intact
        # checkpoint the only safe resume point is the top.
        start, payload = 0, None
    try:
        for stage in STAGES[start:]:
            payload = execute_stage(stage, job, item, payload, ctx,
                                    cancel=cancel,
                                    in_subprocess=in_subprocess)
            if stage == MATERIALIZE:
                event("done", payload=payload)
            else:
                event("stage", stage=stage, payload=payload)
    except S2SError as exc:
        # Transient and breaker errors back off and retry; anything else
        # (a poison payload, a mapping error) goes to the dead letters.
        event("failed", stage=job.stage, error=str(exc),
              retryable=isinstance(exc, (TransientSourceError,
                                         CircuitOpenError)))
