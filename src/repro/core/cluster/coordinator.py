"""The fleet scheduler: one interleaving mediator over one worker fleet.

Every piece of fleet work is an admitted :class:`FleetRequest`.  One
consumer query becomes one *sub-plan per shard*: the extraction schema
is filtered down to each shard's sources (replica mappings ride along
with their primary) and queued as a work item.  A durable ingest run
(:class:`~repro.core.ingest.coordinator.ShardCoordinator`) is another
request kind, whose items are journaled per-source jobs.  The
scheduler admits **multiple in-flight requests at once** and
interleaves their items over the same workers, without ever branching
on what kind of request it serves:

* a background dispatcher thread drains the pool's event queue and
  routes each event to its request by request id;
* freed workers are fed from a fair-share ready queue — round-robin
  across in-flight requests, with per-tenant quotas
  (:class:`~repro.core.resilience.config.FleetConfig.tenant_quota`)
  bounding how many workers one tenant may occupy on a shared fleet;
* worker death mid-item is detected by liveness checks and heartbeat
  age on the injectable clock (:class:`~repro.core.cluster.supervision.
  WorkerSupervisor`); only the dead worker's item is released to its
  request while every other request keeps streaming.  A worker that
  exhausts its restart budget is reported to the request whose item it
  held: a query degrades that item's sources into reported problems,
  an ingest run aborts.

Admission is quota-checked up front: a query past the fleet-wide
``max_inflight_requests`` cap (or a tenant past its shard quota)
raises :class:`~repro.errors.FleetQuotaExceeded`, which the server
maps onto its RETRY_AFTER pushback frame.  See ``docs/cluster.md``
for the full failure model, the worker contexts and the fleet
lifecycle.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ...clock import Clock
from ...errors import FleetQuotaExceeded, S2SError
from ...obs import NULL_SPAN, MetricsRegistry
from ...sources.flaky import WorkerCrashed
from ..extractor.extractors import ExtractorRegistry
from ..extractor.manager import ExtractorManager
from ..extractor.schema import ExtractionSchema
from ..mapping.rules import TransformRegistry
from ..resilience import Deadline
from ..resilience.config import FleetConfig, ResilienceConfig
from .pool import WorkerPool, build_pool
from .sharding import partition_sources
from .supervision import WorkerSupervisor


@dataclass
class QueryWorkerContext:
    """Everything one tenant's fleet worker needs (query and ingest
    items alike), picklable as a unit.

    Thread workers share the coordinator manager's live collaborators
    (``extractors``, ``cache``, ``breakers``); those do not cross the
    spawn boundary — subprocess children rebuild a default extractor
    registry and their own (per-child) breakers from the resilience
    config, which is the same trade a distributed deployment makes.
    """

    attributes: Any  # AttributeRepository
    sources: Any  # DataSourceRepository
    resilience: ResilienceConfig
    strict: bool = False
    extractors: ExtractorRegistry | None = None
    cache: Any = None  # FragmentCache | None, thread-shared only
    breakers: Any = None  # CircuitBreakerRegistry | None, thread-shared only
    killable: Any = None  # KillableWorker | None
    generator: Any = None  # InstanceGenerator | None, for ingest items
    manager: ExtractorManager | None = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["extractors"] = None  # transform lambdas don't pickle
        state["cache"] = None
        state["breakers"] = None
        state["manager"] = None
        return state

    def for_tenant(self, tenant: str) -> "QueryWorkerContext":
        """A single-tenant fleet's context serves every item."""
        return self

    def registry(self) -> ExtractorRegistry:
        """The extractor registry, rebuilt once after unpickling."""
        if self.extractors is None:
            self.extractors = ExtractorRegistry(TransformRegistry())
        return self.extractors

    def manager_for_worker(self) -> ExtractorManager:
        """The (lazily built) in-process manager a worker extracts with.

        Thread workers adopt the coordinator manager's breaker registry
        and fragment cache so breaker state and cached fragments behave
        exactly as in-process execution; a spawned child builds its own.
        Metrics stay off — the coordinator records per-query metrics
        once, on the merged outcome."""
        if self.manager is None:
            manager = ExtractorManager(
                self.attributes, self.sources, self.registry(),
                strict=self.strict, cache=self.cache,
                resilience=self.resilience, metrics=None)
            if self.breakers is not None:
                manager.breakers = self.breakers
            self.manager = manager
        return self.manager


@dataclass
class FleetWorkerContext:
    """A shared fleet's worker context: one per-tenant context each.

    Work items carry their tenant name; the worker resolves the right
    :class:`QueryWorkerContext` (and therefore the right repositories,
    breakers and cache) per item.  Picklable as a unit — each tenant
    context applies its own ``__getstate__`` discipline — so the spawn
    pool ships a whole multi-tenant world to each child."""

    contexts: dict[str, QueryWorkerContext]

    def for_tenant(self, tenant: str) -> QueryWorkerContext:
        return self.contexts[tenant]


@dataclass
class QueryWorkItem:
    """One dispatched sub-plan: a shard's slice of one query's schema."""

    request_id: str
    shard: int
    source_ids: list[str]
    schema: ExtractionSchema
    deadline_seconds: float | None = None
    tenant: str = "default"

    @property
    def key(self) -> int:
        """The item's identity within its request."""
        return self.shard

    def run(self, worker: int, ctx, emit, **options) -> None:
        run_query_item(worker, self, ctx, emit, **options)


def subschema_for(schema: ExtractionSchema,
                  source_ids: list[str]) -> ExtractionSchema:
    """The shard-local slice of one extraction schema.

    Replica mappings whose *primary* lives on this shard ride along, so
    per-entry failover works even when the replica's own source is
    sharded elsewhere (every worker holds the full source repository).
    ``missing`` stays empty — unmapped attributes are a whole-plan fact
    the coordinator stamps on the merged outcome."""
    wanted = set(source_ids)
    return ExtractionSchema(
        requested=list(schema.requested),
        by_source={sid: list(schema.by_source[sid]) for sid in source_ids},
        replicas={key: list(entries)
                  for key, entries in schema.replicas.items()
                  if key[1] in wanted})


def run_query_item(shard: int, item: QueryWorkItem, ctx, emit, *,
                   cancel: Any = None, in_subprocess: bool = False) -> None:
    """Run one sub-plan, emitting progress events.

    ``emit`` receives plain dicts.  ``shard`` is the *worker index*
    (for supervisor heartbeats); events also carry ``item`` — the
    item's own shard id — because the interleaving scheduler assigns
    items to whichever worker frees up, so the two no longer coincide.
    :class:`WorkerCrashed` propagates — the caller's loop dies with it,
    which is the point."""
    emit({"kind": "beat", "shard": shard, "request_id": item.request_id,
          "item": item.shard})
    worker_ctx = ctx.for_tenant(item.tenant)
    if worker_ctx.killable is not None:
        probe = item.source_ids[0] if item.source_ids else ""
        worker_ctx.killable.check(probe, "QUERY", cancel=cancel,
                                  in_subprocess=in_subprocess)
    manager = worker_ctx.manager_for_worker()
    deadline = (None if item.deadline_seconds is None
                else Deadline(item.deadline_seconds,
                              worker_ctx.resilience.clock))
    try:
        outcome = manager.extract([], schema=item.schema, deadline=deadline)
    except S2SError as exc:
        # Strict-mode extraction raises instead of recording problems;
        # surface the failure so the coordinator can re-raise it.
        emit({"kind": "failed", "shard": shard,
              "request_id": item.request_id, "item": item.shard,
              "error": str(exc)})
        return
    emit({"kind": "done", "shard": shard, "request_id": item.request_id,
          "item": item.shard, "payload": outcome})


def query_worker_loop(shard: int, inbox, results, ctx, *,
                      cancel: Any = None,
                      in_subprocess: bool = False) -> None:
    """The fleet worker main loop: drain the inbox until the None
    sentinel.  Shared verbatim by thread and subprocess workers, and by
    every kind of work item, since each item runs itself."""
    while True:
        item = inbox.get()
        if item is None:
            return
        try:
            item.run(shard, ctx, results.put, cancel=cancel,
                     in_subprocess=in_subprocess)
        except WorkerCrashed:
            # Simulated sudden death: exit the loop without reporting
            # anything — no failure event, no further heartbeats.  The
            # supervisor must notice on its own.
            return


@dataclass
class ShardRunResult:
    """What one fleet execution produced, before merging."""

    partials: dict[int, Any] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)
    timed_out: set[int] = field(default_factory=set)
    items: dict[int, QueryWorkItem] = field(default_factory=dict)
    redispatches: int = 0


class FleetRequest:
    """One admitted request, as the scheduler sees it.

    The scheduler never looks inside a request; under its lock it calls
    :meth:`admit` once, then ``next_item(worker)`` (claim a ready item
    or None), ``apply(worker, event)`` (a ``stage``/``done``/``failed``
    event), ``worker_lost(key, budget_error=)`` (``budget_error`` is
    None when the worker will be restarted), ``resolved()``,
    ``backlog()`` / ``ready_depth()`` (running + queued and queued item
    counts) and ``cancel(message)``; booleans say whether state moved.
    A method that raises retires its request alone, with the exception
    on ``error`` for :meth:`QueryShardCoordinator.serve` to re-raise.
    Work items carry ``request_id``, ``tenant``, a ``key`` unique
    within the request and ``run(worker, ctx, emit, **options)``."""

    def __init__(self, tenant: str) -> None:
        self.request_id = ""
        self.tenant = tenant
        self.finished = threading.Event()
        self.error: Exception | None = None
        self.peak_inflight = 1

    def admit(self, request_id: str, inflight: int) -> None:
        """Bind the scheduler-assigned id (``inflight``: requests now
        interleaved, this one included)."""
        self.request_id = request_id

    def finish(self) -> None:
        """Called once, when the scheduler retires the request."""


class _QueryRequest(FleetRequest):
    """One query's fan-out: per-shard sub-plans and their completion map."""

    def __init__(self, schema: ExtractionSchema, tenant: str,
                 deadline: Deadline, span, n_workers: int) -> None:
        super().__init__(tenant)
        self.schema = schema
        self.deadline = deadline
        self.span = span
        self.n_workers = n_workers
        self.result = ShardRunResult()
        #: Shard ids waiting for a worker, in dispatch order.  A dead
        #: worker's item goes back to the *front* so recovery does not
        #: queue behind the request's own backlog.
        self.ready: deque[int] = deque()
        #: shard id -> worker index, for items currently executing.
        self.running: dict[int, int] = {}
        #: Shard ids not yet resolved (done, failed or timed out).
        self.pending: set[int] = set()
        self.spans: dict[int, Any] = {}
        self.run_span: Any = NULL_SPAN

    def admit(self, request_id: str, inflight: int) -> None:
        super().admit(request_id, inflight)
        self.run_span = self.span.child("shard.interleave",
                                        tenant=self.tenant,
                                        inflight=inflight)
        shard_map = partition_sources(self.schema.source_ids(),
                                      self.n_workers)
        for shard, source_ids in sorted(shard_map.items()):
            self.result.items[shard] = QueryWorkItem(
                request_id, shard, source_ids,
                subschema_for(self.schema, source_ids), tenant=self.tenant)
            self.pending.add(shard)
            self.ready.append(shard)
            self.spans[shard] = self.run_span.child(
                "shard.enqueue", shard=shard, sources=len(source_ids))

    def backlog(self) -> int:
        return len(self.running) + len(self.ready)

    def ready_depth(self) -> int:
        return len(self.ready)

    def next_item(self, worker: int) -> QueryWorkItem | None:
        if not self.ready:
            return None
        shard = self.ready.popleft()
        item = self.result.items[shard]
        item.deadline_seconds = (None if self.deadline.unbounded
                                 else self.deadline.remaining())
        self.running[shard] = worker
        self.spans[shard].annotate(worker=worker)
        return item

    def apply(self, worker: int, event: dict) -> bool:
        shard = event.get("item")
        if shard not in self.pending:
            return False  # stale event from an abandoned attempt
        # A late event from a re-dispatched item's dead worker is just
        # as correct; the pending check keeps it from resolving twice.
        self.running.pop(shard, None)
        if event["kind"] == "failed":
            self._fail(shard, event.get("error", "unknown worker failure"))
            return True
        self.pending.discard(shard)
        self.result.partials[shard] = event["payload"]
        self.spans[shard].annotate(outcome="done")
        self.spans[shard].finish()
        return True

    def _fail(self, shard: int, message: str) -> None:
        self.result.failures[shard] = message
        self.pending.discard(shard)
        self.spans[shard].fail(message)
        self.spans[shard].finish()

    def worker_lost(self, key: int, *, budget_error: str | None) -> bool:
        if key not in self.pending:
            return False
        self.running.pop(key, None)
        if budget_error is not None:
            self._fail(key, budget_error)
        else:
            self.ready.appendleft(key)
            self.result.redispatches += 1
            self.spans[key].annotate(redispatched=True)
        return True

    def resolved(self) -> bool:
        """Done when every shard resolved; a passed deadline times the
        remaining shards out."""
        if self.pending and self.deadline.expired:
            for shard in sorted(self.pending):
                self.spans[shard].annotate(outcome="deadline")
                self.spans[shard].finish()
            self.result.timed_out = set(self.pending)
            self.pending.clear()
            self.ready.clear()
            # Workers still chewing on abandoned items stay assigned —
            # they are genuinely busy — and free themselves when their
            # (now stale) events arrive.
            self.running.clear()
        return not self.pending

    def cancel(self, message: str) -> None:
        for shard in sorted(self.pending):
            self._fail(shard, message)
        self.ready.clear()
        self.running.clear()

    def finish(self) -> None:
        result = self.result
        outcome = ("deadline" if result.timed_out
                   else "degraded" if result.failures else "done")
        self.run_span.annotate(outcome=outcome,
                               redispatches=result.redispatches,
                               peak_inflight=self.peak_inflight)
        self.run_span.finish()
        super().finish()


class QueryShardCoordinator:
    """Owns one fleet: lifecycle, interleaved dispatch, supervision.

    The fleet is persistent across requests: workers start on first use
    and survive until :meth:`shutdown` (or a source-repository mutation
    forces a rebuild so spawned children never serve a stale replica of
    the mapping).  Multiple requests — queries through :meth:`execute`,
    any :class:`FleetRequest` through :meth:`serve` — are in flight at
    once.  One coordinator can serve several tenants
    (:meth:`register_tenant`), which is how the server shares one fleet
    across namespaces.  The per-worker restart budget is reclaimed
    whenever the fleet goes idle (see :meth:`_admit`)."""

    def __init__(self, *, clock: Clock,
                 context_factory: Callable[[], QueryWorkerContext]
                 | None = None,
                 fleet: FleetConfig | None = None,
                 restart_policy=None,
                 metrics: MetricsRegistry | None = None,
                 source_version: Callable[[], int] | None = None) -> None:
        self.fleet_config = fleet or FleetConfig()
        self.clock = clock
        self.metrics = metrics
        #: Scripted fault injection consulted when the fleet starts
        #: (chaos tests set this before the first query).
        self.killable: Any = None
        self.supervisor = WorkerSupervisor(
            clock, heartbeat_timeout=self.fleet_config.heartbeat_timeout,
            restart_policy=restart_policy,
            max_restarts=self.fleet_config.max_worker_restarts,
            metrics=metrics)
        self._tenants: dict[str, dict] = {}
        self._registrations = 0
        self._pool: WorkerPool | None = None
        self._versions: dict[str, tuple] = {}
        self._request_seq = 0
        self._lock = threading.RLock()
        self._requests: dict[str, FleetRequest] = {}
        self._rr: deque[str] = deque()
        #: worker index -> (request_id, item key) currently assigned.
        self._assignments: dict[int, tuple[str, Any]] = {}
        self._dispatcher: threading.Thread | None = None
        self._stop_dispatcher = threading.Event()
        self._wake = threading.Event()
        self._draining = False
        if context_factory is not None:
            self.register_tenant("default", context_factory,
                                 source_version=source_version)

    # -- tenants -------------------------------------------------------------

    def register_tenant(self, name: str,
                        context_factory: Callable[[], QueryWorkerContext],
                        *, source_version: Callable[[], int] | None = None
                        ) -> None:
        """Serve ``name``'s queries from this fleet.

        Re-registering a tenant (a middleware rebuilt after a mapping
        reload) replaces its context factory; the fleet rebuilds at the
        next idle moment so workers pick up the new world."""
        with self._lock:
            self._registrations += 1
            self._tenants[name] = {
                "context_factory": context_factory,
                "source_version": source_version,
                "generation": self._registrations,
            }

    def _tenant_versions(self) -> dict[str, tuple]:
        return {name: (entry["generation"],
                       entry["source_version"]()
                       if entry["source_version"] is not None else None)
                for name, entry in self._tenants.items()}

    # -- fleet lifecycle ---------------------------------------------------

    def _build_pool(self) -> WorkerPool:
        contexts: dict[str, QueryWorkerContext] = {}
        for name, entry in self._tenants.items():
            context = entry["context_factory"]()
            context.killable = self.killable
            contexts[name] = context
        if set(contexts) == {"default"}:
            # Single-tenant fleets keep the PR 9 wiring: the pool
            # context *is* the worker context (same pickling surface).
            ctx: Any = contexts["default"]
        else:
            ctx = FleetWorkerContext(contexts)
        return build_pool(self.fleet_config, ctx, loop=query_worker_loop,
                          name="fleet-worker")

    def ensure_started(self) -> None:
        """Start the fleet, or rebuild it after a source mutation.

        Spawned children work on repository replicas pickled at fleet
        start; when any registered tenant's live source repository has
        mutated since (its version moved), the stale fleet is torn
        down and respawned so children never answer from a replica the
        caller already replaced.  The rebuild is deferred while
        requests are in flight — they drain on the pool they started
        on — and happens at the next idle admission."""
        with self._lock:
            versions = self._tenant_versions()
            if (self._pool is not None and versions != self._versions
                    and not self._requests):
                self._teardown_locked()
            if self._pool is None:
                if not self._tenants:
                    raise S2SError("the query fleet has no tenants "
                                   "registered")
                pool = self._build_pool()
                pool.start()
                self._pool = pool
                self._versions = versions
                self.supervisor.reset(range(self.fleet_config.n_workers))
                self._start_dispatcher(pool)

    def _start_dispatcher(self, pool: WorkerPool) -> None:
        stop = threading.Event()
        self._stop_dispatcher = stop
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, args=(pool, stop),
            name="fleet-dispatcher", daemon=True)
        self._dispatcher.start()

    def _teardown_locked(self) -> None:
        """Stop the pool and release the dispatcher.

        Only legal with no requests in flight (callers drain or cancel
        first).  The dispatcher is signalled, not joined — it exits on
        its next loop iteration once it observes the pool swap, and a
        generation check keeps a lame-duck dispatcher from ever
        touching the successor fleet's state."""
        pool = self._pool
        self._pool = None
        self._dispatcher = None
        self._stop_dispatcher.set()
        self._wake.set()
        self._assignments.clear()
        if pool is not None:
            pool.shutdown()

    def shutdown(self, *, cancel: bool = False,
                 timeout: float = 30.0) -> None:
        """Stop the fleet; the next query transparently restarts it.

        Never tears the pool out from under an in-flight ``execute``:
        by default shutdown *drains* — it blocks new admissions and
        waits (up to ``timeout``) for in-flight requests to finish on
        the live fleet.  With ``cancel=True`` (or on drain timeout)
        the remaining items are failed instead, so every waiter wakes
        with a degraded — but well-formed — result."""
        with self._lock:
            self._draining = True
            if cancel:
                self._cancel_requests_locked(
                    "query fleet shut down while the shard was in flight")
            waiting = list(self._requests.values())
        try:
            deadline = None if not waiting else timeout
            for request in waiting:
                if not request.finished.wait(timeout=deadline):
                    break
            with self._lock:
                # Drain timed out (or raced a late admission): degrade
                # whatever is left rather than wedging the waiters.
                if self._requests:
                    self._cancel_requests_locked(
                        "query fleet shut down while the shard was "
                        "in flight")
                self._teardown_locked()
        finally:
            self._draining = False

    def _cancel_requests_locked(self, message: str) -> None:
        for request in list(self._requests.values()):
            self._call_locked(request, request.cancel, message)
            self._finalize_locked(request)

    @property
    def started(self) -> bool:
        return self._pool is not None

    def snapshot(self) -> dict:
        """The fleet block for STATUS replies and ``client --status``."""
        with self._lock:
            config = self.fleet_config
            return {
                "workers": config.n_workers,
                "pool": config.pool,
                "shared": len(self._tenants) > 1,
                "tenants": sorted(self._tenants),
                "started": self._pool is not None,
                "inflight_requests": len(self._requests),
                "ready_queue_depth": sum(r.ready_depth()
                                         for r in self._requests.values()),
                "max_inflight_requests": config.max_inflight_requests,
                "tenant_quota": config.tenant_quota,
            }

    # -- admission ----------------------------------------------------------

    def execute(self, schema: ExtractionSchema, *, deadline: Deadline,
                span=NULL_SPAN, tenant: str = "default") -> ShardRunResult:
        """Admit one query's fan-out and block until its shards resolve.

        Returns the per-shard partial outcomes plus the shards that
        failed (restart budget exhausted, or a strict-mode error) or
        timed out; merging is the caller's job
        (:func:`~repro.core.cluster.manager.merge_partials`).  Raises
        :class:`~repro.errors.FleetQuotaExceeded` when an admission
        quota refuses the query."""
        request = _QueryRequest(schema, tenant, deadline, span,
                                self.fleet_config.n_workers)
        return self.serve(request).result

    def serve(self, request: FleetRequest) -> FleetRequest:
        """Admit ``request`` and block until the scheduler retires it;
        re-raises the exception a request method raised, if any."""
        self._admit(request)
        self._wake.set()
        request.finished.wait()
        if request.error is not None:
            raise request.error
        return request

    def tenant_of(self, context_factory: Callable) -> str | None:
        """The tenant registered with ``context_factory``, or None."""
        with self._lock:
            return next((name for name, entry in self._tenants.items()
                         if entry["context_factory"] == context_factory),
                        None)

    def _admit(self, request: FleetRequest) -> None:
        tenant = request.tenant
        with self._lock:
            if self._draining:
                raise S2SError("the query fleet is shutting down")
            if tenant not in self._tenants:
                raise S2SError(f"tenant {tenant!r} is not registered "
                               f"with this fleet")
            config = self.fleet_config
            if (config.max_inflight_requests is not None
                    and len(self._requests)
                    >= config.max_inflight_requests):
                self._reject_locked(
                    tenant, "fleet",
                    f"fleet is at its in-flight request quota "
                    f"({config.max_inflight_requests})")
            if config.tenant_quota is not None:
                backlog = sum(other.backlog()
                              for other in self._requests.values()
                              if other.tenant == tenant)
                if backlog >= config.tenant_quota:
                    self._reject_locked(
                        tenant, "tenant",
                        f"tenant {tenant!r} is at its in-flight shard "
                        f"quota ({config.tenant_quota})")
            self.ensure_started()
            if not self._requests:
                # The restart budget is per workload: a worker lost to
                # an earlier request's chaos must not pre-spend a fresh
                # one's.  Only an idle fleet may reclaim it — a reset
                # mid-flight would erase another request's death
                # bookkeeping.
                self.supervisor.reset(range(self.fleet_config.n_workers))
            self._request_seq += 1
            request_id = f"q{self._request_seq}"
            request.admit(request_id, len(self._requests) + 1)
            self._requests[request_id] = request
            self._rr.append(request_id)
            inflight = len(self._requests)
            for other in self._requests.values():
                other.peak_inflight = max(other.peak_inflight, inflight)
            if self._call_locked(request, request.resolved):
                self._finalize_locked(request)
            else:
                self._feed_workers_locked()
            self._update_gauges()

    def _reject_locked(self, tenant: str, scope: str, message: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "fleet_quota_rejections_total",
                "fleet admissions refused by quota").inc(
                    tenant=tenant, scope=scope)
        raise FleetQuotaExceeded(message, tenant=tenant, scope=scope)

    # -- the dispatcher ------------------------------------------------------

    def _dispatch_loop(self, pool: WorkerPool,
                       stop: threading.Event) -> None:
        """Drain events, supervise, feed free workers — for one pool's
        lifetime.  A lame-duck dispatcher (its pool replaced under it)
        exits without touching the successor's state."""
        config = self.fleet_config
        while not stop.is_set():
            with self._lock:
                if self._pool is not pool:
                    return
                busy = bool(self._requests)
            if not busy:
                self._wake.wait(timeout=0.05)
                self._wake.clear()
                continue
            try:
                events = pool.events(config.real_poll_seconds)
                with self._lock:
                    if self._pool is not pool:
                        return
                    progressed = self._tick(pool, events)
            except Exception as exc:  # the pool or supervisor failed
                with self._lock:
                    for request in list(self._requests.values()):
                        self._retire_locked(request, exc)
                continue
            if not events and not progressed:
                # Idle beat: advance the (possibly fake) clock so
                # heartbeat ages, restart backoffs and deadlines make
                # progress.
                self.clock.sleep(config.poll_seconds)

    def _tick(self, pool: WorkerPool, events: list[dict]) -> bool:
        """One scheduler pass under the lock; True when state moved."""
        moved = [self._apply_event_locked(event) for event in events]
        for request in list(self._requests.values()):
            if self._call_locked(request, request.resolved):
                self._finalize_locked(request)
                moved.append(True)
        moved.append(self._supervise_locked(pool))
        moved.append(self._feed_workers_locked() > 0)
        self._update_gauges()
        return any(moved)

    def _apply_event_locked(self, event: dict) -> bool:
        worker = event.get("shard")
        if worker is not None:
            self.supervisor.beat(worker)
        kind = event.get("kind")
        if kind == "beat":
            return False
        request_id = event.get("request_id")
        progressed = False
        if (kind in ("done", "failed") and self._assignments.get(worker)
                == (request_id, event.get("item"))):
            # The worker finished its assigned item (or a late event
            # from a cancelled incarnation landed *after* the same item
            # was re-assigned to it — either way this worker is free).
            del self._assignments[worker]
            progressed = True
        request = self._requests.get(request_id)
        if (request is not None
                and self._call_locked(request, request.apply, worker, event)):
            progressed = True
        return progressed

    def _supervise_locked(self, pool: WorkerPool) -> bool:
        busy = set(self._assignments)
        has_ready = any(request.ready_depth()
                        for request in self._requests.values())
        # A dead-but-idle worker only matters when there is queued work
        # it could be serving; otherwise it must not burn the restart
        # budget while other items drain.
        relevant = set(range(pool.n_workers)) if has_ready else set(busy)
        verdict = self.supervisor.supervise(pool, busy=busy,
                                            relevant=relevant)
        progressed = bool(verdict.restarted)
        for worker in verdict.deaths:
            if self._release_worker_locked(worker, None):
                progressed = True
        if verdict.aborted is not None:
            message = (f"worker shard {verdict.aborted} exceeded its "
                       f"restart budget "
                       f"({self.fleet_config.max_worker_restarts})")
            if self._release_worker_locked(verdict.aborted, message):
                progressed = True
        return progressed

    def _release_worker_locked(self, worker: int,
                               budget_error: str | None) -> bool:
        """A worker died (or aborted past its budget): tell the request
        whose item it held.  Every other request keeps streaming."""
        assignment = self._assignments.pop(worker, None)
        if assignment is None:
            return False
        request_id, key = assignment
        request = self._requests.get(request_id)
        return request is not None and bool(self._call_locked(
            request, request.worker_lost, key, budget_error=budget_error))

    def _feed_workers_locked(self) -> int:
        """Fair-share dispatch: free workers take the next ready item,
        round-robin across requests, skipping tenants at quota."""
        pool = self._pool
        if pool is None or not self._rr:
            return 0
        free = [worker for worker in range(self.fleet_config.n_workers)
                if worker not in self._assignments
                and worker not in self.supervisor.restart_at
                and pool.alive(worker)]
        if not free:
            return 0
        quota = self.fleet_config.tenant_quota
        occupancy: dict[str, int] = {}
        for request_id, _key in self._assignments.values():
            request = self._requests.get(request_id)
            if request is not None:
                occupancy[request.tenant] = \
                    occupancy.get(request.tenant, 0) + 1
        fed = 0
        skipped = 0
        while free and self._rr and skipped < len(self._rr):
            request_id = self._rr[0]
            self._rr.rotate(-1)
            request = self._requests.get(request_id)
            if request is None or (
                    quota is not None
                    and occupancy.get(request.tenant, 0) >= quota):
                skipped += 1
                continue
            item = self._call_locked(request, request.next_item, free[0])
            if item is None:
                skipped += 1
                continue
            worker = free.pop(0)
            self._assignments[worker] = (request_id, item.key)
            occupancy[request.tenant] = \
                occupancy.get(request.tenant, 0) + 1
            pool.submit(worker, item)
            if self.metrics is not None:
                self.metrics.counter(
                    "shard_dispatches_total",
                    "work items dispatched to fleet workers").inc(
                        shard=worker)
            fed += 1
            skipped = 0
        return fed

    def _call_locked(self, request: FleetRequest, method, *args,
                     **kwargs) -> Any:
        """Call one of ``request``'s methods; if it raises, retire that
        request alone with the error and return None."""
        try:
            return method(*args, **kwargs)
        except Exception as exc:
            self._retire_locked(request, exc)
            return None

    def _retire_locked(self, request: FleetRequest, exc: Exception) -> None:
        request.error = request.error or exc
        try:
            request.cancel(f"fleet request failed: {exc}")
        except Exception:
            pass  # the first error is the one the waiter sees
        self._finalize_locked(request)

    def _finalize_locked(self, request: FleetRequest) -> None:
        """Retire ``request`` (once) and wake its waiter."""
        if self._requests.pop(request.request_id, None) is None:
            return
        self._rr.remove(request.request_id)
        self._update_gauges()
        try:
            request.finish()
        finally:
            request.finished.set()

    def _update_gauges(self) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge(
            "fleet_interleaved_requests",
            "requests currently interleaved over the fleet").set(
                len(self._requests))
        self.metrics.gauge(
            "fleet_ready_queue_depth",
            "work items waiting for a free worker").set(
                sum(request.ready_depth()
                    for request in self._requests.values()))
