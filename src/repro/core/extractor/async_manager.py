"""The asyncio extraction engine: non-blocking per-source fan-out.

The thread-pool engine in :mod:`repro.core.extractor.manager` burns one
OS thread per in-flight source and caps the pool at 16 by default; a
many-slow-sources workload (the paper's WebL web wrappers especially)
spends most of that pool *waiting*.  :class:`AsyncExtractorManager`
replaces the pool with one event loop: every source becomes a task,
``asyncio.gather``-style fan-out holds hundreds of slow sources in
flight at once, and no cap exists at all.

There is one extraction core and two drivers.  The per-source,
per-entry and per-attempt policy loop (deadlines, single-flight cache,
breaker admission, retries with backoff and budget, replica failover,
spans, problems, health and metrics) lives once, as coroutines on
:class:`~repro.core.extractor.manager.ExtractorManager`.  The serial and
thread engines drive those coroutines with a blocking trampoline; this
engine schedules them as tasks and overrides only the three I/O seams
the loop awaits:

* the rule runs through :meth:`Extractor.aextract` — sources
  implementing :class:`~repro.sources.base.AsyncDataSource` are awaited
  natively, every legacy sync connector is auto-adapted (its extraction
  runs in a worker thread via ``asyncio.to_thread``), so all five
  built-in connectors work unchanged;
* backoff is awaited on the injectable clock (``Clock.sleep_async`` — a
  :class:`~repro.clock.FakeClock` advances instantly, so degraded-world
  tests stay sleep-free);
* the fragment cache's single-flight dedup goes through
  :meth:`~repro.core.extractor.cache.FragmentCache.acquire_async`, so a
  waiting task never blocks the loop its leader runs on.

Span names, annotations, problem wording and metrics are therefore the
same on every engine by construction.  Tasks police ``ctx.deadline``
between entries exactly like pool workers do; the outer ``asyncio.wait``
timeout only matters when a connector blocks in foreign code — then the
source is reported as timed out and its task cancelled rather than
joined.

The synchronous :meth:`AsyncExtractorManager.extract` remains available:
it submits the coroutine to a private, lazily started event loop on a
daemon thread, which is how ``S2SMiddleware.query()`` keeps its blocking
signature under ``concurrency="asyncio"`` — sync and async callers share
one engine, one breaker state, one cache.
"""

from __future__ import annotations

import asyncio
import threading
import time

from ...ids import AttributePath
from ...obs import NULL_SPAN
from ..mapping.attributes import MappingEntry
from ..resilience import Deadline
from .manager import (AnySpan, ExtractionOutcome, ExtractorManager,
                      _RunContext, _SourceResult)
from .records import RawFragment
from .schema import ExtractionSchema


class AsyncExtractorManager(ExtractorManager):
    """Extractor Manager whose fan-out engine is an asyncio event loop.

    Construction is identical to :class:`ExtractorManager`; the
    middleware selects this class when
    ``ResilienceConfig.concurrency.mode == "asyncio"``.  ``extract()``
    stays synchronous (it drives the private loop), ``extract_async()``
    is the native engine for callers that already live on a loop
    (``aquery()``/``aquery_many()``).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._loop_lock = threading.Lock()

    # -- the private event loop -------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        """The private loop, lazily started on a daemon thread."""
        with self._loop_lock:
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._loop_thread = threading.Thread(
                    target=self._loop.run_forever,
                    name="repro-async-extractor", daemon=True)
                self._loop_thread.start()
            return self._loop

    def close(self) -> None:
        """Stop and dispose the private event loop (idempotent).

        Called by the middleware when a mapping reload replaces the
        manager; safe to call on a manager whose loop never started."""
        with self._loop_lock:
            loop, thread = self._loop, self._loop_thread
            self._loop = self._loop_thread = None
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
        if not loop.is_running():
            loop.close()

    def extract(self, required: list[AttributePath],
                *, deadline: Deadline | float | None = None,
                span: AnySpan = NULL_SPAN,
                schema: ExtractionSchema | None = None) -> ExtractionOutcome:
        """Blocking facade over :meth:`extract_async`.

        Runs the coroutine on the private loop, so synchronous callers
        (``S2SMiddleware.query()``, the scheduler's worker threads) get
        the asyncio engine without touching an event loop themselves.
        Concurrent calls interleave as tasks on that one loop — which is
        exactly what single-flight cache dedup expects."""
        future = asyncio.run_coroutine_threadsafe(
            self.extract_async(required, deadline=deadline, span=span,
                               schema=schema),
            self._ensure_loop())
        return future.result()

    # -- the engine --------------------------------------------------------

    async def extract_async(self, required: list[AttributePath],
                            *, deadline: Deadline | float | None = None,
                            span: AnySpan = NULL_SPAN,
                            schema: ExtractionSchema | None = None
                            ) -> ExtractionOutcome:
        """Steps 2-4 with every source a task on the calling loop."""
        started = time.perf_counter()
        ctx, outcome, source_ids = self._start_run(required, deadline,
                                                   schema, span)
        results = await self._fanout_async(source_ids, ctx, outcome, span)
        return self._finish_run(results, ctx, outcome, started)

    async def _fanout_async(self, source_ids: list[str], ctx: _RunContext,
                            outcome: ExtractionOutcome,
                            span: AnySpan) -> list[_SourceResult]:
        """One task per source, bounded by the deadline — no worker cap.

        Tasks police the deadline themselves between entries, so the
        outer timeout (real loop time) only matters when a connector
        blocks in foreign code; those sources are reported as timed out
        and their tasks cancelled."""
        if not source_ids:
            return []
        tasks = {
            asyncio.ensure_future(self._extract_source(
                sid, ctx.schema.by_source[sid], ctx, span)): sid
            for sid in source_ids}
        timeout = (None if ctx.deadline.unbounded
                   else max(ctx.deadline.remaining(), 0.05))
        done, not_done = await asyncio.wait(
            set(tasks), timeout=timeout,
            return_when=asyncio.FIRST_EXCEPTION)
        results = []
        try:
            for task in done:
                results.append(task.result())  # re-raises in strict mode
        except BaseException:
            for task in not_done:
                task.cancel()
            raise
        for task in not_done:
            task.cancel()
            self._report_unfinished(tasks[task], ctx, outcome)
        return results

    # -- the awaiting seams ------------------------------------------------

    async def _run_rule(self, extractor, source,
                        entry: MappingEntry) -> RawFragment:
        return await extractor.aextract(source, entry)

    async def _sleep(self, seconds: float) -> None:
        await self.config.clock.sleep_async(seconds)

    async def _acquire(self, entry: MappingEntry
                       ) -> tuple[RawFragment | None, bool]:
        return await self.cache.acquire_async(entry)
