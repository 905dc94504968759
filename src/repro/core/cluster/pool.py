"""Generic supervised worker pools: thread and spawn-subprocess.

Generalized from the ingest pipeline's worker pools so the sharded
query engine and the ingest coordinator share one fleet substrate.  A
pool owns ``n_workers`` shard workers; each worker runs a caller-
supplied *loop function* over a private inbox and reports plain-dict
events (``beat`` / ``done`` / ``stage`` / ``failed``) on a shared
results queue.  The loop function — not the pool — defines what a work
item means, which is how the same two pool flavours run both the
ingest stage waterfall and per-shard query extraction.

The loop contract::

    def loop(shard, inbox, results, ctx, *, cancel=None,
             in_subprocess=False) -> None:
        # drain inbox until the None sentinel; emit dicts carrying at
        # least {"kind": ..., "shard": shard} on results.put

Thread pools share the live context object (and therefore the
coordinator's clock, breakers and fault-injection state); subprocess
pools use the ``spawn`` start method deliberately — children re-import
the loop function by reference and re-pickle the context, enforcing
the pickling contract a distributed deployment would need.  A worker
that raises :class:`~repro.sources.flaky.WorkerCrashed` (or calls
``os._exit``) dies silently; supervision must notice on its own.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import threading
from typing import Any, Callable, Protocol

#: Exit code a subprocess worker dies with on a scripted kill.
KILL_EXIT_CODE = 17

#: The worker main-loop callable a pool runs on each shard.
WorkerLoop = Callable[..., None]


class WorkerPool(Protocol):
    """What a coordinator requires of a pool of shard workers."""

    n_workers: int

    def start(self) -> None: ...
    def submit(self, shard: int, item: Any) -> None: ...
    def events(self, timeout: float) -> list[dict]: ...
    def alive(self, shard: int) -> bool: ...
    def restart(self, shard: int) -> None: ...
    def shutdown(self) -> None: ...


class _ThreadWorker:
    __slots__ = ("thread", "inbox", "cancel")

    def __init__(self, thread: threading.Thread,
                 inbox: "queue_module.Queue", cancel: threading.Event
                 ) -> None:
        self.thread = thread
        self.inbox = inbox
        self.cancel = cancel


class ThreadWorkerPool:
    """Shard workers as daemon threads sharing the process state.

    The cheap default: no pickling, shared fault-injection state (a
    scripted kill consumed by one worker is gone for all), and the
    coordinator's FakeClock is genuinely shared with the workers."""

    def __init__(self, ctx: Any, n_workers: int = 2, *,
                 loop: WorkerLoop, name: str = "worker") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.ctx = ctx
        self.n_workers = n_workers
        self.name = name
        self._loop = loop
        self.results: "queue_module.Queue[dict]" = queue_module.Queue()
        self._workers: dict[int, _ThreadWorker] = {}

    def _spawn(self, shard: int) -> _ThreadWorker:
        inbox: "queue_module.Queue" = queue_module.Queue()
        cancel = threading.Event()
        thread = threading.Thread(
            target=self._loop, args=(shard, inbox, self.results, self.ctx),
            kwargs={"cancel": cancel}, daemon=True,
            name=f"{self.name}-{shard}")
        thread.start()
        return _ThreadWorker(thread, inbox, cancel)

    def start(self) -> None:
        for shard in range(self.n_workers):
            self._workers[shard] = self._spawn(shard)

    def submit(self, shard: int, item: Any) -> None:
        self._workers[shard].inbox.put(item)

    def events(self, timeout: float) -> list[dict]:
        collected: list[dict] = []
        try:
            collected.append(self.results.get(timeout=timeout))
        except queue_module.Empty:
            return collected
        while True:
            try:
                collected.append(self.results.get_nowait())
            except queue_module.Empty:
                return collected

    def alive(self, shard: int) -> bool:
        worker = self._workers.get(shard)
        return worker is not None and worker.thread.is_alive()

    def restart(self, shard: int) -> None:
        old = self._workers.get(shard)
        if old is not None:
            old.cancel.set()  # release a hung worker, if that's the cause
        self._workers[shard] = self._spawn(shard)

    def shutdown(self) -> None:
        for worker in self._workers.values():
            worker.cancel.set()
            worker.inbox.put(None)
        for worker in self._workers.values():
            worker.thread.join(timeout=1.0)
        self._workers.clear()


def _subprocess_main(loop: WorkerLoop, shard: int, inbox, results, cancel,
                     context_bytes: bytes) -> None:
    """Top-level subprocess entry point (spawn requires importability).

    ``loop`` crosses the boundary by reference (a module-level function
    pickles as its dotted path), the context by value."""
    ctx = pickle.loads(context_bytes)
    loop(shard, inbox, results, ctx, cancel=cancel, in_subprocess=True)


class SubprocessWorkerPool:
    """Shard workers as spawned subprocesses (real process isolation).

    Everything crossing the boundary is pickled: the worker context at
    spawn, work items on dispatch, payloads on the way back — which is
    exactly the contract a distributed deployment would need.  A
    scripted kill here is a genuine ``os._exit``."""

    def __init__(self, ctx: Any, n_workers: int = 2, *,
                 loop: WorkerLoop, name: str = "worker") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        import multiprocessing
        self._mp = multiprocessing.get_context("spawn")
        self.ctx = ctx
        self.name = name
        self._loop = loop
        self._context_bytes = pickle.dumps(ctx)
        self.n_workers = n_workers
        self.results = self._mp.Queue()
        self._workers: dict[int, Any] = {}
        self._inboxes: dict[int, Any] = {}
        self._cancels: dict[int, Any] = {}

    def _spawn(self, shard: int) -> None:
        inbox = self._mp.Queue()
        cancel = self._mp.Event()
        process = self._mp.Process(
            target=_subprocess_main,
            args=(self._loop, shard, inbox, self.results, cancel,
                  self._context_bytes),
            daemon=True, name=f"{self.name}-{shard}")
        process.start()
        self._workers[shard] = process
        self._inboxes[shard] = inbox
        self._cancels[shard] = cancel

    def start(self) -> None:
        for shard in range(self.n_workers):
            self._spawn(shard)

    def submit(self, shard: int, item: Any) -> None:
        self._inboxes[shard].put(item)

    def events(self, timeout: float) -> list[dict]:
        collected: list[dict] = []
        try:
            collected.append(self.results.get(timeout=timeout))
        except queue_module.Empty:
            return collected
        while True:
            try:
                collected.append(self.results.get_nowait())
            except queue_module.Empty:
                return collected

    def alive(self, shard: int) -> bool:
        process = self._workers.get(shard)
        return process is not None and process.is_alive()

    def restart(self, shard: int) -> None:
        old = self._workers.get(shard)
        if old is not None and old.is_alive():
            self._cancels[shard].set()
            old.terminate()
            old.join(timeout=2.0)
        self._spawn(shard)

    def shutdown(self) -> None:
        for shard, process in list(self._workers.items()):
            self._cancels[shard].set()
            if process.is_alive():
                self._inboxes[shard].put(None)
        for process in self._workers.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
        self._workers.clear()
        self._inboxes.clear()
        self._cancels.clear()


def build_pool(fleet: Any, ctx: Any, *, loop: WorkerLoop,
               name: str) -> WorkerPool:
    """The pool a :class:`~repro.config.FleetConfig` describes:
    ``fleet.n_workers`` workers of flavour ``fleet.pool``."""
    kind = SubprocessWorkerPool if fleet.pool == "spawn" else ThreadWorkerPool
    return kind(ctx, fleet.n_workers, loop=loop, name=name)
