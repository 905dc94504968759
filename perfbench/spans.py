"""In-memory span recording around calls into the middleware's layers.

The benchmark measures layers from the outside: :class:`SpanRecorder`
replaces a public function or method with a wrapper that records one
span per call (name, start, end, parent span, request id) and restores
the original when tracing stops.  Nothing in ``src/`` changes, and an
untraced run executes the original code objects only.

Parents follow :mod:`contextvars`, so a span opened inside a coroutine
or inside ``asyncio.to_thread`` nests under the caller's span, while a
call on a fleet worker thread starts a root span of its own.  A layer's
*self time* is its spans' durations minus the part of each interval its
child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass

_CURRENT_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)
_CURRENT_REQUEST: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_request", default="")


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    request_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def set_request(request_id: str) -> contextvars.Token:
    """Tag every span opened from this context with ``request_id``."""
    return _CURRENT_REQUEST.set(request_id)


def reset_request(token: contextvars.Token) -> None:
    _CURRENT_REQUEST.reset(token)


class SpanRecorder:
    """Collects spans and per-name counters while wrappers are installed.

    ``wrap(owner, attribute, name)`` patches ``owner.attribute`` (a class
    method or a module-level function); ``restore()`` undoes every patch.
    ``on_result`` hooks let a wrapper count what a call produced (rules,
    entities, store hits) without a second call into the layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def _open(self) -> tuple[int, int | None, contextvars.Token, float]:
        span_id = next(self._ids)
        parent = _CURRENT_SPAN.get()
        token = _CURRENT_SPAN.set(span_id)
        return span_id, parent, token, time.perf_counter()

    def _close(self, name: str, opened) -> Span:
        span_id, parent, token, start = opened
        end = time.perf_counter()
        _CURRENT_SPAN.reset(token)
        span = Span(span_id, parent, name, start, end,
                    _CURRENT_REQUEST.get())
        with self._lock:
            self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float,
            request_id: str) -> None:
        """Record a root span timed by the caller."""
        with self._lock:
            self.spans.append(Span(next(self._ids), None, name, start, end,
                                   request_id))

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner: object, attribute: str, name: str, *,
             on_result=None, request_of=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute``.  ``on_result(recorder, span, args, result)``
        runs after each call that returns; ``request_of(args)`` names
        the request a call serves when the caller's context cannot
        (fleet worker threads)."""
        original = inspect.getattr_static(owner, attribute)
        function = getattr(owner, attribute)
        recorder = self

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                opened = recorder._open()
                request_token = None
                if request_of is not None:
                    request_token = _CURRENT_REQUEST.set(request_of(args))
                try:
                    result = await function(*args, **kwargs)
                finally:
                    span = recorder._close(name, opened)
                    if request_token is not None:
                        _CURRENT_REQUEST.reset(request_token)
                if on_result is not None:
                    on_result(recorder, span, args, result)
                return result
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                opened = recorder._open()
                request_token = None
                if request_of is not None:
                    request_token = _CURRENT_REQUEST.set(request_of(args))
                try:
                    result = function(*args, **kwargs)
                finally:
                    span = recorder._close(name, opened)
                    if request_token is not None:
                        _CURRENT_REQUEST.reset(request_token)
                if on_result is not None:
                    on_result(recorder, span, args, result)
                return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Forget recorded spans and counts; wrappers stay installed."""
        with self._lock:
            self.spans = []
            self.counts = {}

    # -- folding --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children's cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                [(child.start, child.end)
                 for child in children.get(span.span_id, ())])
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.duration - covered)
        return totals

    def inclusive_times(self) -> dict[str, float]:
        """Seconds per span name, children included."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent,
                    "name": span.name, "start": span.start,
                    "end": span.end, "request_id": span.request_id}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered
