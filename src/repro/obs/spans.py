"""Span recording: one event model behind the profile and the job trace.

A *span* is a named, nested wall-time measurement::

    with span("trace_gen", kernel="compress"):
        ...

Every closed span takes one path: :meth:`SpanRecorder.record` on each
recorder active for the current thread.  There are two activations of
that one class:

* the process **profile** (``--profile``, ``repro stats``,
  :func:`collecting`, :func:`enable_profiling`): process-wide, the source
  of the ``repro.obs/1`` ``spans`` and ``stages`` sections;
* a **trace** bound to a :mod:`contextvars` context (:func:`tracing`): a
  served job's timeline, the source of its ``repro.trace/1`` document
  (:func:`repro.obs.report.build_document`).

Tracing alone does not feed the profile, and profiling alone records no
trace.  Spans are **disabled by default**: while neither activation is
live, :func:`span` returns a shared no-op context manager, so
instrumented hot paths pay one flag check and one call per stage (the
overhead budget is asserted in ``benchmarks/test_perf_obs.py``).

Recorders aggregate rather than stream: one event per distinct *path*
(the tuple of span names open on the thread, e.g. ``("sweep",
"evaluate_batch", "trace_gen")``) with a call count, total seconds, the
earliest start and latest end, the first attributes and the pids that
contributed.  A million-configuration sweep costs a dictionary of a few
dozen entries, not a million records.

Across processes, :func:`export_context` captures what records on this
thread -- the profile flag, the trace id and the open span path -- as a
JSON dict.  A :class:`~repro.engine.parallel.ParallelSweep` worker
:func:`activate`\\ s one fresh recorder with it, continuing that path,
and ships its :meth:`~SpanRecorder.snapshot` back; the parent folds the
snapshot into whatever records here with :func:`merge_active`.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MAX_EVENTS",
    "SpanRecorder",
    "activate",
    "collecting",
    "current_path",
    "current_trace",
    "deactivate",
    "disable_profiling",
    "enable_profiling",
    "export_context",
    "get_profile",
    "merge_active",
    "new_trace_id",
    "profiling_enabled",
    "span",
    "trace_active",
    "tracing",
]

logger = logging.getLogger(__name__)

SpanPath = Tuple[str, ...]

#: Distinct span paths kept per recorder; beyond this, events are counted
#: as dropped rather than stored, bounding document size for pathological
#: span cardinality.
MAX_EVENTS = 4096


class _EventStat:
    """Mutable aggregate for one span path within one recorder."""

    __slots__ = ("count", "total_s", "start_s", "end_s", "attrs", "workers")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.start_s: Optional[float] = None
        self.end_s: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.workers: set = set()

    def add(
        self,
        count: int,
        total_s: float,
        start_s: Optional[float],
        end_s: Optional[float],
        attrs: Optional[Dict[str, Any]],
        workers: Iterable[int],
    ) -> None:
        self.count += count
        self.total_s += total_s
        if start_s is not None and (
            self.start_s is None or start_s < self.start_s
        ):
            self.start_s = start_s
        if end_s is not None and (self.end_s is None or end_s > self.end_s):
            self.end_s = end_s
        if attrs and not self.attrs:
            self.attrs = dict(attrs)
        self.workers.update(workers)


class SpanRecorder:
    """Aggregates closed spans by nesting path (thread-safe).

    ``trace_id`` names the trace a context-bound recorder collects (the
    process profile has none).  Wall-clock times come from one
    ``time.time()``/``perf_counter`` anchor pair per recorder, so each
    span costs one ``perf_counter`` call.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.dropped = 0
        self._lock = threading.Lock()
        self._events: Dict[SpanPath, _EventStat] = {}
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()
        self._pid = os.getpid()

    def _stat(self, path: SpanPath) -> Optional[_EventStat]:
        """The aggregate for ``path`` (lock held); ``None`` once capped."""
        stat = self._events.get(path)
        if stat is None:
            if len(self._events) >= MAX_EVENTS:
                self.dropped += 1
                return None
            stat = self._events[path] = _EventStat()
        return stat

    def record(
        self,
        path: Sequence[str],
        start_perf: float,
        end_perf: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold one closed span (``perf_counter`` endpoints) in."""
        self.add_event(
            path,
            self._anchor_wall + (start_perf - self._anchor_perf),
            end_perf - start_perf,
            attrs,
        )

    def add_event(
        self,
        path: Sequence[str],
        start_s: float,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold in an event with an explicit wall-clock start.

        Also for synthetic events that did not run under a span, such as
        the server's ``queue.wait`` covering submit to start.
        """
        with self._lock:
            stat = self._stat(tuple(path))
            if stat is not None:
                stat.add(
                    1,
                    duration_s,
                    start_s,
                    start_s + duration_s,
                    attrs,
                    (self._pid,),
                )

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-compatible event list: one record per distinct path."""
        with self._lock:
            return [
                {
                    "path": list(path),
                    "name": path[-1] if path else "",
                    "count": stat.count,
                    "total_s": stat.total_s,
                    "start_s": stat.start_s,
                    "end_s": stat.end_s,
                    "attrs": dict(stat.attrs),
                    "workers": sorted(stat.workers),
                }
                for path, stat in sorted(self._events.items())
            ]

    def merge(self, events: Iterable[Dict[str, Any]]) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Counts and totals add, extents widen and worker pids union, so
        merging N worker snapshots gives the same events as if every span
        had run here.
        """
        with self._lock:
            for event in events:
                stat = self._stat(tuple(event["path"]))
                if stat is not None:
                    stat.add(
                        int(event["count"]),
                        float(event["total_s"]),
                        event.get("start_s"),
                        event.get("end_s"),
                        event.get("attrs"),
                        event.get("workers", ()),
                    )

    def by_stage(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate over nesting: leaf name -> calls / total seconds.

        The per-stage view the ``repro stats`` table prints; a stage that
        appears under several parents is summed.
        """
        with self._lock:
            stages: Dict[str, Dict[str, Any]] = {}
            for path, stat in self._events.items():
                entry = stages.setdefault(
                    path[-1], {"calls": 0, "total_s": 0.0}
                )
                entry["calls"] += stat.count
                entry["total_s"] += stat.total_s
            for entry in stages.values():
                entry["mean_s"] = (
                    entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
                )
            return stages

    def clear(self) -> None:
        """Drop every event."""
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)


class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The process profile and whether it records.
_profile = SpanRecorder()
_profiling = False

#: The trace bound to the current context, and a process-level count of
#: live bindings: the span() hot path checks the plain integer before
#: touching the ContextVar.
_trace: ContextVar[Optional[SpanRecorder]] = ContextVar(
    "repro_span_trace", default=None
)
_traces = 0
_traces_lock = threading.Lock()

_state = threading.local()


def _stack() -> List[str]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def current_path() -> SpanPath:
    """The tuple of span names currently open on this thread."""
    return tuple(_stack())


def current_trace() -> Optional[SpanRecorder]:
    """The trace bound to the current context, if any."""
    return _trace.get() if _traces else None


def trace_active() -> bool:
    """Whether any trace is bound anywhere in this process."""
    return _traces > 0


def _recorders() -> Tuple[SpanRecorder, ...]:
    """What a span closing here feeds: the profile, the trace, or both.

    A worker's one recorder can be both; it is fed once.
    """
    trace = current_trace()
    if not _profiling:
        return () if trace is None else (trace,)
    if trace is None or trace is _profile:
        return (_profile,)
    return (_profile, trace)


class _Span:
    """An active span: pushes its name on the thread's path stack."""

    __slots__ = ("name", "attrs", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        _stack().append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = time.perf_counter()
        stack = _stack()
        path = tuple(stack)
        stack.pop()
        for recorder in _recorders():
            recorder.record(path, self._start, end, self.attrs)
        if self.attrs and logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "span %s took %.6fs",
                "/".join(path),
                end - self._start,
                extra=self.attrs,
            )
        return False


def span(name: str, **attrs: Any):
    """A context manager timing ``name``.

    No-op unless the profile or a trace records; the disabled path is one
    flag check.
    """
    if not _profiling and not _traces:
        return _NULL_SPAN
    return _Span(name, attrs)


def enable_profiling() -> None:
    """Start recording spans into the process profile."""
    global _profiling
    _profiling = True


def disable_profiling() -> None:
    """Stop profiling (the events already recorded are kept)."""
    global _profiling
    _profiling = False


def profiling_enabled() -> bool:
    """Whether spans currently feed the process profile."""
    return _profiling


def get_profile() -> SpanRecorder:
    """The process profile spans record into while profiling."""
    return _profile


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace identifier."""
    return uuid.uuid4().hex


_Token = Tuple[
    Optional[Tuple[SpanRecorder, bool]], Any, Optional[List[str]]
]


def activate(
    recorder: SpanRecorder,
    *,
    profile: bool = False,
    trace: bool = False,
    path: Optional[Sequence[str]] = None,
) -> _Token:
    """Make ``recorder`` record spans; returns a :func:`deactivate` token.

    ``profile`` installs it as the process profile with profiling on;
    ``trace`` binds it to the current context as its trace; ``path``
    replaces this thread's open span names, so that a worker's spans
    continue the dispatching thread's path.
    """
    global _profile, _profiling, _traces
    previous = None
    if profile:
        previous = (_profile, _profiling)
        _profile, _profiling = recorder, True
    bound = None
    if trace:
        bound = _trace.set(recorder)
        with _traces_lock:
            _traces += 1
    stack = None
    if path is not None:
        stack = _stack()
        _state.stack = list(path)
    return previous, bound, stack


def deactivate(token: _Token) -> None:
    """Undo an :func:`activate`."""
    global _profile, _profiling, _traces
    previous, bound, stack = token
    if stack is not None:
        _state.stack = stack
    if bound is not None:
        _trace.reset(bound)
        with _traces_lock:
            _traces -= 1
    if previous is not None:
        _profile, _profiling = previous


def export_context() -> Optional[Dict[str, Any]]:
    """What records on this thread, as a JSON dict; ``None`` if nothing.

    ``profile`` is whether the process profile records, ``trace_id`` the
    context's trace (or ``None``), and ``path`` this thread's open span
    names.
    """
    trace = current_trace()
    if not _profiling and trace is None:
        return None
    return {
        "profile": _profiling,
        "trace_id": None if trace is None else trace.trace_id,
        "path": list(_stack()),
    }


def merge_active(events: List[Dict[str, Any]]) -> None:
    """Fold a worker recorder's snapshot into what records here."""
    for recorder in _recorders():
        recorder.merge(events)


class _Recording:
    """Context-manager form of :func:`activate`; yields the recorder."""

    def __init__(self, recorder: SpanRecorder, **how: bool) -> None:
        self.recorder = recorder
        self._how = how

    def __enter__(self) -> SpanRecorder:
        self._token = activate(self.recorder, **self._how)
        return self.recorder

    def __exit__(self, *exc_info: Any) -> bool:
        deactivate(self._token)
        return False


def collecting(recorder: Optional[SpanRecorder] = None) -> _Recording:
    """Profile the ``with`` body into an isolated recorder."""
    return _Recording(
        recorder if recorder is not None else SpanRecorder(), profile=True
    )


def tracing(trace_id: Optional[str] = None) -> _Recording:
    """Trace the ``with`` body (this context) into a fresh recorder."""
    return _Recording(SpanRecorder(trace_id or new_trace_id()), trace=True)
