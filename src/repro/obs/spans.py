"""Lightweight span tracing for the evaluation pipeline.

A *span* is a named, nested wall-time measurement::

    with span("trace_gen", kernel="compress"):
        ...

Spans are **disabled by default**: :func:`span` then returns a shared
no-op context manager, so instrumented hot paths pay one flag check and
one call per stage (the overhead budget is asserted in
``benchmarks/test_perf_obs.py``).  When enabled -- by the CLI's
``--profile`` flag, the ``repro stats`` subcommand or
:func:`enable_profiling` -- each exit records ``(path, elapsed)`` into the
process-local :class:`SpanCollector`, where *path* is the tuple of active
span names on the current thread
(``("sweep", "evaluate_batch", "trace_gen")``),
preserving parent/child nesting.

Collectors aggregate rather than stream: one entry per distinct path with
a call count and total seconds, so a million-configuration sweep costs a
dictionary of a dozen entries, not a million records.  Snapshots are plain
JSON-compatible lists, which is what lets
:class:`~repro.engine.parallel.ParallelSweep` ship worker-side collections
across the process boundary and :meth:`SpanCollector.merge` fold them back
into the parent.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from . import trace as _trace

__all__ = [
    "SpanCollector",
    "collecting",
    "current_path",
    "disable_profiling",
    "enable_profiling",
    "get_collector",
    "profiling_enabled",
    "reset_stack",
    "restore_stack",
    "span",
]

logger = logging.getLogger(__name__)

SpanKey = Tuple[str, ...]


class _SpanStat:
    """Mutable accumulator for one span path."""

    __slots__ = ("count", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0


class SpanCollector:
    """Aggregates span timings by nesting path (thread-safe).

    The collector is process-local; cross-process runs produce one
    collector per worker whose :meth:`snapshot` the parent merges with
    :meth:`merge`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[SpanKey, _SpanStat] = {}

    def record(self, path: SpanKey, elapsed_s: float) -> None:
        """Fold one completed span into the aggregate."""
        with self._lock:
            stat = self._stats.get(path)
            if stat is None:
                stat = self._stats[path] = _SpanStat()
            stat.count += 1
            stat.total_s += elapsed_s

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-compatible copy: one record per distinct path."""
        with self._lock:
            return [
                {
                    "path": list(path),
                    "name": path[-1],
                    "count": stat.count,
                    "total_s": stat.total_s,
                }
                for path, stat in sorted(self._stats.items())
            ]

    def merge(self, snapshot: List[Dict[str, Any]]) -> None:
        """Fold another collector's :meth:`snapshot` into this one.

        Counts and totals add, so merging N worker snapshots yields the
        same aggregate as if every span had run in this process.
        """
        with self._lock:
            for record in snapshot:
                path = tuple(record["path"])
                stat = self._stats.get(path)
                if stat is None:
                    stat = self._stats[path] = _SpanStat()
                stat.count += int(record["count"])
                stat.total_s += float(record["total_s"])

    def by_stage(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate over nesting: leaf name -> calls / total seconds.

        The per-stage view the ``repro stats`` table prints; a stage that
        appears under several parents (``evaluate`` under ``sweep`` and at
        top level in merged worker snapshots) is summed.
        """
        with self._lock:
            stages: Dict[str, Dict[str, Any]] = {}
            for path, stat in self._stats.items():
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
        """Drop every aggregate."""
        with self._lock:
            self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)


class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_enabled = False
_collector = SpanCollector()
_state = threading.local()


def _stack() -> List[str]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def current_path() -> Tuple[str, ...]:
    """The tuple of span names currently open on this thread.

    :class:`~repro.engine.parallel.ParallelSweep` exports this alongside
    the trace context so worker-side chunk events nest under the
    dispatching thread's open spans (typically ``("job", "sweep")``).
    """
    return tuple(_stack())


def reset_stack() -> List[str]:
    """Swap in an empty span stack for this thread; returns the old one.

    A forked pool worker inherits the dispatching thread's open span
    names, which would prefix every chunk path a second time (the trace
    context already carries them as the worker recorder's base path).
    Workers clear the inherited stack on chunk entry and
    :func:`restore_stack` it on exit.
    """
    old = _stack()
    _state.stack = []
    return old


def restore_stack(stack: List[str]) -> None:
    """Undo a previous :func:`reset_stack`."""
    _state.stack = stack


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
        elapsed = end - self._start
        stack = _stack()
        path = tuple(stack)
        stack.pop()
        if _enabled:
            _collector.record(path, elapsed)
        if _trace._active:
            recorder = _trace.current_trace()
            if recorder is not None:
                recorder.record(path, self._start, end, self.attrs)
        if self.attrs and logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "span %s took %.6fs", "/".join(path), elapsed, extra=self.attrs
            )
        return False


def span(name: str, **attrs: Any):
    """A context manager timing ``name``.

    No-op unless profiling (aggregate stage sums) or an active trace
    (per-job timeline, :mod:`repro.obs.trace`) wants the measurement;
    the disabled path is one flag check per sink.
    """
    if not _enabled and not _trace._active:
        return _NULL_SPAN
    return _Span(name, attrs)


def enable_profiling() -> None:
    """Start recording spans into the process collector."""
    global _enabled
    _enabled = True


def disable_profiling() -> None:
    """Stop recording spans (already-collected aggregates are kept)."""
    global _enabled
    _enabled = False


def profiling_enabled() -> bool:
    """Whether :func:`span` currently records."""
    return _enabled


def get_collector() -> SpanCollector:
    """The process-local collector spans record into."""
    return _collector


def activate(
    collector: SpanCollector, enabled: bool = True
) -> Tuple[SpanCollector, bool]:
    """Swap in ``collector`` (and the enabled flag); returns a restore token.

    Used by :class:`~repro.engine.parallel.ParallelSweep` workers to record
    a chunk into a fresh collector regardless of whatever state the worker
    inherited at fork, and by tests needing isolation.
    """
    global _collector, _enabled
    token = (_collector, _enabled)
    _collector = collector
    _enabled = enabled
    return token


def restore(token: Tuple[SpanCollector, bool]) -> None:
    """Undo a previous :func:`activate`."""
    global _collector, _enabled
    _collector, _enabled = token


class _Collecting:
    """Context-manager form of :func:`activate`/:func:`restore`."""

    def __init__(self, collector: Optional[SpanCollector]) -> None:
        self.collector = collector if collector is not None else SpanCollector()

    def __enter__(self) -> SpanCollector:
        self._token = activate(self.collector)
        return self.collector

    def __exit__(self, *exc_info: Any) -> bool:
        restore(self._token)
        return False


def collecting(collector: Optional[SpanCollector] = None) -> _Collecting:
    """Record spans into an isolated collector for the ``with`` body."""
    return _Collecting(collector)
