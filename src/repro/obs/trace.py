"""Distributed tracing: one merged timeline per job.

Where :mod:`repro.obs.spans` answers "how much time went into each stage
overall", tracing answers "what happened to *this* job, when, and on which
worker".  A :class:`TraceRecorder` is bound to a ``trace_id`` (minted by
:class:`~repro.serve.client.ServeClient` at submit, or by the server for
bare submissions) and installed in a :mod:`contextvars` context, so every
:func:`~repro.obs.spans.span` that closes while the trace is active also
lands here -- with wall-clock start/end, not just a duration sum.

Events aggregate by span *path* (the tuple of active span names), exactly
like the span collector: a chunk evaluating 200 configurations of one
trace produces one ``("job", "sweep", "chunk[0]", "evaluate_batch",
"energy")`` event with ``count=200``, its earliest start and latest end,
not 200 records.  Chunk wrappers get
unique names (``chunk[<first config index>]``), so the fan-out stays
visible per chunk and per worker pid.

Cross-process flow mirrors the metrics/span chunk protocol of
:class:`~repro.engine.parallel.ParallelSweep`: the parent exports a
``(trace_id, path prefix)`` context with :func:`export_context`, each
worker activates a fresh recorder against it (:func:`activate_remote`),
and ships :meth:`TraceRecorder.snapshot` back in the chunk payload for
the parent to :meth:`TraceRecorder.merge`.  Wall-clock times come from a
single ``time.time()``/``perf_counter`` anchor pair per recorder, so the
per-span cost stays one ``perf_counter`` call.

The finished timeline is a ``repro.trace/1`` document
(:func:`build_document`): events sorted by start time with deterministic
``span_id``/``parent_id`` links derived from paths, persisted in the
result store's ``traces`` table and served at ``GET /jobs/<id>/trace``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "TraceRecorder",
    "activate_remote",
    "build_document",
    "current_trace",
    "deactivate",
    "export_context",
    "new_trace_id",
    "trace_active",
    "tracing",
]

#: Schema tag stamped on every trace document.
TRACE_SCHEMA = "repro.trace/1"

#: Distinct span paths kept per recorder; beyond this, events are counted
#: as dropped rather than stored, bounding document size for pathological
#: span cardinality.
MAX_EVENTS = 4096

TracePath = Tuple[str, ...]


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


class TraceRecorder:
    """Collects the span events of one trace (thread-safe).

    ``base_path`` prefixes every recorded path; worker-side recorders use
    it to splice their events under the parent's span stack (e.g.
    ``("job", "sweep")``) so parent/child links survive the process hop.
    """

    def __init__(self, trace_id: str, base_path: TracePath = ()) -> None:
        self.trace_id = trace_id
        self.base_path = tuple(base_path)
        self.dropped = 0
        self._lock = threading.Lock()
        self._events: Dict[TracePath, _EventStat] = {}
        # One wall/mono anchor pair: span starts/ends are measured with
        # perf_counter and converted to epoch seconds on snapshot.
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()
        self._pid = os.getpid()

    def record(
        self,
        path: TracePath,
        start_perf: float,
        end_perf: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold one completed span (perf_counter endpoints) into the trace."""
        start_s = self._anchor_wall + (start_perf - self._anchor_perf)
        self.add_event(
            self.base_path + tuple(path),
            start_s,
            end_perf - start_perf,
            attrs,
        )

    def add_event(
        self,
        path: Iterable[str],
        start_s: float,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
        worker: Optional[int] = None,
    ) -> None:
        """Record an event with explicit wall-clock start and duration.

        Used directly for synthetic events that did not run under a span
        -- e.g. the server's ``queue.wait`` covering submit->start.
        """
        key = tuple(path)
        with self._lock:
            stat = self._events.get(key)
            if stat is None:
                if len(self._events) >= MAX_EVENTS:
                    self.dropped += 1
                    return
                stat = self._events[key] = _EventStat()
            stat.count += 1
            stat.total_s += duration_s
            end_s = start_s + duration_s
            if stat.start_s is None or start_s < stat.start_s:
                stat.start_s = start_s
            if stat.end_s is None or end_s > stat.end_s:
                stat.end_s = end_s
            if attrs and not stat.attrs:
                stat.attrs = dict(attrs)
            stat.workers.add(self._pid if worker is None else worker)

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-compatible event list (one record per distinct path)."""
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

        Worker events arrive with absolute paths (their ``base_path`` was
        applied at record time), so counts/totals add and start/end
        extremes widen exactly as if the spans had run here.
        """
        with self._lock:
            for record in events:
                key = tuple(record["path"])
                stat = self._events.get(key)
                if stat is None:
                    if len(self._events) >= MAX_EVENTS:
                        self.dropped += 1
                        continue
                    stat = self._events[key] = _EventStat()
                stat.count += int(record["count"])
                stat.total_s += float(record["total_s"])
                start_s = record.get("start_s")
                end_s = record.get("end_s")
                if start_s is not None and (
                    stat.start_s is None or start_s < stat.start_s
                ):
                    stat.start_s = start_s
                if end_s is not None and (
                    stat.end_s is None or end_s > stat.end_s
                ):
                    stat.end_s = end_s
                if record.get("attrs") and not stat.attrs:
                    stat.attrs = dict(record["attrs"])
                stat.workers.update(record.get("workers", ()))

    def __len__(self) -> int:
        return len(self._events)


_current: ContextVar[Optional[TraceRecorder]] = ContextVar(
    "repro_trace_recorder", default=None
)

# Process-level count of active recorders: the span() hot path checks this
# plain attribute before touching the ContextVar, keeping the disabled
# cost to one module attribute load (asserted in benchmarks/test_perf_obs).
_active = 0
_active_lock = threading.Lock()


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace identifier."""
    return uuid.uuid4().hex


def trace_active() -> bool:
    """Whether any trace recorder is active in this process."""
    return _active > 0


def current_trace() -> Optional[TraceRecorder]:
    """The recorder bound to the current context, if tracing is active."""
    if not _active:
        return None
    return _current.get()


def activate_remote(
    context: Optional[Dict[str, Any]],
) -> Optional[Tuple[Any, TraceRecorder]]:
    """Install a fresh recorder for an exported parent ``context``.

    Returns an opaque token for :func:`deactivate`, or ``None`` when the
    context is ``None`` (tracing off) -- mirroring how sweep workers
    activate span collectors.
    """
    if context is None:
        return None
    recorder = TraceRecorder(
        str(context.get("trace_id", "")),
        tuple(context.get("path", ())),
    )
    return _activate(recorder), recorder


def _activate(recorder: TraceRecorder) -> Any:
    global _active
    token = _current.set(recorder)
    with _active_lock:
        _active += 1
    return token


def deactivate(token: Any) -> None:
    """Undo a previous activation (token from :func:`activate_remote`)."""
    global _active
    if token is None:
        return
    if isinstance(token, tuple):  # (token, recorder) pairs pass through
        token = token[0]
    _current.reset(token)
    with _active_lock:
        _active -= 1


def export_context(
    path: TracePath = (),
) -> Optional[Dict[str, Any]]:
    """The current trace as a JSON dict for a worker, or ``None``.

    ``path`` is the dispatching thread's open span stack (from
    :func:`repro.obs.spans.current_path`); workers prefix their events
    with it so chunk spans nest under the parent's ``sweep`` span.
    """
    recorder = current_trace()
    if recorder is None:
        return None
    return {
        "trace_id": recorder.trace_id,
        "path": list(recorder.base_path) + list(path),
    }


class _Tracing:
    """Context-manager form: install a recorder, yield it, restore."""

    def __init__(self, trace_id: Optional[str], base_path: TracePath) -> None:
        self.recorder = TraceRecorder(trace_id or new_trace_id(), base_path)

    def __enter__(self) -> TraceRecorder:
        self._token = _activate(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info: Any) -> bool:
        deactivate(self._token)
        return False


def tracing(
    trace_id: Optional[str] = None, base_path: TracePath = ()
) -> _Tracing:
    """Record spans in the ``with`` body into a fresh :class:`TraceRecorder`."""
    return _Tracing(trace_id, base_path)


def _span_id(trace_id: str, path: TracePath) -> str:
    digest = hashlib.sha256(
        ("\x1f".join((trace_id,) + tuple(path))).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def build_document(
    recorder: TraceRecorder,
    job_id: Optional[str] = None,
    extra_events: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble the ``repro.trace/1`` document for a finished trace.

    Events are sorted by wall-clock start; ``span_id`` is a deterministic
    hash of ``(trace_id, path)`` and ``parent_id`` links each event to the
    event one path element up (``None`` for roots), so parent/child
    relationships survive JSON round-trips without mutable state.
    """
    events = recorder.snapshot()
    if extra_events:
        events.extend(extra_events)
    known = {tuple(event["path"]) for event in events}
    workers: set = set()
    documents = []
    for event in events:
        path = tuple(event["path"])
        parent = path[:-1]
        workers.update(event.get("workers", ()))
        documents.append(
            {
                "span_id": _span_id(recorder.trace_id, path),
                "parent_id": (
                    _span_id(recorder.trace_id, parent)
                    if parent in known
                    else None
                ),
                **event,
            }
        )
    documents.sort(
        key=lambda e: (
            e["start_s"] if e["start_s"] is not None else float("inf"),
            len(e["path"]),
            e["path"],
        )
    )
    starts = [e["start_s"] for e in documents if e["start_s"] is not None]
    ends = [e["end_s"] for e in documents if e["end_s"] is not None]
    return {
        "schema": TRACE_SCHEMA,
        "trace_id": recorder.trace_id,
        "job_id": job_id,
        "started_s": min(starts) if starts else None,
        "duration_s": (max(ends) - min(starts)) if starts and ends else 0.0,
        "workers": sorted(workers),
        "dropped": recorder.dropped,
        "events": documents,
    }
