"""Workloads: everything the engine can generate an address trace for.

The four exploration layers of the repo differ only in where their traces
come from: loop-nest kernels regenerate per ``(T, L, B)`` with the
Section 4.1 layout (the layout depends on ``(T, L)``, the access order on
``B``) and per ``B`` alone with the dense layout, instruction streams and
raw Dinero traces are fixed, and composite programs aggregate kernels.
The :class:`Workload` protocol reduces all of them to two methods:

* ``trace_key(config)`` -- the hashable identity of the trace a
  configuration needs (the :class:`~repro.engine.cache.EvalCache` key);
  it names exactly the geometry the trace depends on;
* ``trace_for(config, cache)`` -- the actual :class:`TraceBundle`;
  ``cache`` is the evaluator's :class:`~repro.engine.cache.EvalCache`, in
  which a workload may memoise intermediate work (the kernel layout).

Keys are structural: two equal kernels produce equal keys, so separate
explorer instances over the same kernel share cached work.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Hashable, NamedTuple, Optional, Tuple

from repro.cache.trace import MemoryTrace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.config import CacheConfig
    from repro.engine.cache import EvalCache
    from repro.icache.blocks import ControlFlowTrace
    from repro.kernels.base import Kernel

__all__ = [
    "InstructionWorkload",
    "KernelWorkload",
    "TraceBundle",
    "TraceWorkload",
    "Workload",
    "trace_fingerprint",
]


class TraceBundle(NamedTuple):
    """A concrete trace plus the metadata the metric assembly needs.

    ``events`` is the paper's trip count (``None`` means one event per
    access); ``conflict_free`` records whether the layout that produced the
    trace was certified conflict-free (Section 4.1).
    """

    trace: MemoryTrace
    conflict_free: bool = False
    events: Optional[int] = None


def trace_fingerprint(trace: MemoryTrace) -> str:
    """Stable content hash of a trace (addresses + write flags).

    Used to key raw traces that carry no structural identity of their own,
    e.g. Dinero imports.  Stable across processes, unlike ``hash()``.
    """
    digest = hashlib.sha1()
    digest.update(trace.addresses.tobytes())
    digest.update(trace.is_write.tobytes())
    return digest.hexdigest()


class Workload:
    """Protocol: a source of address traces for the evaluation engine.

    Subclasses must implement :meth:`trace_key` and :meth:`trace_for`;
    :meth:`validate` may reject configurations that make no sense for the
    workload (e.g. tiling an instruction stream).
    """

    #: Stable identity of the workload itself (prefix of every trace key).
    key: Hashable = None

    def validate(self, config: "CacheConfig") -> None:
        """Raise ``ValueError`` if ``config`` does not apply to this workload."""

    def trace_key(self, config: "CacheConfig") -> Hashable:
        """Hashable identity of the trace ``config`` evaluates against."""
        raise NotImplementedError

    def trace_for(
        self, config: "CacheConfig", cache: "EvalCache"
    ) -> TraceBundle:
        """Generate the trace ``config`` evaluates against.

        ``cache`` is the evaluator's cache, in which intermediate work may
        be memoised.
        """
        raise NotImplementedError


class KernelWorkload(Workload):
    """A loop-nest kernel; traces depend on ``(T, L, B)`` or on ``B`` alone.

    With ``optimize_layout`` set, the Section 4.1 layout depends on
    ``(T, L)`` and the access order on ``B``, so the trace key is
    ``(key, T, L, B)``; the layout itself is memoised once per ``(T, L)``
    in the evaluator's cache under ``("layout", key, T, L)``, so the
    tilings of one geometry and traces rebuilt after an eviction share it.
    Without it the dense layout is fixed and the key is ``(key, B)``.  The
    kernel's frozen-dataclass equality is the cache identity, so equal
    kernels share traces across explorer instances.
    """

    def __init__(self, kernel: "Kernel", optimize_layout: bool = True) -> None:
        self.kernel = kernel
        self.optimize_layout = optimize_layout
        self.key = ("kernel", kernel, optimize_layout)

    def trace_key(self, config: "CacheConfig") -> Hashable:
        if self.optimize_layout:
            return (self.key, config.size, config.line_size, config.tiling)
        return (self.key, config.tiling)

    def trace_for(
        self, config: "CacheConfig", cache: "EvalCache"
    ) -> TraceBundle:
        if self.optimize_layout:
            geometry = (config.size, config.line_size)
            assignment = cache.miss(
                ("layout", self.key) + geometry,
                lambda: self.kernel.optimized_layout(*geometry),
            )
            layout = assignment.layout
            conflict_free = assignment.conflict_free
        else:
            layout = self.kernel.default_layout()
            conflict_free = False
        trace = self.kernel.trace(layout=layout, tile=config.tiling)
        return TraceBundle(
            trace=trace,
            conflict_free=conflict_free,
            events=self.kernel.nest.iterations,
        )


class InstructionWorkload(Workload):
    """An instruction-fetch stream; one fixed trace for every geometry."""

    def __init__(self, execution: "ControlFlowTrace") -> None:
        self.execution = execution
        self._trace: Optional[MemoryTrace] = None
        self._key: Optional[Tuple] = None

    @property
    def trace(self) -> MemoryTrace:
        """The expanded fetch trace (computed once, held for identity)."""
        if self._trace is None:
            self._trace = self.execution.fetch_trace()
        return self._trace

    @property
    def key(self) -> Hashable:  # type: ignore[override]
        if self._key is None:
            self._key = ("itrace", trace_fingerprint(self.trace))
        return self._key

    def validate(self, config: "CacheConfig") -> None:
        if config.tiling != 1:
            raise ValueError("tiling does not apply to instruction caches")

    def trace_key(self, config: "CacheConfig") -> Hashable:
        return self.key

    def trace_for(
        self, config: "CacheConfig", cache: "EvalCache"
    ) -> TraceBundle:
        return TraceBundle(trace=self.trace, conflict_free=False, events=None)


class TraceWorkload(Workload):
    """A raw, pre-generated trace (e.g. a Dinero ``din`` import)."""

    def __init__(
        self,
        trace: MemoryTrace,
        events: Optional[int] = None,
        conflict_free: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.trace = trace
        self.events = events
        self.conflict_free = conflict_free
        self.name = name
        # Content-addressed identity: equal traces share cached work even
        # when loaded twice from disk.
        self.key = ("trace", name, trace_fingerprint(trace), events)

    def trace_key(self, config: "CacheConfig") -> Hashable:
        return self.key

    def trace_for(
        self, config: "CacheConfig", cache: "EvalCache"
    ) -> TraceBundle:
        return TraceBundle(
            trace=self.trace,
            conflict_free=self.conflict_free,
            events=self.events,
        )
