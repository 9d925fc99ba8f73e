"""Process-wide, size-bounded memoisation for the evaluation engine.

Every exploration layer runs the same pipeline -- trace generation, miss
measurement, metric assembly -- and its two expensive stages are pure
functions of small keys:

* an address trace depends only on the workload's trace key: ``(kernel,
  T, L, B)`` with the Section 4.1 layout, ``(kernel, B)`` with the dense
  layout, the workload alone for fixed traces (the associativity sweep
  reuses it);
* a miss vector depends only on ``(trace, line size, sets, ways)`` and the
  measuring backend.

:class:`EvalCache` memoises both behind bounded LRU stores so that
repeated sweeps -- within one explorer, across explorers sharing a kernel,
or across CLI invocations in one process -- never recompute.  The cache is
deliberately dependency-free (numpy and :mod:`repro.obs` only) so
low-level call sites such as :func:`repro.energy.dram.miss_stream_energy`
can use it without import cycles.

Each store also feeds the :mod:`repro.obs` metrics registry
(``evalcache.<store>.hits`` / ``.misses`` / ``.evictions``), and
:meth:`EvalCache.merge_remote` lets
:class:`~repro.engine.parallel.ParallelSweep` fold worker-side counter
deltas back in, so :meth:`EvalCache.stats` stays truthful after a
multi-process run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

from repro.obs.metrics import get_metrics

__all__ = ["CacheStats", "EvalCache", "configure_eval_cache", "get_eval_cache"]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one :class:`EvalCache` store.

    The ``miss`` counters cover every small entry: miss measurements,
    ``Add_bs`` values and kernel layouts (one per ``(T, L)``).  After a
    parallel sweep the counts include merged worker activity (see
    :meth:`EvalCache.merge_remote`).
    """

    trace_hits: int
    trace_misses: int
    miss_hits: int
    miss_misses: int
    trace_evictions: int = 0
    miss_evictions: int = 0

    @property
    def trace_hit_rate(self) -> float:
        """Fraction of trace requests served from the cache."""
        total = self.trace_hits + self.trace_misses
        return self.trace_hits / total if total else 0.0

    @property
    def miss_hit_rate(self) -> float:
        """Fraction of miss-measurement requests served from the cache."""
        total = self.miss_hits + self.miss_misses
        return self.miss_hits / total if total else 0.0


class _LruStore:
    """A bounded, thread-safe LRU map with get-or-compute semantics.

    ``metric_prefix`` names the registry counters the store feeds
    (``<prefix>.hits`` etc.); instrument references are resolved once so
    the hot path pays one locked integer add per event.
    """

    def __init__(
        self, max_entries: int, metric_prefix: str = "evalcache"
    ) -> None:
        if max_entries <= 0:
            raise ValueError("cache capacity must be positive")
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        metrics = get_metrics()
        self._hit_counter = metrics.counter(f"{metric_prefix}.hits")
        self._miss_counter = metrics.counter(f"{metric_prefix}.misses")
        self._eviction_counter = metrics.counter(f"{metric_prefix}.evictions")

    def get_or_compute(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                value = self._data[key]
                self._hit_counter.inc()
                return value
        # Compute outside the lock: builders can be slow (trace generation,
        # reference simulation) and must not serialise unrelated lookups.
        value = builder()
        with self._lock:
            if key in self._data:
                self.hits += 1  # someone else computed it meanwhile
                self._data.move_to_end(key)
                value = self._data[key]
                self._hit_counter.inc()
                return value
            self.misses += 1
            self._data[key] = value
            evicted = 0
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        self._miss_counter.inc()
        if evicted:
            self._eviction_counter.inc(evicted)
        return value

    def get_or_compute_many(
        self,
        keys: "list[Hashable]",
        builder: Callable[["list[Hashable]"], Dict[Hashable, Any]],
    ) -> Dict[Hashable, Any]:
        """Batch get-or-compute: ``builder`` sees only the missing keys.

        The batch analogue of :meth:`get_or_compute`, for callers whose
        builder can amortise work across misses (the one-pass grid
        backend).  Hit/miss/eviction accounting is per key, identical to
        ``len(keys)`` single calls; the builder runs outside the lock and
        races resolve first-writer-wins, with late duplicates counted as
        hits just like the single-key path.
        """
        results: Dict[Hashable, Any] = {}
        missing: "list[Hashable]" = []
        with self._lock:
            for key in keys:
                if key in results or key in missing:
                    continue
                if key in self._data:
                    self.hits += 1
                    self._data.move_to_end(key)
                    results[key] = self._data[key]
                    self._hit_counter.inc()
                else:
                    missing.append(key)
        if not missing:
            return results
        computed = builder(missing)
        hit_late = 0
        fresh = 0
        evicted = 0
        with self._lock:
            for key in missing:
                if key in self._data:
                    self.hits += 1  # someone else computed it meanwhile
                    self._data.move_to_end(key)
                    results[key] = self._data[key]
                    hit_late += 1
                    continue
                self.misses += 1
                self._data[key] = computed[key]
                results[key] = computed[key]
                fresh += 1
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if hit_late:
            self._hit_counter.inc(hit_late)
        if fresh:
            self._miss_counter.inc(fresh)
        if evicted:
            self._eviction_counter.inc(evicted)
        return results

    def counters(self) -> Dict[str, int]:
        """Consistent copy of the raw counters (no remote contributions)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._data),
            }

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class EvalCache:
    """Two-level evaluation cache: traces and miss measurements.

    Parameters
    ----------
    max_traces:
        Bound on retained traces.  Traces are the large objects (one numpy
        row per access), so the bound is small by default.
    max_miss_entries:
        Bound on retained miss vectors / measurements, which are one bool
        per access (or a tiny record for sampled estimates), together with
        the small derived entries sharing that store (``Add_bs`` values,
        kernel layouts).
    """

    _STORES = ("trace", "miss")

    def __init__(self, max_traces: int = 64, max_miss_entries: int = 1024) -> None:
        self._traces = _LruStore(max_traces, metric_prefix="evalcache.trace")
        self._miss = _LruStore(max_miss_entries, metric_prefix="evalcache.miss")
        # Worker-side counter deltas merged in by ParallelSweep; guarded by
        # its own lock because merges race with snapshot() readers.
        self._remote_lock = threading.Lock()
        self._remote: Dict[str, Dict[str, int]] = {
            store: {"hits": 0, "misses": 0, "evictions": 0}
            for store in self._STORES
        }

    def trace(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The trace bundle for ``key``, computing it on first use."""
        return self._traces.get_or_compute(key, builder)

    def miss(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The miss measurement (or other small entry) for ``key``.

        Computed on first use.  Besides miss vectors and measurements this
        store holds ``Add_bs`` values and kernel layouts, and they count
        toward the ``miss`` :class:`CacheStats`.
        """
        return self._miss.get_or_compute(key, builder)

    def miss_many(
        self,
        keys: "list[Hashable]",
        builder: Callable[["list[Hashable]"], Dict[Hashable, Any]],
    ) -> Dict[Hashable, Any]:
        """Batch miss-measurement lookup; ``builder(missing)`` fills holes.

        Lets a grid-capable backend measure all cold keys of a sweep
        group in one pass while warm keys still count as cache hits --
        the counter semantics match ``len(keys)`` :meth:`miss` calls.
        """
        return self._miss.get_or_compute_many(keys, builder)

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Raw per-store counters of **this process only**.

        The baseline/delta primitive :class:`~repro.engine.parallel.ParallelSweep`
        workers use; remote contributions are deliberately excluded so a
        worker forked from an already-merged parent cannot re-export them.
        """
        return {
            "trace": self._traces.counters(),
            "miss": self._miss.counters(),
        }

    def merge_remote(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Fold a worker's counter delta (``counters`` diff) into this cache.

        The delta is validated before anything is accumulated: a worker
        payload that survived the executor's structural checks but still
        carries garbage here (the fault-injection harness's corrupt-payload
        mode, or a genuinely mangled pickle) must not poison the stats.
        ``ValueError`` is raised *before* any mutation, so a rejected merge
        leaves the counters untouched.
        """
        if not isinstance(delta, dict):
            raise ValueError("cache delta must be a dict of per-store dicts")
        for store in self._STORES:
            row = delta.get(store, {})
            if not isinstance(row, dict) or any(
                isinstance(value, bool) or not isinstance(value, int)
                for value in row.values()
            ):
                raise ValueError(
                    f"cache delta for store {store!r} is malformed"
                )
        with self._remote_lock:
            for store in self._STORES:
                accumulated = self._remote[store]
                for field, value in delta.get(store, {}).items():
                    if field in accumulated:
                        accumulated[field] += value

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Consistent, JSON-compatible view including merged worker counts.

        Safe to call concurrently from any thread or from ParallelSweep
        workers: every store is read under its lock and the result is a
        plain dict detached from live state.
        """
        local = self.counters()
        with self._remote_lock:
            remote = {store: dict(self._remote[store]) for store in self._STORES}
        combined: Dict[str, Dict[str, Any]] = {}
        for store in self._STORES:
            row: Dict[str, Any] = dict(local[store])
            for field, value in remote[store].items():
                row[field] += value
            total = row["hits"] + row["misses"]
            row["hit_rate"] = row["hits"] / total if total else 0.0
            combined[store] = row
        return combined

    def stats(self) -> CacheStats:
        """Current counters (including merged worker activity)."""
        view = self.snapshot()
        return CacheStats(
            trace_hits=view["trace"]["hits"],
            trace_misses=view["trace"]["misses"],
            miss_hits=view["miss"]["hits"],
            miss_misses=view["miss"]["misses"],
            trace_evictions=view["trace"]["evictions"],
            miss_evictions=view["miss"]["evictions"],
        )

    def clear(self) -> None:
        """Drop all entries and zero the counters (local and remote)."""
        self._traces.clear()
        self._miss.clear()
        self._traces.hits = self._traces.misses = self._traces.evictions = 0
        self._miss.hits = self._miss.misses = self._miss.evictions = 0
        with self._remote_lock:
            for store in self._STORES:
                for field in self._remote[store]:
                    self._remote[store][field] = 0

    @property
    def trace_entries(self) -> int:
        """Number of traces currently retained."""
        return len(self._traces)

    @property
    def miss_entries(self) -> int:
        """Number of miss measurements currently retained."""
        return len(self._miss)


_global_cache = EvalCache()
_global_lock = threading.Lock()


def get_eval_cache() -> EvalCache:
    """The process-wide cache shared by every engine consumer."""
    return _global_cache


def configure_eval_cache(
    max_traces: Optional[int] = None, max_miss_entries: Optional[int] = None
) -> EvalCache:
    """Replace the process-wide cache with a freshly sized one."""
    global _global_cache
    with _global_lock:
        _global_cache = EvalCache(
            max_traces=max_traces if max_traces is not None else 64,
            max_miss_entries=(
                max_miss_entries if max_miss_entries is not None else 1024
            ),
        )
        return _global_cache
