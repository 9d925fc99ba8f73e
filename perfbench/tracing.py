"""Spans around the program's public entry points, and layer attribution.

:class:`Probe` wraps the entry point of each pipeline layer from the
benchmark's side (the layer names follow the modules):

=================  =====================================================
layer              wrapped entry point
=================  =====================================================
layout             ``Kernel.optimized_layout``
loops              ``Kernel.trace``
cache              ``OnePassBackend.measure_grid``, ``FastSimBackend.miss_vector``
energy             ``address_bus_switching``, as the evaluator calls it
engine.assemble    ``assemble_estimate``, as the evaluator calls it
engine             ``Evaluator.sweep`` / ``evaluate_batch`` / ``evaluate``
evalcache          ``EvalCache.trace`` / ``miss`` / ``miss_many``
moo                ``run_search``
moo.tell           ``NSGA2Searcher.tell``
moo.seeding        ``analytic_seeds``, as ``run_search`` calls it
parallel           ``ParallelSweep.run``
store              ``ResultStore.get`` / ``get_many`` / ``put_many`` / ``save_*``
jobs               ``JobRunner.execute``; queue time from ``JobManager.submit``
http               ``ServeClient._request``
=================  =====================================================

Every call records one span -- id, parent id, layer, thread, start, end
and a context tag -- in memory, plus the call counts the per-layer metrics
need.

:func:`attribute` splits an interval of host time among layers: every
instant goes to the highest-ranked open span.  For the spans of one thread
the rank is the nesting depth, which makes a layer's share its spans'
durations minus the time their child spans cover ("self time").  Time that
no layer span covers comes back under ``None``: the benchmark's own,
unattributed time.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (id, parent id, layer, thread id, start, end, tag).
Span = Tuple[int, int, str, int, float, float, Any]


class Probe:
    """Install span-recording wrappers; :meth:`remove` restores the originals.

    Only the installing process records: ParallelSweep workers forked from
    it run the original functions, so no lock that another thread held at
    fork time can block them.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.layout_keys: set = set()
        #: job id -> perf_counter time its submission was admitted.
        self.submitted: Dict[str, float] = {}
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    @property
    def tag(self) -> Any:
        """This thread's context tag (the id of the job it is running)."""
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value: Any) -> None:
        self._local.tag = value

    def span(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside one span of ``layer``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, layer, threading.get_ident(), start, end, self.tag)
            )

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _patch(self, owner: Any, attr: str, layer: str, on_call=None, on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != probe._pid:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            result = probe.span(layer, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> "Probe":
        """Wrap the entry point of every layer in the table above."""
        from repro.engine import evaluator as evaluator_module
        from repro.engine.backends import FastSimBackend, OnePassBackend
        from repro.engine.cache import EvalCache
        from repro.engine.evaluator import Evaluator
        from repro.engine.parallel import ParallelSweep
        from repro.kernels.base import Kernel
        from repro.moo import driver
        from repro.moo.searchers import NSGA2Searcher
        from repro.serve.client import ServeClient
        from repro.serve.jobs import JobManager, JobRunner
        from repro.serve.store import ResultStore

        def on_layout(args):
            self.count("layout.calls")
            with self._lock:
                self.layout_keys.add((args[0].name, args[1], args[2]))

        def on_trace(trace):
            self.count("loops.calls")
            self.count("loops.accesses", len(trace))

        def on_grid(args):
            self.count("cache.passes")
            self.count("cache.configs", len(args[2]))

        def counter(name):
            return lambda args: self.count(name)

        self._patch(Kernel, "optimized_layout", "layout", on_call=on_layout)
        self._patch(Kernel, "trace", "loops", on_result=on_trace)
        self._patch(OnePassBackend, "measure_grid", "cache", on_call=on_grid)
        self._patch(FastSimBackend, "miss_vector", "cache", on_call=counter("cache.passes"))
        self._patch(
            evaluator_module, "address_bus_switching", "energy",
            on_call=counter("energy.add_bs_calls"),
        )
        self._patch(
            evaluator_module, "assemble_estimate", "engine.assemble",
            on_call=counter("engine.assemble_calls"),
        )
        self._patch(Evaluator, "sweep", "engine")
        self._patch(Evaluator, "evaluate_batch", "engine", on_call=counter("engine.batches"))
        self._patch(Evaluator, "evaluate", "engine")
        for attr in ("trace", "miss", "miss_many"):
            self._patch(EvalCache, attr, "evalcache")
        self._patch(driver, "run_search", "moo")
        self._patch(driver, "analytic_seeds", "moo.seeding")
        self._patch(NSGA2Searcher, "tell", "moo.tell")
        self._patch_parallel(ParallelSweep)
        for attr in ("get", "get_many", "put_many", "save_job", "save_manifest", "save_trace"):
            self._patch(ResultStore, attr, "store")
        self._patch_jobs(JobManager, JobRunner)
        self._patch(ServeClient, "_request", "http", on_call=counter("http.requests"))
        return self

    def _patch_parallel(self, cls: Any) -> None:
        """``ParallelSweep.run``, split into chunk work and fan-out overhead."""
        from repro.obs.metrics import get_metrics

        original = cls.__dict__["run"]
        probe = self

        @functools.wraps(original)
        def run(sweep, evaluator, configs):
            if os.getpid() != probe._pid:
                return original(sweep, evaluator, configs)
            # The program's engine.chunk_seconds histogram sees every chunk,
            # worker-side ones included (merged back chunk by chunk).
            chunks = get_metrics().histogram("engine.chunk_seconds")
            count0, total0 = chunks.count, chunks.total
            started = time.perf_counter()
            try:
                return probe.span("parallel", original, sweep, evaluator, configs)
            finally:
                busy = time.perf_counter() - started
                done = chunks.count - count0
                # Chunk work spread evenly over the workers is the floor;
                # the rest is pool start-up, pickling, journaling and merging.
                floor = (chunks.total - total0) / max(1, min(sweep.jobs, done))
                probe.count("parallel.chunks", done)
                probe.count("parallel.busy_us", int(busy * 1e6))
                probe.count("parallel.overhead_us", int(max(0.0, busy - floor) * 1e6))

        self._replace(cls, "run", original, run)

    def _patch_jobs(self, manager_cls: Any, runner_cls: Any) -> None:
        """Admission time per job, and the runner's job spans tagged by id."""
        submit = manager_cls.__dict__["submit"]
        execute = runner_cls.__dict__["execute"]
        probe = self

        @functools.wraps(submit)
        def admitted(manager, *args, **kwargs):
            job, coalesced = submit(manager, *args, **kwargs)
            with probe._lock:
                probe.submitted.setdefault(job.job_id, time.perf_counter())
            return job, coalesced

        @functools.wraps(execute)
        def executed(runner, job):
            probe.tag = job.job_id
            try:
                return probe.span("jobs", execute, runner, job)
            finally:
                probe.tag = None

        self._replace(manager_cls, "submit", submit, admitted)
        self._replace(runner_cls, "execute", execute, executed)

    def remove(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            self._undo.pop()()


def depths(spans: Iterable[Span]) -> Dict[int, int]:
    """Nesting depth of every span (a span without a recorded parent is 0)."""
    parent_of = {span[0]: span[1] for span in spans}
    out: Dict[int, int] = {}
    for span_id in parent_of:
        chain = []
        current = span_id
        while current in parent_of and current not in out:
            chain.append(current)
            current = parent_of[current]
        depth = out.get(current, -1)
        for node in reversed(chain):
            depth += 1
            out[node] = depth
    return out


def attribute(
    intervals: Iterable[Tuple[float, float, int, Optional[str]]],
    lo: float,
    hi: float,
) -> Dict[Optional[str], float]:
    """Split ``[lo, hi]`` among ``(start, end, rank, layer)`` intervals.

    Every instant goes to the highest-ranked open interval (the latest
    started among equal ranks); instants no interval covers, and intervals
    whose layer is ``None``, count under ``None``.
    """
    events = []
    for index, (start, end, rank, layer) in enumerate(intervals):
        start, end = max(start, lo), min(end, hi)
        if end > start:
            events.append((start, 1, index, rank, layer))
            events.append((end, 0, index, rank, layer))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: Dict[Optional[str], float] = {None: 0.0}
    active: list = []
    closed: set = set()
    now = lo
    for when, opening, index, rank, layer in events:
        while active and active[0][2] in closed:
            heapq.heappop(active)
        owner = active[0][3] if active else None
        totals[owner] = totals.get(owner, 0.0) + (when - now)
        now = when
        if opening:
            heapq.heappush(active, (-rank, -when, index, layer))
        else:
            closed.add(index)
    totals[None] += hi - now
    return totals
