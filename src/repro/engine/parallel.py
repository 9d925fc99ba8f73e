"""Parallel sweep executor: fan the design space out across cores.

The paper's sweep is embarrassingly parallel -- every configuration is an
independent evaluation -- but naive fan-out wastes the engine's trace
memoisation: a trace is shared by the whole associativity sub-sweep, so
scattering those configurations across workers regenerates it per worker.
:class:`ParallelSweep` therefore chunks the (canonically ordered) sweep
along ``(trace key, line size)`` boundaries, ships whole groups to
workers (each chunk is one ``evaluate_batch`` call), and restores the
deterministic order on collection.  Results are
bit-identical to the serial path (asserted by the test suite).

Every sweep goes through one round loop.  With ``jobs > 1`` and more
than one chunk pending, a round submits to a :class:`WorkerPool`'s
processes; otherwise to the in-process executor (what ``WorkerPool(1)``
hands out), which runs one chunk at a time in the calling thread, in
sweep order, committing each and checking cancellation before the next.
An in-process sweep with no store, ``on_commit`` or ``chunk_size`` is
one chunk, since nothing reads its boundaries.
Failure handling is per-chunk, not per-sweep (see
:mod:`repro.engine.resilience`):

* a chunk that fails transiently -- worker crash, broken pool, corrupt
  payload, timeout -- is re-dispatched in the next round with
  exponential backoff up to
  :attr:`~repro.engine.resilience.RetryPolicy.max_retries` times, then
  degrades to clean in-parent serial evaluation of *that chunk only*;
* a chunk whose evaluator raises any other exception fails the sweep
  immediately with a :class:`~repro.engine.resilience.SweepChunkError`
  naming the failing configurations (deterministic bugs do not deserve
  retries);
* environments that cannot start workers at all (no fork, no pickling,
  a ``__main__`` workers cannot re-import) still fall back to serial
  execution of whatever is unfinished, logged at warning level so the
  degradation is never silent;
* with a result store (``ResilienceOptions.store``: the CLI's
  ``--checkpoint``, the exploration service's store), a sweep takes
  every row stored for its evaluator, dispatches only the rest, and
  writes each completed chunk's rows as the chunk commits -- so a killed
  sweep, CLI run or served job alike, restarts exactly where it
  stopped, bit-identical to an uninterrupted run, and a sweep the store
  answers in full touches neither the pool nor the breaker;
* an ``on_commit`` hook sees every completed chunk as it is committed
  (the exploration service reports job progress there).

Per-chunk timeouts are watchdog-style: whenever ``chunk_timeout_s``
elapses without *any* chunk completing, the in-flight chunks are declared
wedged, the pool is abandoned (hung workers are never joined), and only
those chunks are re-dispatched to a fresh pool.  (Nothing can stop an
in-process chunk.)

Workers come from a :class:`WorkerPool`.  A standalone sweep builds one
that lives for its :meth:`ParallelSweep.run`; a long-lived caller (the
exploration service's job runner) passes its own, so consecutive sweeps
reuse warm workers.  Either way a round that breaks the pool or abandons
it discards it unjoined, and the next round starts a fresh one.

Observability crosses the process boundary with the results: a chunk's
payload is ``(pairs, delta)``, its tagged estimates plus one delta.  The
delta holds the metrics registry's diff against a chunk-start baseline
(so fork-inherited parent counts are never double-reported) and the
snapshot of the one :class:`~repro.obs.spans.SpanRecorder` the worker
recorded into, when the parent's exported context
(:func:`~repro.obs.spans.export_context`) said the profile or a trace
records.  The worker's ``evalcache.<store>.<field>`` counters move in
lockstep with its cache's own, so the parent rebuilds the
:class:`~repro.engine.cache.EvalCache` delta from the metrics diff.  The
parent validates each payload whole, then merges it exactly once, as it
completes -- retried chunks merge only their successful attempt -- so
the metrics registry, ``EvalCache`` stats, profile and job trace stay
truthful under ``jobs=N`` even across failures and resumes.  An
in-process chunk records straight into the sweep's thread, so its delta
is ``None`` and nothing of it merges.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import contextlib
import logging
import multiprocessing
import os
import pickle
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.engine.cache import get_eval_cache
from repro.engine.resilience import (
    CircuitOpenError,
    CorruptPayloadError,
    ResilienceOptions,
    SweepCancelledError,
    SweepChunkError,
    TransientChunkError,
    evaluator_fingerprint,
)
from repro.obs.metrics import get_metrics
from repro.obs.spans import (
    SpanRecorder,
    activate,
    current_trace,
    deactivate,
    export_context,
    merge_active,
    span,
)

__all__ = ["ParallelSweep", "WorkerPool"]

logger = logging.getLogger(__name__)

#: What one chunk ships back: tagged estimates and one delta,
#: ``{"metrics": <registry diff>, "spans": <recorder snapshot>}`` (no
#: span events unless the parent's context asked for them), or ``None``
#: for a chunk evaluated in the dispatching thread.
_ChunkPayload = Tuple[
    List[Tuple[int, PerformanceEstimate]], Optional[Dict[str, Any]]
]

#: One chunk of work: ``(index, config)`` pairs in sweep order.
_Chunk = List[Tuple[int, CacheConfig]]

#: Failures that mark a chunk transient (worth re-dispatching).
_TRANSIENT_ERRORS = (
    TransientChunkError,
    concurrent.futures.process.BrokenProcessPool,
)

#: The ``context`` of a chunk evaluated in the dispatching thread: its
#: spans and counts land here as they happen, so it ships no delta.
_IN_PROCESS = object()


def _cache_delta(counters: Mapping[str, int]) -> Dict[str, Dict[str, int]]:
    """:meth:`EvalCache.merge_remote`'s input, read off a counter delta.

    Every lookup of a worker's cache also counts in the registry's
    ``evalcache.<store>.<field>`` counters, so the metrics delta carries
    the cache's.
    """
    return {
        store: {
            field: counters.get(f"evalcache.{store}.{field}", 0)
            for field in ("hits", "misses", "evictions")
        }
        for store in ("trace", "miss")
    }


def _backend_name(evaluator: Any) -> Any:
    backend = getattr(evaluator, "backend", None)
    return getattr(backend, "name", backend)


def _evaluate_chunk(
    evaluator: Any,
    indexed: _Chunk,
    context: Any = None,
    injector: Optional[Any] = None,
    attempt: int = 0,
) -> _ChunkPayload:
    """Evaluate one chunk as one ``evaluate_batch`` call, tagged by index.

    In a worker, metric deltas are taken against a chunk-start baseline
    because a forked worker inherits the parent's (and, on a reused pool
    worker, the previous chunks') counts.  ``context`` (from
    :func:`~repro.obs.spans.export_context`, ``None`` when nothing
    records) activates one fresh recorder as the profile, the trace or
    both, continuing the dispatcher's span path; its snapshot ships back
    in the delta.  With ``context`` :data:`_IN_PROCESS` the chunk runs in
    the dispatching thread: its spans nest under the open ``sweep`` span,
    its counts land in the registry, and the delta is ``None``.
    ``injector`` is the deterministic fault harness
    (:class:`~repro.engine.faults.FaultInjector`); it runs at this
    dispatch boundary only, so the parent's degradation paths stay clean.
    """
    token = indexed[0][0] if indexed else -1
    if injector is not None:
        injector.on_chunk_start(token, attempt)
    in_process = context is _IN_PROCESS
    metrics_base = None if in_process else get_metrics().snapshot()
    recorder = activation = None
    if context is not None and not in_process:
        recorder = SpanRecorder(context["trace_id"])
        activation = activate(
            recorder,
            profile=context["profile"],
            trace=context["trace_id"] is not None,
            path=context["path"],
        )
    # The chunk[<first index>] span a traced timeline shows per chunk;
    # the profile keeps its per-stage rows.
    chunk_span = contextlib.nullcontext()
    if current_trace() is not None:
        chunk_span = span(
            "chunk[%d]" % token,
            configs=len(indexed),
            pid=os.getpid(),
            attempt=attempt,
        )
    chunk_started = time.perf_counter()
    try:
        with chunk_span:
            estimates = evaluator.evaluate_batch([c for _, c in indexed])
        pairs = [(i, e) for (i, _), e in zip(indexed, estimates)]
    finally:
        get_metrics().histogram("engine.chunk_seconds").observe(
            time.perf_counter() - chunk_started
        )
        if activation is not None:
            deactivate(activation)
    delta = None if metrics_base is None else {
        "metrics": get_metrics().diff(metrics_base),
        "spans": recorder.snapshot() if recorder is not None else [],
    }
    payload: _ChunkPayload = (pairs, delta)
    if injector is not None:
        payload = injector.mangle_payload(token, attempt, payload)
    return payload


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_payload(
    payload: Any, indexed: _Chunk, in_process: bool
) -> _ChunkPayload:
    """Check every field the merge reads; a corrupt payload is transient.

    An in-process chunk's delta is dropped unread: its counts and spans
    already landed here.
    """
    try:
        pairs, delta = payload
    except (TypeError, ValueError):
        raise CorruptPayloadError(
            "worker payload has the wrong shape"
        ) from None
    try:
        returned = {index for index, _ in pairs}
        typed = all(
            isinstance(estimate, PerformanceEstimate) for _, estimate in pairs
        )
    except (TypeError, ValueError):
        raise CorruptPayloadError("worker estimates are malformed") from None
    if returned != {index for index, _ in indexed} or not typed:
        raise CorruptPayloadError(
            "worker returned estimates for the wrong configurations"
        )
    if in_process:
        return pairs, None
    metrics = delta.get("metrics") if isinstance(delta, dict) else None
    spans = delta.get("spans") if isinstance(delta, dict) else None
    if not isinstance(metrics, dict) or not all(
        isinstance(metrics.get(part), dict)
        for part in ("counters", "gauges", "histograms")
    ):
        raise CorruptPayloadError("worker metrics delta is malformed")
    if not all(_is_count(value) for value in metrics["counters"].values()):
        raise CorruptPayloadError("worker counter delta is malformed")
    if not isinstance(spans, list) or not all(
        isinstance(event, dict)
        and isinstance(event.get("path"), list)
        and _is_count(event.get("count"))
        and isinstance(event.get("total_s"), (int, float))
        for event in spans
    ):
        raise CorruptPayloadError("worker span events are malformed")
    return pairs, delta


def _group_key(evaluator: Any, config: CacheConfig):
    """Chunk boundary criterion: the trace identity plus the line size.

    A dense-layout kernel's trace is shared by every cache size, so keying
    on the trace alone would make most of such a sweep one chunk; adding
    ``L`` (the unit :meth:`Evaluator.evaluate_batch` prices in one grid
    pass) keeps chunks as fine as the canonical order allows.
    """
    workload = getattr(evaluator, "workload", None)
    if workload is not None:
        return (workload.trace_key(config), config.line_size)
    return (config.size, config.line_size, config.tiling)


def _pool_context() -> multiprocessing.context.BaseContext:
    """The start method of a worker pool: a fork server under threads.

    A worker forked while another thread holds a lock blocks on it the
    first time it takes that lock.  Workers never open the result store,
    but every chunk still takes locks other threads of ``repro serve``
    hold at any moment: the metrics registry's (the HTTP ``/metrics``
    handler), the global ``EvalCache``'s and the logging handlers'.  A
    fork server is a single-threaded process, so its children start with
    no lock held.  A single-threaded caller, or a platform without a fork
    server, keeps the default start method.

    Raises :class:`OSError`, an environment failure, when the workers
    could not start: a worker not forked re-imports ``__main__`` by its
    module name or else from its file, and a script piped to ``python -``
    has neither (its ``__file__`` is ``"<stdin>"``).
    """
    import sys

    threaded = threading.active_count() > 1 and (
        "forkserver" in multiprocessing.get_all_start_methods()
    )
    context = multiprocessing.get_context("forkserver" if threaded else None)
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if (
        context.get_start_method() != "fork"
        and getattr(main.__spec__, "name", None) is None
        and path is not None
        and not os.path.isfile(path)
    ):
        raise OSError(
            "%s workers cannot re-import __main__ from %r"
            % (context.get_start_method(), path)
        )
    return context


#: How often a worker checks that the process owning its pool still runs.
_OWNER_POLL_S = 0.5


def _exit_with_owner(owner_pid: int) -> None:
    """Worker initializer: exit once the pool's owner process is gone.

    A worker holds both ends of its pool's call queue, so it never sees
    end-of-file when the owner dies; after a ``kill -9`` of a long-lived
    owner its workers (and the fork server they keep alive) would idle
    forever.  A daemon thread polls the owner's pid instead (POSIX only:
    elsewhere ``os.kill`` with signal 0 is not a liveness probe).
    """
    if os.name != "posix":
        return

    def watch() -> None:
        while True:
            time.sleep(_OWNER_POLL_S)
            try:
                os.kill(owner_pid, 0)
            except ProcessLookupError:
                os._exit(0)
            except PermissionError:  # pragma: no cover - pid still in use
                pass

    threading.Thread(
        target=watch, name="repro-owner-watch", daemon=True
    ).start()


class _InProcessExecutor(concurrent.futures.Executor):
    """A pool with no processes: ``submit`` runs the call now, here."""

    def submit(self, fn, /, *args, **kwargs):
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


#: The executor of every in-process round.
_IN_PROCESS_EXECUTOR = _InProcessExecutor()


class WorkerPool:
    """Worker processes shared by every sweep dispatched to them.

    The executor starts on first use and lives until :meth:`close`.  A
    round that breaks it (a worker died) or abandons it (watchdog,
    cancellation) calls :meth:`discard`, which shuts it down without
    joining; the next :meth:`executor` call starts a fresh one.  Workers
    exit on their own once the process that started them is gone (see
    :func:`_exit_with_owner`).  A pool of one job has no processes: its
    executor runs each chunk in the calling thread.  Not thread-safe: one
    dispatcher at a time.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("job count must be at least 1")
        self.jobs = jobs
        self._executor: Optional[
            concurrent.futures.ProcessPoolExecutor
        ] = None

    def executor(self) -> concurrent.futures.Executor:
        """The live executor, started now if there is none."""
        if self.jobs == 1:
            return _IN_PROCESS_EXECUTOR
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_exit_with_owner,
                initargs=(os.getpid(),),
            )
        return self._executor

    def discard(self) -> None:
        """Drop the executor without joining its (possibly hung) workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Stop the workers and wait for them to exit."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


#: The pool of every in-process sweep: it has no processes and no state.
_IN_PROCESS_POOL = WorkerPool(1)


class ParallelSweep:
    """Evaluate configurations across processes with deterministic order.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` uses the machine's CPU count.  ``jobs <= 1``
        evaluates every chunk in the calling thread.
    chunk_size:
        Minimum configurations per task; ``None`` picks a size that gives
        each worker a few chunks for load balancing.  Chunks never split a
        run of configurations sharing a trace and line size, so each such
        group is generated and measured by one worker.
    resilience:
        Retry/timeout/store behaviour
        (:class:`~repro.engine.resilience.ResilienceOptions`); the default
        retries transient chunk failures but stores nothing.
    on_commit:
        Optional ``(estimates, done, total)`` callback fired in the
        parent process once before any work, with no estimates and the
        configurations the store already held, and then once per
        completed chunk with that chunk's fresh estimates, after they are
        stored.  An exception it raises fails the sweep.
    pool:
        The :class:`WorkerPool` to dispatch to; ``None`` builds one that
        lives only for each :meth:`run`.

    Worker processes start from the platform default, or from a fork
    server when the calling process runs other threads (see
    :func:`_pool_context`).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        resilience: Optional[ResilienceOptions] = None,
        on_commit: Optional[
            Callable[[List[PerformanceEstimate], int, int], None]
        ] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("job count must be at least 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk size must be at least 1")
        self.chunk_size = chunk_size
        self.resilience = (
            resilience if resilience is not None else ResilienceOptions()
        )
        self.on_commit = on_commit
        self.pool = pool
        self._progress_total = 0
        #: The store key of the running sweep's evaluator (with a store).
        self._eval_id: Optional[str] = None

    def _chunks(
        self, evaluator: Any, configs: Sequence[CacheConfig]
    ) -> List[_Chunk]:
        # Consecutive configurations sharing a trace stay together.
        groups: List[_Chunk] = []
        last_key: Any = object()
        for index, config in enumerate(configs):
            key = _group_key(evaluator, config)
            if not groups or key != last_key:
                groups.append([])
                last_key = key
            groups[-1].append((index, config))
        target = self.chunk_size
        if target is None:
            target = max(1, len(configs) // max(1, self.jobs * 4))
        chunks: List[_Chunk] = []
        for group in groups:
            if chunks and len(chunks[-1]) < target:
                chunks[-1].extend(group)
            else:
                chunks.append(list(group))
        return chunks

    def run(
        self, evaluator: Any, configs: Sequence[CacheConfig]
    ) -> List[PerformanceEstimate]:
        """Evaluate ``configs`` (already ordered) and return estimates in order.

        ``evaluator`` is anything with a picklable
        ``evaluate_batch(configs)`` method -- an
        :class:`~repro.engine.evaluator.Evaluator`, a
        :class:`~repro.core.composite.CompositeProgram`, etc.  It is the
        one code that evaluates a sweep, so an evaluator that raises gets
        a :class:`SweepChunkError` at any ``jobs``.  With a store, it
        reads it, fans out only what it lacks and writes every committed
        chunk back.
        """
        configs = list(configs)
        opts = self.resilience
        tagged = self._stored(evaluator, configs, opts)
        if len(tagged) < len(configs):
            with span(
                "sweep",
                backend=_backend_name(evaluator),
                configs=len(configs),
                jobs=self.jobs,
            ):
                self._fan_out(evaluator, configs, opts, tagged)
        return [tagged[index] for index in range(len(configs))]

    def _fan_out(
        self,
        evaluator: Any,
        configs: List[CacheConfig],
        opts: ResilienceOptions,
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        """Evaluate every configuration not yet in ``tagged``, chunk by chunk."""
        self._progress_total = len(configs)
        breaker = opts.breaker
        if breaker is not None and not breaker.allow():
            get_metrics().counter("breaker.fail_fast").inc()
            raise CircuitOpenError(
                "circuit breaker %s is open; retry in %.0fs"
                % (breaker.name or "<unnamed>", breaker.retry_after_s()),
                retry_after_s=breaker.retry_after_s(),
            )
        if self.on_commit is not None:
            self.on_commit([], len(tagged), len(configs))
        self._check_cancel(opts, tagged)
        if self.jobs <= 1 and (
            self.chunk_size is None
            and opts.store is None
            and self.on_commit is None
        ):
            # Nothing reads this sweep's chunk boundaries: one chunk, so one
            # evaluate_batch groups a dense-layout trace across sizes.
            pending = [list(enumerate(configs))]
        else:
            pending = self._pending_chunks(evaluator, configs, tagged)
        logger.debug(
            "dispatching %d configs as %d chunks (%d stored) to %d workers",
            len(configs),
            len(pending),
            len(tagged),
            self.jobs,
        )
        pool = _IN_PROCESS_POOL
        if self.jobs > 1 and len(pending) > 1:
            pool = self.pool or WorkerPool(min(self.jobs, len(pending)))
        try:
            self._run_chunks(pool, evaluator, pending, opts, tagged)
        finally:
            if pool is not self.pool:
                pool.close()

    # ------------------------------------------------------------------
    # store plumbing

    def _stored(
        self,
        evaluator: Any,
        configs: Sequence[CacheConfig],
        opts: ResilienceOptions,
    ) -> Dict[int, PerformanceEstimate]:
        """Every estimate the store already holds, by sweep index.

        An evaluator with neither ``workload`` nor ``kernels`` is refused:
        its fingerprint names only its class, so two instances that
        disagree would share one set of rows.
        """
        self._eval_id = None
        if opts.store is None:
            return {}
        if getattr(evaluator, "workload", None) is None and (
            getattr(evaluator, "kernels", None) is None
        ):
            raise ValueError(
                "a result store keys rows by workload or kernels; "
                f"{type(evaluator).__qualname__} has neither"
            )
        self._eval_id = evaluator_fingerprint(evaluator)
        stored = opts.store.get_many(self._eval_id, configs)
        if stored:
            get_metrics().counter("resilience.resumed_configs").inc(
                len(stored)
            )
            logger.info(
                "%d of %d configs already stored in %s",
                len(stored),
                len(configs),
                opts.store.path,
            )
        return {
            index: stored[config]
            for index, config in enumerate(configs)
            if config in stored
        }

    def _pending_chunks(
        self,
        evaluator: Any,
        configs: Sequence[CacheConfig],
        tagged: Dict[int, PerformanceEstimate],
    ) -> List[_Chunk]:
        pending: List[_Chunk] = []
        for chunk in self._chunks(evaluator, configs):
            rest = [(i, c) for i, c in chunk if i not in tagged]
            if rest:
                pending.append(rest)
        return pending

    def _commit(
        self,
        evaluator: Any,
        pairs: Sequence[Tuple[int, PerformanceEstimate]],
        delta: Optional[Dict[str, Any]],
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        """Fold one completed chunk into the sweep (merge, tag, store)."""
        if delta is not None:
            self._merge_delta(evaluator, delta)
        for index, estimate in pairs:
            tagged[index] = estimate
        pairs = sorted(pairs, key=lambda pair: pair[0])
        if self._eval_id is not None:
            self.resilience.store.put_many(
                self._eval_id, [(e.config, e) for _, e in pairs]
            )
            get_metrics().counter("resilience.checkpoint_chunks").inc()
        if self.on_commit is not None:
            self.on_commit(
                [estimate for _, estimate in pairs],
                len(tagged),
                self._progress_total,
            )
        if self.resilience.breaker is not None:
            self.resilience.breaker.record_success()

    def _check_cancel(
        self, opts: ResilienceOptions, tagged: Dict[int, PerformanceEstimate]
    ) -> None:
        """Raise :class:`SweepCancelledError` if the cancel event is set.

        Committed chunks stay in the store, so a resubmission of the same
        sweep resumes instead of restarting.
        """
        event = opts.cancel_event
        if event is None or not event.is_set():
            return
        get_metrics().counter("resilience.sweeps_cancelled").inc()
        raise SweepCancelledError(
            "sweep cancelled after %d of %d configurations"
            % (len(tagged), self._progress_total),
            done=len(tagged),
            total=self._progress_total,
        )

    def _record_chunk_failure(self, opts: ResilienceOptions) -> None:
        """Feed one chunk failure to the breaker; raise once it opens."""
        breaker = opts.breaker
        if breaker is not None and breaker.record_failure():
            raise CircuitOpenError(
                "circuit breaker %s opened mid-sweep; abandoning the sweep"
                % (breaker.name or "<unnamed>"),
                retry_after_s=breaker.retry_after_s(),
            )

    def _merge_delta(self, evaluator: Any, delta: Dict[str, Any]) -> None:
        """Fold one worker's validated delta into this process."""
        cache = getattr(evaluator, "cache", None)
        if cache is None:  # e.g. CompositeProgram: its evaluators share it
            cache = get_eval_cache()
        get_metrics().merge(delta["metrics"])
        cache.merge_remote(_cache_delta(delta["metrics"]["counters"]))
        if delta["spans"]:
            merge_active(delta["spans"])

    def _chunk_error(self, indexed: _Chunk, exc: Exception) -> SweepChunkError:
        """A deterministic chunk failure: one breaker strike, a typed error."""
        if self.resilience.breaker is not None:
            self.resilience.breaker.record_failure()
        return SweepChunkError.from_chunk(indexed, exc)

    def _evaluate_in_parent(
        self,
        evaluator: Any,
        chunks: Sequence[_Chunk],
        attempts: Mapping[int, int],
        tagged: Dict[int, PerformanceEstimate],
        counter: str,
        reason: Any,
    ) -> None:
        """Degrade: count and warn once, then evaluate ``chunks`` here.

        The one path for a chunk out of retries and for an environment
        that cannot run a pool.  Each chunk is evaluated cleanly (no fault
        injection) in this thread, so any failure now fails the sweep.
        """
        get_metrics().counter(counter).inc()
        logger.warning(
            "sweep (jobs=%d) fell back to serial in-parent evaluation of "
            "%d chunk(s): %s", self.jobs, len(chunks), reason,
        )
        for indexed in chunks:
            try:
                pairs, _ = _evaluate_chunk(
                    evaluator,
                    indexed,
                    _IN_PROCESS,
                    attempt=attempts[indexed[0][0]],
                )
            except Exception as exc:
                raise self._chunk_error(indexed, exc) from exc
            self._commit(evaluator, pairs, None, tagged)

    # ------------------------------------------------------------------
    # the one chunk executor

    def _run_chunks(
        self,
        pool: WorkerPool,
        evaluator: Any,
        pending: Sequence[_Chunk],
        opts: ResilienceOptions,
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        """The one retry loop: rounds until every chunk has committed.

        A ``WorkerPool(1)`` runs every round in-process.  A round's transient
        failures go again in the next round, after a backoff; a chunk out
        of retries degrades to :meth:`_evaluate_in_parent`.
        """
        retry = opts.retry
        attempts: Dict[int, int] = {chunk[0][0]: 0 for chunk in pending}
        queue: List[_Chunk] = list(pending)
        round_no = 0
        while queue:
            self._check_cancel(opts, tagged)
            for indexed in queue:
                if attempts[indexed[0][0]] > retry.max_retries:
                    self._evaluate_in_parent(
                        evaluator, [indexed], attempts, tagged,
                        "resilience.degraded_chunks",
                        "chunk at index %d exhausted its %d retries"
                        % (indexed[0][0], retry.max_retries),
                    )
            queue = [chunk for chunk in queue if chunk[0][0] not in tagged]
            if not queue:
                break
            if round_no > 0:
                get_metrics().counter("resilience.chunk_retries").inc(
                    len(queue)
                )
                delay_s = max(
                    retry.delay_s(max(0, attempts[c[0][0]] - 1), c[0][0])
                    for c in queue
                )
                if opts.cancel_event is not None:  # wakes on cancellation
                    opts.cancel_event.wait(delay_s)
                else:
                    time.sleep(delay_s)
                self._check_cancel(opts, tagged)
            queue = self._dispatch_round(
                pool, evaluator, queue, opts, attempts, tagged
            )
            round_no += 1

    def _dispatch_round(
        self,
        pool: WorkerPool,
        evaluator: Any,
        queue: Sequence[_Chunk],
        opts: ResilienceOptions,
        attempts: Dict[int, int],
        tagged: Dict[int, PerformanceEstimate],
    ) -> List[_Chunk]:
        """One round over ``queue``; returns the transient failures.

        Successes commit (merge + tag + store) as they arrive.  A round
        that stalls past ``chunk_timeout_s`` without any completion
        abandons the pool -- hung workers are never joined -- and reports
        everything unfinished as timed out; a round that breaks the pool,
        or ends early on a chunk error, discards it the same way, so no
        orphaned chunk keeps a worker busy for the next round.
        Environments that cannot run a pool finish the round serially and
        return no failures.
        """
        metrics = get_metrics()
        injector = opts.fault_injector
        not_done: set = set()

        def fall_back(exc: Exception) -> List[_Chunk]:
            for future in not_done:
                future.cancel()
            pool.discard()
            self._evaluate_in_parent(
                evaluator,
                [chunk for chunk in queue if chunk[0][0] not in tagged],
                attempts, tagged, "parallel.serial_fallbacks", exc,
            )
            return []

        try:  # an OSError starting the pool means no pool can run here
            executor = pool.executor()
        except OSError as exc:
            return fall_back(exc)
        in_process = executor is _IN_PROCESS_EXECUTOR
        # Exported once per round: what records here plus this thread's
        # open span path, so worker chunk events nest under our "sweep".
        context = _IN_PROCESS if in_process else export_context()
        # A worker's own OSError is a chunk error; only an unpicklable
        # chunk or result (never in-process) is the environment's.
        unpicklable = () if in_process else (pickle.PicklingError,)
        # An in-process future is done when submit returns: one chunk at a
        # time, so each commits and checks cancellation before the next.
        window = 1 if in_process else len(queue)
        transient: List[_Chunk] = []
        abandoned = False
        cancel = opts.cancel_event
        try:
            futures: Dict[concurrent.futures.Future, _Chunk] = {}
            unsent = list(queue)
            # The watchdog window is measured from the last completion, so
            # slicing the wait below (for cancellation responsiveness)
            # never changes when "no progress for a whole window" fires.
            last_progress = time.monotonic()
            while unsent or not_done:
                if cancel is not None and cancel.is_set():
                    for future in not_done:
                        future.cancel()
                    self._check_cancel(opts, tagged)
                while unsent and len(not_done) < window:
                    indexed = unsent.pop(0)
                    try:
                        future = executor.submit(
                            _evaluate_chunk,
                            evaluator,
                            indexed,
                            context,
                            injector,
                            attempts[indexed[0][0]],
                        )
                    except concurrent.futures.process.BrokenProcessPool as exc:
                        # A worker died between rounds: fail the chunk like
                        # one that was in flight when it died.
                        future = concurrent.futures.Future()
                        future.set_exception(exc)
                    except OSError as exc:  # could not start a worker
                        return fall_back(exc)
                    futures[future] = indexed
                    not_done.add(future)
                if cancel is not None:
                    wait_timeout: Optional[float] = 0.2
                    if opts.chunk_timeout_s is not None:
                        stalled_for = time.monotonic() - last_progress
                        wait_timeout = min(
                            0.2, max(0.0, opts.chunk_timeout_s - stalled_for)
                        )
                else:
                    wait_timeout = opts.chunk_timeout_s
                done, not_done = concurrent.futures.wait(
                    not_done,
                    timeout=wait_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if not done:
                    if opts.chunk_timeout_s is None or (
                        time.monotonic() - last_progress
                        < opts.chunk_timeout_s
                    ):
                        # A cancellation-poll slice expired, not the
                        # watchdog window; keep waiting.
                        continue
                    # Watchdog fired: nothing completed for a whole
                    # timeout window, so the in-flight chunks are wedged.
                    for future in not_done:
                        indexed = futures[future]
                        attempts[indexed[0][0]] += 1
                        transient.append(indexed)
                        future.cancel()
                    metrics.counter("resilience.chunk_timeouts").inc(
                        len(not_done)
                    )
                    logger.warning(
                        "parallel sweep: %d chunk(s) made no progress in "
                        "%.3gs; abandoning them for re-dispatch",
                        len(not_done),
                        opts.chunk_timeout_s,
                    )
                    for _ in range(len(not_done)):
                        self._record_chunk_failure(opts)
                    abandoned = True
                    break
                last_progress = time.monotonic()
                for future in done:
                    indexed = futures[future]
                    token = indexed[0][0]
                    try:
                        pairs, delta = _validate_payload(
                            future.result(), indexed, in_process
                        )
                    except _TRANSIENT_ERRORS as exc:
                        if isinstance(
                            exc, concurrent.futures.process.BrokenProcessPool
                        ):
                            abandoned = True
                        attempts[token] += 1
                        transient.append(indexed)
                        metrics.counter("resilience.chunk_failures").inc()
                        logger.warning(
                            "chunk at index %d failed transiently "
                            "(attempt %d): %s",
                            token,
                            attempts[token],
                            exc,
                        )
                        self._record_chunk_failure(opts)
                    except unpicklable as exc:
                        return fall_back(exc)
                    except Exception as exc:
                        raise self._chunk_error(indexed, exc) from exc
                    else:
                        self._commit(evaluator, pairs, delta, tagged)
                        if not in_process:
                            metrics.counter("parallel.chunks_completed").inc()
        except BaseException:
            # Fail fast on any way out (chunk error, open breaker,
            # cancellation, failed commit): never join the workers still
            # busy with this round's chunks.
            abandoned = True
            raise
        finally:
            # A broken or abandoned pool must not be joined (hung workers
            # are exactly what we are escaping); a healthy one stays warm.
            if abandoned:
                pool.discard()
        return transient
