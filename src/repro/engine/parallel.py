"""Parallel sweep executor: fan the design space out across cores.

The paper's sweep is embarrassingly parallel -- every configuration is an
independent evaluation -- but naive fan-out wastes the engine's trace
memoisation: a trace is shared by the whole associativity sub-sweep, so
scattering those configurations across workers regenerates it per worker.
:class:`ParallelSweep` therefore chunks the (canonically ordered) sweep
along ``(trace key, line size)`` boundaries, ships whole groups to
workers, and restores the deterministic order on collection.  Results are
bit-identical to the serial path (asserted by the test suite).

Failure handling is per-chunk, not per-sweep (see
:mod:`repro.engine.resilience`):

* a chunk that fails transiently -- worker crash, broken pool, corrupt
  payload, timeout -- is re-dispatched with exponential backoff up to
  :attr:`~repro.engine.resilience.RetryPolicy.max_retries` times, then
  degrades to clean in-parent serial evaluation of *that chunk only*;
* a chunk whose evaluator raises any other exception fails the sweep
  immediately with a :class:`~repro.engine.resilience.SweepChunkError`
  naming the failing configurations (deterministic bugs do not deserve
  retries);
* environments that cannot fork or pickle at all (restricted sandboxes)
  still fall back to serial execution of whatever is unfinished, logged
  at warning level so the degradation is never silent;
* with a :class:`~repro.engine.resilience.SweepCheckpoint` journal,
  every completed chunk is durably recorded, and ``resume`` restarts a
  killed sweep exactly where it stopped -- the resumed result table is
  bit-identical to an uninterrupted run.

Per-chunk timeouts are watchdog-style: whenever ``chunk_timeout_s``
elapses without *any* chunk completing, the in-flight chunks are declared
wedged, the pool is abandoned (hung workers are never joined), and only
those chunks are re-dispatched to a fresh pool.

Observability crosses the process boundary with the results: each worker
evaluates its chunk under a fresh :class:`~repro.obs.spans.SpanCollector`
(when the parent is profiling) and computes its metric and
:class:`~repro.engine.cache.EvalCache` counter deltas against a
chunk-start baseline, so that fork-inherited parent counts are never
double-reported.  The parent merges each chunk's payload exactly once, as
it completes -- retried chunks merge only their successful attempt -- so
the metrics registry and ``EvalCache`` stats stay truthful under
``jobs=N`` even across failures and resumes.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import logging
import multiprocessing
import os
import pickle
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.engine.cache import get_eval_cache
from repro.engine.resilience import (
    CircuitOpenError,
    CorruptPayloadError,
    ResilienceOptions,
    SweepCancelledError,
    SweepCheckpoint,
    SweepChunkError,
    TransientChunkError,
    sweep_fingerprint,
)
from repro.obs import trace as _trace
from repro.obs.metrics import get_metrics
from repro.obs.spans import (
    SpanCollector,
    activate,
    current_path,
    get_collector,
    profiling_enabled,
    reset_stack,
    restore,
    restore_stack,
    span,
)

__all__ = ["ParallelSweep"]

logger = logging.getLogger(__name__)

#: What one worker ships back: tagged estimates, the chunk's span
#: snapshot (empty unless profiling), the metric / cache deltas, and the
#: chunk's trace events (empty unless the parent exported a trace
#: context -- see :mod:`repro.obs.trace`).
_ChunkPayload = Tuple[
    List[Tuple[int, PerformanceEstimate]],
    List[Dict[str, Any]],
    Dict[str, Any],
    Dict[str, Dict[str, int]],
    List[Dict[str, Any]],
]

#: One chunk of work: ``(index, config)`` pairs in sweep order.
_Chunk = List[Tuple[int, CacheConfig]]

#: Failures that mark a chunk transient (worth re-dispatching).
_TRANSIENT_ERRORS = (
    TransientChunkError,
    concurrent.futures.process.BrokenProcessPool,
)

#: Failures that mean this *environment* cannot run a pool at all.
_ENVIRONMENT_ERRORS = (OSError, PermissionError, pickle.PicklingError)


def _diff_cache_counters(
    current: Dict[str, Dict[str, int]], base: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    return {
        store: {
            field: current[store][field] - base[store].get(field, 0)
            for field in ("hits", "misses", "evictions")
        }
        for store in current
    }


def _evaluate_pairs(
    evaluator: Any, indexed: Sequence[Tuple[int, CacheConfig]]
) -> List[Tuple[int, PerformanceEstimate]]:
    """Evaluate an indexed chunk, batched when the backend allows it.

    Grid-capable backends (``provides_grid``) get the whole chunk at once
    through ``evaluate_batch`` -- one stack-filter pass per (trace, line
    size) group instead of one simulation per configuration.  Everything
    else (vector backends, the kernel-bound analytic backend, evaluators
    without a batch method such as :class:`CompositeProgram`) keeps the
    historical per-config loop.  Results are bit-identical either way.
    """
    backend = getattr(evaluator, "backend", None)
    batch = getattr(evaluator, "evaluate_batch", None)
    if (
        batch is not None
        and backend is not None
        and getattr(backend, "provides_grid", False)
        and not getattr(backend, "requires_kernel", False)
    ):
        estimates = batch([config for _, config in indexed])
        return [
            (index, estimate)
            for (index, _), estimate in zip(indexed, estimates)
        ]
    return [(index, evaluator.evaluate(config)) for index, config in indexed]


def _evaluate_chunk(
    evaluator: Any,
    indexed: Sequence[Tuple[int, CacheConfig]],
    profile: bool = False,
    injector: Optional[Any] = None,
    attempt: int = 0,
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> _ChunkPayload:
    """Worker entry point: evaluate one chunk, tagging results by index.

    Counter deltas are taken against a chunk-start baseline because a
    forked worker inherits the parent's (and, on a reused pool worker, the
    previous chunks') counts.  ``injector`` is the deterministic fault
    harness (:class:`~repro.engine.faults.FaultInjector`); it runs at this
    dispatch boundary only, so the parent's degradation paths stay clean.

    ``trace_ctx`` (from :func:`repro.obs.trace.export_context`) activates
    a fresh worker-side recorder whose events -- the chunk wrapper span
    plus every stage span under it -- ship back in the payload for the
    parent to merge into the job timeline.
    """
    token = indexed[0][0] if indexed else -1
    if injector is not None:
        injector.on_chunk_start(token, attempt)
    cache = getattr(evaluator, "cache", None)
    if cache is None:  # e.g. CompositeProgram: its evaluators share the global
        cache = get_eval_cache()
    cache_base = cache.counters()
    metrics_base = get_metrics().snapshot()
    collector = SpanCollector()
    trace_token = _trace.activate_remote(trace_ctx)
    span_token = activate(collector, enabled=profile)
    # A forked worker inherits the dispatcher's open span names; the
    # trace context already carries them, so chunk spans start clean.
    stack_token = reset_stack()
    chunk_started = time.perf_counter()
    try:
        if trace_token is not None:
            with span(
                "chunk[%d]" % token,
                configs=len(indexed),
                pid=os.getpid(),
                attempt=attempt,
            ):
                pairs = _evaluate_pairs(evaluator, indexed)
        else:
            pairs = _evaluate_pairs(evaluator, indexed)
    finally:
        get_metrics().histogram("engine.chunk_seconds").observe(
            time.perf_counter() - chunk_started
        )
        restore_stack(stack_token)
        restore(span_token)
        if trace_token is not None:
            _trace.deactivate(trace_token)
    payload: _ChunkPayload = (
        pairs,
        collector.snapshot() if profile else [],
        get_metrics().diff(metrics_base),
        _diff_cache_counters(cache.counters(), cache_base),
        trace_token[1].snapshot() if trace_token is not None else [],
    )
    if injector is not None:
        payload = injector.mangle_payload(token, attempt, payload)
    return payload


def _validate_payload(
    payload: Any, indexed: _Chunk
) -> _ChunkPayload:
    """Structural check of a worker payload; corrupt ones are transient."""
    try:
        pairs, spans, metrics_delta, cache_delta, trace_events = payload
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
    if (
        not isinstance(spans, list)
        or not isinstance(metrics_delta, dict)
        or not isinstance(trace_events, list)
    ):
        raise CorruptPayloadError("worker observability payload is malformed")
    if not isinstance(cache_delta, dict) or any(
        not isinstance(row, dict)
        or any(isinstance(v, bool) or not isinstance(v, int) for v in row.values())
        for row in cache_delta.values()
    ):
        raise CorruptPayloadError("worker cache delta is malformed")
    return payload


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


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """The start method of a worker pool: a fork server under threads.

    A worker forked while another thread holds a lock (sqlite's internal
    mutex, a logging handler's) blocks on it forever -- ``repro serve``
    forks from its HTTP and job-runner threads.  A fork server is a
    single-threaded process, so its children start with no lock held.  A
    single-threaded caller, or a platform without a fork server, keeps
    the default start method.
    """
    if threading.active_count() > 1 and (
        "forkserver" in multiprocessing.get_all_start_methods()
    ):
        return multiprocessing.get_context("forkserver")
    return None


class ParallelSweep:
    """Evaluate configurations across processes with deterministic order.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` uses the machine's CPU count.  ``jobs <= 1``
        runs serially.
    chunk_size:
        Minimum configurations per task; ``None`` picks a size that gives
        each worker a few chunks for load balancing.  Chunks never split a
        run of configurations sharing a trace and line size, so each such
        group is generated and measured by one worker.
    resilience:
        Retry/timeout/checkpoint behaviour
        (:class:`~repro.engine.resilience.ResilienceOptions`); the default
        retries transient chunk failures but journals nothing.
    on_progress:
        Optional ``(done, total)`` callback fired from the parent process
        whenever completed configurations are committed (a chunk finishes
        or a resume loads journaled work).  It runs on the executor's
        threads and must be cheap and non-raising; the exploration
        service uses it to stream job progress.  Only the resilient
        executor reports -- the historical direct path (no explicit
        resilience, tiny/serial sweep) stays bare.

    Worker pools start from the platform default, or from a fork server
    when the calling process runs other threads (see
    :func:`_pool_context`).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        resilience: Optional[ResilienceOptions] = None,
        on_progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("job count must be at least 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk size must be at least 1")
        self.chunk_size = chunk_size
        self._explicit_resilience = resilience is not None
        self.resilience = (
            resilience if resilience is not None else ResilienceOptions()
        )
        self.on_progress = on_progress
        self._progress_total = 0

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

        ``evaluator`` is anything with a picklable ``evaluate(config)``
        method -- an :class:`~repro.engine.evaluator.Evaluator`, a
        :class:`~repro.core.composite.CompositeProgram`, etc.
        """
        configs = list(configs)
        opts = self.resilience
        # Without explicit resilience options, tiny/serial sweeps keep the
        # historical direct path (raw exceptions, no journal, no wrapping).
        if not self._explicit_resilience and (
            self.jobs <= 1 or len(configs) <= 1
        ):
            pairs = _evaluate_pairs(evaluator, list(enumerate(configs)))
            return [estimate for _, estimate in pairs]
        journal, tagged = self._open_journal(evaluator, configs, opts)
        self._progress_total = len(configs)
        self._report_progress(tagged)
        try:
            self._check_cancel(opts, tagged)
            pending = self._pending_chunks(evaluator, configs, tagged)
            logger.debug(
                "dispatching %d configs as %d chunks (%d resumed) to %d workers",
                len(configs),
                len(pending),
                len(tagged),
                self.jobs,
            )
            if self.jobs <= 1 or len(pending) <= 1:
                self._run_chunks_serial(evaluator, pending, opts, journal, tagged)
            else:
                self._run_chunks_parallel(
                    evaluator, pending, opts, journal, tagged
                )
        finally:
            if journal is not None:
                journal.close()
        return [tagged[index] for index in range(len(configs))]

    # ------------------------------------------------------------------
    # checkpoint plumbing

    def _open_journal(
        self,
        evaluator: Any,
        configs: Sequence[CacheConfig],
        opts: ResilienceOptions,
    ) -> Tuple[Optional[SweepCheckpoint], Dict[int, PerformanceEstimate]]:
        if opts.checkpoint is None:
            return None, {}
        journal = SweepCheckpoint(opts.checkpoint)
        fingerprint = sweep_fingerprint(evaluator, configs)
        done: Dict[int, PerformanceEstimate] = {}
        if opts.resume:
            loaded = journal.load(fingerprint)
            done = {
                index: estimate
                for index, estimate in loaded.items()
                if 0 <= index < len(configs)
            }
            if done:
                get_metrics().counter("resilience.resumed_configs").inc(
                    len(done)
                )
                logger.info(
                    "resuming sweep from %s: %d of %d configs already done",
                    opts.checkpoint,
                    len(done),
                    len(configs),
                )
        journal.open_for_append(
            fingerprint, fresh=not opts.resume, configs=len(configs)
        )
        return journal, done

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
        payload: Optional[_ChunkPayload],
        journal: Optional[SweepCheckpoint],
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        """Fold one completed chunk into the sweep (merge, tag, journal)."""
        if payload is not None:
            self._merge_payload(evaluator, payload)
        for index, estimate in pairs:
            tagged[index] = estimate
        if journal is not None:
            journal.record_chunk(sorted(pairs, key=lambda pair: pair[0]))
            get_metrics().counter("resilience.checkpoint_chunks").inc()
        if self.resilience.breaker is not None:
            self.resilience.breaker.record_success()
        self._report_progress(tagged)

    def _report_progress(
        self, tagged: Dict[int, PerformanceEstimate]
    ) -> None:
        """Fire the ``on_progress`` hook (never lets it break the sweep)."""
        if self.on_progress is None:
            return
        try:
            self.on_progress(len(tagged), self._progress_total)
        except Exception:  # pragma: no cover - defensive
            logger.warning("on_progress hook raised; ignoring", exc_info=True)

    def _check_cancel(
        self, opts: ResilienceOptions, tagged: Dict[int, PerformanceEstimate]
    ) -> None:
        """Raise :class:`SweepCancelledError` if the cancel event is set.

        The journal stays on disk -- committed chunks are durable -- so a
        resubmission of the same sweep resumes instead of restarting.
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

    def _interruptible_sleep(
        self, opts: ResilienceOptions, delay_s: float
    ) -> None:
        """Back off before a retry, waking early on cancellation."""
        if opts.cancel_event is not None:
            opts.cancel_event.wait(delay_s)
        else:
            time.sleep(delay_s)

    def _merge_payload(self, evaluator: Any, payload: _ChunkPayload) -> None:
        """Fold one worker's observability payload into this process."""
        cache = getattr(evaluator, "cache", None)
        if cache is None:
            cache = get_eval_cache()
        _, span_snapshot, metrics_delta, cache_delta, trace_events = payload
        if span_snapshot:
            get_collector().merge(span_snapshot)
        get_metrics().merge(metrics_delta)
        cache.merge_remote(cache_delta)
        if trace_events:
            recorder = _trace.current_trace()
            if recorder is not None:
                recorder.merge(trace_events)

    # ------------------------------------------------------------------
    # serial paths (jobs=1, tiny sweeps, degraded chunks, no-fork sandboxes)

    def _evaluate_clean(
        self, evaluator: Any, indexed: _Chunk
    ) -> List[Tuple[int, PerformanceEstimate]]:
        """In-parent evaluation; deterministic failures name the chunk."""
        started = time.perf_counter()
        try:
            if _trace.trace_active():
                with span(
                    "chunk[%d]" % indexed[0][0],
                    configs=len(indexed),
                    pid=os.getpid(),
                    serial=True,
                ):
                    return _evaluate_pairs(evaluator, indexed)
            return _evaluate_pairs(evaluator, indexed)
        except Exception as exc:
            if self.resilience.breaker is not None:
                self.resilience.breaker.record_failure()
            raise SweepChunkError.from_chunk(indexed, exc) from exc
        finally:
            get_metrics().histogram("engine.chunk_seconds").observe(
                time.perf_counter() - started
            )

    def _run_chunks_serial(
        self,
        evaluator: Any,
        pending: Sequence[_Chunk],
        opts: ResilienceOptions,
        journal: Optional[SweepCheckpoint],
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        for indexed in pending:
            self._check_cancel(opts, tagged)
            pairs = self._serial_chunk_with_retries(evaluator, indexed, opts)
            self._commit(evaluator, pairs, None, journal, tagged)

    def _serial_chunk_with_retries(
        self, evaluator: Any, indexed: _Chunk, opts: ResilienceOptions
    ) -> List[Tuple[int, PerformanceEstimate]]:
        """One chunk in-process, honouring the injector and retry policy."""
        injector = opts.fault_injector
        metrics = get_metrics()
        token = indexed[0][0]
        attempt = 0
        while True:
            self._check_cancel(opts, {})
            try:
                if injector is not None:
                    injector.on_chunk_start(token, attempt)
                return self._evaluate_clean(evaluator, indexed)
            except TransientChunkError as exc:
                metrics.counter("resilience.chunk_failures").inc()
                self._record_chunk_failure(opts)
                if attempt >= opts.retry.max_retries:
                    metrics.counter("resilience.degraded_chunks").inc()
                    logger.warning(
                        "chunk at index %d exhausted %d retries (%s); "
                        "degrading to clean serial evaluation",
                        token,
                        opts.retry.max_retries,
                        exc,
                    )
                    return self._evaluate_clean(evaluator, indexed)
                metrics.counter("resilience.chunk_retries").inc()
                self._interruptible_sleep(opts, opts.retry.delay_s(attempt, token))
                attempt += 1

    def _environment_fallback(
        self,
        evaluator: Any,
        chunks: Sequence[_Chunk],
        journal: Optional[SweepCheckpoint],
        tagged: Dict[int, PerformanceEstimate],
        exc: BaseException,
    ) -> None:
        """No fork / no pickling here: finish every unfinished chunk serially.

        Only chunks that never merged a worker payload are re-evaluated, so
        counters stay truthful after the degradation.
        """
        logger.warning(
            "parallel sweep (jobs=%d) fell back to serial execution: %s",
            self.jobs,
            exc,
        )
        get_metrics().counter("parallel.serial_fallbacks").inc()
        for indexed in chunks:
            pairs = self._evaluate_clean(evaluator, indexed)
            self._commit(evaluator, pairs, None, journal, tagged)

    def _degrade_chunk(
        self,
        evaluator: Any,
        indexed: _Chunk,
        journal: Optional[SweepCheckpoint],
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        """Retries exhausted: evaluate this one chunk cleanly in-parent."""
        get_metrics().counter("resilience.degraded_chunks").inc()
        logger.warning(
            "chunk at index %d exhausted its retries; "
            "evaluating it serially in-parent",
            indexed[0][0],
        )
        pairs = self._evaluate_clean(evaluator, indexed)
        self._commit(evaluator, pairs, None, journal, tagged)

    # ------------------------------------------------------------------
    # the parallel executor proper

    def _run_chunks_parallel(
        self,
        evaluator: Any,
        pending: Sequence[_Chunk],
        opts: ResilienceOptions,
        journal: Optional[SweepCheckpoint],
        tagged: Dict[int, PerformanceEstimate],
    ) -> None:
        retry = opts.retry
        attempts: Dict[int, int] = {chunk[0][0]: 0 for chunk in pending}
        queue: List[_Chunk] = list(pending)
        round_no = 0
        while queue:
            self._check_cancel(opts, tagged)
            overdue = [
                chunk for chunk in queue
                if attempts[chunk[0][0]] > retry.max_retries
            ]
            queue = [
                chunk for chunk in queue
                if attempts[chunk[0][0]] <= retry.max_retries
            ]
            for indexed in overdue:
                self._degrade_chunk(evaluator, indexed, journal, tagged)
            if not queue:
                break
            if round_no > 0:
                get_metrics().counter("resilience.chunk_retries").inc(
                    len(queue)
                )
                self._interruptible_sleep(
                    opts,
                    max(
                        retry.delay_s(
                            max(0, attempts[chunk[0][0]] - 1), chunk[0][0]
                        )
                        for chunk in queue
                    ),
                )
                self._check_cancel(opts, tagged)
            queue = self._dispatch_round(
                evaluator, queue, opts, attempts, journal, tagged
            )
            round_no += 1

    def _dispatch_round(
        self,
        evaluator: Any,
        queue: Sequence[_Chunk],
        opts: ResilienceOptions,
        attempts: Dict[int, int],
        journal: Optional[SweepCheckpoint],
        tagged: Dict[int, PerformanceEstimate],
    ) -> List[_Chunk]:
        """One pool round over ``queue``; returns the transient failures.

        Successes commit (merge + tag + journal) as they arrive.  A round
        that stalls past ``chunk_timeout_s`` without any completion
        abandons the pool -- hung workers are never joined -- and reports
        everything unfinished as timed out.  Environments that cannot run
        a pool finish the round serially and return no failures.
        """
        metrics = get_metrics()
        profile = profiling_enabled()
        injector = opts.fault_injector
        # Exported once per round: the trace context plus this thread's
        # open span path, so worker chunk events nest under our "sweep".
        trace_ctx = _trace.export_context(current_path())
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(queue)),
                mp_context=_pool_context(),
            )
        except _ENVIRONMENT_ERRORS as exc:
            self._environment_fallback(evaluator, queue, journal, tagged, exc)
            return []
        transient: List[_Chunk] = []
        abandoned = False
        cancel = opts.cancel_event
        try:
            futures = {}
            for indexed in queue:
                token = indexed[0][0]
                futures[
                    pool.submit(
                        _evaluate_chunk,
                        evaluator,
                        indexed,
                        profile,
                        injector,
                        attempts[token],
                        trace_ctx,
                    )
                ] = indexed
            not_done = set(futures)
            # The watchdog window is measured from the last completion, so
            # slicing the wait below (for cancellation responsiveness)
            # never changes when "no progress for a whole window" fires.
            last_progress = time.monotonic()
            while not_done:
                if cancel is not None and cancel.is_set():
                    for future in not_done:
                        future.cancel()
                    self._check_cancel(opts, tagged)
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
                        payload = _validate_payload(future.result(), indexed)
                    except _TRANSIENT_ERRORS as exc:
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
                    except _ENVIRONMENT_ERRORS as exc:
                        remaining = [indexed]
                        remaining.extend(futures[f] for f in not_done)
                        remaining.extend(transient)
                        for f in not_done:
                            f.cancel()
                        self._environment_fallback(
                            evaluator, remaining, journal, tagged, exc
                        )
                        return []
                    except Exception as exc:
                        for f in not_done:
                            f.cancel()
                        if opts.breaker is not None:
                            opts.breaker.record_failure()
                        raise SweepChunkError.from_chunk(indexed, exc) from exc
                    else:
                        self._commit(
                            evaluator, payload[0], payload, journal, tagged
                        )
                        metrics.counter("parallel.chunks_completed").inc()
        except (CircuitOpenError, SweepCancelledError):
            # Fail fast: never join workers we are abandoning on purpose.
            abandoned = True
            raise
        finally:
            # A broken pool shuts down instantly; an abandoned one must not
            # be joined (its hung workers are exactly what we are escaping).
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return transient
