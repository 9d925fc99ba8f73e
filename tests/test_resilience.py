"""Fault tolerance for sweeps: retries, timeouts, checkpoint/resume.

The load-bearing claims:

* a sweep journaled to a checkpoint, killed at any point, and resumed
  produces a result table bit-identical to an uninterrupted run (the
  hypothesis property lives in ``test_chaos.py``; targeted kill points
  here);
* injected crashes, hard kills, hangs and corrupt payloads are absorbed
  by per-chunk retries/timeouts and never change the results;
* deterministic evaluator failures surface immediately as
  :class:`SweepChunkError` naming the failing configurations -- they are
  never retried into the whole-sweep serial fallback;
* every failure path is visible in the ``resilience.*`` /
  ``parallel.*`` counters.
"""

import copy
import json
from dataclasses import dataclass

import pytest

from repro.core.config import CacheConfig
from repro.engine import (
    CheckpointError,
    CheckpointMismatchError,
    Evaluator,
    FaultInjector,
    InjectedCrash,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    RetryPolicy,
    SweepCheckpoint,
    SweepChunkError,
    order_configs,
    sweep_fingerprint,
)
from repro.engine.resilience import (
    CHECKPOINT_SCHEMA,
    estimate_from_json,
    estimate_to_json,
)
from repro.engine.cache import EvalCache
from repro.kernels import get_kernel, make_compress
from repro.obs.metrics import get_metrics
from repro.obs.spans import tracing

#: A quick retry policy so failure tests do not sleep for real.
FAST_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.001, backoff_cap_s=0.01)


def _counter(name):
    return get_metrics().counter(name).value


def _journaled(path, configs, kernel=None):
    """The estimates a compress sweep's journal holds, in sweep order."""
    evaluator = Evaluator(KernelWorkload(kernel or get_kernel("compress")))
    done = SweepCheckpoint(path).load(sweep_fingerprint(evaluator, configs))
    return [done[config] for config in configs if config in done]


def _small_configs():
    return order_configs(
        CacheConfig(size, line, ways)
        for size in (32, 64, 128)
        for line in (4, 8)
        for ways in (1, 2)
    )


class _PoisonedEvaluator:
    """Raises deterministically on one configuration; picklable."""

    def __init__(self, kernel, poison):
        self.inner = Evaluator(KernelWorkload(kernel))
        self.poison = poison

    def evaluate(self, config):
        if config == self.poison:
            raise ValueError("poisoned configuration")
        return self.inner.evaluate(config)

    def evaluate_batch(self, configs):
        return [self.evaluate(config) for config in configs]


@dataclass(frozen=True)
class _FieldCorrupter(FaultInjector):
    """Corrupts one field of every chunk's first-attempt delta."""

    field: str = "bool"

    def mangle_payload(self, token, attempt, payload):
        if attempt > 0:
            return payload
        pairs, delta = payload
        delta = copy.deepcopy(delta)
        counters = delta["metrics"]["counters"]
        if self.field == "bool":
            counters["evalcache.trace.hits"] = True
        elif self.field == "str":
            counters["evalcache.miss.misses"] = "7"
        else:
            del delta["spans"][0]["path"]
        return pairs, delta


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s(1, token=3) == policy.delay_s(1, token=3)
        assert policy.delay_s(1, token=3) != policy.delay_s(1, token=4)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.4, jitter=0.0
        )
        assert [policy.delay_s(a) for a in range(4)] == [
            0.1, 0.2, 0.4, 0.4,
        ]

    def test_jitter_bounded_by_base_delay(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        for token in range(20):
            assert 0.1 <= policy.delay_s(0, token) <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay_s(-1)


class TestResilienceOptions:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            ResilienceOptions(resume=True)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            ResilienceOptions(chunk_timeout_s=0.0)


class TestEstimateRoundTrip:
    def test_exact_through_json_text(self):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        estimate = evaluator.evaluate(CacheConfig(64, 8, 2, 2))
        assert estimate.energy_breakdown is not None
        doc = json.loads(json.dumps(estimate_to_json(estimate)))
        assert estimate_from_json(doc) == estimate

    def test_breakdown_none_round_trips(self):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        estimate = evaluator.evaluate(CacheConfig(32, 4))
        bare = estimate.__class__(
            **{**estimate.__dict__, "energy_breakdown": None}
        )
        doc = json.loads(json.dumps(estimate_to_json(bare)))
        assert estimate_from_json(doc) == bare


class TestSweepFingerprint:
    def test_stable_for_identical_sweeps(self):
        configs = _small_configs()
        first = Evaluator(KernelWorkload(make_compress(n=7)))
        second = Evaluator(KernelWorkload(make_compress(n=7)))
        assert sweep_fingerprint(first, configs) == sweep_fingerprint(
            second, configs
        )

    def test_sensitive_to_configs_backend_and_workload(self):
        configs = _small_configs()
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        base = sweep_fingerprint(evaluator, configs)
        assert sweep_fingerprint(evaluator, configs[:-1]) != base
        sampled = Evaluator(
            KernelWorkload(make_compress(n=7)), backend="sampled"
        )
        assert sweep_fingerprint(sampled, configs) != base
        other = Evaluator(KernelWorkload(make_compress(n=8)))
        assert sweep_fingerprint(other, configs) != base


class TestSweepCheckpoint:
    def test_missing_file_is_empty_resume(self, tmp_path):
        journal = SweepCheckpoint(str(tmp_path / "none.jsonl"))
        assert journal.load("anything") == {}

    def test_round_trip(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        pairs = [
            (index, evaluator.evaluate(config))
            for index, config in enumerate(configs[:4])
        ]
        fingerprint = sweep_fingerprint(evaluator, configs)
        path = str(tmp_path / "sweep.jsonl")
        with SweepCheckpoint(path) as journal:
            journal.open_for_append(fingerprint, fresh=True, configs=len(configs))
            journal.record_chunk(pairs[:2])
            journal.record_chunk(pairs[2:])
        assert SweepCheckpoint(path).load(fingerprint) == {
            estimate.config: estimate for _, estimate in pairs
        }

    def test_wrong_fingerprint_refused(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepCheckpoint(path) as journal:
            journal.open_for_append("aaaa", fresh=True, configs=1)
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            SweepCheckpoint(path).load("bbbb")

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text("just some text\n")
        with pytest.raises(CheckpointError, match=CHECKPOINT_SCHEMA):
            SweepCheckpoint(str(path)).load("aaaa")

    def test_newer_schema_refused_with_clear_error(self, tmp_path):
        path = tmp_path / "future.jsonl"
        header = {"schema": "repro.checkpoint/2", "fingerprint": "aaaa", "configs": 4}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError, match="newer than"):
            SweepCheckpoint(str(path)).load("aaaa")

    def test_old_search_journal_refused_with_clear_error(self, tmp_path):
        path = tmp_path / "search.jsonl"
        header = {"schema": "repro.moo.checkpoint/1", "fingerprint": "aaaa"}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError, match="search journal"):
            SweepCheckpoint(str(path)).load("aaaa")

    def test_missing_fingerprint_refused_clearly(self, tmp_path):
        path = tmp_path / "anon.jsonl"
        header = {"schema": CHECKPOINT_SCHEMA, "configs": 4}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError, match="fingerprint"):
            SweepCheckpoint(str(path)).load("aaaa")

    def test_torn_trailing_line_tolerated(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        fingerprint = sweep_fingerprint(evaluator, configs)
        pairs = [(0, evaluator.evaluate(configs[0]))]
        path = str(tmp_path / "sweep.jsonl")
        with SweepCheckpoint(path) as journal:
            journal.open_for_append(fingerprint, fresh=True, configs=len(configs))
            journal.record_chunk(pairs)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": [[1, {"config": [64,')  # killed mid-write
        assert SweepCheckpoint(path).load(fingerprint) == {
            pairs[0][1].config: pairs[0][1]
        }

    def test_record_requires_open(self, tmp_path):
        journal = SweepCheckpoint(str(tmp_path / "sweep.jsonl"))
        with pytest.raises(CheckpointError, match="not open"):
            journal.record_chunk([])

    def test_load_keys_estimates_by_config(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = str(tmp_path / "sweep.jsonl")
        run = evaluator.sweep(
            configs=configs, resilience=ResilienceOptions(checkpoint=path)
        )
        loaded = SweepCheckpoint(path).load(
            sweep_fingerprint(evaluator, configs)
        )
        assert loaded == {e.config: e for e in run.estimates}


class TestCheckpointResume:
    """Killed-and-resumed sweeps are bit-identical to uninterrupted ones."""

    def _truncate(self, path, chunk_lines):
        lines = open(path, encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: 1 + chunk_lines]) + "\n")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_truncated_journal_resumes_identically(self, tmp_path, jobs):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = str(tmp_path / "sweep.jsonl")
        journaled = evaluator.sweep(
            configs=configs,
            jobs=jobs,
            resilience=ResilienceOptions(checkpoint=path),
        )
        assert list(journaled.estimates) == list(clean.estimates)
        self._truncate(path, chunk_lines=2)
        before = _counter("resilience.resumed_configs")
        resumed = evaluator.sweep(
            configs=configs,
            jobs=jobs,
            resilience=ResilienceOptions(checkpoint=path, resume=True),
        )
        assert list(resumed.estimates) == list(clean.estimates)
        assert _counter("resilience.resumed_configs") > before

    def test_torn_journal_stays_resumable_after_resume(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = str(tmp_path / "sweep.jsonl")

        def sweep(resume):
            return ParallelSweep(
                jobs=1,
                chunk_size=2,
                resilience=ResilienceOptions(checkpoint=path, resume=resume),
            ).run(evaluator, configs)

        sweep(resume=False)
        # Killed mid-record after two chunks: the third line is torn.
        lines = open(path, encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:3]) + "\n" + lines[3][:30])
        assert sweep(resume=True) == list(clean.estimates)
        # The resumed run's records must not glue onto the fragment: the
        # journal now holds every configuration...
        assert _journaled(path, configs) == list(clean.estimates)
        # ...so resuming again evaluates nothing.
        before = _counter("engine.configs_evaluated")
        assert sweep(resume=True) == list(clean.estimates)
        assert _counter("engine.configs_evaluated") == before

    def test_resume_across_different_job_counts(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = str(tmp_path / "sweep.jsonl")
        evaluator.sweep(
            configs=configs, resilience=ResilienceOptions(checkpoint=path)
        )
        self._truncate(path, chunk_lines=1)
        resumed = evaluator.sweep(
            configs=configs,
            jobs=2,
            resilience=ResilienceOptions(checkpoint=path, resume=True),
        )
        assert list(resumed.estimates) == list(clean.estimates)

    def test_complete_journal_skips_all_evaluation(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = str(tmp_path / "sweep.jsonl")
        first = evaluator.sweep(
            configs=configs, resilience=ResilienceOptions(checkpoint=path)
        )
        before = _counter("resilience.resumed_configs")
        poisoned = _PoisonedEvaluator(make_compress(n=7), poison=None)
        poisoned.poison = configs[0]  # would raise if anything re-evaluated
        resumed = ParallelSweep(
            jobs=1,
            resilience=ResilienceOptions(checkpoint=path, resume=True),
        ).run(evaluator, configs)
        assert resumed == list(first.estimates)
        assert _counter("resilience.resumed_configs") - before == len(configs)

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = str(tmp_path / "sweep.jsonl")
        evaluator.sweep(
            configs=configs, resilience=ResilienceOptions(checkpoint=path)
        )
        evaluator.sweep(
            configs=configs[:4],
            resilience=ResilienceOptions(checkpoint=path),
        )
        assert len(_journaled(path, configs[:4], make_compress(n=7))) == 4

    def test_resume_refuses_foreign_journal(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = str(tmp_path / "sweep.jsonl")
        evaluator.sweep(
            configs=configs, resilience=ResilienceOptions(checkpoint=path)
        )
        with pytest.raises(CheckpointMismatchError):
            evaluator.sweep(
                configs=configs[:-2],
                resilience=ResilienceOptions(checkpoint=path, resume=True),
            )


class TestFaultInjector:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultInjector(crash_rate=1.5)
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultInjector(hang_seconds=-1.0)

    def test_draws_are_deterministic(self):
        first = FaultInjector(seed=3)
        second = FaultInjector(seed=3)
        assert first._draw("crash", 5, 0) == second._draw("crash", 5, 0)
        assert first._draw("crash", 5, 0) != first._draw("crash", 5, 1)

    def test_certain_crash_raises(self):
        with pytest.raises(InjectedCrash, match="injected crash"):
            FaultInjector(crash_rate=1.0).on_chunk_start(0, 0)

    def test_certain_corruption_mangles(self):
        injector = FaultInjector(corrupt_rate=1.0)
        assert injector.mangle_payload(0, 0, "payload") != "payload"
        assert FaultInjector().mangle_payload(0, 0, "payload") == "payload"


class TestFaultInjection:
    """Injected faults are absorbed; results never change."""

    def _clean(self):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        return evaluator, configs, evaluator.sweep(configs=configs)

    def test_crashes_absorbed_in_parallel(self):
        evaluator, configs, clean = self._clean()
        before = _counter("resilience.chunk_failures")
        run = evaluator.sweep(
            configs=configs,
            jobs=2,
            resilience=ResilienceOptions(
                retry=FAST_RETRY,
                fault_injector=FaultInjector(seed=1, crash_rate=0.5),
            ),
        )
        assert list(run.estimates) == list(clean.estimates)
        assert _counter("resilience.chunk_failures") > before

    def test_corrupt_payloads_absorbed(self):
        evaluator, configs, clean = self._clean()
        before = _counter("resilience.chunk_failures")
        run = evaluator.sweep(
            configs=configs,
            jobs=2,
            resilience=ResilienceOptions(
                retry=FAST_RETRY,
                fault_injector=FaultInjector(seed=2, corrupt_rate=0.9),
            ),
        )
        assert list(run.estimates) == list(clean.estimates)
        assert _counter("resilience.chunk_failures") > before

    @pytest.mark.parametrize("field", ["bool", "str", "pathless"])
    def test_one_corrupt_field_rejected(self, field):
        # A payload with one bad field is rejected whole and retried: the
        # registry, the cache stats and the job trace see only the
        # accepted second attempt of each chunk.
        _, configs, clean = self._clean()
        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress")), cache=EvalCache()
        )
        base = get_metrics().snapshot()
        with tracing("corrupt") as trace:
            run = evaluator.sweep(
                configs=configs,
                jobs=2,
                resilience=ResilienceOptions(
                    retry=FAST_RETRY, fault_injector=_FieldCorrupter(field=field)
                ),
            )
        delta = get_metrics().diff(base)["counters"]
        assert list(run.estimates) == list(clean.estimates)

        chunks = [e for e in trace.snapshot() if e["name"].startswith("chunk[")]
        assert len(chunks) >= 2
        assert delta["resilience.chunk_failures"] == len(chunks)
        assert delta["parallel.chunks_completed"] == len(chunks)
        for chunk in chunks:
            assert chunk["count"] == 1
            assert chunk["attrs"]["attempt"] == 1

        groups = len({(c.size, c.line_size, c.tiling) for c in configs})
        assert delta["engine.configs_evaluated"] == len(configs)
        assert (
            delta.get("evalcache.trace.hits", 0)
            + delta.get("evalcache.trace.misses", 0)
            == groups
        )
        stats = evaluator.cache.stats()
        assert stats.trace_hits + stats.trace_misses == groups

    def test_hard_kills_absorbed(self):
        evaluator, configs, clean = self._clean()
        run = evaluator.sweep(
            configs=configs,
            jobs=2,
            resilience=ResilienceOptions(
                retry=RetryPolicy(
                    max_retries=5, backoff_base_s=0.001, backoff_cap_s=0.01
                ),
                fault_injector=FaultInjector(seed=3, kill_rate=0.3),
            ),
        )
        assert list(run.estimates) == list(clean.estimates)

    def test_hangs_time_out_and_degrade(self):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        before = _counter("resilience.chunk_timeouts")
        run = evaluator.sweep(
            configs=configs,
            jobs=2,
            resilience=ResilienceOptions(
                chunk_timeout_s=0.5,
                retry=RetryPolicy(
                    max_retries=0, backoff_base_s=0.001, backoff_cap_s=0.01
                ),
                fault_injector=FaultInjector(
                    seed=4, hang_rate=0.4, hang_seconds=10.0
                ),
            ),
        )
        assert list(run.estimates) == list(clean.estimates)
        assert _counter("resilience.chunk_timeouts") > before

    def test_serial_injection_and_degradation(self):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        before = _counter("resilience.degraded_chunks")
        run = evaluator.sweep(
            configs=configs,
            resilience=ResilienceOptions(
                retry=RetryPolicy(
                    max_retries=0, backoff_base_s=0.001, backoff_cap_s=0.01
                ),
                fault_injector=FaultInjector(seed=5, crash_rate=1.0),
            ),
        )
        assert list(run.estimates) == list(clean.estimates)
        assert _counter("resilience.degraded_chunks") > before

    def test_faults_never_reach_the_journal(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = str(tmp_path / "sweep.jsonl")
        run = evaluator.sweep(
            configs=configs,
            jobs=2,
            resilience=ResilienceOptions(
                checkpoint=path,
                retry=FAST_RETRY,
                fault_injector=FaultInjector(seed=6, crash_rate=0.4),
            ),
        )
        assert list(run.estimates) == list(clean.estimates)
        assert _journaled(path, configs) == list(clean.estimates)


class TestDeterministicFailures:
    """Evaluator bugs are not transient: fail fast, name the configs."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_chunk_error_names_configs(self, jobs):
        configs = _small_configs()
        poison = configs[5]
        evaluator = _PoisonedEvaluator(get_kernel("compress"), poison)
        with pytest.raises(SweepChunkError, match="poisoned") as exc_info:
            ParallelSweep(
                jobs=jobs, resilience=ResilienceOptions(retry=FAST_RETRY)
            ).run(evaluator, configs)
        assert poison in exc_info.value.configs
        assert poison.label(full=True) in str(exc_info.value)

    def test_chunk_error_discards_a_shared_pool(self):
        from repro.engine import WorkerPool

        configs = _small_configs()
        pool = WorkerPool(2)
        try:
            with pytest.raises(SweepChunkError):
                ParallelSweep(
                    jobs=2,
                    resilience=ResilienceOptions(retry=FAST_RETRY),
                    pool=pool,
                ).run(
                    _PoisonedEvaluator(get_kernel("compress"), configs[0]),
                    configs,
                )
            # The failed sweep's running chunks keep no worker of the
            # pool busy: the next sweep on it starts fresh workers.
            assert pool._executor is None
            clean = Evaluator(KernelWorkload(get_kernel("compress")))
            assert ParallelSweep(jobs=2, pool=pool).run(
                clean, configs
            ) == list(clean.sweep(configs=configs).estimates)
        finally:
            pool.close()

    def test_no_retries_burned_on_deterministic_failure(self):
        configs = _small_configs()
        evaluator = _PoisonedEvaluator(get_kernel("compress"), configs[0])
        before = _counter("resilience.chunk_retries")
        with pytest.raises(SweepChunkError):
            ParallelSweep(
                jobs=1, resilience=ResilienceOptions(retry=FAST_RETRY)
            ).run(evaluator, configs)
        assert _counter("resilience.chunk_retries") == before


class TestEnvironmentFallback:
    def test_no_pool_degrades_serially_and_journals(self, tmp_path, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("forking is disabled in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        )
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        clean = [evaluator.evaluate(config) for config in configs]
        path = str(tmp_path / "sweep.jsonl")
        before = _counter("parallel.serial_fallbacks")
        run = ParallelSweep(
            jobs=4, resilience=ResilienceOptions(checkpoint=path)
        ).run(evaluator, configs)
        assert run == clean
        assert _counter("parallel.serial_fallbacks") == before + 1
        assert _journaled(path, configs, make_compress(n=7)) == clean


class TestCliResilienceFlags:
    def test_checkpoint_and_resume_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.jsonl")
        argv = [
            "explore", "compress", "--max-size", "32", "--min-size", "32",
            "--tilings", "1", "--checkpoint", path,
        ]
        assert main(argv + ["--max-retries", "1"]) == 0
        first = capsys.readouterr().out
        lines = open(path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[1])["chunk"]
        assert main(argv + ["--resume", "--chunk-timeout", "30"]) == 0
        assert capsys.readouterr().out == first

    def test_resume_without_checkpoint_rejected(self):
        from repro.cli import main

        with pytest.raises(ValueError, match="checkpoint"):
            main([
                "explore", "compress", "--max-size", "32", "--min-size",
                "32", "--tilings", "1", "--resume",
            ])


class _CancellingEvaluator:
    """Sets a cancel event after ``after`` evaluations; delegates the rest."""

    def __init__(self, kernel, event, after):
        self.inner = Evaluator(KernelWorkload(kernel))
        self.event = event
        self.after = after
        self.count = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, config):
        self.count += 1
        if self.count == self.after:
            self.event.set()
        return self.inner.evaluate(config)

    def evaluate_batch(self, configs):
        return [self.evaluate(config) for config in configs]


class TestCooperativeCancellation:
    def test_pre_set_event_cancels_before_any_work(self, tmp_path):
        import threading

        from repro.engine.resilience import SweepCancelledError

        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        path = str(tmp_path / "sweep.jsonl")
        event = threading.Event()
        event.set()
        before = _counter("resilience.sweeps_cancelled")
        with pytest.raises(SweepCancelledError) as excinfo:
            ParallelSweep(
                jobs=1,
                resilience=ResilienceOptions(
                    checkpoint=path, cancel_event=event
                ),
            ).run(evaluator, configs)
        assert excinfo.value.done == 0
        assert _counter("resilience.sweeps_cancelled") == before + 1

    def test_mid_sweep_cancel_keeps_journal_and_resumes(self, tmp_path):
        import threading

        from repro.engine.resilience import SweepCancelledError

        configs = _small_configs()
        clean = Evaluator(
            KernelWorkload(get_kernel("compress"))
        ).sweep(configs=configs)
        path = str(tmp_path / "sweep.jsonl")
        event = threading.Event()
        evaluator = _CancellingEvaluator(get_kernel("compress"), event, after=3)
        with pytest.raises(SweepCancelledError) as excinfo:
            ParallelSweep(
                jobs=1,
                chunk_size=2,
                resilience=ResilienceOptions(
                    checkpoint=path, cancel_event=event
                ),
            ).run(evaluator, configs)
        # The cooperative stop committed its finished chunks first.
        assert 0 < excinfo.value.done < len(configs)
        journaled = _journaled(path, configs)
        assert 0 < len(journaled) < len(configs)
        # Resuming the same journal without the event completes exactly.
        resumed = ParallelSweep(
            jobs=1,
            chunk_size=2,
            resilience=ResilienceOptions(checkpoint=path, resume=True),
        ).run(Evaluator(KernelWorkload(get_kernel("compress"))), configs)
        assert resumed == list(clean.estimates)


class TestBreakerInSweep:
    def test_deterministic_failures_trip_the_breaker(self):
        from repro.engine.resilience import CircuitBreaker

        configs = _small_configs()
        evaluator = _PoisonedEvaluator(get_kernel("compress"), configs[0])
        breaker = CircuitBreaker(name="t", failure_threshold=1, cooldown_s=60)
        with pytest.raises(SweepChunkError):
            ParallelSweep(
                jobs=1,
                resilience=ResilienceOptions(
                    retry=FAST_RETRY, breaker=breaker
                ),
            ).run(evaluator, configs)
        assert breaker.state == "open"

    def test_healthy_sweep_closes_the_breaker(self):
        from repro.engine.resilience import CircuitBreaker

        breaker = CircuitBreaker(name="t", failure_threshold=2, cooldown_s=60)
        breaker.record_failure()  # a stale strike from an earlier job
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        ParallelSweep(
            jobs=1, resilience=ResilienceOptions(breaker=breaker)
        ).run(evaluator, _small_configs()[:4])
        assert breaker.state == "closed"
        assert breaker._failures == 0
