"""Fault tolerance for sweeps: retries, timeouts, a resumable store.

The load-bearing claims:

* a sweep recorded in a result store, killed at any point, and rerun
  over that store produces a result table bit-identical to an
  uninterrupted run (the hypothesis property lives in ``test_chaos.py``;
  targeted kill points here), and a store only ever serves rows to the
  evaluator that wrote them;
* injected crashes, hard kills, hangs and corrupt payloads are absorbed
  by per-chunk retries/timeouts and never change the results;
* deterministic evaluator failures surface immediately as
  :class:`SweepChunkError` naming the failing configurations -- they are
  never retried into the whole-sweep serial fallback;
* every failure path is visible in the ``resilience.*`` /
  ``parallel.*`` counters.
"""

import contextlib
import copy
import json
import os
import sqlite3
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.core.composite import CompositeProgram
from repro.core.config import CacheConfig, design_space
from repro.energy import get_energy_model, get_sram
from repro.engine import (
    Evaluator,
    FaultInjector,
    InjectedCrash,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    RetryPolicy,
    SweepChunkError,
    evaluator_fingerprint,
    order_configs,
    sweep_fingerprint,
)
from repro.engine.resilience import (
    CircuitBreaker,
    estimate_from_json,
    estimate_to_json,
)
from repro.engine.cache import EvalCache
from repro.kernels import get_kernel, make_compress
from repro.obs.metrics import get_metrics
from repro.obs.spans import tracing
from repro.serve.store import (
    ResultStore,
    StoreError,
    StoreSchemaError,
    config_key,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

#: A quick retry policy so failure tests do not sleep for real.
FAST_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.001, backoff_cap_s=0.01)


def _counter(name):
    return get_metrics().counter(name).value


def stored_rows(path, evaluator, configs):
    """The estimates the store at ``path`` holds for ``configs``, in order."""
    with ResultStore(str(path)) as store:
        found = store.get_many(evaluator_fingerprint(evaluator), configs)
    return [found[config] for config in configs if config in found]


def forget_rows(path, evaluator, configs):
    """Delete the stored rows of ``configs``, as a kill before their commit
    would have left the store."""
    eval_id = evaluator_fingerprint(evaluator)
    with contextlib.closing(sqlite3.connect(str(path))) as conn, conn:
        conn.executemany(
            "DELETE FROM estimates WHERE eval_id = ? AND config_key = ?",
            [(eval_id, config_key(config)) for config in configs],
        )


def tear_row(path, evaluator, config):
    """Corrupt one stored row on disk so it fails its checksum."""
    with contextlib.closing(sqlite3.connect(str(path))) as conn, conn:
        conn.execute(
            "UPDATE estimates SET estimate = substr(estimate, 1, 20)"
            " WHERE eval_id = ? AND config_key = ?",
            (evaluator_fingerprint(evaluator), config_key(config)),
        )


def _paper_evaluator():
    return Evaluator(KernelWorkload(make_compress(n=7)))


def _other_energy_evaluators():
    """The paper's evaluator under another SRAM part and another model."""
    return [
        Evaluator(
            KernelWorkload(make_compress(n=7)),
            energy_model=get_energy_model(name, **kwargs),
        )
        for name, kwargs in (
            ("hwo", {"sram": get_sram("16Mbit")}),
            ("kamble-ghose", {}),
        )
    ]


def _store_sweep(path, evaluator, configs, **kwargs):
    """One ``ParallelSweep`` run recorded in the store at ``path``."""
    options = kwargs.pop("resilience", {})
    with ResultStore(str(path)) as store:
        return ParallelSweep(
            resilience=ResilienceOptions(store=store, **options), **kwargs
        ).run(evaluator, configs)


def _small_configs():
    return order_configs(
        CacheConfig(size, line, ways)
        for size in (32, 64, 128)
        for line in (4, 8)
        for ways in (1, 2)
    )


class _PoisonedEvaluator:
    """Raises deterministically on one configuration; picklable."""

    error = ValueError

    def __init__(self, kernel, poison):
        self.inner = Evaluator(KernelWorkload(kernel))
        self.poison = poison

    def evaluate(self, config):
        if config == self.poison:
            raise self.error("poisoned configuration")
        return self.inner.evaluate(config)

    def evaluate_batch(self, configs):
        return [self.evaluate(config) for config in configs]


class _MissingFileEvaluator(_PoisonedEvaluator):
    """A worker-side ``OSError``: the evaluator's own, not the pool's."""

    error = FileNotFoundError


class _StoredPoisonedEvaluator(_PoisonedEvaluator):
    """A poisoned evaluator a result store accepts; records what it saw."""

    def __init__(self, kernel, poison):
        super().__init__(kernel, poison)
        self.workload = self.inner.workload
        self.seen = []

    def evaluate(self, config):
        self.seen.append(config)
        return super().evaluate(config)


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
    """The checkpoint of a sweep is a result store keyed by its evaluator."""

    def test_missing_file_is_empty_resume(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = tmp_path / "none.db"
        before = _counter("resilience.resumed_configs")
        run = _store_sweep(path, evaluator, configs, jobs=1)
        assert run == [evaluator.evaluate(config) for config in configs]
        assert _counter("resilience.resumed_configs") == before
        assert stored_rows(path, evaluator, configs) == run

    def test_round_trip(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = tmp_path / "sweep.db"
        chunks = ParallelSweep(jobs=1, chunk_size=2)._chunks(evaluator, configs)
        before = _counter("resilience.checkpoint_chunks")
        run = _store_sweep(path, evaluator, configs, jobs=1, chunk_size=2)
        # One store write per committed chunk, every field exact.
        assert _counter("resilience.checkpoint_chunks") - before == len(chunks)
        assert stored_rows(path, evaluator, configs) == run
        assert all(e.energy_breakdown is not None for e in run)

    def test_wrong_fingerprint_refused(self):
        # Rows are keyed by everything an estimate depends on: an energy
        # model or a composite's layout flag changes the key.
        kernel = make_compress(n=7)
        ids = {
            evaluator_fingerprint(evaluator)
            for evaluator in [_paper_evaluator()] + _other_energy_evaluators()
        }
        assert len(ids) == 3
        layouts = {
            evaluator_fingerprint(
                CompositeProgram([kernel], optimize_layout=flag)
            )
            for flag in (True, False)
        }
        assert len(layouts) == 2

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "not-a-store.db"
        path.write_text("just some text\n")
        with pytest.raises(StoreError, match="not a repro.store/1 store"):
            ResultStore(str(path))
        assert path.read_text() == "just some text\n"

    def test_newer_schema_refused_with_clear_error(self, tmp_path):
        path = str(tmp_path / "future.db")
        ResultStore(path).close()
        with contextlib.closing(sqlite3.connect(path)) as conn, conn:
            conn.execute(
                "UPDATE meta SET value = 'repro.store/2' WHERE key = 'schema'"
            )
        with pytest.raises(StoreSchemaError, match="newer than"):
            ResultStore(path)

    def test_old_search_journal_refused_with_clear_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "search.jsonl"
        header = {"schema": "repro.moo.checkpoint/1", "fingerprint": "aaaa"}
        path.write_text(json.dumps(header) + "\n")
        assert main([
            "pareto", "compress", "--max-size", "32", "--checkpoint",
            str(path),
        ]) == 2
        err = capsys.readouterr().err
        assert "repro.moo.checkpoint/1 sweep journal" in err
        assert "retired" in err and "pick a new path" in err

    def test_torn_trailing_line_tolerated(self, tmp_path):
        # A row damaged on disk fails its checksum: it is quarantined and
        # evaluated again, never served.
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = tmp_path / "sweep.db"
        clean = _store_sweep(path, evaluator, configs, jobs=1)
        tear_row(path, evaluator, configs[3])
        before = _counter("engine.configs_evaluated")
        assert _store_sweep(path, evaluator, configs, jobs=1) == clean
        assert _counter("engine.configs_evaluated") - before == 1

    def test_record_requires_open(self, tmp_path):
        # A chunk the store cannot record fails the sweep before anyone
        # hears it committed: a lost row would be a wrong resume.
        class _ReadOnlyStore(ResultStore):
            def put_many(self, eval_id, pairs):
                raise sqlite3.OperationalError("attempt to write a readonly database")

        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        commits = []
        with _ReadOnlyStore(str(tmp_path / "sweep.db")) as store:
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                ParallelSweep(
                    jobs=1,
                    resilience=ResilienceOptions(store=store),
                    on_commit=lambda estimates, done, total: commits.append(
                        len(estimates)
                    ),
                ).run(evaluator, _small_configs())
        assert commits == [0]

    def test_load_keys_estimates_by_config(self, tmp_path):
        # Rows are keyed by configuration, not by one sweep's list: a
        # later sweep over any subset, in any order, evaluates nothing.
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = tmp_path / "sweep.db"
        run = _store_sweep(path, evaluator, configs, jobs=1)
        subset = list(reversed(configs[2:9]))
        before = _counter("engine.configs_evaluated")
        assert _store_sweep(path, evaluator, subset, jobs=2) == [
            {e.config: e for e in run}[config] for config in subset
        ]
        assert _counter("engine.configs_evaluated") == before


class TestCheckpointResume:
    """Killed-and-resumed sweeps are bit-identical to uninterrupted ones."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_truncated_journal_resumes_identically(self, tmp_path, jobs):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = tmp_path / "sweep.db"
        recorded = _store_sweep(path, evaluator, configs, jobs=jobs)
        assert recorded == list(clean.estimates)
        # Killed after storing the first four rows.
        forget_rows(path, evaluator, configs[4:])
        before = _counter("resilience.resumed_configs")
        evaluated = _counter("engine.configs_evaluated")
        resumed = _store_sweep(path, evaluator, configs, jobs=jobs)
        assert resumed == list(clean.estimates)
        assert _counter("resilience.resumed_configs") - before == 4
        assert (
            _counter("engine.configs_evaluated") - evaluated
            == len(configs) - 4
        )

    def test_torn_journal_stays_resumable_after_resume(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = tmp_path / "sweep.db"
        _store_sweep(path, evaluator, configs, jobs=1, chunk_size=2)
        # Killed after three chunks, one committed row torn on disk.
        forget_rows(path, evaluator, configs[6:])
        tear_row(path, evaluator, configs[5])
        resumed = _store_sweep(path, evaluator, configs, jobs=1, chunk_size=2)
        assert resumed == list(clean.estimates)
        # The resumed run stored the torn row again with the rest: the
        # store now holds every configuration...
        assert stored_rows(path, evaluator, configs) == list(clean.estimates)
        # ...so resuming again evaluates nothing.
        before = _counter("engine.configs_evaluated")
        again = _store_sweep(path, evaluator, configs, jobs=1, chunk_size=2)
        assert again == list(clean.estimates)
        assert _counter("engine.configs_evaluated") == before

    def test_resume_across_different_job_counts(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = tmp_path / "sweep.db"
        _store_sweep(path, evaluator, configs, jobs=1)
        forget_rows(path, evaluator, configs[2:])
        resumed = _store_sweep(path, evaluator, configs, jobs=2)
        assert resumed == list(clean.estimates)
        assert stored_rows(path, evaluator, configs) == list(clean.estimates)

    def test_complete_journal_skips_all_evaluation(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        path = tmp_path / "sweep.db"
        first = _store_sweep(path, evaluator, configs, jobs=1)
        before = _counter("resilience.resumed_configs")
        evaluated = _counter("engine.configs_evaluated")
        # A complete store needs no backend: an open breaker, which
        # would refuse any dispatch, is neither consulted nor taken, and
        # on_commit never hears of the run.
        breaker = CircuitBreaker(name="t", failure_threshold=1, cooldown_s=60)
        breaker.record_failure()
        commits = []
        with ResultStore(str(path)) as store:
            resumed = ParallelSweep(
                jobs=2,
                resilience=ResilienceOptions(store=store, breaker=breaker),
                on_commit=lambda *args: commits.append(args),
            ).run(evaluator, configs)
        assert resumed == first
        assert _counter("resilience.resumed_configs") - before == len(configs)
        assert _counter("engine.configs_evaluated") == evaluated
        assert commits == [] and breaker.state == "open"

    def test_resume_refuses_foreign_journal(self, tmp_path):
        # A store holding another evaluator's rows serves none of them:
        # a changed energy model never resumes stale estimates.
        configs = _small_configs()
        path = tmp_path / "sweep.db"
        paper = _paper_evaluator()
        _store_sweep(path, paper, configs, jobs=1)
        for other in _other_energy_evaluators():
            before = _counter("resilience.resumed_configs")
            run = _store_sweep(path, other, configs, jobs=1)
            assert _counter("resilience.resumed_configs") == before
            assert run == [other.evaluate(config) for config in configs]
            assert run != [paper.evaluate(config) for config in configs]


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

    @pytest.mark.parametrize("seed", [0, 4])
    def test_one_retry_policy_for_every_job_count(self, seed):
        # jobs=1 runs its chunks in-process through the same round loop
        # as the worker pool: the same faults, retries and degradations.
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        names = (
            "resilience.chunk_failures",
            "resilience.chunk_retries",
            "resilience.degraded_chunks",
        )
        runs = []
        for jobs in (1, 2):
            base = get_metrics().snapshot()
            estimates = ParallelSweep(
                jobs=jobs,
                chunk_size=2,
                resilience=ResilienceOptions(
                    retry=RetryPolicy(
                        max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01
                    ),
                    fault_injector=FaultInjector(
                        seed=seed, crash_rate=0.3, corrupt_rate=0.3
                    ),
                ),
            ).run(evaluator, configs)
            delta = get_metrics().diff(base)["counters"]
            runs.append((estimates, [delta.get(name, 0) for name in names]))
        (serial, serial_counts), (parallel, parallel_counts) = runs
        assert serial == parallel == list(
            evaluator.sweep(configs=configs).estimates
        )
        assert serial_counts == parallel_counts
        assert all(serial_counts)

    def test_faults_never_reach_the_journal(self, tmp_path):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _small_configs()
        clean = evaluator.sweep(configs=configs)
        path = tmp_path / "sweep.db"
        with ResultStore(str(path)) as store:
            run = evaluator.sweep(
                configs=configs,
                jobs=2,
                resilience=ResilienceOptions(
                    store=store,
                    retry=FAST_RETRY,
                    fault_injector=FaultInjector(seed=6, crash_rate=0.4),
                ),
            )
        assert list(run.estimates) == list(clean.estimates)
        assert stored_rows(path, evaluator, configs) == list(clean.estimates)


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

    def test_chunk_error_names_a_few_configs_and_counts_the_rest(self):
        configs = order_configs(design_space(max_size=1024))
        evaluator = _PoisonedEvaluator(get_kernel("compress"), configs[0])
        with pytest.raises(SweepChunkError, match="poisoned") as exc_info:
            ParallelSweep(jobs=1).run(evaluator, configs)
        error = exc_info.value
        named = SweepChunkError.NAMED
        assert error.configs == configs
        listed = str(error)[str(error).index("[") + 1:str(error).index("]")]
        labels = [c.label(full=True) for c in configs[:named]]
        assert listed == ", ".join(labels) + f" and {len(configs) - named} more"
        assert len(str(error)) < 250

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

    def test_in_process_chunks_commit_in_order_and_stop_at_a_bug(
        self, tmp_path
    ):
        configs = _small_configs()
        evaluator = _StoredPoisonedEvaluator(get_kernel("compress"), None)
        chunks = ParallelSweep(jobs=1, chunk_size=2)._chunks(
            evaluator, configs
        )
        bad = 2
        evaluator.poison = chunks[bad][-1][1]
        committed = []
        path = tmp_path / "sweep.db"
        with pytest.raises(SweepChunkError):
            with ResultStore(str(path)) as store:
                ParallelSweep(
                    jobs=1,
                    chunk_size=2,
                    resilience=ResilienceOptions(store=store),
                    on_commit=lambda estimates, done, total: committed.append(
                        [estimate.config for estimate in estimates]
                    ),
                ).run(evaluator, configs)
        before = [[config for _, config in chunk] for chunk in chunks[:bad]]
        assert committed == [[]] + before
        assert [e.config for e in stored_rows(path, evaluator, configs)] == [
            config for chunk in before for config in chunk
        ]
        # No chunk after the failing one started.
        assert evaluator.seen == [
            config for chunk in chunks[: bad + 1] for _, config in chunk
        ]


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
        path = tmp_path / "sweep.db"
        before = _counter("parallel.serial_fallbacks")
        run = _store_sweep(path, evaluator, configs, jobs=4)
        assert run == clean
        assert _counter("parallel.serial_fallbacks") == before + 1
        assert stored_rows(path, evaluator, configs) == clean

    def test_a_workers_own_os_error_is_a_chunk_error(self):
        # Only starting or reaching the pool is environmental: an OSError
        # the evaluator raises in a worker fails the sweep at once, as it
        # does at jobs=1, with no serial re-run.
        configs = _small_configs()
        evaluator = _MissingFileEvaluator(get_kernel("compress"), configs[5])
        before = _counter("parallel.serial_fallbacks")
        with pytest.raises(SweepChunkError, match="poisoned") as exc_info:
            ParallelSweep(jobs=2, chunk_size=2).run(evaluator, configs)
        assert isinstance(exc_info.value.__cause__, FileNotFoundError)
        assert configs[5] in exc_info.value.configs
        assert _counter("parallel.serial_fallbacks") == before

    def test_a_pool_that_cannot_start_workers_falls_back_once(
        self, monkeypatch
    ):
        import concurrent.futures

        from repro.engine import WorkerPool

        def no_processes(self, *args, **kwargs):
            raise BlockingIOError("Resource temporarily unavailable")

        # submit is where ProcessPoolExecutor starts its processes; none
        # starts here.
        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "submit", no_processes
        )
        evaluator = Evaluator(KernelWorkload(make_compress(n=7)))
        configs = _small_configs()
        clean = [evaluator.evaluate(config) for config in configs]
        before = _counter("parallel.serial_fallbacks")
        pool = WorkerPool(2)
        try:
            run = ParallelSweep(jobs=2, chunk_size=2, pool=pool).run(
                evaluator, configs
            )
            assert pool._executor is None  # discarded, never joined
        finally:
            pool.close()
        assert run == clean
        assert _counter("parallel.serial_fallbacks") == before + 1

    def test_workers_that_cannot_import_main_fall_back(self):
        # A threaded caller's workers start from a fork server and must
        # re-import __main__; a script piped to `python -` has none to
        # import, so the sweep falls back once instead of failing chunks.
        script = os.path.join(DATA, "threaded_stdin_sweep.py")
        src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        with open(script) as stdin:
            proc = subprocess.run(
                [sys.executable, "-"],
                stdin=stdin,
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["correct"], report["error"]
        assert report["counters"]["parallel.serial_fallbacks"] == 1
        assert "resilience.chunk_failures" not in report["counters"]
        assert report["breaker_failures"] == 0


class TestCliResilienceFlags:
    EXPLORE = [
        "explore", "compress", "--max-size", "32", "--min-size", "16",
        "--tilings", "1", "2",
    ]

    def _explore(self, capsys, *extra):
        from repro.cli import main

        assert main(self.EXPLORE + list(extra)) == 0
        return capsys.readouterr().out

    def test_checkpoint_and_resume_flags(self, tmp_path, capsys):
        path = str(tmp_path / "cli.db")
        first = self._explore(
            capsys, "--checkpoint", path, "--max-retries", "1"
        )
        rows = first.split("\n\n")[0].splitlines()[1:]
        with ResultStore(path) as store:
            assert store.count() == len(rows) > 0
        # The same command over the same store resumes from it: a
        # complete store evaluates nothing.
        report = str(tmp_path / "metrics.json")
        again = self._explore(
            capsys, "--checkpoint", path, "--chunk-timeout", "30",
            "--metrics-out", report,
        )
        assert again == first + f"wrote repro.obs/1 report to {report}\n"
        with open(report, encoding="utf-8") as handle:
            counters = json.load(handle)["metrics"]["counters"]
        assert counters.get("engine.configs_evaluated", 0) == 0

    def test_resume_without_checkpoint_rejected(self):
        from repro.cli import main

        # --resume is gone: rerunning over the same --checkpoint resumes.
        with pytest.raises(SystemExit) as excinfo:
            main(self.EXPLORE + ["--resume"])
        assert excinfo.value.code == 2

    def test_energy_model_changes_never_resume_stale_rows(
        self, tmp_path, capsys
    ):
        from repro.core.explorer import MemExplorer

        path = str(tmp_path / "cli.db")
        configs = None
        for variant in (
            [], ["--sram", "16Mbit"], ["--energy-model", "kamble-ghose"],
        ):
            stored = self._explore(capsys, *variant, "--checkpoint", path)
            assert stored == self._explore(capsys, *variant)
            # The rows this variant stored are its own clean estimates.
            energy = dict(zip(variant[::2], variant[1::2]))
            evaluator = MemExplorer(
                get_kernel("compress"),
                energy_model=get_energy_model(
                    energy.get("--energy-model", "hwo"),
                    sram=get_sram(energy.get("--sram", "CY7C-2Mbit")),
                ),
                backend="auto",
            ).evaluator
            clean = evaluator.sweep(
                max_size=32, min_size=16, ways=(1,), tilings=(1, 2)
            ).estimates
            configs = [estimate.config for estimate in clean]
            assert stored_rows(path, evaluator, configs) == list(clean)
        with ResultStore(path) as store:
            assert store.count() == 3 * len(configs)

    def test_composite_layout_flag_keys_the_store(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "mpeg.db")
        argv = ["mpeg", "--max-size", "32", "--min-size", "32"]
        assert main(argv + ["--checkpoint", path]) == 0
        laid_out = capsys.readouterr().out
        assert main(argv + ["--no-layout-opt", "--checkpoint", path]) == 0
        stored = capsys.readouterr().out
        assert main(argv + ["--no-layout-opt"]) == 0
        assert stored == capsys.readouterr().out != laid_out

    def test_retired_journal_rejected_clearly(self, tmp_path, capsys):
        from repro.cli import main

        # A journal as the JSONL checkpoint format wrote it.
        journal = tmp_path / "sweep.jsonl"
        with open(os.path.join(DATA, "sweep_journal_v1.jsonl"), "rb") as src:
            journal.write_bytes(src.read())
        before = journal.read_bytes()
        assert main(self.EXPLORE + ["--checkpoint", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "repro.checkpoint/1 sweep journal" in captured.err
        assert "retired" in captured.err and "pick a new path" in captured.err
        assert "Traceback" not in captured.err
        assert journal.read_bytes() == before

    def test_non_store_file_rejected_clearly(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "notes.txt"
        path.write_text("not a store\n")
        assert main(self.EXPLORE + ["--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not a repro.store/1 store" in err
        assert "Traceback" not in err


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
        path = tmp_path / "sweep.db"
        event = threading.Event()
        event.set()
        before = _counter("resilience.sweeps_cancelled")
        with pytest.raises(SweepCancelledError) as excinfo:
            _store_sweep(
                path,
                evaluator,
                configs,
                jobs=1,
                resilience={"cancel_event": event},
            )
        assert excinfo.value.done == 0
        assert stored_rows(path, evaluator, configs) == []
        assert _counter("resilience.sweeps_cancelled") == before + 1

    def test_mid_sweep_cancel_keeps_journal_and_resumes(self, tmp_path):
        import threading

        from repro.engine.resilience import SweepCancelledError

        configs = _small_configs()
        clean = Evaluator(
            KernelWorkload(get_kernel("compress"))
        ).sweep(configs=configs)
        path = tmp_path / "sweep.db"
        event = threading.Event()
        evaluator = _CancellingEvaluator(get_kernel("compress"), event, after=3)
        with pytest.raises(SweepCancelledError) as excinfo:
            _store_sweep(
                path,
                evaluator,
                configs,
                jobs=1,
                chunk_size=2,
                resilience={"cancel_event": event},
            )
        # The cooperative stop committed its finished chunks first.
        assert 0 < excinfo.value.done < len(configs)
        plain = Evaluator(KernelWorkload(get_kernel("compress")))
        stored = stored_rows(path, plain, configs)
        assert len(stored) == excinfo.value.done
        # Rerunning over the same store without the event completes
        # exactly, evaluating only what the cancelled run left out.
        evaluated = _counter("engine.configs_evaluated")
        resumed = _store_sweep(path, plain, configs, jobs=1, chunk_size=2)
        assert resumed == list(clean.estimates)
        assert (
            _counter("engine.configs_evaluated") - evaluated
            == len(configs) - len(stored)
        )


class TestBreakerInSweep:
    def test_deterministic_failures_trip_the_breaker(self):
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
        breaker = CircuitBreaker(name="t", failure_threshold=2, cooldown_s=60)
        breaker.record_failure()  # a stale strike from an earlier job
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        ParallelSweep(
            jobs=1, resilience=ResilienceOptions(breaker=breaker)
        ).run(evaluator, _small_configs()[:4])
        assert breaker.state == "closed"
        assert breaker._failures == 0
