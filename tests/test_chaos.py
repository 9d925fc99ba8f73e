"""Chaos harness: the resumed-equals-clean guarantee, adversarially.

Two layers of assurance on top of ``tests/test_resilience.py``:

* a hypothesis property: for *any* kill point of a sweep recorded in a
  result store (the rows of its uncommitted chunks deleted, optionally
  one committed row torn on disk) and either job count, rerunning over
  the store yields the same result table and the same winning
  configuration as an uninterrupted run;
* seeded end-to-end chaos runs (the nightly CI job's entry point):
  a sweep suffering injected crashes, hard kills and corrupt payloads is
  additionally killed mid-sweep and resumed, and must still match the
  clean run byte for byte;
* served jobs, killed between two store commits at a seed-chosen point,
  recover bit-identically and dispatch only what the store lacks.

The nightly job parameterises the seeds through ``REPRO_CHAOS_SEEDS``
(comma-separated ints, default ``0,1,2``); a kill point is derived from
each seed so different nights exercise different tears.
"""

import os
import shutil
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig
from repro.engine import (
    Evaluator,
    FaultInjector,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    RetryPolicy,
    order_configs,
)
from repro.engine.result import ExplorationResult
from repro.kernels import get_kernel
from repro.obs.metrics import get_metrics
from repro.serve import (
    ClientPolicy,
    ExplorationService,
    JobSpec,
    RateLimitedError,
    TenancyPolicy,
)
from repro.serve.jobs import result_to_json
from repro.serve.store import ResultStore
from tests.test_resilience import forget_rows, tear_row
from tests.test_serve import run_until_killed

SEEDS = [
    int(part)
    for part in os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2").split(",")
    if part.strip()
]

FAST_RETRY = RetryPolicy(
    max_retries=5, backoff_base_s=0.001, backoff_cap_s=0.01
)

_STATE = {}


def _configs():
    return order_configs(
        CacheConfig(size, line, ways)
        for size in (32, 64, 128)
        for line in (4, 8, 16)
        for ways in (1, 2)
        if line <= size
    )


def _counter(name):
    return get_metrics().counter(name).value


def _stored_sweep(path, evaluator, configs, **kwargs):
    """One ``ParallelSweep`` run recorded in the store at ``path``."""
    options = kwargs.pop("resilience", {})
    with ResultStore(str(path)) as store:
        return ParallelSweep(
            resilience=ResilienceOptions(store=store, **options), **kwargs
        ).run(evaluator, configs)


def _store_sweep(store):
    """A serial sweep over ``store``, as a search's generations run."""
    return ParallelSweep(jobs=1, resilience=ResilienceOptions(store=store))


def _baseline(tmp_path_factory):
    """Clean estimates plus a complete store, computed once per session."""
    if not _STATE:
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _configs()
        path = str(tmp_path_factory.mktemp("chaos") / "full.db")
        # chunk_size=2 maximises chunk commits, i.e. distinct kill points.
        estimates = _stored_sweep(
            path, evaluator, configs, jobs=1, chunk_size=2
        )
        chunks = ParallelSweep(jobs=1, chunk_size=2)._chunks(
            evaluator, configs
        )
        _STATE.update(
            evaluator=evaluator,
            configs=configs,
            clean=estimates,
            store=path,
            chunks=[[config for _, config in chunk] for chunk in chunks],
        )
    return _STATE


def _killed_store(baseline, path, kill_after):
    """The store a sweep killed after ``kill_after`` chunk commits leaves."""
    shutil.copyfile(baseline["store"], path)
    lost = [c for chunk in baseline["chunks"][kill_after:] for c in chunk]
    forget_rows(path, baseline["evaluator"], lost)
    return len(baseline["configs"]) - len(lost)


@pytest.fixture(scope="session")
def baseline(tmp_path_factory):
    return _baseline(tmp_path_factory)


class TestKillPointProperty:
    @given(
        fraction=st.floats(0.0, 1.0),
        jobs=st.sampled_from([1, 4]),
        torn=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_kill_point_resumes_identically(
        self, baseline, tmp_path_factory, fraction, jobs, torn
    ):
        kill_after = round(fraction * len(baseline["chunks"]))
        path = str(
            tmp_path_factory.mktemp("kill") / f"k{kill_after}-j{jobs}.db"
        )
        kept = _killed_store(baseline, path, kill_after)
        if torn and kept:  # a committed row damaged on disk
            tear_row(path, baseline["evaluator"], baseline["configs"][0])
            kept -= 1
        evaluated = _counter("engine.configs_evaluated")
        resumed = _stored_sweep(
            path, baseline["evaluator"], baseline["configs"], jobs=jobs
        )
        assert resumed == baseline["clean"]
        clean_best = ExplorationResult(baseline["clean"]).min_energy()
        assert ExplorationResult(resumed).min_energy() == clean_best
        assert (
            _counter("engine.configs_evaluated") - evaluated
            == len(baseline["configs"]) - kept
        )

    def test_resume_of_untouched_journal_is_complete(
        self, baseline, tmp_path_factory
    ):
        path = str(tmp_path_factory.mktemp("kill") / "whole.db")
        _killed_store(baseline, path, len(baseline["chunks"]))
        evaluated = _counter("engine.configs_evaluated")
        resumed = _stored_sweep(
            path, baseline["evaluator"], baseline["configs"], jobs=1
        )
        assert resumed == baseline["clean"]
        assert _counter("engine.configs_evaluated") == evaluated


class TestSeededChaos:
    """The nightly job: faults + a mid-sweep kill + resume == clean."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaotic_killed_resumed_matches_clean(
        self, baseline, tmp_path_factory, seed
    ):
        path = str(tmp_path_factory.mktemp("chaos") / f"seed{seed}.db")
        injector = FaultInjector(
            seed=seed, crash_rate=0.25, kill_rate=0.15, corrupt_rate=0.2
        )
        evaluator, configs = baseline["evaluator"], baseline["configs"]
        faulty = _stored_sweep(
            path,
            evaluator,
            configs,
            jobs=2,
            resilience={"retry": FAST_RETRY, "fault_injector": injector},
        )
        assert faulty == baseline["clean"]

        # Kill the sweep at a seed-derived point (its later rows were
        # never stored) and resume under faults drawn from a different
        # seed (the infrastructure stays unreliable across the restart).
        kill_at = seed % len(configs)
        forget_rows(path, evaluator, configs[kill_at:])
        resumed = _stored_sweep(
            path,
            evaluator,
            configs,
            jobs=2,
            resilience={
                "retry": FAST_RETRY,
                "fault_injector": FaultInjector(
                    seed=seed + 1000, crash_rate=0.25, corrupt_rate=0.2
                ),
            },
        )
        assert resumed == baseline["clean"]
        best = ExplorationResult(baseline["clean"]).min_energy()
        assert ExplorationResult(resumed).min_energy() == best

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_under_serial_jobs(self, baseline, tmp_path_factory, seed):
        # kill_rate must stay 0 here: a hard kill in the serial path would
        # take the test process down (that scenario *is* the store kill).
        path = str(tmp_path_factory.mktemp("chaos") / f"serial{seed}.db")
        run = _stored_sweep(
            path,
            baseline["evaluator"],
            baseline["configs"],
            jobs=1,
            resilience={
                "retry": FAST_RETRY,
                "fault_injector": FaultInjector(seed=seed, crash_rate=0.4),
            },
        )
        assert run == baseline["clean"]


class TestMultiTenantChaos:
    """kill -9 under multi-client load, service-layer edition.

    Two tenants with unequal fair-share weights submit distinct sweeps
    through a quota-enforcing :class:`JobManager`; the server dies with
    one job between two chunk commits and a stored row corrupted on
    disk.  A fresh service over the same store must hand every tenant
    back bit-identical results, dispatch only the rows the store lacks,
    quarantine the torn row instead of serving it, and account for every
    dequeue in the fair-share counters.
    """

    SPECS = {
        "chaos-a": (
            JobSpec(kernel="compress", max_size=32, min_size=16,
                    tilings=(1,)),
            JobSpec(kernel="compress", max_size=64, min_size=32,
                    tilings=(1,)),
        ),
        "chaos-b": (
            JobSpec(kernel="compress", max_size=32, min_size=16,
                    tilings=(2,)),
        ),
    }

    @pytest.mark.parametrize("seed", SEEDS)
    def test_killed_multi_client_service_recovers(
        self, tmp_path_factory, seed
    ):
        root = tmp_path_factory.mktemp("mtchaos")
        db = str(root / "results.db")
        spool = str(root / "spool")
        direct = {
            spec.spec_hash: spec.build_evaluator().sweep(
                configs=spec.configs()
            )
            for specs in self.SPECS.values()
            for spec in specs
        }
        policy = TenancyPolicy(
            default=ClientPolicy(max_inflight=8),
            overrides={
                "chaos-a": ClientPolicy(max_inflight=8, weight=2.0),
                "chaos-b": ClientPolicy(rate=50.0, burst=1, max_inflight=8),
            },
        )
        metrics = get_metrics()
        dequeued_before = {
            client: metrics.counter(
                f"serve.fairshare.dequeued.{client}"
            ).value
            for client in self.SPECS
        }
        quarantined_before = metrics.counter(
            "store.corruption.quarantined"
        ).value

        # Session one: both tenants submit, chaos-b's burst of one is
        # spent so its immediate follow-up is rate limited with an exact
        # retry hint -- the quotas stay live under the chaos load.
        first = ExplorationService(db, spool, tenancy=policy)
        jobs = {}
        for client, specs in self.SPECS.items():
            for spec in specs:
                job, coalesced = first.manager.submit(spec, client_id=client)
                assert not coalesced
                jobs[job.job_id] = spec
        with pytest.raises(RateLimitedError) as excinfo:
            first.manager.submit(
                self.SPECS["chaos-b"][0], client_id="chaos-b"
            )
        assert excinfo.value.retry_after_s > 0

        # chaos-b's sweep finishes and lands in the store before the
        # crash; a seed-picked row of it is then torn on disk.
        done_spec = self.SPECS["chaos-b"][0]
        ParallelSweep(
            jobs=1, resilience=ResilienceOptions(store=first.store)
        ).run(done_spec.build_evaluator(), done_spec.configs())

        # The first DRR visit credits chaos-a's weight of two, so the
        # claim that dies between two chunk commits is deterministically
        # chaos-a's first spec.
        claimed_spec = self.SPECS["chaos-a"][0]
        chunks = len(
            ParallelSweep(jobs=1)._chunks(
                claimed_spec.build_evaluator(), claimed_spec.configs()
            )
        )
        assert chunks > 1
        claimed = run_until_killed(first, commits=1 + seed % (chunks - 1))
        assert claimed.client_id == "chaos-a"
        assert jobs[claimed.job_id] == claimed_spec

        conn = sqlite3.connect(db)
        with conn:
            rows = conn.execute(
                "SELECT COUNT(*) FROM estimates"
            ).fetchone()[0]
            assert rows > 0
            conn.execute(
                "UPDATE estimates SET estimate = '{torn' WHERE rowid = ?",
                (1 + seed % rows,),
            )
        conn.close()
        # Session one vanishes here: no stop(), no close() -- kill -9.

        # Session two: recovery re-enqueues the claimed job, which finds
        # its committed chunks stored; the torn row is quarantined and
        # re-evaluated, every tenant's results match the direct sweeps
        # exactly, and nothing that was stored intact is dispatched again.
        grid = {
            (spec.eval_id(), config)
            for specs in self.SPECS.values()
            for spec in specs
            for config in spec.configs()
        }
        evaluated = metrics.counter("engine.configs_evaluated").value
        second = ExplorationService(db, spool, tenancy=policy).start()
        try:
            for job_id, spec in jobs.items():
                done = second.manager.wait(job_id, timeout_s=120)
                assert done is not None and done.state == "done"
                assert second.job_result(done)["estimates"] == (
                    result_to_json(direct[spec.spec_hash])
                )
            assert (
                metrics.counter("engine.configs_evaluated").value - evaluated
                == len(grid) - (rows - 1)
            )
            assert second.store.stats()["quarantine"] == 1
            assert (
                metrics.counter("store.corruption.quarantined").value
                == quarantined_before + 1
            )
            # Fair-share ledger: chaos-a was dequeued once before the
            # kill and twice after recovery, chaos-b exactly once.
            deltas = {
                client: metrics.counter(
                    f"serve.fairshare.dequeued.{client}"
                ).value
                - dequeued_before[client]
                for client in self.SPECS
            }
            assert deltas == {"chaos-a": 3, "chaos-b": 1}
        finally:
            second.stop()


class TestSearchChaos:
    """kill -9 mid-search: the stored generations resume bit-identically."""

    SETTINGS_DOC = {"generations": 6, "population": 8, "seed": 13}

    def _clean(self):
        from repro.core.config import design_space
        from repro.moo import SearchSettings, run_search

        if "search_clean" not in _STATE:
            space = list(design_space(max_size=64, min_size=16))
            run = run_search(
                Evaluator(KernelWorkload(get_kernel("compress"))),
                space,
                SearchSettings(**self.SETTINGS_DOC),
            )
            _STATE["search_clean"] = (space, run)
        return _STATE["search_clean"]

    @given(fraction=st.floats(0.0, 1.0), torn=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_any_kill_point_resumes_identically(
        self, tmp_path_factory, fraction, torn
    ):
        from repro.moo import SearchSettings, run_search

        space, clean = self._clean()
        settings_ = SearchSettings(**self.SETTINGS_DOC)
        root = tmp_path_factory.mktemp("moo-chaos")
        path = str(root / "search.db")
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))

        # A completed search, then the kill: only part of its rows were
        # stored (a deterministic searcher replays from any subset), and
        # optionally the last stored row is torn on disk.
        with ResultStore(path) as store:
            run_search(
                evaluator, space, settings_, sweep=_store_sweep(store)
            )
        evaluated = [estimate.config for estimate in clean.estimates]
        kill_after = min(len(evaluated), int(fraction * (len(evaluated) + 1)))
        forget_rows(path, evaluator, evaluated[kill_after:])
        if torn and kill_after:
            tear_row(path, evaluator, evaluated[kill_after - 1])

        with ResultStore(path) as store:
            resumed = run_search(
                Evaluator(KernelWorkload(get_kernel("compress"))),
                space,
                settings_,
                sweep=_store_sweep(store),
            )
        assert resumed.events == clean.events
        assert [e.config for e in resumed.front] == [
            e.config for e in clean.front
        ]
        assert resumed.evaluations == clean.evaluations

    def test_killed_search_service_recovers(self, tmp_path_factory):
        from repro.moo import SearchSettings, run_search

        spec = JobSpec(
            kernel="compress",
            max_size=64,
            min_size=16,
            search=SearchSettings(**self.SETTINGS_DOC),
        )
        direct = run_search(
            spec.build_evaluator(), spec.configs(), spec.search
        )
        metrics = get_metrics()
        for seed in SEEDS:
            root = tmp_path_factory.mktemp("moo-service-chaos")
            db = str(root / "results.db")
            spool = str(root / "spool")

            # Session one dies between two chunk commits of a generation,
            # at a seed-chosen point -- exactly what SIGKILL leaves.
            first = ExplorationService(db, spool)
            job, _ = first.manager.submit(spec)
            run_until_killed(first, commits=1 + seed % 5)
            stored = first.store.count()
            assert 0 < stored < len(direct.estimates)

            # Session two replays the stored generations without
            # dispatching them and finishes with the clean front.
            evaluated = metrics.counter("engine.configs_evaluated").value
            service = ExplorationService(db, spool).start()
            try:
                done = service.manager.wait(job.job_id, timeout_s=120)
                assert done is not None and done.state == "done"
                assert done.resumed
                assert (
                    metrics.counter("engine.configs_evaluated").value
                    - evaluated
                    == len(direct.estimates) - stored
                )
                served = service.job_result(done)
                assert [row["config"] for row in served["estimates"]] == [
                    [e.config.size, e.config.line_size, e.config.ways,
                     e.config.tiling]
                    for e in direct.front
                ]
                manifest = service.store.load_manifest(job.job_id)
                assert manifest["search"]["hypervolume"] == direct.hypervolume
            finally:
                service.stop()
            assert not os.path.exists(spool)
