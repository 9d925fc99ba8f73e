"""Chaos harness: the resumed-equals-clean guarantee, adversarially.

Two layers of assurance on top of ``tests/test_resilience.py``:

* a hypothesis property: for *any* kill point in the checkpoint journal
  and either job count, resuming yields the same result table and the
  same winning configuration as an uninterrupted run;
* seeded end-to-end chaos runs (the nightly CI job's entry point):
  a sweep suffering injected crashes, hard kills and corrupt payloads is
  additionally killed mid-journal and resumed, and must still match the
  clean run byte for byte.

The nightly job parameterises the seeds through ``REPRO_CHAOS_SEEDS``
(comma-separated ints, default ``0,1,2``); a kill point is derived from
each seed so different nights exercise different tears.
"""

import os
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


def _baseline(tmp_path_factory):
    """Clean estimates plus a complete journal, computed once per session."""
    if not _STATE:
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = _configs()
        path = str(tmp_path_factory.mktemp("chaos") / "full.jsonl")
        # chunk_size=2 maximises journal lines, i.e. distinct kill points.
        estimates = ParallelSweep(
            jobs=1,
            chunk_size=2,
            resilience=ResilienceOptions(checkpoint=path),
        ).run(evaluator, configs)
        lines = open(path, encoding="utf-8").read().splitlines()
        _STATE.update(
            evaluator=evaluator,
            configs=configs,
            clean=estimates,
            journal_lines=lines,
            chunk_lines=len(lines) - 1,  # minus the header
        )
    return _STATE


def _killed_journal(lines, path, kill_after):
    """A journal as left behind by a sweep killed after ``kill_after`` chunks."""
    kept = lines[: 1 + kill_after]
    with open(path, "w", encoding="utf-8") as handle:
        if kept:
            handle.write("\n".join(kept) + "\n")


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
        kill_after = round(fraction * baseline["chunk_lines"])
        path = str(
            tmp_path_factory.mktemp("kill") / f"k{kill_after}-j{jobs}.jsonl"
        )
        _killed_journal(baseline["journal_lines"], path, kill_after)
        if torn:  # the kill landed mid-write of the next chunk line
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"chunk": [[0, {"conf')
        resumed = ParallelSweep(
            jobs=jobs,
            resilience=ResilienceOptions(checkpoint=path, resume=True),
        ).run(baseline["evaluator"], baseline["configs"])
        assert resumed == baseline["clean"]
        clean_best = ExplorationResult(baseline["clean"]).min_energy()
        assert ExplorationResult(resumed).min_energy() == clean_best

    def test_resume_of_untouched_journal_is_complete(
        self, baseline, tmp_path_factory
    ):
        path = str(tmp_path_factory.mktemp("kill") / "whole.jsonl")
        _killed_journal(
            baseline["journal_lines"], path, baseline["chunk_lines"]
        )
        resumed = ParallelSweep(
            jobs=1,
            resilience=ResilienceOptions(checkpoint=path, resume=True),
        ).run(baseline["evaluator"], baseline["configs"])
        assert resumed == baseline["clean"]


class TestSeededChaos:
    """The nightly job: faults + a mid-sweep kill + resume == clean."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaotic_killed_resumed_matches_clean(
        self, baseline, tmp_path_factory, seed
    ):
        path = str(tmp_path_factory.mktemp("chaos") / f"seed{seed}.jsonl")
        injector = FaultInjector(
            seed=seed, crash_rate=0.25, kill_rate=0.15, corrupt_rate=0.2
        )
        faulty = ParallelSweep(
            jobs=2,
            resilience=ResilienceOptions(
                checkpoint=path, retry=FAST_RETRY, fault_injector=injector
            ),
        ).run(baseline["evaluator"], baseline["configs"])
        assert faulty == baseline["clean"]

        # Kill the journal at a seed-derived point and resume under faults
        # drawn from a different seed (the infrastructure stays unreliable
        # across the restart).
        lines = open(path, encoding="utf-8").read().splitlines()
        kill_after = seed % max(1, len(lines) - 1)
        _killed_journal(lines, path, kill_after)
        resumed = ParallelSweep(
            jobs=2,
            resilience=ResilienceOptions(
                checkpoint=path,
                resume=True,
                retry=FAST_RETRY,
                fault_injector=FaultInjector(
                    seed=seed + 1000, crash_rate=0.25, corrupt_rate=0.2
                ),
            ),
        ).run(baseline["evaluator"], baseline["configs"])
        assert resumed == baseline["clean"]
        best = ExplorationResult(baseline["clean"]).min_energy()
        assert ExplorationResult(resumed).min_energy() == best

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_under_serial_jobs(self, baseline, tmp_path_factory, seed):
        # kill_rate must stay 0 here: a hard kill in the serial path would
        # take the test process down (that scenario *is* the journal kill).
        path = str(tmp_path_factory.mktemp("chaos") / f"serial{seed}.jsonl")
        run = ParallelSweep(
            jobs=1,
            resilience=ResilienceOptions(
                checkpoint=path,
                retry=FAST_RETRY,
                fault_injector=FaultInjector(seed=seed, crash_rate=0.4),
            ),
        ).run(baseline["evaluator"], baseline["configs"])
        assert run == baseline["clean"]


class TestMultiTenantChaos:
    """kill -9 under multi-client load, service-layer edition.

    Two tenants with unequal fair-share weights submit distinct sweeps
    through a quota-enforcing :class:`JobManager`; the server dies with
    one job mid-journal and one tenant's finished rows corrupted on
    disk.  A fresh service over the same store must hand every tenant
    back bit-identical results, quarantine the torn row instead of
    serving it, and account for every dequeue in the fair-share
    counters.
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
        warm = done_spec.build_evaluator(first.store)
        for config in done_spec.configs():
            warm.evaluate(config)

        # The first DRR visit credits chaos-a's weight of two, so the
        # claim that dies mid-journal is deterministically chaos-a's.
        claimed = first.manager.next_job()
        assert claimed is not None and claimed.client_id == "chaos-a"
        journal = first.runner.checkpoint_path(claimed)
        claimed_spec = jobs[claimed.job_id]
        claimed_spec.build_evaluator().sweep(
            configs=claimed_spec.configs(),
            resilience=ResilienceOptions(checkpoint=journal),
        )
        lines = open(journal, encoding="utf-8").read().splitlines()
        _killed_journal(lines, journal, seed % max(1, len(lines) - 1))

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

        # Session two: recovery re-enqueues the claimed job, the torn
        # journal resumes, the torn row is quarantined and re-evaluated,
        # and every tenant's results match the direct sweeps exactly.
        second = ExplorationService(db, spool, tenancy=policy).start()
        try:
            for job_id, spec in jobs.items():
                done = second.manager.wait(job_id, timeout_s=120)
                assert done is not None and done.state == "done"
                assert second.job_result(done)["estimates"] == (
                    result_to_json(direct[spec.spec_hash])
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
    """kill -9 mid-search: the generation journal resumes bit-identically."""

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
        journal = str(root / "search.moo.jsonl")

        # A completed journal, then the kill: keep the header plus the
        # first ``kill_after`` generation records, optionally tearing a
        # half-written line on the end (fsync raced the kill).
        run_search(
            Evaluator(KernelWorkload(get_kernel("compress"))),
            space,
            settings_,
            checkpoint=journal,
        )
        lines = open(journal, encoding="utf-8").read().splitlines()
        generations = len(lines) - 1
        kill_after = min(generations, int(fraction * (generations + 1)))
        kept = lines[: 1 + kill_after]
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(kept) + "\n")
            if torn and kill_after < generations:
                handle.write(lines[1 + kill_after][: 20])

        resumed = run_search(
            Evaluator(KernelWorkload(get_kernel("compress"))),
            space,
            settings_,
            checkpoint=journal,
            resume=True,
        )
        assert resumed.events == clean.events
        assert [e.config for e in resumed.front] == [
            e.config for e in clean.front
        ]
        assert resumed.evaluations == clean.evaluations

    def test_killed_search_service_recovers(self, tmp_path_factory):
        from repro.moo import SearchSettings, run_search

        root = tmp_path_factory.mktemp("moo-service-chaos")
        db = str(root / "results.db")
        spool = str(root / "spool")
        spec = JobSpec(
            kernel="compress",
            max_size=64,
            min_size=16,
            search=SearchSettings(**self.SETTINGS_DOC),
        )
        direct = run_search(
            spec.build_evaluator(), spec.configs(), spec.search
        )

        # Fabricate the wreckage of a service killed mid-search: the
        # spool holds a journal cut off after two generations with a torn
        # trailing line -- exactly what SIGKILL mid-write leaves behind.
        os.makedirs(spool, exist_ok=True)
        scratch = str(root / "scratch.moo.jsonl")
        run_search(
            spec.build_evaluator(), spec.configs(), spec.search,
            checkpoint=scratch,
        )
        lines = open(scratch, encoding="utf-8").read().splitlines()
        journal = os.path.join(spool, f"{spec.spec_hash}.moo.jsonl")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:3]) + "\n")
            handle.write(lines[3][:25])

        service = ExplorationService(db, spool).start()
        try:
            job, _ = service.manager.submit(spec)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
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
