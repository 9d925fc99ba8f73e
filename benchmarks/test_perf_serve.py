"""Performance benchmark: the exploration service and its result store.

The service layer must not tax the engine it fronts:

* a sweep submitted through the full service stack (JobManager ->
  JobRunner -> checkpointed ParallelSweep -> sqlite store) is measured
  against the identical direct engine sweep -- the orchestration tax;
* a resubmission of the same spec is measured absolutely: it touches no
  evaluator at all, so its cost is pure store reads, and it bounds the
  fleet-wide win of request coalescing;
* every path must return bit-identical estimates, asserted here like
  every other executor bench.
"""

import time

from repro.engine import EvalCache, Evaluator, KernelWorkload
from repro.kernels import get_kernel
from repro.serve import ExplorationService, JobSpec
from repro.serve.jobs import result_to_json

SPEC = JobSpec(
    kernel="compress", max_size=256, min_size=16, ways=(1, 2, 4),
    tilings=(1, 2),
)


def test_perf_serve_overhead(benchmark, report, tmp_path):
    def compare():
        configs = SPEC.configs()
        evaluator = Evaluator(
            KernelWorkload(get_kernel(SPEC.kernel)), cache=EvalCache()
        )
        evaluator.sweep(configs=configs)  # cold pass: populate the cache

        t0 = time.perf_counter()
        direct = list(evaluator.sweep(configs=configs).estimates)
        t_direct = time.perf_counter() - t0

        service = ExplorationService(
            str(tmp_path / "bench.db"), str(tmp_path / "spool")
        ).start()
        try:
            t0 = time.perf_counter()
            job, _ = service.manager.submit(SPEC)
            service.manager.wait(job.job_id, timeout_s=300)
            t_served = time.perf_counter() - t0
            served = service.job_result(job)["estimates"]

            t0 = time.perf_counter()
            again, _ = service.manager.submit(SPEC)
            service.manager.wait(again.job_id, timeout_s=300)
            t_stored = time.perf_counter() - t0
            stored = service.job_result(again)["estimates"]
        finally:
            service.stop()
        return direct, served, stored, t_direct, t_served, t_stored

    direct, served, stored, t_direct, t_served, t_stored = (
        benchmark.pedantic(compare, rounds=1, iterations=1)
    )

    # The service must not change results -- on either path.
    assert served == result_to_json(direct)
    assert stored == result_to_json(direct)

    n = len(direct)
    report(
        "perf_serve",
        f"Performance -- exploration service (compress warm sweep, "
        f"{n} configs)",
        ("path", "seconds", "configs/s"),
        [
            ("direct engine sweep", round(t_direct, 5), round(n / t_direct)),
            ("served, first submission", round(t_served, 5),
             round(n / t_served)),
            ("served, from store", round(t_stored, 5), round(n / t_stored)),
        ],
    )
