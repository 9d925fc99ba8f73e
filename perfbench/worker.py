"""One benchmark process: set a workload up, run one phase, print JSON.

``run.py`` starts this script in a fresh interpreter for every phase:

``setup``
    Set the workload up -- imports, inputs, untimed warm-up and, for
    serve_mix, a ready server -- and report the set-up time.
``timed``
    Set up, run the timed window with tracing off, then check the outputs.
    The lines ``PERFBENCH window`` and ``PERFBENCH done`` bracket the
    window so that the parent samples memory while it runs.
``plain`` / ``traced``
    Set up, then run the workload's fixed prefix of ops, untraced or under
    :class:`tracing.Probe`, and report the ops' host time and (traced) the
    per-layer metrics.

The last line of standard output is the phase's JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracing import Probe, attribute, depths  # noqa: E402

#: serve_mix attribution ranks: a job's runner-side spans win over its
#: queue time, which wins over the client's own HTTP calls.
QUEUE_RANK = 50
RUNNER_RANK = 100


def timed(workload: workloads.Workload, seconds: float, spawned: float) -> Dict[str, Any]:
    print("PERFBENCH window", flush=True)
    first_op = time.time()
    started = time.perf_counter()
    records = workload.run(seconds=seconds)
    window = time.perf_counter() - started
    print("PERFBENCH done", flush=True)
    late = workload.check()
    return {
        "setup_s": first_op - spawned,
        "window_s": window,
        "ops": len(records),
        "failed": min(len(records), sum(not r.ok for r in records) + len(late)),
        "configs": sum(r.configs for r in records),
        "latencies": [r.end - r.start for r in records],
        "kinds": [r.kind for r in records],
        "problems": (workload.mismatches + late)[:10],
    }


def layered(workload: workloads.Workload, traced: bool, spans_out: Optional[Path]) -> Dict[str, Any]:
    from repro.obs.metrics import get_metrics

    probe = Probe().install() if traced else None
    before = get_metrics().snapshot()
    try:
        records = workload.run(limit=workload.trace_ops)
    finally:
        if probe is not None:
            probe.remove()
    result: Dict[str, Any] = {"wall_s": sum(r.end - r.start for r in records), "ops": len(records)}
    if probe is not None:
        # Before the checks, which evaluate through the same caches.
        result["per_layer"] = layer_metrics(probe, workload, records, before)
        if spans_out is not None:
            with open(spans_out, "w") as handle:
                for span in probe.spans:
                    handle.write(json.dumps(span) + "\n")
    late = workload.check()
    result["failed"] = min(len(records), sum(not r.ok for r in records) + len(late))
    result["problems"] = (workload.mismatches + late)[:10]
    return result


def attribute_ops(probe: Probe, records: List[workloads.OpRecord]) -> Counter:
    """Each op's host time split among layers (``None``: unattributed).

    An op owns the spans its caller's thread opened during it.  A served
    job also owns its queue time and the runner-thread spans tagged with
    its id, which outrank the client's HTTP wait.
    """
    depth = depths(probe.spans)
    by_thread: Dict[int, list] = defaultdict(list)
    by_job: Dict[str, list] = defaultdict(list)
    for span in probe.spans:
        (by_thread[span[3]] if span[6] is None else by_job[span[6]]).append(span)
    for spans in by_thread.values():
        spans.sort(key=lambda span: span[4])
    starts = {thread: [span[4] for span in spans] for thread, spans in by_thread.items()}
    shares: Counter = Counter()
    for record in records:
        spans = by_thread.get(record.thread, [])
        first = bisect.bisect_left(starts.get(record.thread, []), record.start)
        last = bisect.bisect_right(starts.get(record.thread, []), record.end)
        intervals = [(s[4], s[5], 1 + depth[s[0]], s[2]) for s in spans[first:last]]
        if record.job is not None:
            job_id = record.job["job_id"]
            runner = by_job.get(job_id, [])
            executed = min((s[4] for s in runner if s[2] == "jobs"), default=None)
            admitted = probe.submitted.get(job_id)
            if admitted is not None and executed is not None:
                intervals.append((admitted, executed, QUEUE_RANK, "jobs"))
            intervals += [(s[4], s[5], RUNNER_RANK + depth[s[0]], s[2]) for s in runner]
        shares.update(attribute(intervals, record.start, record.end))
    return shares


def layer_metrics(
    probe: Probe,
    workload: workloads.Workload,
    records: List[workloads.OpRecord],
    before: Dict[str, Any],
) -> Dict[str, Any]:
    """Every per-layer metric of BENCHMARK.json except the trace overhead."""
    from repro.obs.metrics import get_metrics

    after = get_metrics().snapshot()

    def histogram_total(name: str) -> float:
        now = after["histograms"].get(name, {}).get("total", 0.0)
        return now - before["histograms"].get(name, {}).get("total", 0.0)

    def counter(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    shares = attribute_ops(probe, records)
    counts = probe.counts
    passes = counts["cache.passes"]
    store_hits, store_misses = counter("store.hits"), counter("store.misses")
    http = [span[5] - span[4] for span in probe.spans if span[2] == "http"]
    out: Dict[str, Any] = {
        "layout.busy_s": shares["layout"],
        "layout.calls": counts["layout.calls"],
        "layout.distinct_tl": len(probe.layout_keys),
        "loops.busy_s": shares["loops"],
        "loops.calls": counts["loops.calls"],
        "loops.accesses": counts["loops.accesses"],
        "cache.busy_s": shares["cache"],
        "cache.passes": passes,
        "cache.configs": counts["cache.configs"],
        "cache.configs_per_pass": counts["cache.configs"] / passes if passes else 0.0,
        "energy.add_bs_s": shares["energy"],
        "energy.add_bs_calls": counts["energy.add_bs_calls"],
        "engine.assemble_s": shares["engine.assemble"],
        "engine.assemble_calls": counts["engine.assemble_calls"],
        "engine.self_s": shares["engine"],
        "engine.batches": counts["engine.batches"],
        "evalcache.self_s": shares["evalcache"],
        "moo.self_s": shares["moo"],
        "moo.tell_s": shares["moo.tell"],
        "moo.seeding_s": shares["moo.seeding"],
        "moo.generations": 0,
        "moo.evaluations": 0,
        "parallel.busy_s": counts["parallel.busy_us"] / 1e6,
        "parallel.self_s": shares["parallel"],
        "parallel.chunks": counts["parallel.chunks"],
        "parallel.overhead_s": counts["parallel.overhead_us"] / 1e6,
        "store.read_s": histogram_total("store.read_seconds"),
        "store.write_s": histogram_total("store.write_seconds"),
        "store.self_s": shares["store"],
        "store.hit_ratio": store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0,
        "store.rows_written": 0,
        "jobs.queue_wait_p50_s": 0.0,
        "jobs.run_p50_s": 0.0,
        "jobs.self_s": shares["jobs"],
        "http.request_p50_s": statistics.median(http) if http else 0.0,
        "http.requests_per_op": counts["http.requests"] / len(records),
        "http.self_s": shares["http"],
        "bench.ops": len(records),
        "bench.traced_wall_s": sum(r.end - r.start for r in records),
        "bench.unattributed_s": shares[None],
    }
    out.update(workload.layer_stats())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "timed", "plain", "traced"))
    parser.add_argument("--work", type=Path, required=True, help="this phase's scratch directory")
    parser.add_argument("--spans-out", type=Path, help="write the traced spans here (JSON lines)")
    parser.add_argument("--spawned", type=float, required=True, help="wall-clock time this process was launched")
    args = parser.parse_args()
    workload = workloads.make(
        args.workload, args.seed, args.work, in_process=args.phase in ("plain", "traced")
    )
    try:
        workload.setup()
        gc.collect()
        if args.phase == "setup":
            result = {"setup_s": time.time() - args.spawned}
        elif args.phase == "timed":
            result = timed(workload, args.seconds, args.spawned)
        else:
            result = layered(workload, args.phase == "traced", args.spans_out)
    finally:
        workload.teardown()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
