"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json,
with tracing off; ``--trace 1`` measures its per-layer metrics from traced
runs of a fixed prefix of the same op stream.  Every phase runs in a fresh
interpreter (``worker.py``) with ``PYTHONHASHSEED=0``, the program imported
from ``src/`` and a scratch directory of its own under ``.perfbench_work/``.
The lines before the last say what was measured; the last line is the JSON
result.  The exit status is non-zero, and no result is printed, when the
program is missing or a phase fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep_cold", "search_session", "serve_mix")

#: Set-up samples per timed run: this many set-up-only processes, plus
#: the set-up of the timed process itself.
SETUP_ONLY_RUNS = 4
#: Every process of one run must end within this many seconds.
BUDGET_S = 170.0
#: Layer self times must cover all but this share of traced host time.
UNATTRIBUTED_LIMIT = 0.05


class PhaseError(RuntimeError):
    """A worker process failed or ran out of time."""


def processes() -> List[Tuple[int, int, int]]:
    """``(pid, parent pid, process group)`` of every live process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            found.append((int(entry), int(fields[1]), int(fields[2])))
    return found


def status_kb(pid: int, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_kb(root: int) -> int:
    """Summed peak resident memory of ``root`` and all its descendants."""
    children: Dict[int, List[int]] = defaultdict(list)
    for pid, parent, _ in processes():
        children[parent].append(pid)
    total, frontier = 0, [root]
    while frontier:
        pid = frontier.pop()
        total += status_kb(pid, "VmHWM:")
        frontier.extend(children.get(pid, ()))
    return total


class TreePeak(threading.Thread):
    """Samples :func:`tree_hwm_kb` of one process tree until :meth:`finish`."""

    def __init__(self, pid: int, interval_s: float = 0.1) -> None:
        super().__init__(name="perfbench-rss", daemon=True)
        self.pid = pid
        self.interval_s = interval_s
        self.peak_kb = 0
        self.halt = threading.Event()

    def run(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, tree_hwm_kb(self.pid))
            if self.halt.wait(self.interval_s):
                return

    def finish(self) -> None:
        if self.is_alive():
            self.halt.set()
            self.join()
            self.peak_kb = max(self.peak_kb, tree_hwm_kb(self.pid))


def stop_group(pgid: int) -> None:
    """Kill what is left of a phase's process group; wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(group == pgid for _, _, group in processes()):
        time.sleep(0.05)


class Run:
    """The phases of one ``run.py`` invocation and their verdicts."""

    def __init__(self, args: argparse.Namespace, spec: Dict[str, Any]) -> None:
        self.args = args
        self.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.deadline = time.monotonic() + BUDGET_S
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.phases = 0
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def phase(self, phase: str, sample_memory: bool = False, spans_out: Optional[Path] = None) -> Dict[str, Any]:
        """Run one worker phase in a process group of its own; return its result."""
        self.phases += 1
        work = self.work / f"{self.phases}-{phase}"
        work.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--phase", phase,
            "--work", str(work),
        ]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        command += ["--spawned", repr(time.time())]
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), stop_group, (proc.pid,))
        timer.start()
        peak = TreePeak(proc.pid) if sample_memory else None
        last = ""
        try:
            for line in proc.stdout:
                line = line.strip()
                if line == "PERFBENCH window" and peak is not None:
                    peak.start()
                elif line == "PERFBENCH done" and peak is not None:
                    peak.finish()
                elif line:
                    last = line
            code = proc.wait()
        finally:
            timer.cancel()
            if peak is not None:
                peak.finish()
            stop_group(proc.pid)
            proc.stdout.close()
        if code != 0:
            raise PhaseError(f"the {phase} phase of {self.args.workload} exited with status {code}")
        result = json.loads(last)
        if peak is not None:
            result["peak_kb"] = peak.peak_kb
        if "ops" in result:
            self.attempted += result["ops"]
            self.failed += result["failed"]
            for problem in result["problems"]:
                print(f"wrong output: {problem}")
            if result["failed"] or result["problems"]:
                self.correct = False
        return result

    def show(self, name: str, value: float, unit: str, note: str = "") -> None:
        print(f"  {name:<26} {value:>14.6g} {unit:<12} {note}".rstrip())

    def end_to_end(self) -> Dict[str, float]:
        setups = [self.phase("setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
        timed = self.phase("timed", sample_memory=True)
        setups.append(timed["setup_s"])
        latencies, ops, failed = timed["latencies"], timed["ops"], timed["failed"]
        values = {
            "setup_s": statistics.median(setups),
            "configs_per_s": timed["configs"] / timed["window_s"],
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "peak_rss_mb": (timed["peak_kb"] + status_kb(os.getpid(), "VmHWM:")) / 1024,
        }
        print(
            f"{self.args.workload} seed={self.args.seed}: {ops} ops, {timed['configs']} configs "
            f"in {timed['window_s']:.2f} s"
        )
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "op_p50_s": f"n={ops} ops",
            "op_p90_s": f"n={ops} ops",
            "peak_rss_mb": "benchmark process tree",
        }
        for name, value in values.items():
            self.show(name, value, self.units[name], notes.get(name, ""))
        self.show("error_rate", failed / ops, "fraction", f"{failed} of {ops} ops failed or wrong")
        if self.args.workload == "serve_mix":
            for kind in ("stored", "cold"):
                chosen = [t for t, k in zip(latencies, timed["kinds"]) if k == kind]
                self.show(f"{kind}_p50_s", statistics.median(chosen), "s", f"n={len(chosen)} jobs")
        return values

    def layers(self) -> Dict[str, float]:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{self.args.workload}-{self.args.seed}.jsonl"
        # Plain and traced passes alternate, so that drift in the host's
        # speed does not read as tracing overhead.
        plain = self.phase("plain")
        traced = self.phase("traced", spans_out=spans)
        plain_again = self.phase("plain")
        again = self.phase("traced")
        values = dict(traced["per_layer"])
        values["bench.trace_overhead"] = (traced["wall_s"] + again["wall_s"]) / (
            plain["wall_s"] + plain_again["wall_s"]
        )
        print(f"{self.args.workload} seed={self.args.seed}: traced {traced['ops']} ops; spans in {spans}")
        for name in sorted(values):
            self.show(name, values[name], self.units.get(name, ""))
        drift = [
            name
            for name, unit in self.units.items()
            if unit in ("count", "ratio") and traced["per_layer"].get(name) != again["per_layer"].get(name)
        ]
        for name in drift:
            print(f"COUNT DRIFT {name}: {traced['per_layer'][name]} then {again['per_layer'][name]}")
        share = values["bench.unattributed_s"] / values["bench.traced_wall_s"]
        print(
            f"layer accounting: {share:.2%} of traced host time unattributed "
            f"(limit {UNATTRIBUTED_LIMIT:.0%}: {'ok' if share <= UNATTRIBUTED_LIMIT else 'OVER'}); "
            f"trace overhead {values['bench.trace_overhead']:.3f}x; "
            f"count metrics repeat exactly: {'no' if drift else 'yes'}"
        )
        return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The build step: byte-compile once, so that no timed set-up pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    run = Run(args, spec)
    try:
        values = run.layers() if args.trace else run.end_to_end()
    except PhaseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
