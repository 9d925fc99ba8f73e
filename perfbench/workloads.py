"""The benchmark's three workloads: seeded op streams, the calls, the checks.

Each workload turns ``--seed`` into a stream of operations ("ops") on the
program's public API and runs them in a closed loop:

``sweep_cold``
    One caller, back-to-back ``Evaluator.sweep`` calls with
    ``backend="auto"`` and a fresh ``EvalCache`` per op, over mid-size
    kernels, three grid shapes and a fixed one-in-four share of
    ``optimize_layout=False`` ops.
``search_session``
    One caller, designer sessions: one kernel's grid searched by
    ``SESSION_LENGTH`` seeded NSGA-II ``run_search`` calls with varying
    objective sets, all on the library's process-wide ``EvalCache``.
``serve_mix``
    A ``repro serve --jobs 2`` server and two client threads, each a closed
    loop of ``submit`` -> ``wait`` -> ``result`` on kernels of its own.  Half
    of each client's jobs re-request a grid it already finished (answered
    from the store); the other half need new rows.

Streams are stratified -- every block of ops holds each op class the same
number of times, in a seeded order -- so the class mix, and with it the
percentiles, does not depend on the seed.  Every answer is digested and
compared with ``golden.json``; :meth:`Workload.check` adds the checks that
run after the timed window.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Fewest ops in a timed window, so that ten samples lie beyond its p90.
MIN_OPS = 100

#: Mid-size kernels.  conv2d and matmul stay out: a cold sweep of theirs
#: takes several times longer, and a bimodal op mix makes percentiles
#: unstable.
KERNELS = ("compress", "dequant", "pde", "sor", "transpose", "mpeg:idct")

#: A kernel no workload measures, for untimed warm-up calls.
WARMUP_KERNEL = "matadd"

logger = logging.getLogger("perfbench")


@dataclass
class OpRecord:
    """One op: its host-time interval, configurations and outcome."""

    start: float
    end: float
    configs: int
    ok: bool
    kind: str = "op"
    thread: int = 0
    job: Optional[Dict[str, Any]] = None


def digest(estimates: Any, *extra: Any) -> str:
    """Short content hash of a sequence of estimates (plus scalar extras)."""
    from repro.engine.resilience import estimate_to_json

    doc = [[estimate_to_json(e) for e in estimates], list(extra)]
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cache_ratios(before: Any, after: Any) -> Dict[str, float]:
    """EvalCache hit ratios and trace evictions between two ``stats()``."""
    trace_hits = after.trace_hits - before.trace_hits
    trace_misses = after.trace_misses - before.trace_misses
    hits = after.miss_hits - before.miss_hits
    misses = after.miss_misses - before.miss_misses
    return {
        "evalcache.trace_hit_ratio": trace_hits / max(1, trace_hits + trace_misses),
        "evalcache.miss_hit_ratio": hits / max(1, hits + misses),
        "evalcache.trace_evictions": after.trace_evictions - before.trace_evictions,
    }


class Workload:
    """One op stream plus its checks; subclasses define the ops."""

    name = ""
    #: Ops in one traced pass: a fixed prefix of the stream, so that count
    #: metrics repeat exactly between passes.
    trace_ops = 0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.golden = json.loads(GOLDEN_PATH.read_text())[self.name]
        self.mismatches: List[str] = []
        self.records: List[OpRecord] = []

    def setup(self) -> None:
        """Imports, inputs and an untimed warm-up."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def run(self, seconds: Optional[float] = None, limit: Optional[int] = None) -> List[OpRecord]:
        """Run ops until ``seconds`` have passed (and ``MIN_OPS`` are done), or ``limit`` ops."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Output checks after the window; one problem per wrong answer."""
        return []

    def layer_stats(self) -> Dict[str, float]:
        """Per-layer facts the workload observes itself (cache stats etc.)."""
        return {}

    def matches_golden(self, key: str, value: str) -> bool:
        expected = self.golden.get(key)
        if value == expected:
            return True
        self.mismatches.append(f"{key}: digest {value}, golden {expected}")
        return False

    def closed_loop(self, ops: Iterator[Any], seconds: Optional[float], limit: Optional[int]) -> List[OpRecord]:
        """One caller: each op starts when the previous one has returned.

        Only the library call is timed; its answer is checked between ops.
        """
        records: List[OpRecord] = []
        thread = threading.get_ident()
        deadline = None if seconds is None else time.perf_counter() + seconds
        for index, op in enumerate(ops):
            start = time.perf_counter()
            try:
                answer = self.call(op)
            except Exception:
                logger.exception("op %r failed", op)
                records.append(OpRecord(start, time.perf_counter(), 0, False, thread=thread))
            else:
                end = time.perf_counter()
                configs, ok = self.verify(index, op, answer)
                records.append(OpRecord(start, end, configs, ok, thread=thread))
            if limit is not None and len(records) >= limit:
                break
            if deadline is not None and records[-1].end >= deadline and len(records) >= MIN_OPS:
                break
        self.records = records
        return records

    def call(self, op: Any) -> Any:
        raise NotImplementedError

    def verify(self, index: int, op: Any, answer: Any) -> Tuple[int, bool]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# sweep_cold

#: (min size, max size, associativities, tilings) of the sweep grids,
#: each 12-15 (T, L, B) trace keys so that no shape dominates.
SWEEP_SHAPES = (
    (16, 64, (1, 2, 4), (1,)),
    (32, 128, (1,), (1,)),
    (16, 32, (1, 2), (1, 2)),
)


class SweepCold(Workload):
    name = "sweep_cold"
    trace_ops = 48
    #: Sweep configurations re-checked against the reference simulator.
    REFERENCE_SAMPLES = 4

    @staticmethod
    def ops(rng: random.Random) -> Iterator[Tuple[str, bool, int]]:
        shapes = range(len(SWEEP_SHAPES))
        while True:
            # Every kernel x shape with the Section 4.1 layout, plus every
            # kernel once without it: a fixed one-in-four unoptimized share.
            block = [(kernel, True, shape) for kernel in KERNELS for shape in shapes]
            block += [(kernel, False, rng.randrange(len(SWEEP_SHAPES))) for kernel in KERNELS]
            rng.shuffle(block)
            yield from block

    @staticmethod
    def key(op: Tuple[str, bool, int]) -> str:
        kernel, layout, shape = op
        min_size, max_size, ways, tilings = SWEEP_SHAPES[shape]
        return f"{kernel} layout={int(layout)} T={min_size}..{max_size} S={ways} B={tilings}"

    @staticmethod
    def sweep(op: Tuple[str, bool, int], backend: str = "auto") -> Tuple[Any, Any]:
        from repro.core.config import design_space
        from repro.engine import EvalCache, Evaluator, KernelWorkload
        from repro.kernels import get_kernel

        kernel, layout, shape = op
        min_size, max_size, ways, tilings = SWEEP_SHAPES[shape]
        evaluator = Evaluator(
            KernelWorkload(get_kernel(kernel), optimize_layout=layout),
            backend=backend,
            cache=EvalCache(),
        )
        configs = design_space(max_size=max_size, min_size=min_size, ways=ways, tilings=tilings)
        return evaluator, evaluator.sweep(configs)

    @classmethod
    def golden_digests(cls) -> Dict[str, str]:
        ops = itertools.product(KERNELS, (True, False), range(len(SWEEP_SHAPES)))
        return {cls.key(op): digest(cls.sweep(op)[1]) for op in ops}

    def setup(self) -> None:
        for layout, shape in itertools.product((True, False), range(len(SWEEP_SHAPES))):
            self.sweep((WARMUP_KERNEL, layout, shape))
        rng = random.Random(self.seed + 1)
        #: op index -> which fraction of its configurations to re-check.
        self.sample_at = {
            index: rng.random() for index in rng.sample(range(MIN_OPS), self.REFERENCE_SAMPLES)
        }
        self.samples: List[Tuple[Tuple[str, bool, int], Any]] = []
        self.cache_stats: List[Any] = []

    def run(self, seconds=None, limit=None):
        self.samples, self.cache_stats = [], []
        return self.closed_loop(self.ops(random.Random(self.seed)), seconds, limit)

    def call(self, op):
        return self.sweep(op)

    def verify(self, index, op, answer):
        evaluator, result = answer
        self.cache_stats.append(evaluator.cache.stats())
        if index in self.sample_at:
            self.samples.append((op, result.estimates[int(self.sample_at[index] * len(result))]))
        return len(result), self.matches_golden(self.key(op), digest(result))

    def check(self):
        from repro.engine import EvalCache, Evaluator, KernelWorkload
        from repro.engine.resilience import estimate_to_json
        from repro.kernels import get_kernel

        problems = []
        for op, estimate in self.samples:
            kernel, layout, _ = op
            reference = Evaluator(
                KernelWorkload(get_kernel(kernel), optimize_layout=layout),
                backend="reference",
                cache=EvalCache(),
            ).evaluate(estimate.config)
            if estimate_to_json(reference) != estimate_to_json(estimate):
                problems.append(f"{self.key(op)} {estimate.config}: differs from the reference backend")
        return problems

    def layer_stats(self):
        from repro.engine import CacheStats

        total = CacheStats(
            trace_hits=sum(s.trace_hits for s in self.cache_stats),
            trace_misses=sum(s.trace_misses for s in self.cache_stats),
            miss_hits=sum(s.miss_hits for s in self.cache_stats),
            miss_misses=sum(s.miss_misses for s in self.cache_stats),
            trace_evictions=sum(s.trace_evictions for s in self.cache_stats),
        )
        return cache_ratios(CacheStats(0, 0, 0, 0), total)


# ----------------------------------------------------------------------
# search_session

#: The grid every session searches: 60 (T, L, B) trace keys and 160
#: configurations per kernel, against the default EvalCache's capacity of
#: 64 traces -- one session fits, and the next kernel's evicts it.
SEARCH_SPACE = {"max_size": 256, "ways": (1, 2, 4), "tilings": (1, 2, 4)}
OBJECTIVE_SETS = (
    ("cycles", "energy"),
    ("energy", "area"),
    ("cycles", "area"),
    ("cycles", "energy", "area"),
)
SEARCH_SEEDS = 8
SESSION_LENGTH = 5
GENERATIONS = 6
POPULATION = 12


def search_settings(seed: int, objectives: Tuple[str, ...]) -> Any:
    from repro.moo import SearchSettings

    return SearchSettings(
        searcher="nsga2",
        generations=GENERATIONS,
        population=POPULATION,
        seed=seed,
        objectives=objectives,
    )


def session_evaluator(kernel: str) -> Tuple[Any, List[Any]]:
    """A designer's evaluator (on the default process-wide cache) and grid."""
    from repro.core.config import design_space
    from repro.engine import Evaluator, KernelWorkload
    from repro.kernels import get_kernel

    evaluator = Evaluator(KernelWorkload(get_kernel(kernel)), backend="auto")
    return evaluator, list(design_space(**SEARCH_SPACE))


class SearchSession(Workload):
    name = "search_session"
    trace_ops = 60

    @staticmethod
    def ops(rng: random.Random) -> Iterator[Tuple[str, bool, int, Tuple[str, ...]]]:
        while True:
            for kernel in rng.sample(KERNELS, len(KERNELS)):
                for position in range(SESSION_LENGTH):
                    objectives = OBJECTIVE_SETS[rng.randrange(len(OBJECTIVE_SETS))]
                    yield kernel, position == 0, rng.randrange(SEARCH_SEEDS), objectives

    @staticmethod
    def key(kernel: str, seed: int, objectives: Tuple[str, ...]) -> str:
        return f"{kernel} seed={seed} objectives={'+'.join(objectives)}"

    @staticmethod
    def answer_digest(run: Any) -> str:
        return digest(run.front, run.evaluations, run.generations, run.hypervolume)

    @classmethod
    def golden_digests(cls) -> Dict[str, str]:
        from repro.moo import driver

        out = {}
        for kernel in KERNELS:
            evaluator, space = session_evaluator(kernel)
            for seed, objectives in itertools.product(range(SEARCH_SEEDS), OBJECTIVE_SETS):
                run = driver.run_search(evaluator, space, search_settings(seed, objectives))
                out[cls.key(kernel, seed, objectives)] = cls.answer_digest(run)
        return out

    def setup(self) -> None:
        from repro.engine import get_eval_cache
        from repro.moo import driver

        evaluator, space = session_evaluator(WARMUP_KERNEL)
        for seed, objectives in enumerate(OBJECTIVE_SETS):
            driver.run_search(evaluator, space, search_settings(seed, objectives))
        get_eval_cache().clear()
        self.session: Optional[Tuple[Any, List[Any]]] = None

    def run(self, seconds=None, limit=None):
        from repro.engine import get_eval_cache

        self.session, self.generations, self.evaluations = None, 0, 0
        self.cache_before = get_eval_cache().stats()
        return self.closed_loop(self.ops(random.Random(self.seed)), seconds, limit)

    def call(self, op):
        from repro.moo import driver

        kernel, opens_session, seed, objectives = op
        if opens_session or self.session is None:
            self.session = session_evaluator(kernel)
        evaluator, space = self.session
        return driver.run_search(evaluator, space, search_settings(seed, objectives))

    def verify(self, index, op, run):
        kernel, _, seed, objectives = op
        self.generations += run.generations
        self.evaluations += run.evaluations
        ok = self.matches_golden(self.key(kernel, seed, objectives), self.answer_digest(run))
        return run.evaluations, ok

    def layer_stats(self):
        from repro.engine import get_eval_cache

        out = cache_ratios(self.cache_before, get_eval_cache().stats())
        out["moo.generations"] = self.generations
        out["moo.evaluations"] = self.evaluations
        return out


# ----------------------------------------------------------------------
# serve_mix

#: Each client's own kernels.  Disjoint, so which jobs the store answers
#: never depends on how the two clients interleave.
SERVE_CLIENT_KERNELS = (("compress", "pde", "sor"), ("dequant", "transpose", "mpeg:idct"))
SERVE_SRAMS = ("CY7C-2Mbit", "low-power-2Mbit", "16Mbit")
#: Disjoint (ways, tilings) slices of one evaluator's grid: a new slice
#: shares no row with an earlier one, so a "cold" job needs only new rows.
SERVE_GRIDS = tuple(((ways,), (tiling,)) for ways in (1, 2) for tiling in (1, 2, 4))
SERVE_MAX_SIZE = 128
#: Every block of four jobs holds two re-requests of a finished grid.
SERVE_BLOCK = ("cold", "cold", "stored", "stored")
#: ``repro serve --jobs``: ParallelSweep worker processes per job.
SERVE_JOBS = 2


def serve_specs(kernels: Tuple[str, ...]) -> List[Any]:
    from repro.serve import JobSpec

    return [
        JobSpec(
            kernel=kernel,
            backend="auto",
            max_size=SERVE_MAX_SIZE,
            ways=ways,
            tilings=tilings,
            sram=sram,
            optimize_layout=layout,
        )
        for kernel in kernels
        for sram in SERVE_SRAMS
        for layout in (True, False)
        for ways, tilings in SERVE_GRIDS
    ]


def wait_ready(url: str, timeout_s: float = 60.0) -> None:
    """Poll ``/readyz`` until the service accepts work."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with urllib.request.urlopen(url + "/readyz", timeout=5) as response:
                if response.status == 200:
                    return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{url} did not become ready within {timeout_s:g}s")
        time.sleep(0.05)


class SubprocessServer:
    """``repro serve --jobs 2`` on a free port, with its own store and spool.

    Started through ``server_main.py``, which only changes how the sweep
    workers are started (see there).
    """

    def __init__(self, work_dir: Path) -> None:
        self.log = open(work_dir / "server.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).with_name("server_main.py")), "serve",
                "--port", "0",
                "--jobs", str(SERVE_JOBS),
                "--store", str(work_dir / "store.db"),
                "--spool", str(work_dir / "spool"),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        banner = self.proc.stdout.readline()
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.url = banner.split()[2]
        wait_ready(self.url)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class InProcessServer:
    """The same service hosted in this process, so that spans see its layers."""

    def __init__(self, work_dir: Path) -> None:
        from repro.serve import ExplorationService, make_server
        from server_main import use_fork_server

        use_fork_server()
        self.service = ExplorationService(
            str(work_dir / "store.db"), str(work_dir / "spool"), sweep_jobs=SERVE_JOBS
        ).start()
        self.httpd = make_server("127.0.0.1", 0, self.service)
        self.thread = threading.Thread(target=self.httpd.serve_forever, name="perfbench-http")
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.url = f"http://{host}:{port}"
        wait_ready(self.url)

    def stop(self) -> None:
        self.httpd.shutdown()
        self.thread.join()
        self.httpd.server_close()
        self.service.stop()


class ServeMix(Workload):
    name = "serve_mix"
    trace_ops = 40

    def __init__(self, seed: int, work_dir: Path, in_process: bool = False) -> None:
        super().__init__(seed, work_dir)
        self.in_process = in_process
        self.server: Any = None
        self.served: Dict[Any, set] = {}
        self.lock = threading.Lock()

    @staticmethod
    def key(spec: Any) -> str:
        return spec.spec_hash[:16]

    @classmethod
    def golden_digests(cls) -> Dict[str, str]:
        return {
            cls.key(spec): digest(spec.build_evaluator().sweep(spec.configs()))
            for kernels in SERVE_CLIENT_KERNELS
            for spec in serve_specs(kernels)
        }

    def setup(self) -> None:
        from repro.serve import JobSpec, ServeClient

        server_cls = InProcessServer if self.in_process else SubprocessServer
        self.server = server_cls(self.work_dir)
        client = ServeClient(self.server.url, client_id="warmup")
        spec = JobSpec(kernel=WARMUP_KERNEL, backend="auto", max_size=64)
        for _ in range(2):
            client.submit_and_wait(spec, timeout_s=60)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def stream(self, client: int) -> Iterator[Tuple[str, Any]]:
        rng = random.Random(self.seed * 2 + client)
        pool = serve_specs(SERVE_CLIENT_KERNELS[client])
        rng.shuffle(pool)
        cold = iter(pool)
        finished: List[Any] = []
        while True:
            kinds = list(SERVE_BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                spec = None
                if kind == "cold" or not finished:
                    spec, kind = next(cold, None), "cold"
                if spec is None:
                    spec, kind = rng.choice(finished), "stored"
                yield kind, spec
                if kind == "cold":
                    finished.append(spec)

    def run(self, seconds=None, limit=None):
        from repro.engine import get_eval_cache

        self.served = {}
        self.rows_before = self.store_rows()
        self.cache_before = get_eval_cache().stats()
        gate = threading.Barrier(3, timeout=60)
        per_client: List[List[OpRecord]] = [[], []]
        threads = [
            threading.Thread(target=self.client_loop, args=(c, gate, seconds, limit, per_client[c]))
            for c in (0, 1)
        ]
        for thread in threads:
            thread.start()
        gate.wait()
        for thread in threads:
            thread.join()
        self.records = sorted(per_client[0] + per_client[1], key=lambda r: r.start)
        return self.records

    def client_loop(self, client: int, gate: Any, seconds, limit, out: List[OpRecord]) -> None:
        from repro.serve import ServeClient

        api = ServeClient(self.server.url, client_id=f"designer-{client}", retry_seed=self.seed * 2 + client)
        quota = None if limit is None else limit // 2
        gate.wait()
        deadline = None if seconds is None else time.perf_counter() + seconds
        for kind, spec in self.stream(client):
            out.append(self.job(api, kind, spec))
            if quota is not None and len(out) >= quota:
                break
            if deadline is not None and out[-1].end >= deadline and len(out) >= MIN_OPS // 2:
                break

    def job(self, api: Any, kind: str, spec: Any) -> OpRecord:
        thread = threading.get_ident()
        start = time.perf_counter()
        try:
            job = api.submit(spec)
            done = api.wait(job["job_id"], timeout_s=120)
            if done["state"] != "done":
                raise RuntimeError(f"job {job['job_id']} ended {done['state']}: {done.get('error')}")
            result = api.result(job["job_id"])
        except Exception:
            logger.exception("%s job for %s failed", kind, spec.kernel)
            return OpRecord(start, time.perf_counter(), 0, False, kind, thread)
        end = time.perf_counter()
        value = digest(result)
        with self.lock:
            self.served.setdefault(spec, set()).add(value)
        ok = self.matches_golden(self.key(spec), value)
        return OpRecord(start, end, len(result), ok, kind, thread, done)

    def check(self):
        problems = []
        for spec, values in self.served.items():
            direct = digest(spec.build_evaluator().sweep(spec.configs()))
            if values != {direct}:
                problems.append(f"{self.key(spec)}: served {sorted(values)}, library {direct}")
        return problems

    def store_rows(self) -> int:
        return self.server.service.store.count() if self.in_process else 0

    def layer_stats(self):
        from repro.engine import get_eval_cache

        jobs = [r.job for r in self.records if r.job is not None]
        queue = [job["started_s"] - job["submitted_s"] for job in jobs]
        running = [job["finished_s"] - job["started_s"] for job in jobs]
        out = cache_ratios(self.cache_before, get_eval_cache().stats())
        out.update({
            "jobs.queue_wait_p50_s": statistics.median(queue) if queue else 0.0,
            "jobs.run_p50_s": statistics.median(running) if running else 0.0,
            "store.rows_written": self.store_rows() - self.rows_before,
        })
        return out


WORKLOADS = {cls.name: cls for cls in (SweepCold, SearchSession, ServeMix)}


def make(name: str, seed: int, work_dir: Path, in_process: bool = False) -> Workload:
    """Build a workload; ``in_process`` hosts serve_mix's server in this process."""
    if name == ServeMix.name:
        return ServeMix(seed, work_dir, in_process=in_process)
    return WORKLOADS[name](seed, work_dir)
