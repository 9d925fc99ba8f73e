"""Ablation: the paper's analytic model vs trace-driven simulation.

The authors used closed-form miss expressions instead of a simulator.
This bench quantifies what that choice cost: over the Figure 1-4 grid the
analytic model (a) agrees with the simulator exactly at the minimum
conflict-free sizes, (b) overestimates misses above them (it ignores
cross-sweep retention, which is why the paper's min-time points land at
larger caches than ours), and (c) is faster.  The table records the miss
rates only: wall time varies from run to run, so (c) is asserted and not
written down (timings belong to ``perfbench``).
"""

import time

from conftest import FIGURE_GRID

from repro.core.analytic import AnalyticExplorer
from repro.core.explorer import MemExplorer
from repro.kernels import make_compress, make_dequant


def run_comparison():
    out = {}
    for make in (make_compress, make_dequant):
        kernel = make()
        t0 = time.perf_counter()
        analytic = AnalyticExplorer(kernel).explore(configs=FIGURE_GRID)
        t_analytic = time.perf_counter() - t0
        t0 = time.perf_counter()
        simulated = MemExplorer(kernel).explore(configs=FIGURE_GRID)
        t_sim = time.perf_counter() - t0
        out[kernel.name] = (analytic, simulated, t_analytic, t_sim)
    return out


def test_ablation_analytic(benchmark, report):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = []
    for name, (analytic, simulated, t_a, t_s) in results.items():
        for ea, es in zip(analytic, simulated):
            rows.append(
                (name, ea.config.label(), ea.miss_rate, es.miss_rate)
            )
    report(
        "ablation_analytic",
        "Ablation -- analytic (paper-style) vs simulated miss rates",
        ("kernel", "config", "analytic mr", "simulated mr"),
        rows,
    )

    for name, (analytic, simulated, t_a, t_s) in results.items():
        for ea, es in zip(analytic, simulated):
            if ea.miss_rate < 1.0:  # above the analytic minimum size
                # Analytic never underestimates (no-retention assumption).
                assert es.miss_rate <= ea.miss_rate + 1e-9, (name, ea.config)
        # Both methods agree on the headline anchor.
        assert analytic.min_energy().config == simulated.min_energy().config
        # And the closed form is dramatically cheaper.
        assert t_a < t_s
