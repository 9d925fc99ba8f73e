"""The contract every registered miss-measurement backend honours.

Parametrised over :func:`~repro.engine.backends.available_backends`, so
the built-ins and every backend an installed ``repro.plugins``
distribution registers (e.g. ``examples/plugin_demo``'s ``coarse`` and
``faulty``) are held to the same rules:

* grouped evaluation (``evaluate_batch``) equals per-config ``evaluate``;
* ``measure_grid`` -- the default or an override -- equals per-config
  ``measure``;
* a measurement that claims ``exact`` matches the reference
  :class:`~repro.cache.simulator.CacheSimulator` miss count;
* a failing measurement fails with the same exception type on every path.

"Equals" covers failure too: where one side raises, the other must raise
the same exception type.
"""

import pytest

from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.core.config import CacheConfig
from repro.engine import EvalCache, Evaluator, KernelWorkload
from repro.engine.backends import (
    Backend,
    MissMeasurement,
    available_backends,
    get_backend,
)
from repro.kernels import make_compress

KERNEL = make_compress(n=7)
LINE_SIZES = (4, 8)
CONFIGS = [
    CacheConfig(size, line_size, ways)
    for size in (16, 32, 64)
    for line_size in LINE_SIZES
    for ways in (1, 2)
]
BACKENDS = available_backends()


class _InjectedFault(Exception):
    """Raised by a backend's ``measure`` on purpose."""


def _outcome(call):
    """``call()``'s result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _trace():
    return KERNEL.trace(layout=KERNEL.default_layout())


def _batch_and_single(backend):
    """Both evaluation paths, each on fresh caches."""
    workload = KernelWorkload(KERNEL)
    batch = _outcome(
        lambda: Evaluator(workload, backend, cache=EvalCache()).evaluate_batch(
            CONFIGS
        )
    )
    single = _outcome(
        lambda: [
            Evaluator(workload, backend, cache=EvalCache()).evaluate(config)
            for config in CONFIGS
        ]
    )
    return batch, single


@pytest.mark.parametrize("name", BACKENDS)
def test_evaluate_batch_matches_per_config_evaluate(name):
    batch, single = _batch_and_single(name)
    assert batch == single


@pytest.mark.parametrize("name", BACKENDS)
def test_measure_grid_matches_measure(name):
    backend = get_backend(name)
    trace = _trace()
    for line_size in LINE_SIZES:
        configs = [c for c in CONFIGS if c.line_size == line_size]
        grid = _outcome(lambda: backend.measure_grid(trace, configs))
        single = _outcome(
            lambda: {c: backend.measure(trace, c) for c in configs}
        )
        assert grid == single, line_size


@pytest.mark.parametrize("name", BACKENDS)
def test_exact_measurements_match_the_reference_simulator(name):
    backend = get_backend(name)
    trace = _trace()
    for config in CONFIGS:
        measured = _outcome(lambda: backend.measure(trace, config))
        if not isinstance(measured, MissMeasurement) or not measured.exact:
            continue
        simulator = CacheSimulator(
            CacheGeometry(config.size, config.line_size, config.ways),
            policy="lru",
        )
        stats = simulator.run(trace)
        assert measured.accesses == stats.accesses, config
        assert measured.misses == stats.misses, config
        assert measured.miss_rate == stats.miss_rate, config


@pytest.mark.parametrize("name", BACKENDS)
def test_failing_measure_fails_alike_on_both_paths(name):
    backend = get_backend(name)

    def fail(trace, config):
        raise _InjectedFault(f"{name}: measurement failed")

    backend.measure = fail
    batch, single = _batch_and_single(backend)
    assert batch == single
    inherits_grid = type(backend).measure_grid is Backend.measure_grid
    if inherits_grid and not backend.requires_kernel:
        # The default measure_grid is built on measure, so it must fail.
        assert batch is _InjectedFault
