"""Work a cold sweep shares between cache geometries, kept invisible.

A kernel's geometry-free analyses (reference grouping, compatibility,
each reference's ``H`` and ``c``) are computed once per nest instance
(:meth:`LoopNest.analysis`), and the trace the Section 4.1 certificate
measures is the ``B = 1`` trace of its geometry, so the evaluator uses it
instead of generating it again.  These tests pin down that the sharing
changes no trace, no identity of a kernel and no sweep result.  They also
record the evidence for skipping the certificate where the constructive
criterion already holds, a skip this code does not take.
"""

import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.config import design_space
from repro.engine import EvalCache, Evaluator, KernelWorkload
from repro.engine.resilience import estimate_to_json
from repro.kernels import Kernel, available_kernels, get_kernel
from repro.layout import assignment
from repro.layout.assignment import assign_offchip_layout
from repro.loops.compat import nest_is_compatible

from tests.test_layout_golden import GOLDEN

GEOMETRIES = ((16, 4), (64, 8), (256, 16))


@pytest.mark.parametrize("name", available_kernels())
def test_certified_trace_is_the_untiled_trace(name):
    kernel = get_kernel(name)
    for size, line in GEOMETRIES:
        result = kernel.optimized_layout(size, line)
        if not nest_is_compatible(kernel.nest):
            assert result.trace is None  # no certificate ran
            continue
        expected = kernel.trace(result.layout, tile=1)
        assert np.array_equal(result.trace.addresses, expected.addresses)
        assert np.array_equal(result.trace.is_write, expected.is_write)
        assert np.array_equal(result.trace.ref_ids, expected.ref_ids)


def test_trace_takes_no_part_in_result_identity():
    kernel = get_kernel("compress")
    certified = kernel.optimized_layout(64, 8)
    assert certified.trace is not None
    bare = assign_offchip_layout(kernel.nest, 64, 8, verify=False)
    assert bare.trace is None
    assert "trace" not in repr(certified)
    assert certified.layout == bare.layout
    assert hash(certified) == hash(
        assign_offchip_layout(get_kernel("compress").nest, 64, 8)
    )


def _record_trace_tiles(monkeypatch):
    tiles = []
    original = Kernel.trace

    def recording(self, *args, **kwargs):
        tiles.append(kwargs.get("tile", 1))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "trace", recording)
    return tiles


SPACE = dict(max_size=64, min_size=16, ways=(1, 2), tilings=(1, 2))


def test_untiled_configs_reuse_the_certified_trace(monkeypatch):
    tiles = _record_trace_tiles(monkeypatch)
    configs = list(design_space(**SPACE))
    Evaluator(
        KernelWorkload(get_kernel("compress")), backend="auto", cache=EvalCache()
    ).sweep(configs)
    tiled = {(c.size, c.line_size, c.tiling) for c in configs if c.tiling > 1}
    # Only the tiled traces are generated outside the certificate.
    assert tiles == [2] * len(tiled)
    assert tiled


def test_incompatible_kernel_generates_its_untiled_traces(monkeypatch):
    tiles = _record_trace_tiles(monkeypatch)
    configs = list(design_space(max_size=32, min_size=16, ways=(1,), tilings=(1,)))
    Evaluator(
        KernelWorkload(get_kernel("matmul")), backend="auto", cache=EvalCache()
    ).sweep(configs)
    assert tiles == [1] * len({(c.size, c.line_size) for c in configs})


def test_kernel_analyses_run_once_per_instance(monkeypatch):
    calls = []
    original = assignment.group_references

    def recording(nest):
        calls.append(nest.name)
        return original(nest)

    monkeypatch.setattr(assignment, "group_references", recording)
    for _ in range(2):
        Evaluator(
            KernelWorkload(get_kernel("pde")), backend="auto", cache=EvalCache()
        ).sweep(**SPACE)
    assert calls == ["pde", "pde"]  # one per fresh kernel, not per geometry


def test_threads_sharing_a_nest_get_the_serial_layouts():
    """Racing threads may each compute an analysis of one nest; every
    result must still equal the one a lone caller gets."""
    geometries = [(size, line) for size in (16, 32, 64) for line in (4, 8)]
    serial = {
        geometry: get_kernel("pde").optimized_layout(*geometry)
        for geometry in geometries
    }
    shared = get_kernel("pde")
    results, errors = [], []

    def work():
        try:
            for geometry in geometries:
                results.append((geometry, shared.optimized_layout(*geometry)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 8 * len(geometries)
    assert all(result == serial[geometry] for geometry, result in results)


def test_swept_kernel_is_indistinguishable_from_a_fresh_one():
    kernel = get_kernel("pde")
    Evaluator(KernelWorkload(kernel), backend="auto", cache=EvalCache()).sweep(
        **SPACE
    )
    assert "_analyses" in kernel.nest.__dict__  # the sweep did cache work
    fresh = get_kernel("pde")
    assert kernel == fresh
    assert hash(kernel) == hash(fresh)
    assert repr(kernel) == repr(fresh)
    assert pickle.dumps(kernel) == pickle.dumps(fresh)
    clone = pickle.loads(pickle.dumps(kernel))
    assert "_analyses" not in clone.nest.__dict__


def test_parallel_sweep_is_byte_identical_to_serial():
    def sweep(jobs):
        evaluator = Evaluator(
            KernelWorkload(get_kernel("sor")), backend="auto", cache=EvalCache()
        )
        result = evaluator.sweep(jobs=jobs, **SPACE)
        return json.dumps([estimate_to_json(e) for e in result], sort_keys=True)

    assert sweep(2) == sweep(1)


def test_clear_sweep_pass_passes_the_certificate():
    """Every golden geometry whose sweep-range pass comes out clear (the
    ``verify=False`` flag, set on compatible nests only) also passes the
    simulation certificate recorded in the golden file."""
    nests = {name: get_kernel(name).nest for name in available_kernels()}
    clear = 0
    for record in json.loads(GOLDEN.read_text()):
        size, line = record["cache_size"], record["line_size"]
        if assign_offchip_layout(
            nests[record["kernel"]], size, line, verify=False
        ).conflict_free:
            clear += 1
            assert record["conflict_free"], (record["kernel"], size, line)
    assert clear == 278  # of the 546 compatible golden geometries
