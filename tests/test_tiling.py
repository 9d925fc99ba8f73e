"""Tests for the Section 4.2 tiling transformation."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.trace import MemoryTrace
from repro.kernels import available_kernels, get_kernel
from repro.loops.ir import Loop
from repro.loops.tiling import tiled_iteration_points, tiled_iteration_space
from repro.loops.trace_gen import generate_trace, ref_addresses


def reference_tiled_points(loops, tile, n_tiled=None):
    """The tiled order point by point, as the tiled loop nest runs it.

    Untiled outer loops, then one tile-control loop per tiled loop stepping
    by ``tile * step``, then the element loops clipped at the upper bounds:
    the oracle the vectorised ``tiled_iteration_space`` must reproduce.
    """
    if n_tiled is None:
        n_tiled = len(loops)
    outer = loops[: len(loops) - n_tiled]
    tiled = loops[len(loops) - n_tiled:]
    outer_values = [list(lp.values()) for lp in outer]
    tile_starts = [
        list(range(lp.lower, lp.upper + 1, tile * lp.step)) for lp in tiled
    ]
    for outer_point in product(*outer_values):
        for starts in product(*tile_starts):
            intra = [
                range(
                    start,
                    min(start + (tile - 1) * lp.step, lp.upper) + 1,
                    lp.step,
                )
                for start, lp in zip(starts, tiled)
            ]
            for inner_point in product(*intra):
                yield outer_point + inner_point


def reference_trace(kernel, tile):
    """``kernel``'s trace built from the oracle's iteration order."""
    nest = kernel.nest
    layout = kernel.default_layout()
    points = list(reference_tiled_points(nest.loops, tile, kernel.n_tiled))
    iterations = np.asarray(points, dtype=np.int64).reshape(
        len(points), len(nest.loops)
    )
    n_refs = len(nest.refs)
    addresses = np.stack(
        [ref_addresses(nest, r, layout, iterations) for r in range(n_refs)],
        axis=1,
    ).reshape(-1)
    is_write = np.tile([ref.is_write for ref in nest.refs], len(points))
    ref_ids = np.tile(np.arange(n_refs, dtype=np.int32), len(points))
    return MemoryTrace(addresses, is_write, ref_ids)


@st.composite
def tiled_nests(draw):
    """Random nests (depth 0-3, lower bounds > 0, steps 1-3) and tilings."""
    loops = []
    for depth in range(draw(st.integers(0, 3))):
        lower = draw(st.integers(1, 5))
        step = draw(st.integers(1, 3))
        upper = lower + draw(st.integers(0, 13))
        loops.append(Loop(f"i{depth}", lower, upper, step))
    tile = draw(st.integers(1, 9))
    n_tiled = draw(st.integers(0, len(loops)))
    return tuple(loops), tile, n_tiled


class TestTiledOrder:
    def test_tile_one_is_sequential(self):
        loops = (Loop("i", 0, 3), Loop("j", 0, 3))
        points = list(tiled_iteration_points(loops, tile=1))
        expected = [(i, j) for i in range(4) for j in range(4)]
        assert points == expected

    def test_paper_example_shape(self):
        # Example 3(b): 2x2 tiles over a 4x4 space visit tile-by-tile.
        loops = (Loop("i", 1, 4), Loop("j", 1, 4))
        points = list(tiled_iteration_points(loops, tile=2))
        assert points[:4] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert points[4:8] == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_partial_tiles_clipped_at_bounds(self):
        loops = (Loop("i", 1, 5),)
        points = [p[0] for p in tiled_iteration_points(loops, tile=4)]
        assert points == [1, 2, 3, 4, 5]

    def test_tiling_subset_of_loops(self):
        loops = (Loop("i", 0, 1), Loop("j", 0, 3))
        points = list(tiled_iteration_points(loops, tile=2, n_tiled=1))
        # Outer i untouched; j tiled in pairs (which is still sequential
        # for a 1D tiling of a sequential loop).
        assert points == [(i, j) for i in range(2) for j in range(4)]

    def test_three_deep_inner_two_tiled(self):
        loops = (Loop("i", 0, 1), Loop("j", 0, 3), Loop("k", 0, 3))
        points = list(tiled_iteration_points(loops, tile=2, n_tiled=2))
        # For each i, the (j, k) plane is visited in 2x2 tiles.
        assert points[:4] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        assert len(points) == 2 * 16

    def test_matrix_shape(self):
        loops = (Loop("i", 0, 4), Loop("j", 0, 4))
        space = tiled_iteration_space(loops, tile=2)
        assert space.shape == (25, 2)

    def test_invalid_parameters(self):
        loops = (Loop("i", 0, 3),)
        with pytest.raises(ValueError):
            list(tiled_iteration_points(loops, tile=0))
        with pytest.raises(ValueError):
            list(tiled_iteration_points(loops, tile=2, n_tiled=2))
        with pytest.raises(ValueError, match="positive"):
            tiled_iteration_space(loops, tile=0)
        with pytest.raises(ValueError, match="cannot tile"):
            tiled_iteration_space(loops, tile=2, n_tiled=2)
        with pytest.raises(ValueError, match="cannot tile"):
            tiled_iteration_space(loops, tile=2, n_tiled=-1)


class TestTiledOrderOracle:
    @given(tiled_nests())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_row_for_row(self, case):
        loops, tile, n_tiled = case
        space = tiled_iteration_space(loops, tile, n_tiled)
        expected = list(reference_tiled_points(loops, tile, n_tiled))
        assert space.dtype == np.int64
        assert space.shape == (len(expected), len(loops))
        assert [tuple(row) for row in space.tolist()] == expected
        assert list(tiled_iteration_points(loops, tile, n_tiled)) == expected

    def test_partial_tiles_with_offset_lower_and_step(self):
        # i in 2, 5, 8, 11 tiled by 3 -> tiles [2, 5, 8] and [11].
        loops = (Loop("i", 1, 4), Loop("j", 2, 11, 3))
        space = tiled_iteration_space(loops, tile=3)
        assert [tuple(row) for row in space.tolist()] == list(
            reference_tiled_points(loops, 3)
        )
        assert space[:3].tolist() == [[1, 2], [1, 5], [1, 8]]

    @pytest.mark.parametrize("tile", [2, 3, 4, 8, 64])
    @pytest.mark.parametrize("name", available_kernels())
    def test_kernel_traces_follow_reference_order(self, name, tile):
        kernel = get_kernel(name)
        trace = generate_trace(kernel.nest, tile=tile, n_tiled=kernel.n_tiled)
        expected = reference_trace(kernel, tile)
        np.testing.assert_array_equal(trace.addresses, expected.addresses)
        np.testing.assert_array_equal(trace.is_write, expected.is_write)
        np.testing.assert_array_equal(trace.ref_ids, expected.ref_ids)


class TestTilingProperties:
    @given(
        extents=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        tile=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiled_order_is_permutation_of_sequential(self, extents, tile):
        loops = tuple(Loop(f"i{d}", 0, n - 1) for d, n in enumerate(extents))
        tiled = list(tiled_iteration_points(loops, tile))
        sequential = list(tiled_iteration_points(loops, 1))
        assert sorted(tiled) == sorted(sequential)
        assert len(tiled) == len(set(tiled))

    @given(
        extent=st.integers(1, 10),
        lower=st.integers(-3, 3),
        tile=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_huge_tile_equals_sequential(self, extent, lower, tile):
        loops = (Loop("i", lower, lower + extent - 1),)
        if tile >= extent:
            assert list(tiled_iteration_points(loops, tile)) == list(
                tiled_iteration_points(loops, 1)
            )
