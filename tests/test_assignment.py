"""Tests for the Section 4.1 off-chip assignment algorithm."""

import pytest

from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.core.config import design_space
from repro.kernels import (
    available_kernels,
    get_kernel,
    make_compress,
    make_dequant,
    make_matadd,
    make_matmul,
    make_pde,
    make_sor,
)
from repro.layout.address_map import layouts_overlap
from repro.layout.assignment import (
    _array_forms,
    _intervals_clear,
    _place,
    _sweep_pass_doomed,
    assign_offchip_layout,
)
from repro.loops.compat import nest_is_compatible
from tests.test_layout_golden import GEOMETRIES


class TestPaperWalkthroughs:
    def test_compress_row_pitch_36(self):
        """The paper's exact numbers: cache 8, line 2 -> pitch 36, slot 2."""
        result = assign_offchip_layout(make_compress().nest, 8, 2)
        assert result.layout.placement("a").pitches == (36, 1)
        assert result.conflict_free
        # Class anchored at a[1][0] (refs on row i) lands on line 2; the
        # row i-1 class keeps line 0.
        slots = dict(result.slots)
        assert sorted(slots.values()) == [0, 2]

    def test_matadd_consecutive_slots(self):
        """Example 2: the three cases take consecutive cache lines."""
        result = assign_offchip_layout(make_matadd().nest, 8, 2)
        assert result.conflict_free
        assert [slot for _, slot in result.slots] == [0, 1, 2]

    def test_matadd_paper_cache_six_bytes(self):
        """The paper's walk-through uses a 3-line cache: b lands at byte 38
        and c at byte 76, exactly as printed."""
        result = assign_offchip_layout(make_matadd().nest, 6, 2)
        assert result.layout.placement("a").base == 0
        assert result.layout.placement("b").base == 38
        assert result.layout.placement("c").base == 76


class TestConflictElimination:
    """The headline guarantee: conflict_free=True means zero conflict misses,
    verified against the simulator's 3C classification."""

    GEOMETRIES = [(8, 2), (16, 4), (32, 4), (32, 8), (64, 8), (64, 16), (128, 16)]

    @pytest.mark.parametrize("make", [
        make_compress, make_matadd, make_pde, make_sor, make_dequant,
    ])
    def test_compatible_kernels_conflict_free(self, make):
        kernel = make()
        for size, line in self.GEOMETRIES:
            result = assign_offchip_layout(kernel.nest, size, line)
            if not result.conflict_free:
                continue  # geometry too small for this kernel's classes
            trace = kernel.trace(layout=result.layout)
            mc = CacheSimulator(CacheGeometry(size, line, 1)).classified_misses(trace)
            assert mc.conflict == 0, (kernel.name, size, line)

    @pytest.mark.parametrize("make", [make_compress, make_pde, make_dequant])
    def test_large_enough_caches_succeed(self, make):
        """Above the Section 3 minimum size the flag must come back True."""
        kernel = make()
        result = assign_offchip_layout(kernel.nest, 128, 8)
        assert result.conflict_free

    def test_incompatible_kernel_never_claims_freedom(self):
        kernel = make_matmul(n=7)
        for size, line in [(32, 4), (64, 8)]:
            result = assign_offchip_layout(kernel.nest, size, line)
            assert not result.conflict_free

    def test_assignment_reduces_misses_for_incompatible_kernels(self):
        """Best-effort placement still helps Matrix Multiplication."""
        kernel = make_matmul(n=15)
        size, line = 64, 8
        result = assign_offchip_layout(kernel.nest, size, line)
        sim_opt = CacheSimulator(CacheGeometry(size, line, 1))
        sim_unopt = CacheSimulator(CacheGeometry(size, line, 1))
        opt = sim_opt.run(kernel.trace(layout=result.layout)).misses
        unopt = sim_unopt.run(kernel.trace()).misses
        assert opt <= unopt

    def test_four_byte_compress_catastrophe_fixed(self):
        """With int elements the dense rows alias the cache (the Figure 9
        parenthesised baseline); the assignment removes the conflicts."""
        kernel = make_compress(element_size=4)
        size, line = 64, 8
        unopt = CacheSimulator(CacheGeometry(size, line, 1)).run(kernel.trace())
        result = assign_offchip_layout(kernel.nest, size, line)
        opt = CacheSimulator(CacheGeometry(size, line, 1)).run(
            kernel.trace(layout=result.layout)
        )
        assert result.conflict_free
        assert unopt.miss_rate > 0.5
        assert opt.miss_rate < unopt.miss_rate / 2


class TestConflictFreeOracle:
    """The ``conflict_free`` flag is its definition, checked directly: a
    compatible nest whose padded trace takes no more misses direct-mapped
    than fully associative LRU of the same capacity, both counted by the
    reference simulator."""

    GEOMETRIES = sorted(
        {(c.size, c.line_size) for c in design_space(max_size=256)}
    )

    @staticmethod
    def _misses(trace, size, line, ways):
        return CacheSimulator(CacheGeometry(size, line, ways)).run(trace).misses

    @pytest.mark.parametrize("name", available_kernels())
    def test_flag_matches_simulator_oracle(self, name):
        kernel = get_kernel(name)
        compatible = nest_is_compatible(kernel.nest) and bool(kernel.nest.refs)
        for size, line in self.GEOMETRIES:
            result = kernel.optimized_layout(size, line)
            expected = compatible
            if compatible:
                trace = kernel.trace(layout=result.layout)
                expected = self._misses(trace, size, line, 1) <= self._misses(
                    trace, size, line, size // line
                )
            assert result.conflict_free == expected, (name, size, line)


class TestLayoutSanity:
    @pytest.mark.parametrize("make", [
        make_compress, make_matadd, make_pde, make_sor, make_dequant, make_matmul,
    ])
    def test_arrays_never_overlap(self, make):
        kernel = make()
        for size, line in [(16, 4), (64, 8), (256, 16)]:
            result = assign_offchip_layout(kernel.nest, size, line)
            assert not layouts_overlap(kernel.nest, result.layout)

    def test_slot_lookup(self):
        result = assign_offchip_layout(make_matadd().nest, 8, 2)
        assert result.slot_of(0) == 0
        with pytest.raises(KeyError):
            result.slot_of(99)

    def test_invalid_geometry_rejected(self):
        nest = make_compress().nest
        with pytest.raises(ValueError):
            assign_offchip_layout(nest, 0, 2)
        with pytest.raises(ValueError):
            assign_offchip_layout(nest, 10, 4)

    @pytest.mark.parametrize("padding", [-1, -5])
    def test_negative_padding_rejected(self, padding):
        nest = make_pde().nest
        with pytest.raises(ValueError, match="max_pitch_padding"):
            assign_offchip_layout(nest, 32, 4, max_pitch_padding=padding)

    def test_zero_padding_keeps_dense_pitches(self):
        result = assign_offchip_layout(
            make_compress().nest, 8, 2, max_pitch_padding=0
        )
        assert result.layout.placement("a").pitches == (32, 1)

    def test_unreferenced_array_gets_dense_placement(self):
        from repro.loops.ir import ArrayDecl, ArrayRef, Loop, LoopNest, var

        i = var("i")
        nest = LoopNest(
            name="t",
            loops=(Loop("i", 0, 3),),
            refs=(ArrayRef("a", (i,)),),
            arrays=(ArrayDecl("a", (4,)), ArrayDecl("unused", (8,))),
        )
        result = assign_offchip_layout(nest, 16, 4)
        assert result.layout.placement("unused").pitches == (1,)


class TestIntervalsClear:
    SPAN = 32
    LINE = 4

    def test_well_separated(self):
        assert _intervals_clear([(0, 2), (8, 2), (16, 2)], self.LINE, self.SPAN)

    def test_too_close_forward(self):
        assert not _intervals_clear([(0, 4), (6, 2)], self.LINE, self.SPAN)

    def test_too_close_around_the_wrap(self):
        assert not _intervals_clear([(0, 2), (30, 2)], self.LINE, self.SPAN)

    def test_overlapping(self):
        assert not _intervals_clear([(0, 8), (4, 2)], self.LINE, self.SPAN)

    def test_single_interval_always_clear(self):
        assert _intervals_clear([(0, 40)], self.LINE, self.SPAN)

    def test_empty(self):
        assert _intervals_clear([], self.LINE, self.SPAN)

    def test_gap_exactly_line_size(self):
        # Last byte of A at 1; first of B at 5: distance 4 == line size: safe.
        assert _intervals_clear([(0, 2), (5, 2)], self.LINE, self.SPAN)

    def test_gap_one_short(self):
        assert not _intervals_clear([(0, 2), (4, 2)], self.LINE, self.SPAN)


class TestSweepPassSkip:
    """The sweep-range pass is skipped only when it cannot come out clear."""

    @pytest.mark.parametrize("name", available_kernels())
    def test_skip_implies_failing_pass(self, name):
        nest = get_kernel(name).nest
        forms = _array_forms(nest)
        for size, line in GEOMETRIES:
            if _sweep_pass_doomed(forms, nest, size):
                _, _, all_clear = _place(
                    nest, forms, size, line, None, sweep=True
                )
                assert not all_clear, (name, size, line)

    def test_skip_fires_on_the_grid(self):
        fired = 0
        for name in available_kernels():
            nest = get_kernel(name).nest
            forms = _array_forms(nest)
            fired += sum(
                _sweep_pass_doomed(forms, nest, size) for size, _ in GEOMETRIES
            )
        assert fired >= 100
