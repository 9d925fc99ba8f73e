"""Tests for the split-vs-unified I/D cache study."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.simulator import simulate_trace
from repro.cache.trace import MemoryTrace
from repro.icache.unified import merged_trace, split_vs_unified
from repro.kernels import make_compress, make_dequant, make_matadd, make_sor


def direct_mapped_misses(trace, mask, size, line_size):
    """Reference-simulator misses of the ``mask`` accesses, direct-mapped."""
    stream = MemoryTrace(trace.addresses[mask])
    return simulate_trace(stream, size, line_size, 1).misses


class TestMergedTrace:
    def test_volume(self):
        kernel = make_matadd()
        trace, is_fetch = merged_trace(kernel, body_instructions=5)
        iterations = kernel.nest.iterations
        assert len(trace) == iterations * (5 + len(kernel.nest.refs))
        assert int(is_fetch.sum()) == iterations * 5

    def test_code_and_data_disjoint(self):
        kernel = make_matadd()
        trace, is_fetch = merged_trace(kernel)
        code = trace.addresses[is_fetch]
        data = trace.addresses[~is_fetch]
        assert int(code.min()) > int(data.max())
        assert int(code.min()) % 4096 == 0  # segment-aligned

    def test_custom_code_base(self):
        kernel = make_matadd()
        trace, is_fetch = merged_trace(kernel, code_base=1 << 20)
        assert int(trace.addresses[is_fetch].min()) == 1 << 20

    def test_interleaving_order(self):
        kernel = make_matadd()
        trace, is_fetch = merged_trace(kernel, body_instructions=2)
        # Each iteration: 2 fetches then 3 data accesses.
        assert is_fetch[:5].tolist() == [True, True, False, False, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            merged_trace(make_matadd(), body_instructions=0)


class TestSplitVsUnified:
    def test_partition_respects_budget(self):
        result = split_vs_unified(make_compress(element_size=4), 256)
        assert result.best_icache + result.best_dcache <= 256
        assert result.best_icache >= result.line_size
        assert result.best_dcache >= result.line_size

    def test_split_misses_monotone_in_budget(self):
        kernel = make_compress(element_size=4)
        misses = [
            split_vs_unified(kernel, budget).split_misses
            for budget in (64, 128, 256, 512)
        ]
        assert misses == sorted(misses, reverse=True)

    def test_icache_side_pins_the_loop_once_it_fits(self):
        """With a 12-instruction (48-byte) body, a 64-byte I-side leaves
        only compulsory instruction misses."""
        kernel = make_compress(element_size=4)
        result = split_vs_unified(kernel, 512, body_instructions=12)
        assert result.best_icache >= 64

    def test_no_universal_winner(self):
        """The design question is real: across budgets both organisations
        win somewhere for the aliasing-prone compress."""
        kernel = make_compress(element_size=4)
        winners = {
            split_vs_unified(kernel, budget).winner
            for budget in (64, 128, 256, 512)
        }
        assert winners == {"split", "unified"}

    def test_validation(self):
        with pytest.raises(ValueError):
            split_vs_unified(make_matadd(), budget=8, line_size=8)

    @given(
        make=st.sampled_from(
            [make_compress, make_dequant, make_matadd, make_sor]
        ),
        n=st.integers(3, 10),
        budget=st.sampled_from([16, 32, 64, 128]),
        line_size=st.sampled_from([4, 8]),
        body=st.integers(1, 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_misses_match_the_reference_simulator(
        self, make, n, budget, line_size, body
    ):
        kernel = make(n=n)
        result = split_vs_unified(kernel, budget, line_size, body)
        trace, is_fetch = merged_trace(kernel, body)
        icache = direct_mapped_misses(
            trace, is_fetch, result.best_icache, line_size
        )
        dcache = direct_mapped_misses(
            trace, ~is_fetch, result.best_dcache, line_size
        )
        assert result.split_misses == icache + dcache
        everything = np.ones(len(trace), dtype=bool)
        assert result.unified_misses == direct_mapped_misses(
            trace, everything, budget, line_size
        )
