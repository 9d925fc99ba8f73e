"""Tests for stack-distance analysis, miss-ratio curves and 3C classes.

The oracle is the reference simulator: a ``c``-line fully-associative
LRU :class:`~repro.cache.simulator.CacheSimulator`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.simulator import simulate_trace
from repro.cache.stackdist import (
    COLD,
    miss_ratio_curve,
    reuse_profile,
    set_local_distances,
)
from repro.cache.stats import classify_misses
from repro.cache.trace import MemoryTrace


def fully_associative_misses(trace, line_size, capacity):
    """Misses of a ``capacity``-line fully-associative LRU cache."""
    size = capacity * line_size
    return simulate_trace(trace, size, line_size, capacity).misses


class TestStackDistances:
    def test_first_touches_are_cold(self):
        assert set_local_distances([1, 2, 3], 1).tolist() == [COLD] * 3

    def test_immediate_reuse_distance_one(self):
        assert set_local_distances([5, 5], 1).tolist() == [COLD, 1]

    def test_classic_sequence(self):
        # a b c a: a's reuse skips b and c -> distance 3.
        distances = set_local_distances([0, 1, 2, 0], 1)
        assert distances.tolist() == [COLD, COLD, COLD, 3]

    def test_mru_refresh(self):
        # a b a b: each reuse has distance 2.
        distances = set_local_distances([0, 1, 0, 1], 1)
        assert distances.tolist() == [COLD, COLD, 2, 2]

    def test_empty(self):
        assert set_local_distances([], 1).size == 0


class TestMissRatioCurve:
    def test_monotone_non_increasing(self):
        trace = MemoryTrace(np.tile(np.arange(0, 80, 8), 10))
        curve = miss_ratio_curve(trace, 8, [1, 2, 4, 8, 16, 32])
        values = [curve[c] for c in sorted(curve)]
        assert values == sorted(values, reverse=True)

    def test_plateau_at_compulsory(self):
        trace = MemoryTrace(np.tile(np.arange(0, 32, 8), 100))  # 4 lines
        curve = miss_ratio_curve(trace, 8, [4, 8])
        assert curve[4] == pytest.approx(4 / 400)
        assert curve[8] == curve[4]

    def test_matches_fully_associative_simulation(self):
        rng = np.random.default_rng(3)
        trace = MemoryTrace(rng.integers(0, 256, size=400))
        curve = miss_ratio_curve(trace, 8, [1, 2, 4, 8, 16])
        for capacity in (1, 2, 4, 8, 16):
            misses = fully_associative_misses(trace, 8, capacity)
            assert curve[capacity] == pytest.approx(misses / len(trace))

    def test_validation(self):
        with pytest.raises(ValueError):
            miss_ratio_curve(MemoryTrace([0]), 8, [0])

    def test_empty_trace(self):
        assert miss_ratio_curve(MemoryTrace([]), 8, [4]) == {4: 0.0}

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_curve_equals_simulator_property(self, lines):
        trace = MemoryTrace([8 * v for v in lines])
        curve = miss_ratio_curve(trace, 8, [1, 4, 16])
        for capacity in (1, 4, 16):
            misses = fully_associative_misses(trace, 8, capacity)
            assert curve[capacity] == pytest.approx(misses / len(trace))


class TestReuseProfile:
    def test_streaming_trace_all_compulsory(self):
        profile = reuse_profile(MemoryTrace(np.arange(0, 512, 8)), 8)
        assert profile["compulsory_fraction"] == 1.0
        assert profile["knee_lines"] == 1

    def test_looping_trace_has_knee(self, compress):
        profile = reuse_profile(compress.trace(), 8)
        assert 0 < profile["compulsory_fraction"] < 0.2
        assert profile["median_distance"] >= 1
        assert profile["knee_lines"] >= 2

    def test_empty(self):
        profile = reuse_profile(MemoryTrace([]), 8)
        assert profile["compulsory_fraction"] == 0.0


class TestClassifyMisses:
    @given(
        addresses=st.lists(st.integers(0, 1023), min_size=0, max_size=300),
        geometry=st.sampled_from([(16, 4), (32, 8), (64, 8), (128, 16)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_compulsory_and_capacity_match_the_simulator(
        self, addresses, geometry
    ):
        size, line = geometry
        trace = MemoryTrace(addresses)
        classes = classify_misses(trace, size, line)
        assert classes.compulsory == len(set(trace.line_ids(line).tolist()))
        assert classes.compulsory + classes.capacity == (
            fully_associative_misses(trace, line, size // line)
        )
        assert classes.conflict == 0
