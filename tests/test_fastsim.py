"""The vectorized fast path must be bit-exact with the reference simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fastsim import fast_miss_vector
from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.cache.trace import MemoryTrace


def reference_miss_vector(line_ids, num_sets, ways):
    """Miss flags from the object-oriented simulator."""
    line_size = 1  # feed line ids directly as byte addresses
    geo = CacheGeometry(num_sets * ways * line_size, line_size, ways)
    sim = CacheSimulator(geo)
    return np.array([not sim.access(int(line)) for line in line_ids])


class TestAgainstReference:
    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_strided_pattern(self, ways):
        line_ids = np.arange(0, 400, 7) % 64
        fast = fast_miss_vector(line_ids, num_sets=8, ways=ways)
        ref = reference_miss_vector(line_ids, 8, ways)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("num_sets,ways", [(1, 1), (1, 4), (16, 1), (4, 2)])
    def test_repeating_pattern(self, num_sets, ways):
        line_ids = np.tile(np.array([0, 5, 9, 0, 5, 13, 9]), 20)
        fast = fast_miss_vector(line_ids, num_sets, ways)
        ref = reference_miss_vector(line_ids, num_sets, ways)
        assert np.array_equal(fast, ref)

    @given(
        lines=st.lists(st.integers(0, 40), min_size=0, max_size=200),
        sets_log=st.integers(0, 4),
        ways_log=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_traces_match(self, lines, sets_log, ways_log):
        line_ids = np.asarray(lines, dtype=np.int64)
        num_sets, ways = 2 ** sets_log, 2 ** ways_log
        fast = fast_miss_vector(line_ids, num_sets, ways)
        ref = reference_miss_vector(line_ids, num_sets, ways)
        assert np.array_equal(fast, ref)


class TestBehaviour:
    def test_empty_trace(self):
        assert fast_miss_vector(np.array([], dtype=np.int64), 4, 1).size == 0
        assert fast_miss_vector(np.array([], dtype=np.int64), 4, 1).sum() == 0

    def test_counts(self):
        line_ids = np.array([0, 0, 1, 0])
        misses = int(fast_miss_vector(line_ids, 4, 1).sum())
        assert (line_ids.size - misses, misses) == (2, 2)

    def test_first_access_always_misses(self):
        line_ids = np.array([3])
        assert fast_miss_vector(line_ids, 8, 1).tolist() == [True]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            fast_miss_vector(np.array([0]), 0, 1)
        with pytest.raises(ValueError):
            fast_miss_vector(np.array([0]), 4, 0)

    def test_order_restored_after_grouping(self):
        # Interleave two sets; the miss flags must align with input order.
        line_ids = np.array([0, 1, 0, 1, 2, 3])  # sets 0,1,0,1,0,1 (2 sets)
        miss = fast_miss_vector(line_ids, 2, 1)
        assert miss.tolist() == [True, True, False, False, True, True]


class TestMonotonicityProperties:
    @given(lines=st.lists(st.integers(0, 30), min_size=1, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_lru_inclusion_more_ways_same_sets_never_hurts(self, lines):
        """LRU inclusion: with the set count fixed, doubling ways cannot
        increase misses."""
        line_ids = np.asarray(lines, dtype=np.int64)
        for ways in (1, 2, 4):
            m_small = fast_miss_vector(line_ids, 4, ways).sum()
            m_big = fast_miss_vector(line_ids, 4, ways * 2).sum()
            assert m_big <= m_small

    @given(lines=st.lists(st.integers(0, 30), min_size=1, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_fully_associative_stack_property(self, lines):
        """A larger fully-associative LRU cache never misses more."""
        line_ids = np.asarray(lines, dtype=np.int64)
        misses = [
            fast_miss_vector(line_ids, 1, ways).sum()
            for ways in (1, 2, 4, 8, 16)
        ]
        assert misses == sorted(misses, reverse=True)
