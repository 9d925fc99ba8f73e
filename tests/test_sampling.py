"""Tests for set sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fastsim import fast_miss_vector
from repro.cache.sampling import sampled_miss_rate
from repro.kernels import make_compress


class TestSampling:
    def test_stride_one_is_exact(self):
        rng = np.random.default_rng(11)
        line_ids = rng.integers(0, 128, size=500)
        exact_misses = int(fast_miss_vector(line_ids, 16, 1).sum())
        est = sampled_miss_rate(line_ids, 16, 1, sample_every=1)
        assert est.miss_rate == pytest.approx(exact_misses / line_ids.size)
        assert est.coverage == 1.0

    def test_sampled_sets_simulated_exactly(self):
        """The sampled subset's behaviour is identical to its behaviour in
        the full simulation (set independence)."""
        rng = np.random.default_rng(5)
        line_ids = rng.integers(0, 256, size=800)
        full_miss = fast_miss_vector_by_set(line_ids, 16, 2)
        est = sampled_miss_rate(line_ids, 16, 2, sample_every=4, offset=1)
        mask = (line_ids % 16) % 4 == 1
        expected = full_miss[mask].mean()
        assert est.miss_rate == pytest.approx(float(expected))

    def test_uniform_traffic_small_error(self):
        trace = make_compress().trace()
        line_ids = trace.line_ids(8).to_numpy() if hasattr(
            trace.line_ids(8), "to_numpy") else trace.line_ids(8)
        exact_misses = int(fast_miss_vector(line_ids, 16, 1).sum())
        exact = exact_misses / line_ids.size
        for offset in range(4):
            est = sampled_miss_rate(line_ids, 16, 1, sample_every=4,
                                    offset=offset)
            assert est.miss_rate == pytest.approx(exact, abs=0.06)

    def test_coverage_fraction(self):
        rng = np.random.default_rng(2)
        line_ids = rng.integers(0, 1024, size=2000)
        est = sampled_miss_rate(line_ids, 32, 1, sample_every=4)
        assert est.sampled_sets == 8
        assert 0.15 < est.coverage < 0.35  # ~1/4 for uniform traffic

    def test_empty_sample(self):
        line_ids = np.array([0, 4, 8], dtype=np.int64) * 0  # all set 0
        est = sampled_miss_rate(line_ids, 4, 1, sample_every=4, offset=1)
        assert est.miss_rate == 0.0
        assert est.sampled_accesses == 0

    def test_validation(self):
        ids = np.array([0, 1])
        with pytest.raises(ValueError):
            sampled_miss_rate(ids, 4, 1, sample_every=0)
        with pytest.raises(ValueError):
            sampled_miss_rate(ids, 4, 1, sample_every=4, offset=4)

    @given(
        lines=st.lists(st.integers(0, 63), min_size=10, max_size=300),
        stride=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_offsets_partition_the_trace(self, lines, stride):
        line_ids = np.asarray(lines, dtype=np.int64)
        parts = [
            sampled_miss_rate(line_ids, 8, 1, sample_every=stride, offset=k)
            for k in range(stride)
        ]
        assert sum(p.sampled_accesses for p in parts) == line_ids.size


def fast_miss_vector_by_set(line_ids, num_sets, ways):
    from repro.cache.fastsim import fast_miss_vector

    return fast_miss_vector(np.asarray(line_ids, dtype=np.int64), num_sets, ways)
