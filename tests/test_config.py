"""Tests for cache configurations and the design space."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.config import (
    CacheConfig,
    config_sort_key,
    design_space,
    powers_of_two,
)


class TestPowersOfTwo:
    def test_inclusive_range(self):
        assert powers_of_two(4, 64) == (4, 8, 16, 32, 64)

    def test_non_power_bounds(self):
        assert powers_of_two(5, 20) == (8, 16)

    def test_empty(self):
        assert powers_of_two(65, 64) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            powers_of_two(0, 8)


class TestCacheConfig:
    def test_derived_quantities(self):
        c = CacheConfig(64, 8, 2, 4)
        assert c.num_lines == 8
        assert c.num_sets == 4

    def test_labels(self):
        assert CacheConfig(64, 16).label() == "C64L16"
        assert CacheConfig(64, 16).label(full=True) == "C64L16S1B1"
        assert CacheConfig(64, 16, 2, 8).label() == "C64L16S2B8"
        assert str(CacheConfig(16, 4)) == "C16L4S1B1"

    def test_with_helpers(self):
        c = CacheConfig(64, 8)
        assert c.with_tiling(4).tiling == 4
        assert c.with_ways(2).ways == 2
        assert c.with_ways(2).size == 64

    def test_ordering(self):
        assert CacheConfig(16, 4) < CacheConfig(32, 4)

    @pytest.mark.parametrize(
        "args",
        [
            (48, 8),     # size not a power of two
            (64, 6),     # line not a power of two
            (64, 128),   # line exceeds size
            (64, 8, 3),  # ways not a power of two
            (64, 8, 16), # more ways than lines
            (64, 8, 1, 3),  # tiling not a power of two
        ],
    )
    def test_invalid_configs(self, args):
        with pytest.raises(ValueError):
            CacheConfig(*args)

    def test_tiling_beyond_line_count_allowed(self):
        """Figures 6/7 plot tiling sizes past T/L; the constructor allows it."""
        assert CacheConfig(64, 8, 1, 16).tiling == 16


class TestCacheConfigHash:
    """A configuration hashes once; ``==``, order and copies ignore that."""

    def test_cached_hash_equals_fresh_equal_config(self):
        config = CacheConfig(64, 8, 2, 4)
        first = hash(config)
        assert hash(config) == first
        assert config.__dict__["_hash"] == first
        assert hash(CacheConfig(64, 8, 2, 4)) == first
        # The dataclass field-tuple hash, so set and dict orders keep.
        assert first == hash((64, 8, 2, 4))
        assert hash(CacheConfig(64, 8, 4, 2)) != first

    def test_repr_equality_and_order_ignore_the_cached_hash(self):
        config, fresh = CacheConfig(64, 8, 2, 4), CacheConfig(64, 8, 2, 4)
        hash(config)
        assert "_hash" not in fresh.__dict__
        assert config == fresh and repr(config) == repr(fresh)
        assert "_hash" not in repr(config)
        assert not config < fresh and not fresh < config
        assert config != CacheConfig(64, 8, 2, 8)
        assert dataclasses.astuple(config) == (64, 8, 2, 4)

    def test_pickles_and_copies_carry_no_cached_hash(self):
        config = CacheConfig(32, 4, 1, 2)
        hash(config)
        for clone in (
            pickle.loads(pickle.dumps(config)),
            copy.copy(config),
            copy.deepcopy(config),
        ):
            assert "_hash" not in clone.__dict__
            assert clone == config and hash(clone) == hash(config)

    def test_derived_copies_start_without_a_cached_hash(self):
        config = CacheConfig(64, 8, 1, 1)
        hash(config)
        for derived in (
            config.with_tiling(4),
            config.with_tiling(1),
            config.with_ways(2),
            dataclasses.replace(config),
            dataclasses.replace(config, size=128),
        ):
            assert "_hash" not in derived.__dict__
        assert hash(config.with_ways(2)) == hash(CacheConfig(64, 8, 2, 1))
        assert hash(config.with_tiling(1)) == hash(config)

    def test_store_keys_ignore_the_cached_hash(self):
        from repro.serve.store import config_key

        config = CacheConfig(128, 16, 4, 2)
        before = config_key(config)
        hash(config)
        assert config_key(config) == before == "128,16,4,2"

    def test_sort_key_is_the_sweep_order(self):
        configs = list(design_space(max_size=64, ways=(1, 2), tilings=(1, 2)))
        ordered = sorted(configs, key=config_sort_key)
        assert [config_sort_key(c) for c in ordered] == sorted(
            (c.size, c.line_size, c.tiling, c.ways) for c in configs
        )


class TestDesignSpace:
    def test_respects_paper_bounds(self):
        configs = list(design_space(max_size=64, min_size=16, min_line=4))
        assert configs
        for c in configs:
            assert 16 <= c.size <= 64
            assert c.line_size >= 4
            assert c.ways <= 8
            assert c.tiling <= c.num_lines  # Algorithm MemExplore's bound

    def test_all_unique(self):
        configs = list(design_space(max_size=128))
        assert len(configs) == len(set(configs))

    def test_explicit_dimensions(self):
        configs = list(
            design_space(
                max_size=64,
                sizes=(32, 64),
                line_sizes=(8,),
                ways=(1, 2),
                tilings=(1,),
            )
        )
        assert {(c.size, c.line_size) for c in configs} == {(32, 8), (64, 8)}
        assert all(c.tiling == 1 for c in configs)

    def test_infeasible_explicit_combinations_skipped(self):
        configs = list(
            design_space(
                max_size=32,
                sizes=(16,),
                line_sizes=(8, 32),  # 32 > 16 must be dropped
                ways=(1, 4),         # 4 ways > 2 lines must be dropped
                tilings=(1,),
            )
        )
        assert {(c.size, c.line_size, c.ways) for c in configs} == {(16, 8, 1)}

    def test_known_count(self):
        # T=16: L in {4, 8, 16}; per (T, L): ways x tilings as bounded.
        configs = list(design_space(max_size=16, min_size=16, min_line=4))
        by_line = {}
        for c in configs:
            by_line.setdefault(c.line_size, 0)
            by_line[c.line_size] += 1
        # L=4: 4 lines -> ways {1,2,4} x tilings {1,2,4} = 9
        assert by_line[4] == 9
        # L=16: 1 line -> ways {1} x tilings {1} = 1
        assert by_line[16] == 1
