"""Tests for Algorithm MemExplore."""

import pytest

from repro.cache.trace import MemoryTrace
from repro.core.config import CacheConfig
from repro.core.explorer import ExplorationResult, MemExplorer, evaluate_trace
from repro.energy.model import EnergyModel
from repro.energy.params import SRAM_16MBIT


class TestEvaluateTrace:
    def test_hand_computed_miss_rate(self):
        trace = MemoryTrace([0, 0, 32, 32, 0])
        est = evaluate_trace(trace, CacheConfig(32, 4))
        # 0 miss, hit, 32 miss (evicts 0), hit, 0 miss again.
        assert est.miss_rate == pytest.approx(3 / 5)
        assert est.accesses == 5

    def test_events_default_to_accesses(self):
        trace = MemoryTrace([0, 1, 2])
        est = evaluate_trace(trace, CacheConfig(32, 4))
        assert est.events == 3

    def test_events_scale_totals(self):
        trace = MemoryTrace([0, 1, 2, 3])
        small = evaluate_trace(trace, CacheConfig(32, 4), events=1)
        big = evaluate_trace(trace, CacheConfig(32, 4), events=100)
        assert big.cycles == pytest.approx(100 * small.cycles)
        assert big.energy_nj == pytest.approx(100 * small.energy_nj)
        assert big.miss_rate == small.miss_rate

    def test_read_only_energy_accounting(self):
        # All accesses are writes: read miss rate is 0 -> hit-energy only.
        trace = MemoryTrace([0, 32, 0, 32], [True] * 4)
        est = evaluate_trace(trace, CacheConfig(32, 4))
        assert est.miss_rate == 1.0
        assert est.read_miss_rate == 0.0
        assert est.energy_breakdown.per_access == pytest.approx(
            est.energy_breakdown.e_hit
        )

    def test_associativity_changes_cycles(self):
        trace = MemoryTrace(list(range(64)))
        direct = evaluate_trace(trace, CacheConfig(64, 8, 1))
        assoc = evaluate_trace(trace, CacheConfig(64, 8, 2))
        assert direct.miss_rate == assoc.miss_rate  # sequential stream
        assert assoc.cycles > direct.cycles  # 1.1 cycles per hit

    def test_empty_trace(self):
        est = evaluate_trace(MemoryTrace([]), CacheConfig(32, 4))
        assert est.miss_rate == 0.0
        assert est.cycles == 0.0
        assert est.energy_nj == 0.0


class TestMemExplorer:
    def test_events_are_iterations(self, compress):
        est = MemExplorer(compress).evaluate(CacheConfig(64, 8))
        assert est.events == 961
        assert est.accesses == 961 * 5

    def test_optimized_beats_unoptimized(self):
        from repro.kernels import make_compress

        kernel = make_compress(element_size=4)
        config = CacheConfig(64, 8)
        opt = MemExplorer(kernel, optimize_layout=True).evaluate(config)
        unopt = MemExplorer(kernel, optimize_layout=False).evaluate(config)
        assert opt.miss_rate < unopt.miss_rate
        assert opt.conflict_free_layout
        assert not unopt.conflict_free_layout

    def test_energy_model_propagates(self, compress_small):
        config = CacheConfig(64, 8)
        cheap = MemExplorer(compress_small).evaluate(config)
        costly = MemExplorer(
            compress_small, energy_model=EnergyModel(sram=SRAM_16MBIT)
        ).evaluate(config)
        assert costly.energy_nj > cheap.energy_nj

    def test_trace_cache_consistency(self, compress_small):
        """Re-evaluating after a trace-key change must be deterministic."""
        explorer = MemExplorer(compress_small)
        first = explorer.evaluate(CacheConfig(64, 8))
        explorer.evaluate(CacheConfig(32, 4))  # evicts the cached trace
        again = explorer.evaluate(CacheConfig(64, 8))
        assert first.miss_rate == again.miss_rate
        assert first.energy_nj == again.energy_nj

    def test_explore_default_space(self, compress_small):
        result = MemExplorer(compress_small).explore(
            max_size=64, min_size=32, ways=(1,), tilings=(1,)
        )
        labels = {e.config.label() for e in result}
        assert "C32L4" in labels and "C64L8" in labels

    def test_explore_explicit_configs_and_progress(self, compress_small):
        configs = [CacheConfig(64, 8), CacheConfig(32, 4)]
        result = MemExplorer(compress_small).explore(configs=configs)
        # Exactly the explicit configurations, in canonical sweep order.
        assert [e.config for e in result] == [
            CacheConfig(32, 4),
            CacheConfig(64, 8),
        ]


class TestExplorationResult:
    def _result(self):
        trace = MemoryTrace(list(range(128)))
        configs = [CacheConfig(t, l) for t in (16, 64) for l in (4, 8)]
        return ExplorationResult(
            [evaluate_trace(trace, c) for c in configs]
        )

    def test_min_energy_and_cycles(self):
        result = self._result()
        assert result.min_energy().energy_nj == min(e.energy_nj for e in result)
        assert result.min_cycles().cycles == min(e.cycles for e in result)

    def test_bounds_filter(self):
        result = self._result()
        tight = result.min_energy(cycle_bound=0.0)
        assert tight is None
        loose = result.min_energy(cycle_bound=float("inf"))
        assert loose == result.min_energy()

    def test_for_config(self):
        result = self._result()
        est = result.for_config(CacheConfig(64, 8))
        assert est.config == CacheConfig(64, 8)
        with pytest.raises(KeyError):
            result.for_config(CacheConfig(128, 8))

    def test_rows(self):
        rows = self._result().to_rows()
        assert len(rows) == 4
        assert all(len(r) == 4 for r in rows)
