"""Tests for the multi-objective search subsystem (``repro.moo``)."""

import itertools
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic import AnalyticExplorer
from repro.core.config import CacheConfig, config_sort_key, design_space
from repro.core.metrics import PerformanceEstimate
from repro.core.pareto import pareto_points
from repro.engine import (
    Evaluator,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
)
from repro.engine.resilience import SweepCancelledError
from repro.kernels import available_kernels, get_kernel
from repro.moo import (
    OBJECTIVES,
    ConfigGrammar,
    FrontArchive,
    GrammaticalEvolutionSearcher,
    NSGA2Searcher,
    RowIndex,
    SearchSettings,
    analytic_seeds,
    fast_nondominated_sort,
    objective_vector,
    row_index,
    run_search,
)
from repro.obs.metrics import get_metrics
from repro.serve.store import ResultStore
from tests.test_search_golden import SPACES


def small_space():
    return list(design_space(max_size=128, min_size=16, ways=(1, 2)))


def make_evaluator():
    return Evaluator(KernelWorkload(get_kernel("compress")))


def estimate_for(config, cycles, energy):
    return PerformanceEstimate(
        config=config,
        miss_rate=0.1,
        cycles=float(cycles),
        energy_nj=float(energy),
        events=10,
        accesses=10,
        reads=10,
        read_miss_rate=0.1,
        add_bs=1.0,
    )


def random_genome(grammar, rng):
    """A uniform in-range genome: one codon per axis."""
    return tuple(rng.randrange(limit) for limit in grammar.axis_sizes)


class TestGrammar:
    def test_encode_decode_round_trip_over_whole_space(self):
        grammar = ConfigGrammar.from_space(small_space())
        for config in grammar.configs():
            assert grammar.decode(grammar.encode(config)) == config

    def test_random_genomes_always_decode_in_space(self):
        grammar = ConfigGrammar.from_space(small_space())
        space = set(grammar.configs())
        rng = random.Random(42)
        for _ in range(200):
            genome = random_genome(grammar, rng)
            assert grammar.decode(genome) in space

    @pytest.mark.parametrize("length", [1, 3, 5, 8])
    def test_genome_needs_one_codon_per_axis(self, length):
        grammar = ConfigGrammar.from_space(small_space())
        with pytest.raises(ValueError, match="one codon per axis"):
            grammar.decode((0,) * length)

    def test_empty_genome_rejected(self):
        grammar = ConfigGrammar.from_space(small_space())
        with pytest.raises(ValueError):
            grammar.decode(())

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ConfigGrammar.from_space([])

    def test_decode_respects_feasibility(self):
        # A grammar with 8-way candidates must never emit more ways than
        # the derived cache has lines.
        grammar = ConfigGrammar(
            sizes=(16, 64), line_sizes=(4, 16), ways=(1, 8), tilings=(1, 4)
        )
        rng = random.Random(7)
        for _ in range(200):
            config = grammar.decode(random_genome(grammar, rng))
            assert config.ways <= config.size // config.line_size
            assert config.tiling <= config.size // config.line_size


def check_row_index(space):
    """The index's tables against the grammar's own encode and decode."""
    index = RowIndex(space)
    grammar = index.grammar
    rows = list(index.rows)
    assert rows == sorted(set(rows), key=config_sort_key)
    assert set(rows) == set(space) | set(grammar.configs())
    assert index.row_of == {config: row for row, config in enumerate(rows)}
    assert [rows[row] for row in index.space_rows] == sorted(
        set(space), key=config_sort_key
    )
    assert list(index.genome_of) == [grammar.encode(c) for c in rows]
    ranges = [range(limit) for limit in grammar.axis_sizes]
    for genome in itertools.product(*ranges):
        assert rows[index.decode(genome)] == grammar.decode(genome)


#: Every space the golden searches run on, plus the unit-test space.
INDEX_SPACES = {"small": small_space, **SPACES}

#: Configurations hypothesis spaces draw from, tilings above T/L included.
SPACE_POOL = list(
    design_space(max_size=256, ways=(1, 2, 4, 8), tilings=(1, 2, 4, 8, 16, 32))
) + [CacheConfig(16, 8, 1, 8), CacheConfig(64, 32, 1, 4), CacheConfig(32, 32, 1, 2)]


class TestRowIndex:
    @pytest.mark.parametrize("name", sorted(INDEX_SPACES))
    def test_tables_match_grammar_on_golden_spaces(self, name):
        check_row_index(INDEX_SPACES[name]())

    @given(st.sets(st.sampled_from(SPACE_POOL), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_tables_match_grammar_on_any_space(self, space):
        check_row_index(space)

    def test_one_index_per_space(self):
        space = small_space()
        assert row_index(space) is row_index(list(reversed(space)))
        assert row_index(space) is not row_index(space[1:])

    def test_nsga2_asks_a_seed_outside_the_space(self):
        outside = CacheConfig(1024, 64, 1, 1)
        searcher = NSGA2Searcher()
        searcher.setup(
            small_space(), population=4, generations=2, seed=3, seeds=[outside]
        )
        asked = searcher.ask()
        assert asked[0] == outside
        assert set(asked[1:]) <= set(small_space())
        searcher.tell(
            [(c, (float(c.size), float(c.ways))) for c in dict.fromkeys(asked)]
        )
        assert searcher.ask()


class TestFrontArchive:
    def test_dominated_points_never_admitted(self):
        archive = FrontArchive()
        a = estimate_for(CacheConfig(16, 4), 1, 9)
        b = estimate_for(CacheConfig(32, 4), 9, 1)
        dominated = estimate_for(CacheConfig(64, 4), 10, 10)
        archive.add([a, b, dominated])
        assert len(archive) == 2
        assert dominated not in archive.estimates()

    def test_duplicate_vectors_collapse_to_smallest_config(self):
        archive = FrontArchive()
        big = estimate_for(CacheConfig(64, 4), 5, 5)
        small = estimate_for(CacheConfig(16, 4), 5, 5)
        archive.add([big, small])
        assert archive.estimates() == [small]

    def test_capacity_pruning_keeps_extremes(self):
        archive = FrontArchive(capacity=4)
        estimates = [
            estimate_for(CacheConfig(2 ** (4 + i % 6), 4), i + 1, 10 - i)
            for i in range(10)
        ]
        archive.add(estimates)
        assert len(archive) == 4
        points = archive.points()
        assert (1.0, 10.0) in points
        assert (10.0, 1.0) in points

    def test_hypervolume_monotone_despite_capacity_pruning(self):
        # The hypervolume series must stay monotone even when the bounded
        # estimate archive prunes points that still contribute volume.
        archive = FrontArchive(capacity=4, reference=(100.0, 100.0))
        rng = random.Random(3)
        last = 0.0
        for _ in range(30):
            c = rng.randrange(1, 90)
            e = rng.randrange(1, 90)
            config = CacheConfig(2 ** rng.randrange(4, 12), 4)
            archive.add([estimate_for(config, c, e)])
            current = archive.hypervolume()
            assert current >= last - 1e-12
            last = current

    def test_reference_fixed_once_set(self):
        archive = FrontArchive()
        archive.set_reference((10.0, 10.0))
        archive.set_reference((10.0, 10.0))  # idempotent re-set is fine
        with pytest.raises(ValueError):
            archive.set_reference((20.0, 20.0))

    def test_hypervolume_requires_reference(self):
        with pytest.raises(ValueError):
            FrontArchive().hypervolume()

    def test_record_generation_event_shape(self):
        archive = FrontArchive(reference=(10.0, 10.0))
        archive.add([estimate_for(CacheConfig(16, 4), 2, 2)])
        event = archive.record_generation(generation=0, evaluations=1)
        assert event["schema"] == "repro.front/1"
        assert event["event"] == "front"
        assert event["generation"] == 0
        assert event["evaluations"] == 1
        assert event["archive_size"] == 1
        assert event["objectives"] == ["cycles", "energy"]
        assert event["reference"] == [10.0, 10.0]
        assert event["hypervolume"] == pytest.approx(64.0)
        assert event["points"][0]["objectives"] == {"cycles": 2.0, "energy": 2.0}

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            FrontArchive(capacity=2)


class TestFastNondominatedSort:
    def test_ranks(self):
        vectors = [(1.0, 9.0), (9.0, 1.0), (5.0, 5.0), (6.0, 6.0), (9.0, 9.0)]
        fronts = fast_nondominated_sort(vectors)
        assert fronts[0] == [0, 1, 2]
        assert fronts[1] == [3]
        assert fronts[2] == [4]

    def test_empty(self):
        assert fast_nondominated_sort([]) == []


class TestSearchSettings:
    def test_round_trip(self):
        settings = SearchSettings(
            searcher="ge",
            generations=5,
            population=8,
            seed=3,
            objectives=("cycles", "energy", "area"),
            archive_capacity=16,
            reference=(10.0, 20.0, 30.0),
            seed_population=False,
        )
        assert SearchSettings.from_json(settings.to_json()) == settings

    def test_reference_omitted_when_none(self):
        assert "reference" not in SearchSettings().to_json()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            SearchSettings.from_json({"searcher": "nsga2", "bogus": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"generations": 0},
            {"population": 0},
            {"archive_capacity": 3},
            {"objectives": ()},
            {"objectives": ("cycles", "cycles")},
            {"objectives": ("latency",)},
            {"reference": (1.0,)},
            {"reference": (0.0, 1.0)},
            {"searcher": ""},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchSettings(**kwargs)

    def test_budget(self):
        assert SearchSettings(generations=4, population=6).budget == 24


class TestSeeding:
    def test_seeds_lie_in_space_and_are_unique(self):
        evaluator = make_evaluator()
        space = small_space()
        seeds = analytic_seeds(evaluator, space)
        assert seeds
        assert len(seeds) == len(set(seeds))
        assert set(seeds) <= set(space)

    def test_limit_respected(self):
        evaluator = make_evaluator()
        seeds = analytic_seeds(evaluator, small_space(), limit=2)
        assert len(seeds) <= 2

    def test_no_kernel_seeds_nothing(self):
        class Bare:
            workload = None

        assert analytic_seeds(Bare(), small_space()) == []

    def test_space_priced_once_per_evaluator(self, monkeypatch):
        space = small_space()
        two, three = ("cycles", "energy"), ("cycles", "energy", "area")
        fresh = [analytic_seeds(make_evaluator(), space, obj) for obj in (two, three)]
        priced = []
        original = AnalyticExplorer._price

        def counting(explorer, config):
            priced.append(config)
            return original(explorer, config)

        monkeypatch.setattr(AnalyticExplorer, "_price", counting)
        evaluator = make_evaluator()
        reused = [analytic_seeds(evaluator, space, obj) for obj in (two, three)]
        assert sorted(priced) == sorted(set(space))
        assert reused == fresh

    def test_min_cache_type_errors_propagate(self, monkeypatch):
        def broken(explorer, line_size):
            raise TypeError("min-cache defect")

        monkeypatch.setattr(AnalyticExplorer, "min_cache_size", broken)
        with pytest.raises(TypeError, match="min-cache defect"):
            analytic_seeds(make_evaluator(), small_space())

    def test_min_cache_value_errors_skip_the_bound_seeds(self, monkeypatch):
        evaluator = make_evaluator()
        space = small_space()
        front = analytic_seeds(evaluator, space)

        def rejecting(explorer, line_size):
            raise ValueError("no bound")

        monkeypatch.setattr(AnalyticExplorer, "min_cache_size", rejecting)
        seeds = analytic_seeds(evaluator, space)
        assert seeds and set(seeds) <= set(front)


def pareto_point_seeds(evaluator, space, objectives, limit=32):
    """``analytic_seeds`` as it was built on ``pareto_points``: the oracle."""
    explorer = evaluator.analytic_explorer()
    ordered = sorted(set(space), key=config_sort_key)
    scored = []
    for config in ordered:
        try:
            estimate = explorer.evaluate(config)
        except ValueError:
            continue
        scored.append((config, objective_vector(estimate, objectives)))
    seeds = []
    if scored:
        front = set(pareto_points([vector for _, vector in scored]))
        seeds.extend(config for config, vector in scored if vector in front)
    for line in sorted({c.line_size for c in ordered}):
        try:
            bound = explorer.min_cache_size(line)
        except ValueError:
            continue
        fitting = [c for c in ordered if c.line_size == line and c.size >= bound]
        if fitting:
            seeds.append(fitting[0])
    return list(dict.fromkeys(seeds))[:limit]


OBJECTIVE_SETS = [
    names
    for width in (1, 2, 3)
    for names in itertools.permutations(OBJECTIVES, width)
]


class TestSeedingOracle:
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_seeds_match_pareto_points_version(self, kernel):
        space = list(design_space(max_size=256, ways=(1, 2, 4), tilings=(1, 2, 4)))
        evaluator = Evaluator(KernelWorkload(get_kernel(kernel)))
        oracle = Evaluator(KernelWorkload(get_kernel(kernel)))
        for objectives in OBJECTIVE_SETS:
            assert analytic_seeds(evaluator, space, objectives) == (
                pareto_point_seeds(oracle, space, objectives)
            ), objectives

    def test_priced_table_is_kept_per_space(self):
        explorer = make_evaluator().analytic_explorer()
        space = small_space()
        table = explorer.price_space(space)
        assert explorer.price_space(reversed(space)) is table
        assert list(table.configs) == sorted(space, key=config_sort_key)
        assert table.values.shape == (len(table.priced), 3)
        for config, row in zip(table.priced, table.values.tolist()):
            estimate = explorer.evaluate(config)
            assert tuple(row) == objective_vector(estimate, OBJECTIVES)
        for size in range(10):
            explorer.price_space(space[: size + 1])
        assert explorer.price_space(space) is not table


class TestRunSearch:
    SETTINGS = dict(generations=4, population=8, seed=11)

    def _run(self, **kwargs):
        settings = SearchSettings(**{**self.SETTINGS, **kwargs.pop("settings", {})})
        return run_search(make_evaluator(), small_space(), settings, **kwargs)

    def test_front_is_nondominated_and_events_monotone(self):
        run = self._run()
        assert run.generations == 4
        assert len(run.events) == 4
        vectors = [objective_vector(e) for e in run.front]
        for v in vectors:
            assert not any(
                w != v and all(a <= b for a, b in zip(w, v)) and w < v
                for w in vectors
            )
        series = [event["hypervolume"] for event in run.events]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        assert run.hypervolume == series[-1]

    def test_fixed_seed_is_deterministic(self):
        first = self._run()
        second = self._run()
        assert first.events == second.events
        assert [e.config for e in first.front] == [e.config for e in second.front]
        assert first.evaluations == second.evaluations

    def test_parallel_jobs_match_serial(self):
        serial = self._run()
        parallel = self._run(sweep=ParallelSweep(jobs=4))
        assert serial.events == parallel.events
        assert [e.config for e in serial.front] == [
            e.config for e in parallel.front
        ]

    def test_ge_searcher_runs(self):
        run = self._run(settings={"searcher": "ge"})
        assert run.generations == 4
        assert run.front

    def test_evaluations_count_unique_requests(self):
        run = self._run()
        assert run.evaluations == len(run.estimates)
        assert run.evaluations <= SearchSettings(**self.SETTINGS).budget

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            run_search(make_evaluator(), [])

    def test_seeding_errors_propagate(self, monkeypatch):
        def broken(explorer, config):
            raise RuntimeError("seeding defect")

        monkeypatch.setattr(AnalyticExplorer, "evaluate", broken)
        with pytest.raises(RuntimeError, match="seeding defect"):
            self._run()

    def test_unknown_searcher_rejected(self):
        with pytest.raises(LookupError):
            self._run(settings={"searcher": "simulated-annealing"})

    def test_resume_is_bit_identical(self, tmp_path):
        clean = self._run()

        cancel = threading.Event()

        def stop_after_two(event, archive):
            if event["generation"] == 1:
                cancel.set()

        evaluated = get_metrics().counter("engine.configs_evaluated")
        with ResultStore(str(tmp_path / "search.db")) as store:
            with pytest.raises(SweepCancelledError):
                self._run(
                    sweep=ParallelSweep(
                        jobs=1,
                        resilience=ResilienceOptions(
                            store=store, cancel_event=cancel
                        ),
                    ),
                    on_generation=stop_after_two,
                )
            stored = store.count()
            assert 0 < stored < len(clean.estimates)
            before = evaluated.value
            resumed = self._run(
                sweep=ParallelSweep(
                    jobs=1, resilience=ResilienceOptions(store=store)
                )
            )
        assert resumed.events == clean.events
        assert [e.config for e in resumed.front] == [
            e.config for e in clean.front
        ]
        assert resumed.evaluations == clean.evaluations
        # The rerun evaluates only what the cancelled one left unstored.
        assert evaluated.value - before == len(clean.estimates) - stored

    def test_cancel_before_first_generation(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(SweepCancelledError):
            self._run(
                sweep=ParallelSweep(
                    resilience=ResilienceOptions(cancel_event=cancel)
                )
            )


class TestSearcherUnits:
    def test_nsga2_population_floor(self):
        with pytest.raises(ValueError):
            NSGA2Searcher().setup(
                small_space(), population=1, generations=1, seed=0
            )

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="crossover"):
            GrammaticalEvolutionSearcher(crossover_rate=rate)
        with pytest.raises(ValueError, match="mutation"):
            GrammaticalEvolutionSearcher(mutation_rate=rate)
        with pytest.raises(ValueError, match="crossover"):
            NSGA2Searcher(crossover_rate=rate)
        with pytest.raises(ValueError, match="mutation"):
            NSGA2Searcher(mutation_rate=rate)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rates_at_the_bounds_accepted(self, rate):
        ge = GrammaticalEvolutionSearcher(crossover_rate=rate, mutation_rate=rate)
        assert (ge.crossover_rate, ge.mutation_rate) == (rate, rate)
        nsga2 = NSGA2Searcher(crossover_rate=rate, mutation_rate=rate)
        assert (nsga2.crossover_rate, nsga2.mutation_rate) == (rate, rate)
        assert NSGA2Searcher().mutation_rate is None

    def test_ask_returns_population_sized_batches(self):
        searcher = NSGA2Searcher()
        searcher.setup(small_space(), population=6, generations=3, seed=5)
        asked = searcher.ask()
        assert len(asked) == 6
        results = [
            (config, (float(config.size), float(config.line_size)))
            for config in dict.fromkeys(asked)
        ]
        searcher.tell(results)
        assert searcher.ask()
