"""Tests for the Pareto frontier utilities."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.core.pareto import (
    dominance_matrix,
    dominated_by_any,
    dominates,
    hypervolume,
    pareto_front,
    pareto_points,
    tradeoff_range,
)
from repro.moo import FrontArchive, fast_nondominated_sort


def point(cycles, energy, size=64):
    return PerformanceEstimate(
        config=CacheConfig(size, 4),
        miss_rate=0.1,
        cycles=float(cycles),
        energy_nj=float(energy),
        events=10,
        accesses=10,
        reads=10,
        read_miss_rate=0.1,
        add_bs=1.0,
    )


class TestParetoFront:
    def test_simple_frontier(self):
        pts = [point(1, 9), point(5, 5), point(9, 1), point(6, 6)]
        front = pareto_front(pts)
        assert [(p.cycles, p.energy_nj) for p in front] == [(1, 9), (5, 5), (9, 1)]

    def test_dominated_points_removed(self):
        pts = [point(1, 1), point(2, 2), point(3, 3)]
        assert len(pareto_front(pts)) == 1

    def test_duplicates_collapse(self):
        pts = [point(1, 1), point(1, 1)]
        assert len(pareto_front(pts)) == 1

    def test_empty(self):
        assert pareto_front([]) == []

    def test_dominated_by_any(self):
        pts = [point(1, 1)]
        assert dominated_by_any(point(2, 2), pts)
        assert not dominated_by_any(point(0, 5), pts)

    @given(
        st.lists(
            st.tuples(st.integers(1, 100), st.integers(1, 100)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_front_properties(self, coords):
        pts = [point(c, e) for c, e in coords]
        front = pareto_front(pts)
        # Non-empty, sorted by cycles, strictly improving energy.
        assert front
        cycles = [p.cycles for p in front]
        energies = [p.energy_nj for p in front]
        assert cycles == sorted(cycles)
        assert energies == sorted(energies, reverse=True)
        assert len(set(energies)) == len(energies)
        # No front member dominates another; everything else is dominated.
        for p in front:
            assert not dominated_by_any(p, front)
        for p in pts:
            if all(
                (p.cycles, p.energy_nj) != (q.cycles, q.energy_nj) for q in front
            ):
                assert dominated_by_any(p, front)


class TestTradeoffRange:
    def test_ends(self):
        pts = [point(1, 9), point(5, 5), point(9, 1)]
        fastest, leanest = tradeoff_range(pts)
        assert fastest.cycles == 1
        assert leanest.energy_nj == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_range([])


coords2d = st.lists(
    st.tuples(st.integers(1, 50), st.integers(1, 50)),
    min_size=1,
    max_size=30,
)


class TestParetoPoints:
    """Properties of the plain-tuple front (`pareto_points`)."""

    @given(coords2d)
    @settings(max_examples=60, deadline=None)
    def test_front_of_front_is_itself(self, coords):
        points = [tuple(map(float, c)) for c in coords]
        front = pareto_points(points)
        assert pareto_points(front) == front

    @given(coords2d, st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_adding_dominated_point_changes_nothing(self, coords, bump):
        points = [tuple(map(float, c)) for c in coords]
        front = pareto_points(points)
        x, y = front[0]
        dominated = (x + 1.0 + bump, y + 1.0 + bump)
        assert pareto_points(points + [dominated]) == front

    @given(coords2d)
    @settings(max_examples=60, deadline=None)
    def test_front_is_input_order_independent(self, coords):
        points = [tuple(map(float, c)) for c in coords]
        assert pareto_points(points) == pareto_points(list(reversed(points)))

    def test_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 3.0), (3.0, 1.0))
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


#: 2- and 3-objective vectors on a small integer grid, so that ties and
#: duplicates are common -- the cases where ``<=`` and ``<`` differ.
grid_vectors = st.sampled_from([2, 3]).flatmap(
    lambda width: st.lists(
        st.tuples(*[st.integers(0, 3).map(float)] * width), max_size=24
    )
)

#: A tie only a correct kernel ranks: (1, 2) dominates (1, 3), and the
#: duplicate (1, 2) dominates neither copy.
TIED = [(1.0, 3.0), (1.0, 2.0), (2.0, 1.0), (1.0, 2.0)]


def reference_front(vectors):
    """Sorted distinct vectors that no other vector dominates."""
    unique = sorted(set(vectors))
    return [v for v in unique if not any(dominates(o, v) for o in unique)]


def reference_fronts(vectors):
    """NSGA-II front peeling built on the pairwise `dominates`."""
    count = len(vectors)
    dominated_by = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts = [[]]
    for i in range(count):
        for j in range(count):
            if i != j and dominates(vectors[i], vectors[j]):
                dominated_by[i].append(j)
            elif i != j and dominates(vectors[j], vectors[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    while fronts[-1]:
        following = []
        for i in fronts[-1]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    following.append(j)
        fronts.append(following)
    return [front for front in fronts if front]


class TestDominanceMatrix:
    """The vectorised kernel and its three consumers against `dominates`."""

    @given(grid_vectors)
    @example(TIED)
    @settings(max_examples=80, deadline=None)
    def test_every_entry_matches_dominates(self, vectors):
        matrix = dominance_matrix(vectors)
        assert matrix.shape == (len(vectors), len(vectors))
        assert matrix.tolist() == [
            [dominates(a, b) for b in vectors] for a in vectors
        ]

    @given(grid_vectors)
    @example(TIED)
    @settings(max_examples=80, deadline=None)
    def test_pareto_points_matches_pairwise_reference(self, vectors):
        assert pareto_points(vectors) == reference_front(vectors)

    @given(grid_vectors)
    @example(TIED)
    @settings(max_examples=80, deadline=None)
    def test_fast_nondominated_sort_matches_pairwise_reference(self, vectors):
        assert fast_nondominated_sort(vectors) == reference_fronts(vectors)

    @given(grid_vectors, st.integers(0, 24))
    @example(TIED, 2)
    @settings(max_examples=80, deadline=None)
    def test_archive_front_matches_pairwise_reference(self, vectors, split):
        estimates = [
            point(index, index, size=2 ** (4 + index))
            for index in range(len(vectors))
        ]
        by_config = {e.config: v for e, v in zip(estimates, vectors)}
        width = len(vectors[0]) if vectors else 2

        class GridArchive(FrontArchive):
            def vector_of(self, estimate):
                return by_config[estimate.config]

        archive = GridArchive(("cycles", "energy", "area")[:width], capacity=1000)
        archive.add(estimates[:split])
        archive.add(estimates[split:])
        expected = reference_front(vectors)
        assert archive.points() == expected
        # Equal vectors collapse onto the smallest configuration.
        assert [e.config for e in archive.estimates()] == [
            estimates[vectors.index(v)].config for v in expected
        ]

    @given(
        st.integers(1, 3).flatmap(
            lambda width: st.lists(
                st.tuples(*[st.integers(0, 5).map(float)] * width),
                min_size=150,
                max_size=200,
            )
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_large_sets_of_one_to_three_objectives_match_dominates(self, vectors):
        matrix = dominance_matrix(vectors)
        assert matrix.tolist() == [
            [dominates(a, b) for b in vectors] for a in vectors
        ]

    def test_array_input_matches_tuple_input(self):
        import numpy as np

        vectors = [(1.0, 3.0, 2.0), (1.0, 2.0, 2.0), (2.0, 1.0, 0.5), (1.0, 2.0, 2.0)]
        array = np.array(vectors)
        assert (dominance_matrix(array) == dominance_matrix(vectors)).all()
        assert (dominance_matrix(array[:, [0, 2]]) == dominance_matrix(
            [(v[0], v[2]) for v in vectors]
        )).all()

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            dominance_matrix([(1.0, 2.0), (1.0,)])
        with pytest.raises(ValueError):
            dominance_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            pareto_points([(1.0, 2.0), (1.0,)])

    def test_empty(self):
        assert dominance_matrix([]).shape == (0, 0)
        assert not dominance_matrix([(), ()]).any()
        assert pareto_points([]) == []


class TestHypervolume:
    def test_single_point_2d(self):
        assert hypervolume([(1.0, 1.0)], (3.0, 3.0)) == pytest.approx(4.0)

    def test_two_point_staircase(self):
        volume = hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0))
        assert volume == pytest.approx(3.0)

    def test_point_outside_reference_contributes_nothing(self):
        assert hypervolume([(4.0, 4.0)], (3.0, 3.0)) == 0.0

    def test_3d_box(self):
        assert hypervolume([(1.0, 1.0, 1.0)], (2.0, 2.0, 2.0)) == pytest.approx(1.0)

    def test_3d_matches_inclusion_exclusion(self):
        points = [(1.0, 3.0, 2.0), (2.0, 1.0, 3.0), (3.0, 2.0, 1.0)]
        reference = (4.0, 4.0, 4.0)
        # The slab decomposition is exact; compare against an independent
        # inclusion-exclusion over the three dominated boxes.
        import itertools

        total = 0.0
        for r in range(1, 4):
            for combo in itertools.combinations(points, r):
                corner = tuple(max(p[i] for p in combo) for i in range(3))
                volume = 1.0
                for i in range(3):
                    volume *= max(0.0, reference[i] - corner[i])
                total += (-1) ** (r + 1) * volume
        assert hypervolume(points, reference) == pytest.approx(total)

    @given(coords2d)
    @settings(max_examples=60, deadline=None)
    def test_2d_monotone_under_union(self, coords):
        points = [tuple(map(float, c)) for c in coords]
        reference = (60.0, 60.0)
        base = hypervolume(points[:-1], reference) if len(points) > 1 else 0.0
        assert hypervolume(points, reference) >= base - 1e-12

    @given(coords2d)
    @settings(max_examples=40, deadline=None)
    def test_2d_equals_unit_cell_count(self, coords):
        points = [tuple(map(float, c)) for c in coords]
        reference = (51.0, 51.0)
        cells = sum(
            1
            for x in range(1, 51)
            for y in range(1, 51)
            if any(p[0] <= x and p[1] <= y for p in points)
        )
        assert hypervolume(points, reference) == pytest.approx(float(cells))

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            hypervolume([(1.0,) * 4], (2.0,) * 4)

    def test_reference_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hypervolume([(1.0, 1.0)], (2.0, 2.0, 2.0))
