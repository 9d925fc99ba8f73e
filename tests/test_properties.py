"""Cross-cutting property-based tests on randomly generated loop nests.

The strongest correctness statement in the reproduction is the Section 4.1
guarantee: *whenever* ``assign_offchip_layout`` reports ``conflict_free``,
the simulated trace has zero conflict misses.  Hand-written kernels cannot
cover that claim's input space, so hypothesis generates random compatible
nests (shared linear part, random constant offsets, random array shapes)
and the guarantee is checked against the simulator every time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.core.config import design_space
from repro.engine import Evaluator, KernelWorkload
from repro.engine.cache import EvalCache
from repro.kernels.base import Kernel
from repro.layout.address_map import layouts_overlap
from repro.layout.assignment import (
    _array_forms,
    _intervals_clear,
    _place,
    _separable,
    _sweep_pass_doomed,
    _sweep_trips,
    _windows,
    assign_offchip_layout,
)
from repro.loops.compat import nest_is_compatible
from repro.loops.ir import ArrayDecl, ArrayRef, Loop, LoopNest, var
from repro.loops.trace_gen import generate_trace


@st.composite
def compatible_nests(draw, rank=2, element_sizes=(1,), transposed=False):
    """A random nest whose references all share one linear part H.

    ``rank`` 2 gives an ``i, j`` nest over 2D arrays, ``rank`` 1 a single
    ``j`` loop over 1-D arrays; each array's element size is drawn from
    ``element_sizes``.  ``transposed`` (rank 2 only) subscripts square
    arrays ``[j][i]``, so the innermost loop walks down the rows.
    """
    rows = draw(st.integers(4, 12))
    cols = rows if transposed else draw(st.integers(4, 12))
    n_arrays = draw(st.integers(1, 3))
    dims = (rows, cols)[2 - rank:]
    arrays = tuple(
        ArrayDecl(f"a{k}", dims, draw(st.sampled_from(element_sizes)))
        for k in range(n_arrays)
    )
    i, j = var("i"), var("j")
    # Row/column offsets small enough to stay in bounds for i,j >= 1.
    n_refs = draw(st.integers(1, 4))
    refs = []
    for r in range(n_refs):
        array = draw(st.integers(0, n_arrays - 1))
        di = draw(st.integers(-1, 0))
        dj = draw(st.integers(-1, 0))
        is_write = draw(st.booleans()) and r == n_refs - 1
        subscripts = (j + dj, i + di) if transposed else (i + di, j + dj)[2 - rank:]
        refs.append(ArrayRef(f"a{array}", subscripts, is_write=is_write))
    loops = (Loop("i", 1, rows - 1), Loop("j", 1, cols - 1))[2 - rank:]
    return LoopNest(
        name="random",
        loops=loops,
        refs=tuple(refs),
        arrays=arrays,
    )


class TestSweepPassSkip:
    @given(
        nest=st.one_of(
            compatible_nests(),
            compatible_nests(element_sizes=(1, 2, 4)),
            compatible_nests(rank=1, element_sizes=(1, 2, 4)),
        ),
        line=st.sampled_from([1, 2, 4, 8]),
        lines=st.integers(2, 48),
    )
    @settings(max_examples=300, deadline=None)
    def test_skipped_pass_never_comes_out_clear(self, nest, line, lines):
        """The sweep-range pass is skipped only when running it would
        return ``all_clear=False``.  Cache spans that are not powers of
        two reach the bound's edge cases, where it is tight."""
        size = line * lines
        forms = _array_forms(nest)
        if _sweep_pass_doomed(forms, nest, size):
            _, _, all_clear = _place(nest, forms, size, line, None, sweep=True)
            assert not all_clear

    @given(
        nest=st.one_of(
            compatible_nests(),
            compatible_nests(element_sizes=(1, 2, 4)),
            compatible_nests(rank=1, element_sizes=(1, 2, 4)),
            compatible_nests(element_sizes=(1, 2, 4), transposed=True),
        ),
        line=st.sampled_from([1, 2, 4, 8]),
        lines=st.integers(1, 48),
        sweep=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_inseparable_groups_clear_at_no_pitch(self, nest, line, lines, sweep):
        """The placement search stops after the first pitch candidate of an
        array whose groups fail :func:`_separable`; no pitch in the
        search's range may leave such windows clear of each other."""
        span = line * lines
        sweeps, step = _sweep_trips(nest)
        if not sweep:
            sweeps = 0
        for name, groups in _array_forms(nest).items():
            if _separable(groups, sweeps, step, line, span):
                continue
            decl = nest.array(name)
            dense_row = decl.row_major_strides()[0]
            pad_limit = max(span // decl.element_size, 1)
            for pitch in range(dense_row, dense_row + pad_limit + 1):
                windows = _windows(groups, pitch, decl.element_size, sweeps, step)
                assert not _intervals_clear(windows, line, span), (name, pitch)


class TestCertificateSkipEvidence:
    @given(
        nest=st.one_of(
            compatible_nests(),
            compatible_nests(element_sizes=(1, 2, 4)),
            compatible_nests(rank=1, element_sizes=(1, 2, 4)),
        ),
        line=st.sampled_from([2, 4, 8, 16]),
        lines=st.integers(1, 32),
    )
    @settings(max_examples=200, deadline=None)
    def test_clear_sweep_pass_passes_the_certificate(self, nest, line, lines):
        """Evidence for skipping the simulation certificate where the
        sweep-range pass comes out clear (the ``verify=False`` flag on a
        compatible nest): on nests whose innermost loop walks along a row
        (``[i][j]``) the certificate then passes too.  It does not on
        ``transposed`` nests: ``a[j][i]`` alone for ``i, j = 1..3`` over a
        4x4 array, in an 8-byte cache with 2-byte lines, is clear and
        fails it."""
        size = line * lines
        if assign_offchip_layout(nest, size, line, verify=False).conflict_free:
            assert assign_offchip_layout(nest, size, line).conflict_free


class TestAssignmentGuarantee:
    @given(nest=compatible_nests(), geometry=st.sampled_from(
        [(16, 4), (32, 4), (32, 8), (64, 8), (64, 16), (128, 8)]
    ))
    @settings(max_examples=120, deadline=None)
    def test_conflict_free_flag_is_sound(self, nest, geometry):
        """conflict_free=True  ==>  zero simulated conflict misses."""
        size, line = geometry
        assert nest_is_compatible(nest)
        result = assign_offchip_layout(nest, size, line)
        if not result.conflict_free:
            return  # the geometry was too small; nothing is claimed
        trace = generate_trace(nest, layout=result.layout)
        mc = CacheSimulator(CacheGeometry(size, line, 1)).classified_misses(trace)
        assert mc.conflict == 0

    @given(nest=compatible_nests(), geometry=st.sampled_from(
        [(16, 4), (32, 8), (64, 8)]
    ))
    @settings(max_examples=60, deadline=None)
    def test_layouts_never_overlap(self, nest, geometry):
        size, line = geometry
        result = assign_offchip_layout(nest, size, line)
        assert not layouts_overlap(nest, result.layout)

    @given(nest=compatible_nests())
    @settings(max_examples=60, deadline=None)
    def test_padded_trace_same_access_count(self, nest):
        """Padding relocates data; it must not change the trace length or
        the per-reference structure."""
        result = assign_offchip_layout(nest, 64, 8)
        dense = generate_trace(nest)
        padded = generate_trace(nest, layout=result.layout)
        assert len(padded) == len(dense)
        assert padded.is_write.tolist() == dense.is_write.tolist()
        assert padded.ref_ids.tolist() == dense.ref_ids.tolist()

    @given(nest=compatible_nests(), geometry=st.sampled_from(
        [(32, 4), (64, 8), (128, 16)]
    ))
    @settings(max_examples=60, deadline=None)
    def test_conflict_free_means_no_3c_conflicts(self, nest, geometry):
        """The certificate property: a conflict-free layout's direct-mapped
        miss count never exceeds its fully-associative one -- zero conflict
        misses in the 3C sense.  (Note this does NOT mean fewer misses than
        the dense layout: padding may shift a window across a line boundary
        and add a compulsory fetch.)"""
        size, line = geometry
        result = assign_offchip_layout(nest, size, line)
        if not result.conflict_free:
            return
        trace = generate_trace(nest, layout=result.layout)
        geo_dm = CacheGeometry(size, line, 1)
        geo_fa = CacheGeometry(size, line, size // line)
        dm = CacheSimulator(geo_dm).run(trace).misses
        fa = CacheSimulator(geo_fa).run(trace).misses
        assert dm <= fa


class TestMetricProperties:
    @given(
        miss_rate=st.floats(0.0, 1.0),
        trip=st.integers(1, 10_000),
        tiling=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_cycles_bounded_by_extremes(self, miss_rate, trip, tiling):
        from repro.core.cycles import processor_cycles

        cycles = processor_cycles(miss_rate, trip, 1, 8, tiling)
        all_hit = processor_cycles(0.0, trip, 1, 8, tiling)
        all_miss = processor_cycles(1.0, trip, 1, 8, tiling)
        assert all_hit - 1e-9 <= cycles <= all_miss + 1e-9

    @given(miss_rate=st.floats(0.0, 1.0), events=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_energy_bounded_by_extremes(self, miss_rate, events):
        from repro.energy.model import EnergyModel

        model = EnergyModel()
        total = model.total_energy(64, 8, 1, miss_rate, events, 2.0)
        floor = model.total_energy(64, 8, 1, 0.0, events, 2.0)
        ceiling = model.total_energy(64, 8, 1, 1.0, events, 2.0)
        assert floor - 1e-9 <= total <= ceiling + 1e-9

    @given(
        sizes=st.lists(st.sampled_from([16, 32, 64, 128]), min_size=1,
                       max_size=6, unique=True)
    )
    @settings(max_examples=40, deadline=None)
    def test_exploration_extremes_are_consistent(self, sizes):
        from repro.core.config import CacheConfig
        from repro.core.explorer import MemExplorer
        from repro.kernels import make_compress

        explorer = MemExplorer(make_compress(n=7))
        configs = [CacheConfig(s, 4) for s in sorted(sizes)]
        result = explorer.explore(configs=configs)
        best_e = result.min_energy()
        best_t = result.min_cycles()
        assert all(best_e.energy_nj <= e.energy_nj for e in result)
        assert all(best_t.cycles <= e.cycles for e in result)


class TestAnalyticProperties:
    @given(nest=compatible_nests())
    @settings(max_examples=60, deadline=None)
    def test_analytic_never_underestimates_at_any_size(self, nest):
        """The closed-form model assumes no cross-sweep retention, so it
        upper-bounds the simulated misses of any conflict-free layout."""
        from repro.core.analytic import analytic_misses
        from repro.cache.fastsim import fast_miss_vector

        line = 4
        result = assign_offchip_layout(nest, 64, line)
        if not result.conflict_free:
            return
        trace = generate_trace(nest, layout=result.layout)
        simulated = int(fast_miss_vector(trace.line_ids(line), 16, 1).sum())
        analytic = analytic_misses(nest, line)
        assert simulated <= analytic + len(list(nest.refs))


class TestCodegenProperties:
    @given(nest=compatible_nests(), tile=st.sampled_from([1, 2, 4]))
    @settings(max_examples=50, deadline=None)
    def test_generated_code_replays_the_trace(self, nest, tile):
        """Executing the generated Python reproduces the analytic trace for
        random nests, layouts and tilings."""
        from repro.loops.codegen import run_generated

        layout = assign_offchip_layout(nest, 32, 4).layout
        recorded = run_generated(nest, layout=layout, tile=tile)
        expected = generate_trace(
            nest, layout=layout, tile=tile
        ).addresses.tolist()
        assert recorded == expected


class TestSamplingProperties:
    @given(nest=compatible_nests())
    @settings(max_examples=40, deadline=None)
    def test_union_of_samples_is_exact(self, nest):
        """Sampling every offset and combining miss counts reproduces the
        exact simulation (set independence, exhaustively)."""
        from repro.cache.sampling import sampled_miss_rate
        from repro.cache.stackdist import grid_miss_counts

        trace = generate_trace(nest)
        line_ids = trace.line_ids(4)
        num_sets = 8
        exact = grid_miss_counts(
            line_ids, trace.is_write, [(num_sets, 1)]
        )[(num_sets, 1)].misses
        stride = 4
        total_sampled_misses = 0
        for offset in range(stride):
            est = sampled_miss_rate(
                line_ids, num_sets, 1, sample_every=stride, offset=offset
            )
            total_sampled_misses += round(est.miss_rate * est.sampled_accesses)
        assert total_sampled_misses == exact


class TestRandomNestOracle:
    """The composed estimate, checked outside the golden kernels.

    One ``onepass`` batch must reproduce, bit for bit, a fresh
    ``reference`` evaluator per configuration.  The batch shares the
    layout memo per ``(T, L)``, the traces keyed on ``B``, the
    certificate's trace reused as the ``(T, L, 1)`` bundle, the miss
    store and ``Add_bs`` per trace; the reference shares nothing.
    """

    #: T 8-64, L 2-8, S 1-2 and B 1-4.
    CONFIGS = list(
        design_space(
            max_size=64, min_size=8, min_line=2, max_line=8,
            ways=(1, 2), tilings=(1, 2, 4),
        )
    )
    #: Shared by every example, so entries of different nests must never
    #: collide either.
    CACHE = EvalCache()

    @given(
        nest=st.one_of(
            compatible_nests(),
            compatible_nests(transposed=True),
            compatible_nests(element_sizes=(1, 2, 4)),
        ),
        n_tiled=st.sampled_from([None, 1, 2]),
    )
    @settings(max_examples=50, deadline=None)
    def test_onepass_batch_matches_fresh_reference(self, nest, n_tiled):
        kernel = Kernel(nest, n_tiled=n_tiled)
        batch = Evaluator(
            KernelWorkload(kernel), "onepass", cache=self.CACHE
        ).evaluate_batch(self.CONFIGS)
        for config, estimate in zip(self.CONFIGS, batch):
            oracle = Evaluator(
                KernelWorkload(kernel), "reference", cache=EvalCache()
            ).evaluate(config)
            for field in (
                "miss_rate", "cycles", "energy_nj", "add_bs",
                "conflict_free_layout",
            ):
                assert getattr(estimate, field) == getattr(oracle, field), (
                    config, field,
                )
