"""Off-chip memory assignment (Section 4.1).

Conflict misses occur when data that will be reused soon is displaced by a
subsequent access mapping to the same cache line.  The paper (extending
Panda/Dutt/Nicolau) removes them by *placing arrays in main memory with
padding* so that references belonging to different equivalence
classes/cases never share a cache line.

Worked example from the paper (Compress, line size 2, cache size 8 = 4
lines): class 1 anchors at ``a[0][0]`` = address 0 = line slot 0; class 2
anchors at ``a[1][0]``.  With the dense row pitch of 32 that address is 32,
which is slot 0 again -- a conflict every iteration.  Padding the row pitch
to 36 moves ``a[1][0]`` to slot 2 and all conflicts disappear, "even though
there is no valid data in locations 32 through 35".

The algorithm generalizes that construction.  Each class/case occupies a
byte *window* that slides through the cache as the loops advance; the
placement is conflict-free when, at every instant, no two windows touch the
same cache line.  Because all windows of a *compatible* nest (one shared
linear part ``H``) slide in lockstep, two invariants make that instantaneous
condition hold for the whole execution:

1. **Guarded separation.**  Working modulo the cache span
   (``num_lines * line_size`` bytes), the circular gap between any two
   windows' byte intervals must be at least the line size: two bytes closer
   than ``L`` can land in the same line for *some* slide offset.  This is
   exactly why the paper's line-count formula rounds up by two lines rather
   than one when the distance does not divide evenly.
2. **Pitch coherence.**  When the outer loop advances, a window anchored on
   array ``x`` jumps by ``element_size * row_pitch(x)``.  All referenced
   multi-row arrays must therefore use row pitches congruent modulo the
   cache span, or their windows drift relative to each other and eventually
   collide (this is invisible in single-array kernels like Compress but
   essential for PDE's ``a``/``b`` pair).

The search picks, per array, the smallest padded row pitch satisfying both
invariants for its own windows and then the smallest base (preferring the
lowest free line slot, matching the paper's walk-throughs) that clears the
windows already placed.  For incompatible nests (Matrix Multiplication)
windows slide at different rates and no placement is conflict-free; the
search still separates the anchors (best effort) and the result's
``conflict_free`` flag reports which case applies -- verified against the
simulator's 3C classification by the integration suite.

Cost structure.  A sweep calls the search once per ``(T, L)``, so the
work that does not depend on the geometry is done once per nest instance
(:meth:`~repro.loops.ir.LoopNest.analysis`): the reference grouping, the
compatibility test and the pitch-linear forms.  Only the outermost row
pitch ``P`` varies between pitch candidates, so every reference's element
offset is ``s0 * P + rest`` and every innermost-loop slide is
``dc * P + dk``; a candidate then costs a few integer multiply-adds per
reference plus the pairwise separation check of its own windows.  The
candidates are arithmetic progressions (line-aligned pitches first, then
the rest; or the pitches coherent with an earlier array), a base is
searched only for a candidate whose windows are clear of each other, and
two width bounds cut the search short.  Every group's window spans at
least :meth:`_GroupForm.min_width` bytes at any pitch, so the sweep-range
pass is skipped outright when the two widest bounds together exceed the
cache span, and an array's candidates stop after the first (its fallback)
when its windows plus a line's gap after each cannot fit in the span
(:func:`_separable`).  With ``verify=True`` the simulation certificate --
one untiled trace and one grid pass over it -- costs more than the
search; the result hands that trace on (:attr:`AssignmentResult.trace`),
because the ``B = 1`` evaluation of the geometry needs it next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import gcd
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.layout.address_map import ArrayPlacement, DataLayout
from repro.loops.compat import nest_is_compatible
from repro.loops.ir import LoopNest
from repro.loops.reuse import group_references

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cache.trace import MemoryTrace

__all__ = ["AssignmentResult", "assign_offchip_layout"]

Window = Tuple[int, int]  # (byte offset from the array base, width in bytes)


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of the off-chip assignment.

    ``layout`` is the padded placement; ``slots`` maps each group (keyed by
    the index of its first reference) to the cache-line slot its anchor
    occupies at the first iteration; ``conflict_free`` is True when the nest
    is compatible *and* every window got guarded separation, i.e. the
    paper's complete-elimination guarantee applies.  ``trace`` is the
    untiled trace of ``layout`` that the simulation certificate measured
    (``None`` when no certificate ran): it is this geometry's ``B = 1``
    trace, so a caller can use it instead of generating it again.  It
    takes no part in ``==``, hashing or ``repr``.
    """

    layout: DataLayout
    slots: Tuple[Tuple[int, int], ...]
    conflict_free: bool
    cache_lines: int
    line_size: int
    trace: Optional["MemoryTrace"] = field(
        default=None, compare=False, repr=False
    )

    def slot_of(self, first_ref_index: int) -> int:
        """Line slot of the group anchored at ``first_ref_index``."""
        for ref, slot in self.slots:
            if ref == first_ref_index:
                return slot
        raise KeyError(f"no group anchored at reference {first_ref_index}")


@dataclass(frozen=True)
class _GroupForm:
    """One group's windows as linear functions of the padded row pitch.

    With row pitch ``P``, a reference with terms ``(row, rest)`` sits
    ``row * P + rest`` elements from the array base at the nest's first
    iteration point, and one innermost iteration slides the group by
    ``slide_row * P + slide_rest`` elements (taken from its first
    reference).  Rank-1 arrays have no padded pitch, so their row terms
    are zero.
    """

    first_ref: int
    terms: Tuple[Tuple[int, int], ...]
    slide_row: int
    slide_rest: int
    element_size: int

    def min_width(self, sweeps: int, step: int) -> int:
        """Fewest bytes the group's window (see :func:`_windows`) spans at
        any pitch.

        The extent between the group's references is the same at every
        pitch when they share one row term, and so is the slide when it
        has no row component; either is at least zero otherwise.
        """
        spread = 0
        if len({row for row, _ in self.terms}) == 1:
            rests = [rest for _, rest in self.terms]
            spread = max(rests) - min(rests)
        width = (spread + 1) * self.element_size
        if self.slide_row == 0:
            width += sweeps * abs(self.slide_rest) * self.element_size * step
        return width


def _split_row(values: Sequence[int], tail: Sequence[int]) -> Tuple[int, int]:
    """``(row, rest)``: the padded-row coefficient and the dense remainder.

    ``tail`` is the array's dense strides after the first; a rank-1 array
    (empty ``tail``) has no padded pitch, so everything is remainder.
    """
    if not tail:
        return 0, values[0]
    return values[0], sum(p * v for p, v in zip(tail, values[1:]))


def _array_forms(nest: LoopNest) -> Dict[str, List[_GroupForm]]:
    """Pitch-linear forms of every referenced array's groups, in order.

    Geometry-free, so :func:`assign_offchip_layout` reads it through
    :meth:`LoopNest.analysis`, once per nest instance.
    """
    first_point = {lp.index: lp.lower for lp in nest.loops}
    innermost = nest.loops[-1].index if nest.loops else None
    forms: Dict[str, List[_GroupForm]] = {}
    for group in group_references(nest):
        tail = nest.array(group.array).row_major_strides()[1:]
        terms = tuple(
            _split_row(nest.refs[i].evaluate(first_point), tail)
            for i in group.ref_indices
        )
        ref = nest.refs[group.ref_indices[0]]
        slide_row, slide_rest = _split_row(
            [
                expr.coeff(innermost) if innermost is not None else 0
                for expr in ref.indices
            ],
            tail,
        )
        forms.setdefault(group.array, []).append(
            _GroupForm(
                first_ref=group.ref_indices[0],
                terms=terms,
                slide_row=slide_row,
                slide_rest=slide_rest,
                element_size=group.element_size,
            )
        )
    return forms


def _sweep_trips(nest: LoopNest) -> Tuple[int, int]:
    """``(trip_count - 1, step)`` of the innermost loop, ``(0, 1)`` if none."""
    if not nest.loops:
        return 0, 1
    innermost = nest.loops[-1]
    return innermost.trip_count - 1, innermost.step


def _windows(
    groups: Sequence[_GroupForm],
    row_pitch: int,
    element_size: int,
    sweeps: int,
    step: int,
) -> List[Window]:
    """Byte windows of one array's groups under row pitch ``row_pitch``.

    Anchors are evaluated at the nest's first iteration point with the
    padded pitch, so row padding moves the windows exactly as it moves
    the addresses.

    With ``sweeps`` (the innermost trip count minus one) nonzero, a window
    covers the group's entire innermost-loop *sweep range* (its
    instantaneous extent plus the distance it slides during one sweep).
    Sweep ranges protect a class's trail -- lines already passed this
    sweep that will be reused after the outer loop advances -- from other
    classes crossing them.  With ``sweeps == 0`` the window is the
    instantaneous extent only (the fallback criterion for caches too small
    to hold sweep ranges, where no trail survives anyway).
    """
    windows = []
    for g in groups:
        offsets = [row * row_pitch + rest for row, rest in g.terms]
        anchor = min(offsets)
        width = (max(offsets) - anchor + 1) * element_size
        delta = g.slide_row * row_pitch + g.slide_rest
        width += sweeps * abs(delta) * element_size * step
        if delta < 0:
            anchor += sweeps * delta
        windows.append((element_size * anchor, width))
    return windows


def _sweep_pass_doomed(
    forms: Dict[str, List[_GroupForm]], nest: LoopNest, span: int
) -> bool:
    """True when the sweep-range pass cannot come out clear at any pitch.

    If the two largest :meth:`_GroupForm.min_width` bounds exceed the cache
    span together, that pair fails :func:`_pair_clear` at every pitch and
    base.
    """
    sweeps, step = _sweep_trips(nest)
    bounds = sorted(
        g.min_width(sweeps, step) for groups in forms.values() for g in groups
    )
    return len(bounds) >= 2 and bounds[-1] + bounds[-2] > span


def _separable(
    groups: Sequence[_GroupForm],
    sweeps: int,
    step: int,
    line_size: int,
    span: int,
) -> bool:
    """False when no row pitch lets these groups' windows clear each other.

    Windows that clear each other (:func:`_intervals_clear`) are disjoint
    arcs of the ``span``-byte circle, each followed by at least
    ``line_size - 1`` free bytes, so together they need
    ``sum(width) + len(groups) * (line_size - 1)`` bytes of it.
    """
    if len(groups) < 2:
        return True
    need = sum(g.min_width(sweeps, step) + line_size - 1 for g in groups)
    return need <= span


def _pair_clear(
    start_i: int,
    width_i: int,
    start_j: int,
    width_j: int,
    line_size: int,
    span: int,
) -> bool:
    """True when two circular byte intervals can never share a cache line.

    See :func:`_intervals_clear`; the check is invariant under shifting
    both starts by the same amount.
    """
    if width_i + width_j > span:
        return False  # they must overlap somewhere on the circle
    if (start_j - start_i) % span < width_i:
        return False  # j starts inside i
    if (start_i - start_j) % span < width_j:
        return False  # i starts inside j
    forward = (start_j - start_i - width_i + 1) % span
    backward = (start_i - start_j - width_j + 1) % span
    return forward >= line_size and backward >= line_size


def _intervals_clear(
    intervals: Sequence[Tuple[int, int]],
    line_size: int,
    span: int,
) -> bool:
    """True when no two circular byte intervals can ever share a cache line.

    ``intervals`` are ``(start mod span, width)`` pairs on a circle of
    ``span`` bytes tiled by ``line_size``-byte lines.  As the windows slide
    by a *common* offset, two bytes land in the same line for some offset
    iff their circular distance is at most ``line_size - 1``; so a pair of
    windows is safe iff the byte distance from either window's last byte to
    the other's first byte (going forward around the circle) is at least
    ``line_size``.  A single window never conflicts with itself (a class
    owns its own lines).
    """
    return all(
        _pair_clear(*intervals[i], *intervals[j], line_size, span)
        for i in range(len(intervals))
        for j in range(i + 1, len(intervals))
    )


def _pitch_candidates(
    dense_row: int,
    pad_limit: int,
    element_size: int,
    line_size: int,
    span: int,
    required_shift: Optional[int],
) -> Iterator[int]:
    """Row pitches to try for a multi-row array, in preference order.

    Pitches range over ``dense_row .. dense_row + pad_limit``.  Once an
    earlier array has fixed the row shift, only coherent pitches qualify
    (``element_size * P`` congruent to it modulo the span), smallest first.
    Otherwise pitches that keep every window anchor line-aligned come
    first, as in the paper's walk-through (Compress picks 36, not 35),
    then the rest, each in increasing order.
    """
    last = dense_row + pad_limit
    if required_shift is not None:
        g = gcd(element_size, span)
        if required_shift % g:
            return
        period = span // g
        first = required_shift // g * pow(element_size // g, -1, period)
        yield from range(
            dense_row + (first - dense_row) % period, last + 1, period
        )
        return
    period = line_size // gcd(element_size, line_size)
    yield from range(dense_row + -dense_row % period, last + 1, period)
    if period > 1:
        yield from (p for p in range(dense_row, last + 1) if p % period)


def assign_offchip_layout(
    nest: LoopNest,
    cache_size: int,
    line_size: int,
    max_pitch_padding: Optional[int] = None,
    verify: bool = True,
) -> AssignmentResult:
    """Compute a padded off-chip layout for ``nest`` targeting the geometry.

    Placement is constructed in two attempts: first separating the classes'
    full *sweep ranges* (which also protects each class's trail within a
    sweep), then -- for caches too small to hold sweep ranges, where no
    trail survives any replacement policy -- separating the instantaneous
    windows only.

    Parameters
    ----------
    cache_size, line_size:
        Geometry in bytes; separation is enforced modulo the full cache
        span so the placement is conflict-free for a direct-mapped cache of
        this size (and therefore for any higher associativity of the same
        size).
    max_pitch_padding:
        Upper bound on extra row padding in elements (defaults to one full
        cache span, which always contains a coherent candidate); must be
        non-negative.
    verify:
        Certify the ``conflict_free`` flag by simulation (default): the
        flag is set only when the padded trace takes *exactly* as many
        misses direct-mapped as fully associative at this capacity.  With
        ``verify=False`` the flag reports the constructive sweep-range
        criterion only.  That criterion is no certificate: a lone group
        whose innermost loop walks down the rows can sweep more than the
        cache span and still conflict with itself (``a[j][i]`` for
        ``i, j = 1..3`` over a 4x4 array, in an 8-byte cache with 2-byte
        lines).
    """
    if cache_size <= 0 or line_size <= 0 or cache_size % line_size:
        raise ValueError("cache size must be a positive multiple of line size")
    if max_pitch_padding is not None and max_pitch_padding < 0:
        raise ValueError("max_pitch_padding must be non-negative")
    forms = nest.analysis(_array_forms)
    all_clear = False
    if not _sweep_pass_doomed(forms, nest, cache_size):
        placements, slots, all_clear = _place(
            nest, forms, cache_size, line_size, max_pitch_padding, sweep=True
        )
    if not all_clear:
        placements, slots, _ = _place(
            nest, forms, cache_size, line_size, max_pitch_padding, sweep=False
        )

    num_lines = cache_size // line_size
    layout = DataLayout.from_dict(placements)
    trace = None
    if nest_is_compatible(nest) and nest.refs:
        if verify:
            from repro.loops.trace_gen import generate_trace

            trace = generate_trace(nest, layout=layout)
            conflict_free = _certified(trace, cache_size, line_size)
        else:
            conflict_free = all_clear
    else:
        conflict_free = False if nest.refs else True
    return AssignmentResult(
        layout=layout,
        slots=tuple(slots),
        conflict_free=conflict_free,
        cache_lines=num_lines,
        line_size=line_size,
        trace=trace,
    )


def _certified(trace: "MemoryTrace", cache_size: int, line_size: int) -> bool:
    """Simulation certificate: zero conflict misses in the 3C sense.

    A miss is a *conflict* miss when the direct-mapped cache takes it but a
    fully-associative LRU cache of the same capacity would not; the layout
    is certified when the direct-mapped miss count of its untiled
    ``trace`` does not exceed the fully-associative one.  (A good padded
    placement can beat fully-associative LRU outright -- the indexed
    placement protects lines LRU would evict -- so equality is not
    required.)
    """
    from repro.cache.stackdist import grid_miss_counts

    num_lines = cache_size // line_size
    direct_mapped, fully_assoc = (num_lines, 1), (1, num_lines)
    counts = grid_miss_counts(
        trace.line_ids(line_size), trace.is_write, [direct_mapped, fully_assoc]
    )
    return counts[direct_mapped].misses <= counts[fully_assoc].misses


def _place(
    nest: LoopNest,
    forms: Dict[str, List[_GroupForm]],
    cache_size: int,
    line_size: int,
    max_pitch_padding: Optional[int],
    sweep: bool,
) -> "tuple[Dict[str, ArrayPlacement], List[Tuple[int, int]], bool]":
    """One constructive placement pass (see :func:`assign_offchip_layout`).

    ``forms`` is :func:`_array_forms` of ``nest``.
    """
    span = cache_size  # num_lines * line_size bytes
    num_lines = cache_size // line_size
    sweeps, step = _sweep_trips(nest)
    if not sweep:
        sweeps = 0

    placements: Dict[str, ArrayPlacement] = {}
    slots: List[Tuple[int, int]] = []
    placed: List[Window] = []  # (start mod span, width) intervals
    placed_clear = True  # no two placed windows can share a line
    cursor = 0
    all_clear = True
    required_shift: Optional[int] = None

    for decl in nest.arrays:
        groups = forms.get(decl.name)
        dense = decl.row_major_strides()
        if not groups:
            # Array never referenced: dense placement, no constraints.
            placements[decl.name] = ArrayPlacement(
                cursor, dense, decl.element_size
            )
            cursor += decl.size_bytes
            continue

        element_size = decl.element_size
        multi_row = len(dense) >= 2
        if not multi_row:
            candidates: Iterator[int] = iter(dense)  # no pitch freedom
        else:
            if max_pitch_padding is None:
                pad_limit = max(span // element_size, 1)
            else:
                pad_limit = max_pitch_padding
            candidates = _pitch_candidates(
                dense[0], pad_limit, element_size, line_size, span,
                required_shift,
            )

        if not _separable(groups, sweeps, step, line_size, span):
            # Every candidate's windows collide, so the first candidate is
            # the fallback and the others need not be tried.
            candidates = islice(candidates, 1)

        # A candidate whose windows collide with each other only serves as
        # the fallback, placed at the base of the lowest line slot; the
        # first such candidate is the one kept.
        chosen: Optional[Tuple[int, List[Window], int]] = None
        fallback: Optional[Tuple[int, List[Window], int]] = None
        for row_pitch in candidates:
            windows = _windows(groups, row_pitch, element_size, sweeps, step)
            if _intervals_clear(windows, line_size, span):
                if placed_clear:
                    base = _find_base(cursor, windows, line_size, span, placed)
                    if base is not None:
                        chosen = (row_pitch, windows, base)
                        break
            elif fallback is None:
                fallback = (
                    row_pitch,
                    windows,
                    next(_line_bases(cursor, windows, line_size, span)),
                )

        if chosen is None:
            all_clear = False
            if fallback is None:
                fallback = (
                    dense[0],
                    _windows(groups, dense[0], element_size, sweeps, step),
                    cursor,
                )
            chosen = fallback

        row_pitch, windows, base = chosen
        for g, (offset, width) in zip(groups, windows):
            start = (base + offset) % span
            placed.append((start, width))
            slots.append((g.first_ref, (start // line_size) % num_lines))
        if chosen is fallback:
            placed_clear = _intervals_clear(placed, line_size, span)
        pitches = dense
        if multi_row:
            if required_shift is None:
                required_shift = (element_size * row_pitch) % span
            pitches = (row_pitch,) + dense[1:]
        placement = ArrayPlacement(base, pitches, element_size)
        placements[decl.name] = placement
        cursor = base + placement.extent_bytes(decl.dims)

    # Every chosen base cleared all windows placed before it, so when no
    # array fell back the placed windows are pairwise clear.
    return placements, slots, all_clear


def _line_bases(
    cursor: int, windows: Sequence[Window], line_size: int, span: int
) -> Iterator[int]:
    """Bases >= cursor that line-align the first window, by line slot.

    One base per line slot of the cache span, ordered by the slot the
    first window's anchor lands on -- matching the paper's walk-throughs,
    which hand the next class the lowest free line (Matrix Addition: a ->
    line 0, b -> line 1, c -> line 2).
    """
    num_lines = span // line_size
    anchor = cursor + windows[0][0]
    shift = -anchor % line_size
    first_slot = ((anchor + shift) % span) // line_size
    for slot in range(num_lines):
        yield cursor + shift + ((slot - first_slot) % num_lines) * line_size


def _find_base(
    cursor: int,
    windows: Sequence[Window],
    line_size: int,
    span: int,
    placed: Sequence[Window],
) -> Optional[int]:
    """First of :func:`_line_bases` whose windows clear everything placed.

    ``windows`` must be clear of each other and ``placed`` clear of each
    other, so only the cross pairs are checked.  Returns None when no
    base clears them.
    """
    for base in _line_bases(cursor, windows, line_size, span):
        if all(
            _pair_clear((base + offset) % span, width, start, placed_width,
                        line_size, span)
            for offset, width in windows
            for start, placed_width in placed
        ):
            return base
    return None
