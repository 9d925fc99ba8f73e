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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.layout.address_map import ArrayPlacement, DataLayout
from repro.loops.compat import nest_is_compatible
from repro.loops.ir import ArrayDecl, LoopNest
from repro.loops.reuse import ReferenceGroup, group_references

__all__ = ["AssignmentResult", "assign_offchip_layout"]


@dataclass(frozen=True)
class ByteWindow:
    """One group's instantaneous footprint: anchor byte offset and width.

    ``anchor_elements`` is relative to the array base (in elements, at the
    nest's first iteration point); ``width_bytes`` spans from the first to
    one past the last byte the group touches at one instant.
    """

    group: ReferenceGroup
    anchor_elements: int
    width_bytes: int


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of the off-chip assignment.

    ``layout`` is the padded placement; ``slots`` maps each group (keyed by
    the index of its first reference) to the cache-line slot its anchor
    occupies at the first iteration; ``conflict_free`` is True when the nest
    is compatible *and* every window got guarded separation, i.e. the
    paper's complete-elimination guarantee applies.
    """

    layout: DataLayout
    slots: Tuple[Tuple[int, int], ...]
    conflict_free: bool
    cache_lines: int
    line_size: int

    def slot_of(self, first_ref_index: int) -> int:
        """Line slot of the group anchored at ``first_ref_index``."""
        for ref, slot in self.slots:
            if ref == first_ref_index:
                return slot
        raise KeyError(f"no group anchored at reference {first_ref_index}")


def _pitches_with_row(decl: ArrayDecl, row_pitch: int) -> Tuple[int, ...]:
    """Row-major pitches with the outermost dimension padded to ``row_pitch``."""
    dense = list(decl.row_major_strides())
    if decl.rank == 1:
        return tuple(dense)
    if row_pitch < dense[0]:
        raise ValueError("row pitch below dense stride would fold rows")
    padded = list(dense)
    padded[0] = row_pitch
    return tuple(padded)


@dataclass(frozen=True)
class _GroupShape:
    """The pitch-independent part of one group's windows.

    ``subscripts`` holds each reference's subscripts at the nest's first
    iteration point; ``slopes`` the first reference's innermost-loop
    coefficient per dimension.  Offsets and slides under any pitches are
    their dot products with the pitches.
    """

    group: ReferenceGroup
    subscripts: Tuple[Tuple[int, ...], ...]
    slopes: Tuple[int, ...]


def _group_shapes(
    nest: LoopNest, groups: Sequence[ReferenceGroup]
) -> List[_GroupShape]:
    """Per-group subscripts and slopes, computed once per array."""
    first_point = {lp.index: lp.lower for lp in nest.loops}
    innermost = nest.loops[-1].index if nest.loops else None
    shapes = []
    for group in groups:
        subscripts = tuple(
            nest.refs[ref_index].evaluate(first_point)
            for ref_index in group.ref_indices
        )
        ref = nest.refs[group.ref_indices[0]]
        slopes = tuple(
            expr.coeff(innermost) if innermost is not None else 0
            for expr in ref.indices
        )
        shapes.append(_GroupShape(group, subscripts, slopes))
    return shapes


def _group_windows(
    nest: LoopNest,
    shapes: Sequence[_GroupShape],
    decl: ArrayDecl,
    pitches: Sequence[int],
    sweep: bool,
) -> List[ByteWindow]:
    """Byte windows of one array's groups under the given pitches.

    Anchors are evaluated at the nest's first iteration point with the
    padded pitches, so row padding moves the windows exactly as it moves
    the addresses.

    With ``sweep`` set, a window covers the group's entire innermost-loop
    *sweep range* (its instantaneous extent plus the distance it slides
    during one sweep).  Sweep ranges protect a class's trail -- lines
    already passed this sweep that will be reused after the outer loop
    advances -- from other classes crossing them.  Without it, the window
    is the instantaneous extent only (the fallback criterion for caches
    too small to hold sweep ranges, where no trail survives anyway).
    """
    innermost = nest.loops[-1] if nest.loops else None
    windows = []
    for shape in shapes:
        offsets = [
            sum(p * s for p, s in zip(pitches, subscripts))
            for subscripts in shape.subscripts
        ]
        anchor = min(offsets)
        width = (max(offsets) - anchor + 1) * decl.element_size
        if sweep and innermost is not None:
            delta = sum(p * c for p, c in zip(pitches, shape.slopes))
            slide = abs(delta) * decl.element_size * innermost.step
            width += (innermost.trip_count - 1) * slide
            if delta < 0:
                anchor -= (innermost.trip_count - 1) * abs(delta)
        windows.append(ByteWindow(shape.group, anchor, width))
    return windows


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
    n = len(intervals)
    for i in range(n):
        start_i, width_i = intervals[i]
        end_i = start_i + width_i - 1
        for j in range(i + 1, n):
            start_j, width_j = intervals[j]
            end_j = start_j + width_j - 1
            if width_i + width_j > span:
                return False  # they must overlap somewhere on the circle
            if (start_j - start_i) % span < width_i:
                return False  # j starts inside i
            if (start_i - start_j) % span < width_j:
                return False  # i starts inside j
            forward = (start_j - end_i) % span
            backward = (start_i - end_j) % span
            if forward < line_size or backward < line_size:
                return False
    return True


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
        cache span, which always contains a coherent candidate).
    verify:
        Certify the ``conflict_free`` flag by simulation (default): the
        flag is set only when the padded trace takes *exactly* as many
        misses direct-mapped as fully associative at this capacity.  With
        ``verify=False`` the flag reports the constructive sweep-range
        criterion only (sound but conservative).
    """
    if cache_size <= 0 or line_size <= 0 or cache_size % line_size:
        raise ValueError("cache size must be a positive multiple of line size")
    placements, slots, all_clear = _place(
        nest, cache_size, line_size, max_pitch_padding, sweep=True
    )
    if not all_clear:
        fallback_placements, fallback_slots, _ = _place(
            nest, cache_size, line_size, max_pitch_padding, sweep=False
        )
        placements, slots = fallback_placements, fallback_slots

    num_lines = cache_size // line_size
    layout = DataLayout.from_dict(placements)
    if nest_is_compatible(nest) and nest.refs:
        if verify:
            conflict_free = _verified_conflict_free(
                nest, layout, cache_size, line_size
            )
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
    )


def _verified_conflict_free(
    nest: LoopNest, layout: DataLayout, cache_size: int, line_size: int
) -> bool:
    """Simulation certificate: zero conflict misses in the 3C sense.

    A miss is a *conflict* miss when the direct-mapped cache takes it but a
    fully-associative LRU cache of the same capacity would not; the layout
    is certified when the direct-mapped miss count does not exceed the
    fully-associative one.  (A good padded placement can beat
    fully-associative LRU outright -- the indexed placement protects lines
    LRU would evict -- so equality is not required.)
    """
    from repro.cache.stackdist import grid_miss_counts
    from repro.loops.trace_gen import generate_trace

    trace = generate_trace(nest, layout=layout)
    num_lines = cache_size // line_size
    direct_mapped, fully_assoc = (num_lines, 1), (1, num_lines)
    counts = grid_miss_counts(
        trace.line_ids(line_size), trace.is_write, [direct_mapped, fully_assoc]
    )
    return counts[direct_mapped].misses <= counts[fully_assoc].misses


def _place(
    nest: LoopNest,
    cache_size: int,
    line_size: int,
    max_pitch_padding: Optional[int],
    sweep: bool,
) -> "tuple[Dict[str, ArrayPlacement], List[Tuple[int, int]], bool]":
    """One constructive placement pass (see :func:`assign_offchip_layout`)."""
    span = cache_size  # num_lines * line_size bytes
    num_lines = cache_size // line_size
    groups = group_references(nest)
    by_array: Dict[str, List[ReferenceGroup]] = {}
    for group in groups:
        by_array.setdefault(group.array, []).append(group)

    placements: Dict[str, ArrayPlacement] = {}
    slots: List[Tuple[int, int]] = []
    placed: List[Tuple[int, int]] = []  # (start mod span, width) intervals
    cursor = 0
    all_clear = True
    required_shift: Optional[int] = None

    for decl in nest.arrays:
        shapes = _group_shapes(nest, by_array.get(decl.name, []))
        if not shapes:
            # Array never referenced: dense placement, no constraints.
            placements[decl.name] = ArrayPlacement(
                cursor, decl.row_major_strides(), decl.element_size
            )
            cursor += decl.size_bytes
            continue

        dense_row = decl.row_major_strides()[0]
        if max_pitch_padding is None:
            pad_limit = max(span // decl.element_size, 1)
        else:
            pad_limit = max_pitch_padding

        chosen: Optional[Tuple[int, List[ByteWindow], int]] = None
        fallback: Optional[Tuple[int, List[ByteWindow], int]] = None
        pitch_candidates = []
        for extra in range(pad_limit + 1):
            row_pitch = dense_row + extra
            if (
                decl.rank >= 2
                and required_shift is not None
                and (decl.element_size * row_pitch) % span != required_shift
            ):
                continue
            # Prefer pitches that keep every window anchor line-aligned, as
            # the paper's walk-through does (Compress picks 36, not 35).
            aligned = (decl.element_size * row_pitch) % line_size == 0
            pitch_candidates.append((0 if aligned else 1, extra, row_pitch))
        for _, extra, row_pitch in sorted(pitch_candidates):
            pitches = _pitches_with_row(decl, row_pitch)
            windows = _group_windows(nest, shapes, decl, pitches, sweep)
            internal = [
                (decl.element_size * w.anchor_elements, w.width_bytes)
                for w in windows
            ]
            internally_ok = _intervals_clear(internal, line_size, span)
            base = _find_base(
                cursor, windows, decl, line_size, span, placed,
                require_clear=internally_ok,
            )
            if fallback is None and base is not None:
                fallback = (row_pitch, windows, base)
            if internally_ok and base is not None:
                chosen = (row_pitch, windows, base)
                break
            if decl.rank == 1:
                break  # 1D arrays have no pitch freedom

        if chosen is None:
            all_clear = False
            if fallback is None:
                fallback = (
                    dense_row,
                    _group_windows(
                        nest,
                        shapes,
                        decl,
                        _pitches_with_row(decl, dense_row),
                        sweep,
                    ),
                    cursor,
                )
            chosen = fallback

        row_pitch, windows, base = chosen
        for w in windows:
            start = (base + decl.element_size * w.anchor_elements) % span
            placed.append((start, w.width_bytes))
            slots.append((w.group.ref_indices[0], (start // line_size) % num_lines))
        if decl.rank >= 2 and required_shift is None:
            required_shift = (decl.element_size * row_pitch) % span
        pitches = _pitches_with_row(decl, row_pitch)
        placement = ArrayPlacement(base, pitches, decl.element_size)
        placements[decl.name] = placement
        cursor = base + placement.extent_bytes(decl.dims)

    if all_clear and not _intervals_clear(placed, line_size, span):
        all_clear = False
    return placements, slots, all_clear


def _find_base(
    cursor: int,
    windows: Sequence[ByteWindow],
    decl: ArrayDecl,
    line_size: int,
    span: int,
    placed: Sequence[Tuple[int, int]],
    require_clear: bool,
) -> Optional[int]:
    """Base >= cursor whose windows clear everything already placed.

    Candidate bases cover one full cache span at line granularity and are
    tried in order of the line slot the first window would land on --
    matching the paper's walk-throughs, which hand the next class the
    lowest free line (Matrix Addition: a -> line 0, b -> line 1, c -> line
    2).  Returns None when no clear base exists (only possible when
    ``require_clear`` is set).
    """
    element_size = decl.element_size
    candidates = []
    for step in range(span // line_size):
        base = cursor + step * line_size
        anchor = base + element_size * windows[0].anchor_elements
        misalign = anchor % line_size
        if misalign:
            base += line_size - misalign
            anchor += line_size - misalign
        candidates.append(((anchor % span) // line_size, base))
    if not require_clear:
        return min(candidates)[1] if candidates else cursor
    for _, base in sorted(candidates):
        trial = list(placed) + [
            ((base + element_size * w.anchor_elements) % span, w.width_bytes)
            for w in windows
        ]
        if _intervals_clear(trial, line_size, span):
            return base
    return None
