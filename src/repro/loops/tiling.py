"""Tiling of the iteration space (Section 4.2).

Tiling "divides the iteration space into tiles and transforms the loop nest
to iterate over them" (Wolf & Lam).  The paper's Example 3 turns::

    for i = 1, n:               for ti = 1, n, 64:
        for j = 1, n:    into       for tj = 1, n, 64:
            a[i,j] = b[j,i]             for i = ti, min(ti+63, n):
                                            for j = tj, min(tj+63, n):
                                                a[i,j] = b[j,i]

Only the *order* of iterations changes -- the set of iteration points (and
hence the multiset of addresses referenced) is identical, which the property
tests assert.  This module produces the sequential and the tiled iteration
orders; the tiling size ``B`` is the paper's MemExplore parameter, with
``B = 1`` meaning "no tiling".
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.loops.ir import Loop, LoopNest

__all__ = [
    "iteration_space",
    "tile_nest",
    "tiled_iteration_points",
    "tiled_iteration_space",
]


def iteration_space(loops: Sequence[Loop]) -> np.ndarray:
    """Sequential iteration order as an ``(iterations, depth)`` int matrix."""
    if not loops:
        return np.zeros((1, 0), dtype=np.int64)
    axes = [np.arange(lp.lower, lp.upper + 1, lp.step, dtype=np.int64) for lp in loops]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def tiled_iteration_space(
    loops: Sequence[Loop],
    tile: int,
    n_tiled: Optional[int] = None,
) -> np.ndarray:
    """The tiled iteration order as an ``(iterations, depth)`` int matrix.

    ``tile`` is the tile edge length in iterations (the paper's ``B``);
    ``n_tiled`` selects how many of the *innermost* loops are tiled (all of
    them by default).  ``tile = 1`` degenerates to the original sequential
    order, and partial tiles at the upper bounds are clipped exactly as the
    ``min(ti+63, n)`` in the paper's example.

    The tiled nest visits the sequential points sorted by the outer indices,
    then by each tiled loop's tile number ``(i - lower) // (B * step)``;
    inside one tile the points keep their sequential order.  So the order
    is one stable ``np.lexsort`` of :func:`iteration_space` on those keys.
    """
    if tile <= 0:
        raise ValueError("tiling size must be positive")
    if n_tiled is None:
        n_tiled = len(loops)
    if not 0 <= n_tiled <= len(loops):
        raise ValueError(f"cannot tile {n_tiled} of {len(loops)} loops")
    space = iteration_space(loops)
    if tile == 1 or n_tiled == 0:
        return space
    split = len(loops) - n_tiled
    keys = [space[:, d] for d in range(split)]
    keys += [
        (space[:, d] - lp.lower) // (tile * lp.step)
        for d, lp in enumerate(loops[split:], start=split)
    ]
    # np.lexsort sorts by its last key first, and is stable.
    return space[np.lexsort(keys[::-1])]


def tiled_iteration_points(
    loops: Sequence[Loop],
    tile: int,
    n_tiled: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """The rows of :func:`tiled_iteration_space` as tuples, in order."""
    return map(tuple, tiled_iteration_space(loops, tile, n_tiled).tolist())


def tile_nest(nest: LoopNest, tile: int, n_tiled: Optional[int] = None) -> np.ndarray:
    """Tiled iteration order of a whole nest (see :func:`tiled_iteration_space`)."""
    return tiled_iteration_space(nest.loops, tile, n_tiled)
