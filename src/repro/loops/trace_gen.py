"""Exact address-trace generation from a loop nest.

One execution of the nest visits every iteration point in order and, at each
point, touches every :class:`~repro.loops.ir.ArrayRef` in program order.  The
byte address of a reference at iteration ``i`` under a
:class:`~repro.layout.address_map.DataLayout` is::

    base + element_size * sum_d pitch_d * (H[d] @ i + c_d)

Because everything is affine, the whole trace is computed with one
matrix-vector product per reference: the per-dimension pitches fold ``H``
into a single coefficient vector over the loop indices.  Each reference's
``H`` and ``c`` do not depend on the layout, so they are built once per
nest instance (:meth:`~repro.loops.ir.LoopNest.analysis`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cache.trace import MemoryTrace
from repro.layout.address_map import DataLayout, default_layout
from repro.loops.ir import LoopNest
from repro.loops.tiling import iteration_space, tiled_iteration_space

__all__ = ["generate_trace", "iteration_space", "ref_addresses"]


def _affine_parts(nest: LoopNest) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Each reference's ``(H, c)`` as read-only int64 arrays, in order."""
    parts = []
    for ref in nest.refs:
        h_matrix = np.asarray(
            ref.linear_matrix(nest.index_order), dtype=np.int64
        )
        c_vector = np.asarray(ref.constant_vector(), dtype=np.int64)
        h_matrix.flags.writeable = False
        c_vector.flags.writeable = False
        parts.append((h_matrix, c_vector))
    return tuple(parts)


def ref_addresses(
    nest: LoopNest,
    ref_index: int,
    layout: DataLayout,
    iterations: np.ndarray,
) -> np.ndarray:
    """Byte addresses touched by one reference across ``iterations``."""
    placement = layout.placement(nest.refs[ref_index].array)
    h_matrix, c_vector = nest.analysis(_affine_parts)[ref_index]
    pitches = np.asarray(placement.pitches, dtype=np.int64)
    coeffs = pitches @ h_matrix  # one coefficient per loop index
    offset = int(pitches @ c_vector)
    element_offsets = iterations @ coeffs + offset
    return placement.base + placement.element_size * element_offsets


def generate_trace(
    nest: LoopNest,
    layout: Optional[DataLayout] = None,
    tile: int = 1,
    n_tiled: Optional[int] = None,
    repeat: int = 1,
) -> MemoryTrace:
    """The full access trace of ``repeat`` executions of ``nest``.

    Parameters
    ----------
    layout:
        Off-chip placement; defaults to the unoptimized dense layout.
    tile:
        Tiling size ``B`` (1 = untiled); ``n_tiled`` selects how many of the
        innermost loops are tiled (all by default).
    repeat:
        Number of back-to-back executions (kernel invocation count in the
        Section 5 composite-program model).
    """
    if repeat <= 0:
        raise ValueError("repeat count must be positive")
    if layout is None:
        layout = default_layout(nest)
    iterations = tiled_iteration_space(nest.loops, tile, n_tiled)

    n_iter = iterations.shape[0]
    n_refs = len(nest.refs)
    columns = [
        ref_addresses(nest, r, layout, iterations) for r in range(n_refs)
    ]
    addresses = np.stack(columns, axis=1).reshape(-1)
    is_write = np.tile(
        np.asarray([ref.is_write for ref in nest.refs], dtype=bool), n_iter
    )
    ref_ids = np.tile(np.arange(n_refs, dtype=np.int32), n_iter)
    if repeat > 1:
        addresses = np.tile(addresses, repeat)
        is_write = np.tile(is_write, repeat)
        ref_ids = np.tile(ref_ids, repeat)
    if addresses.size and addresses.min() < 0:
        raise ValueError(
            f"nest {nest.name!r}: negative address generated -- check loop "
            "bounds against array extents"
        )
    return MemoryTrace(addresses, is_write, ref_ids)
