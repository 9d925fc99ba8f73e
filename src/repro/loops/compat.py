"""Section 4.1: compatibility of array access patterns.

The paper calls two access patterns *compatible* "if the difference in the
accesses is independent of the loop index": ``a[i]`` and ``a[i-2]`` are
compatible, ``a[i]`` and ``a[b[i]]`` are not.  For affine references this is
exactly "same linear part ``H``" -- the difference of two affine accesses
``(H i + c1) - (H i + c2) = c1 - c2`` is index-independent iff the linear
parts cancel.

When *all* accesses of a nest are pairwise compatible (one shared ``H``, as
in Compress and Matrix Addition), a suitable off-chip layout eliminates
conflict misses completely; when they are not (Matrix Multiplication mixes
``[i,k]``, ``[k,j]`` and ``[i,j]``), layout can only reduce conflicts.
"""

from __future__ import annotations

from typing import Sequence

from repro.loops.ir import ArrayRef, LoopNest

__all__ = ["are_compatible", "nest_is_compatible"]


def are_compatible(
    ref_a: ArrayRef, ref_b: ArrayRef, index_order: Sequence[str]
) -> bool:
    """True when the two references share the same linear part ``H``.

    References of different rank (arrays of different dimensionality) are
    never compatible: their access differences are not even comparable.
    """
    if ref_a.rank != ref_b.rank:
        return False
    return ref_a.linear_matrix(index_order) == ref_b.linear_matrix(index_order)


def nest_is_compatible(nest: LoopNest) -> bool:
    """True when every pair of references in the nest is compatible.

    This is the precondition under which the Section 4.1 assignment
    guarantees *complete* elimination of conflict misses (verified by an
    integration test against the simulator's 3C classification).  The
    answer is computed once per nest instance (:meth:`LoopNest.analysis`).
    """
    return nest.analysis(_all_compatible)


def _all_compatible(nest: LoopNest) -> bool:
    refs = nest.refs
    if len(refs) <= 1:
        return True
    order = nest.index_order
    first = refs[0]
    return all(are_compatible(first, ref, order) for ref in refs[1:])
