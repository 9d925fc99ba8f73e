"""Intermediate representation for affine loop nests.

The benchmark kernels in the paper are perfectly nested loops whose array
subscripts are affine functions of the loop indices, e.g. the Compress
kernel::

    int a[32][32];
    for i = 1, 31:
        for j = 1, 31:
            a[i][j] = a[i][j] - a[i-1][j] - a[i][j-1] - 2*a[i-1][j-1];

Following Wolf and Lam's terminology (reference [9] of the paper), every
reference ``a[f(i)]`` with ``f(i) = H @ i + c`` is described by a linear part
``H`` (one row per array dimension, one column per loop index) and a constant
vector ``c``.  Two references are *uniformly generated* when they share the
same ``H``.  All of the Section 3 and Section 4.1 analyses operate on this
``(H, c)`` decomposition, so the IR stores subscripts symbolically as
:class:`AffineExpr` objects from which ``H`` and ``c`` are recovered exactly.

Loop bounds are *inclusive* on both ends, matching the paper's
``for i = 1, 31`` notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple, TypeVar, Union

__all__ = [
    "AffineExpr",
    "ArrayDecl",
    "ArrayRef",
    "Loop",
    "LoopNest",
    "const",
    "var",
]

#: Anything accepted where an affine expression is expected.
ExprLike = Union["AffineExpr", int, str]

_T = TypeVar("_T")


@dataclass(frozen=True)
class AffineExpr:
    """An affine expression ``sum(coeff_k * index_k) + constant``.

    ``coeffs`` maps loop-index names to integer coefficients; indices with a
    zero coefficient are never stored.  Instances are immutable and support
    ``+``, ``-`` and multiplication by integers, so subscripts can be written
    naturally::

        i, j = var("i"), var("j")
        expr = 2 * i - j + 3
    """

    coeffs: Tuple[Tuple[str, int], ...] = ()
    constant: int = 0

    @staticmethod
    def coerce(value: ExprLike) -> "AffineExpr":
        """Convert an int (constant) or str (index name) to an expression."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, int):
            return AffineExpr((), value)
        if isinstance(value, str):
            return AffineExpr(((value, 1),), 0)
        raise TypeError(f"cannot interpret {value!r} as an affine expression")

    @staticmethod
    def _normalize(coeffs: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))

    def coeff(self, index: str) -> int:
        """Coefficient of loop index ``index`` (0 if absent)."""
        return dict(self.coeffs).get(index, 0)

    @property
    def indices(self) -> Tuple[str, ...]:
        """Names of the loop indices appearing with non-zero coefficient."""
        return tuple(name for name, _ in self.coeffs)

    def is_constant(self) -> bool:
        """True when the expression does not depend on any loop index."""
        return not self.coeffs

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate at a concrete iteration point ``env``."""
        return self.constant + sum(c * env[name] for name, c in self.coeffs)

    def row(self, index_order: Sequence[str]) -> Tuple[int, ...]:
        """The row of the ``H`` matrix for this subscript dimension."""
        lookup = dict(self.coeffs)
        return tuple(lookup.get(name, 0) for name in index_order)

    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        merged: Dict[str, int] = dict(self.coeffs)
        for name, c in other.coeffs:
            merged[name] = merged.get(name, 0) + c
        return AffineExpr(self._normalize(merged), self.constant + other.constant)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(
            tuple((name, -c) for name, c in self.coeffs), -self.constant
        )

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self + (-AffineExpr.coerce(other))

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return AffineExpr.coerce(other) + (-self)

    def __mul__(self, scalar: int) -> "AffineExpr":
        if not isinstance(scalar, int):
            raise TypeError("affine expressions only scale by integers")
        return AffineExpr(
            self._normalize({name: c * scalar for name, c in self.coeffs}),
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = [f"{c}*{name}" if c != 1 else name for name, c in self.coeffs]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


def var(name: str) -> AffineExpr:
    """A loop-index variable as an affine expression."""
    return AffineExpr(((name, 1),), 0)


def const(value: int) -> AffineExpr:
    """An integer constant as an affine expression."""
    return AffineExpr((), value)


@dataclass(frozen=True)
class ArrayDecl:
    """Declaration of a multi-dimensional array.

    ``dims`` are the logical extents (row-major), ``element_size`` the size of
    one element in bytes.  The paper's examples address arrays at byte
    granularity with 1-byte elements (``a[1][0]`` of a 32-wide array sits at
    address 32), which we keep as the default.
    """

    name: str
    dims: Tuple[int, ...]
    element_size: int = 1

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError(f"array {self.name!r} needs at least one dimension")
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"array {self.name!r} has non-positive extent")
        if self.element_size <= 0:
            raise ValueError(f"array {self.name!r} has non-positive element size")

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    @property
    def size_elements(self) -> int:
        """Total number of elements."""
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def size_bytes(self) -> int:
        """Total footprint in bytes with a dense row-major layout."""
        return self.size_elements * self.element_size

    def row_major_strides(self) -> Tuple[int, ...]:
        """Element strides of a dense row-major layout, one per dimension."""
        strides = [1] * self.rank
        for d in range(self.rank - 2, -1, -1):
            strides[d] = strides[d + 1] * self.dims[d + 1]
        return tuple(strides)


@dataclass(frozen=True)
class ArrayRef:
    """A single array reference ``array[e_0][e_1]...`` inside the nest body.

    ``is_write`` distinguishes stores from loads.  The energy model of the
    paper only charges READ traffic ("reads dominate processor cache
    accesses"), but the cache simulator tracks both.
    """

    array: str
    indices: Tuple[AffineExpr, ...]
    is_write: bool = False

    def __post_init__(self) -> None:
        coerced = tuple(AffineExpr.coerce(e) for e in self.indices)
        object.__setattr__(self, "indices", coerced)

    @property
    def rank(self) -> int:
        """Number of subscript dimensions."""
        return len(self.indices)

    def linear_matrix(self, index_order: Sequence[str]) -> Tuple[Tuple[int, ...], ...]:
        """The ``H`` matrix of the reference for the given loop-index order."""
        return tuple(expr.row(index_order) for expr in self.indices)

    def constant_vector(self) -> Tuple[int, ...]:
        """The constant vector ``c`` of the reference."""
        return tuple(expr.constant for expr in self.indices)

    def evaluate(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        """Concrete subscripts at iteration point ``env``."""
        return tuple(expr.evaluate(env) for expr in self.indices)

    def __str__(self) -> str:
        subs = "".join(f"[{e}]" for e in self.indices)
        tag = " (write)" if self.is_write else ""
        return f"{self.array}{subs}{tag}"


@dataclass(frozen=True)
class Loop:
    """One loop level with inclusive bounds: ``for index = lower, upper``."""

    index: str
    lower: int
    upper: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"loop {self.index!r}: step must be positive")
        if self.upper < self.lower:
            raise ValueError(
                f"loop {self.index!r}: empty range {self.lower}..{self.upper}"
            )

    @property
    def trip_count(self) -> int:
        """Number of iterations of this level."""
        return (self.upper - self.lower) // self.step + 1

    def values(self) -> range:
        """The iteration values as a :class:`range` (upper bound inclusive)."""
        return range(self.lower, self.upper + 1, self.step)


@dataclass(frozen=True)
class LoopNest:
    """A perfectly nested affine loop with a flat body of array references.

    ``refs`` are listed in program order; one "iteration" of the nest touches
    each reference once, so the total number of memory accesses is
    ``iterations * len(refs)``.
    """

    name: str
    loops: Tuple[Loop, ...]
    refs: Tuple[ArrayRef, ...]
    arrays: Tuple[ArrayDecl, ...]
    description: str = ""

    def __post_init__(self) -> None:
        names = [loop.index for loop in self.loops]
        if len(set(names)) != len(names):
            raise ValueError(f"nest {self.name!r}: duplicate loop index names")
        decls = {a.name for a in self.arrays}
        if len(decls) != len(self.arrays):
            raise ValueError(f"nest {self.name!r}: duplicate array declarations")
        for ref in self.refs:
            if ref.array not in decls:
                raise ValueError(
                    f"nest {self.name!r}: reference to undeclared array {ref.array!r}"
                )
            decl = self.array(ref.array)
            if ref.rank != decl.rank:
                raise ValueError(
                    f"nest {self.name!r}: {ref} has rank {ref.rank}, "
                    f"array {decl.name!r} has rank {decl.rank}"
                )
            for expr in ref.indices:
                unknown = set(expr.indices) - set(names)
                if unknown:
                    raise ValueError(
                        f"nest {self.name!r}: {ref} uses unknown indices {unknown}"
                    )

    @property
    def index_order(self) -> Tuple[str, ...]:
        """Loop-index names, outermost first."""
        return tuple(loop.index for loop in self.loops)

    @property
    def iterations(self) -> int:
        """Total number of iterations of the innermost body."""
        n = 1
        for loop in self.loops:
            n *= loop.trip_count
        return n

    @property
    def accesses(self) -> int:
        """Total memory accesses performed by one execution of the nest."""
        return self.iterations * len(self.refs)

    def array(self, name: str) -> ArrayDecl:
        """Look up an array declaration by name."""
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(f"nest {self.name!r} declares no array {name!r}")

    @property
    def reads(self) -> Tuple[ArrayRef, ...]:
        """The read references, in program order."""
        return tuple(ref for ref in self.refs if not ref.is_write)

    @property
    def writes(self) -> Tuple[ArrayRef, ...]:
        """The write references, in program order."""
        return tuple(ref for ref in self.refs if ref.is_write)

    def loop(self, index: str) -> Loop:
        """Look up a loop level by its index name."""
        for lp in self.loops:
            if lp.index == index:
                return lp
        raise KeyError(f"nest {self.name!r} has no loop index {index!r}")

    def analysis(self, compute: Callable[["LoopNest"], _T]) -> _T:
        """``compute(self)``, computed once per nest instance.

        For the geometry-free analyses that the Section 4.1 search and
        trace generation would otherwise repeat for every cache geometry
        (reference grouping, compatibility, each reference's ``H`` and
        ``c``).  ``compute`` must be a pure function of the nest, and its
        result must not be mutated.  The results are kept in the instance
        dict, keyed by ``compute``: they are not fields, so ``==``, hashing
        and ``repr`` ignore them, and ``__getstate__`` leaves them out of
        pickles and copies.  Threads racing on a fresh nest may each
        compute a result; being pure, the results are equal.
        """
        memo = self.__dict__.get("_analyses")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_analyses", memo)
        try:
            return memo[compute]
        except KeyError:
            value = memo[compute] = compute(self)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_analyses", None)
        return state

    def __str__(self) -> str:
        header = ", ".join(
            f"{lp.index}={lp.lower}..{lp.upper}" for lp in self.loops
        )
        body = "; ".join(str(ref) for ref in self.refs)
        return f"{self.name}: for [{header}] {{ {body} }}"
