"""Code generation: turn an explored configuration back into source code.

The exploration's deliverable is not a number but a *program*: the kernel
rewritten with the padded arrays of the Section 4.1 assignment and the
tiled loops of Section 4.2.  This module emits that program two ways:

* :func:`generate_c` -- C source a firmware engineer can drop into the
  build: flat padded arrays with index macros, tiled loop headers with the
  paper's ``min(ti+B-1, n)`` clipping;
* :func:`generate_python` -- an executable Python equivalent whose run
  *records the byte addresses it touches*, so the test suite can execute
  the generated code and assert its trace is byte-identical to the
  analytical :func:`~repro.loops.trace_gen.generate_trace` -- codegen
  verified by execution, not by eyeballing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.layout.address_map import DataLayout, default_layout
from repro.loops.ir import AffineExpr, ArrayRef, LoopNest

__all__ = ["generate_c", "generate_python", "run_generated"]


def _expr_to_source(expr: AffineExpr) -> str:
    parts: List[str] = []
    for name, coeff in expr.coeffs:
        if coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{coeff}*{name}")
    if expr.constant or not parts:
        parts.append(str(expr.constant))
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def _flat_index(nest: LoopNest, ref: ArrayRef, layout: DataLayout) -> str:
    placement = layout.placement(ref.array)
    terms = []
    for pitch, expr in zip(placement.pitches, ref.indices):
        inner = _expr_to_source(expr)
        if pitch == 1:
            terms.append(f"({inner})")
        else:
            terms.append(f"{pitch}*({inner})")
    return " + ".join(terms)


def generate_c(
    nest: LoopNest,
    layout: Optional[DataLayout] = None,
    tile: int = 1,
    n_tiled: Optional[int] = None,
    element_type: str = "int",
) -> str:
    """C source for the nest under ``layout``, tiled by ``tile``.

    Arrays are emitted as flat buffers sized to their padded extents, so
    the padding of the Section 4.1 assignment is realised exactly; the
    body indexes them through the padded pitches.
    """
    if layout is None:
        layout = default_layout(nest)
    if n_tiled is None:
        n_tiled = len(nest.loops)
    if tile < 1:
        raise ValueError("tiling size must be positive")
    lines: List[str] = [f"/* {nest.name}: generated by repro.loops.codegen */"]
    for decl in nest.arrays:
        placement = layout.placement(decl.name)
        extent = placement.extent_bytes(decl.dims) // decl.element_size
        lines.append(f"{element_type} {decl.name}[{extent}];  /* padded */")
    lines.append("")
    lines.append(f"void {nest.name}(void) {{")
    indent = "    "
    depth = 1
    tiled_start = len(nest.loops) - n_tiled
    outer = nest.loops[:tiled_start]
    tiled = nest.loops[tiled_start:]
    # Untiled outer loops first, then the tile-control loops, then the
    # clipped element loops -- the order tiled_iteration_space() produces.
    for loop in outer:
        lines.append(
            f"{indent * depth}for (int {loop.index} = {loop.lower}; "
            f"{loop.index} <= {loop.upper}; {loop.index} += {loop.step}) {{"
        )
        depth += 1
    if tile > 1:
        for loop in tiled:
            lines.append(
                f"{indent * depth}for (int t{loop.index} = {loop.lower}; "
                f"t{loop.index} <= {loop.upper}; "
                f"t{loop.index} += {tile * loop.step}) {{"
            )
            depth += 1
    for loop in tiled:
        if tile > 1:
            upper = (
                f"(t{loop.index} + {(tile - 1) * loop.step} < {loop.upper} ? "
                f"t{loop.index} + {(tile - 1) * loop.step} : {loop.upper})"
            )
            lines.append(
                f"{indent * depth}for (int {loop.index} = t{loop.index}; "
                f"{loop.index} <= {upper}; {loop.index} += {loop.step}) {{"
            )
        else:
            lines.append(
                f"{indent * depth}for (int {loop.index} = {loop.lower}; "
                f"{loop.index} <= {loop.upper}; {loop.index} += {loop.step}) {{"
            )
        depth += 1
    body = indent * depth
    reads = [r for r in nest.refs if not r.is_write]
    writes = [r for r in nest.refs if r.is_write]
    if writes:
        target = writes[0]
        rhs = " + ".join(
            f"{r.array}[{_flat_index(nest, r, layout)}]" for r in reads
        ) or "0"
        lines.append(
            f"{body}{target.array}[{_flat_index(nest, target, layout)}] = {rhs};"
        )
    else:
        for r in reads:
            lines.append(f"{body}(void){r.array}[{_flat_index(nest, r, layout)}];")
    while depth > 1:
        depth -= 1
        lines.append(f"{indent * depth}}}")
    lines.append("}")
    return "\n".join(lines)


def generate_python(
    nest: LoopNest,
    layout: Optional[DataLayout] = None,
    tile: int = 1,
    n_tiled: Optional[int] = None,
) -> str:
    """Executable Python mirroring the generated C.

    The emitted function takes a ``record(address)`` callback and invokes
    it with the byte address of every reference in program order --
    executing it replays exactly the trace the analytic generator predicts
    (asserted by :func:`run_generated`'s tests).
    """
    if layout is None:
        layout = default_layout(nest)
    if n_tiled is None:
        n_tiled = len(nest.loops)
    if tile < 1:
        raise ValueError("tiling size must be positive")
    lines: List[str] = [f"def {nest.name}(record):"]
    indent = "    "
    depth = 1
    tiled_start = len(nest.loops) - n_tiled
    outer = nest.loops[:tiled_start]
    tiled = nest.loops[tiled_start:]
    for loop in outer:
        lines.append(
            f"{indent * depth}for {loop.index} in range({loop.lower}, "
            f"{loop.upper + 1}, {loop.step}):"
        )
        depth += 1
    if tile > 1:
        for loop in tiled:
            lines.append(
                f"{indent * depth}for t{loop.index} in range({loop.lower}, "
                f"{loop.upper + 1}, {tile * loop.step}):"
            )
            depth += 1
    for loop in tiled:
        if tile > 1:
            lines.append(
                f"{indent * depth}for {loop.index} in range(t{loop.index}, "
                f"min(t{loop.index} + {(tile - 1) * loop.step}, "
                f"{loop.upper}) + 1, {loop.step}):"
            )
        else:
            lines.append(
                f"{indent * depth}for {loop.index} in range({loop.lower}, "
                f"{loop.upper + 1}, {loop.step}):"
            )
        depth += 1
    body = indent * depth
    for ref in nest.refs:
        placement = layout.placement(ref.array)
        offset = _flat_index(nest, ref, layout)
        lines.append(
            f"{body}record({placement.base} + "
            f"{placement.element_size}*({offset}))"
        )
    return "\n".join(lines)


def run_generated(
    nest: LoopNest,
    layout: Optional[DataLayout] = None,
    tile: int = 1,
    n_tiled: Optional[int] = None,
) -> List[int]:
    """Execute the generated Python and return the recorded addresses."""
    source = generate_python(nest, layout=layout, tile=tile, n_tiled=n_tiled)
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 -- executing our own codegen
    addresses: List[int] = []
    namespace[nest.name](addresses.append)
    return addresses
