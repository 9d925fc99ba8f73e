"""Recorded Section 4.1 placements, compared exactly.

``tests/data/layout_golden.json`` holds ``(layout, slots, conflict_free)``
of ``Kernel.optimized_layout`` for every registered kernel over the grid
below.  Rewrites of the placement search must reproduce every record bit
for bit.  Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_layout_golden.py
"""

import json
from pathlib import Path

from repro.kernels import available_kernels, get_kernel

GOLDEN = Path(__file__).parent / "data" / "layout_golden.json"

CACHE_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)
LINE_SIZES = (2, 4, 8, 16, 32, 64)
GEOMETRIES = tuple(
    (size, line) for size in CACHE_SIZES for line in LINE_SIZES if line <= size
)


def record(kernel_name, cache_size, line_size):
    """JSON-ready ``(layout, slots, conflict_free)`` of one geometry."""
    result = get_kernel(kernel_name).optimized_layout(cache_size, line_size)
    return {
        "kernel": kernel_name,
        "cache_size": cache_size,
        "line_size": line_size,
        "layout": [
            [name, p.base, list(p.pitches), p.element_size]
            for name, p in result.layout.placements
        ],
        "slots": [list(slot) for slot in result.slots],
        "conflict_free": result.conflict_free,
    }


def all_records():
    return [
        record(name, size, line)
        for name in available_kernels()
        for size, line in GEOMETRIES
    ]


def test_grid_covers_every_registered_kernel():
    golden = json.loads(GOLDEN.read_text())
    assert len(GEOMETRIES) == 42
    assert {r["kernel"] for r in golden} == set(available_kernels())
    assert len(golden) == len(available_kernels()) * len(GEOMETRIES)


def test_placements_match_golden():
    golden = json.loads(GOLDEN.read_text())
    mismatches = [
        (want["kernel"], want["cache_size"], want["line_size"])
        for want, got in zip(golden, all_records())
        if want != got
    ]
    assert not mismatches


if __name__ == "__main__":
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in all_records()) + "\n]\n"
    )
