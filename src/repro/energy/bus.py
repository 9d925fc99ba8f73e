"""Gray-code address encoding and bus switching activity.

"In the computation of address bus switching, we have assumed Gray code
encoding of the address lines" (Section 2.3).  Gray encoding guarantees that
consecutive integers differ in exactly one bit, which is why it was the
standard low-power bus encoding for the sequential-heavy address streams of
embedded kernels.  This module provides the codec plus measured switching
statistics over real traces; the measured average feeds the model's
``Add_bs`` term.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "address_bus_switching",
    "bus_switching",
    "gray_decode",
    "gray_encode",
    "hamming_distance",
]


def gray_encode(value: int) -> int:
    """Reflected-binary Gray code of a non-negative integer."""
    if value < 0:
        raise ValueError("Gray code is defined for non-negative integers")
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_encode`."""
    if code < 0:
        raise ValueError("Gray code is defined for non-negative integers")
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two non-negative integers."""
    return bin(a ^ b).count("1")


def _gray_array(values: np.ndarray) -> np.ndarray:
    return values ^ (values >> 1)


def bus_switching(words: Sequence[int], gray: bool = True) -> float:
    """Average bit switches per transition of the given word stream.

    With ``gray`` set (the paper's assumption) words are Gray-encoded before
    measuring transitions.  Streams shorter than two words switch nothing.
    """
    values = np.asarray(words, dtype=np.int64)
    if values.ndim != 1:
        raise ValueError("bus word stream must be one-dimensional")
    if values.size and values.min() < 0:
        raise ValueError("bus words must be non-negative")
    if values.size < 2:
        return 0.0
    if gray:
        values = _gray_array(values)
    # Words are non-negative, so their XORs are too and np.bitwise_count
    # (which counts the bits of |x|) is the plain popcount.
    flips = np.bitwise_count(values[1:] ^ values[:-1])
    return float(flips.mean())


def address_bus_switching(addresses: Sequence[int], gray: bool = True) -> float:
    """Average address-bus bit switches per access (the model's ``Add_bs``).

    The paper quotes switching "per instruction"; in this data-cache setting
    every trace entry is one data access, so the average is per access.
    """
    return bus_switching(addresses, gray=gray)
