"""Tests for Gray coding and bus switching measurement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.bus import (
    address_bus_switching,
    bus_switching,
    gray_decode,
    gray_encode,
    hamming_distance,
)


class TestGrayCode:
    def test_known_values(self):
        # Classic 3-bit reflected Gray sequence.
        assert [gray_encode(n) for n in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gray_encode(-1)
        with pytest.raises(ValueError):
            gray_decode(-1)

    @given(st.integers(0, 2 ** 40))
    @settings(max_examples=200, deadline=None)
    def test_decode_inverts_encode(self, n):
        assert gray_decode(gray_encode(n)) == n

    @given(st.integers(0, 2 ** 40))
    @settings(max_examples=200, deadline=None)
    def test_adjacent_codes_differ_in_one_bit(self, n):
        """The defining property: consecutive integers flip exactly one bit."""
        assert hamming_distance(gray_encode(n), gray_encode(n + 1)) == 1

    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    @settings(max_examples=100, deadline=None)
    def test_gray_is_injective(self, a, b):
        if a != b:
            assert gray_encode(a) != gray_encode(b)


class TestHamming:
    def test_basics(self):
        assert hamming_distance(0, 0) == 0
        assert hamming_distance(0b1010, 0b0101) == 4
        assert hamming_distance(255, 254) == 1


class TestBusSwitching:
    def test_sequential_gray_stream_switches_one_bit(self):
        """Gray coding makes a sequential address stream switch 1 bit/step."""
        assert bus_switching(list(range(100)), gray=True) == pytest.approx(1.0)

    def test_sequential_binary_stream_switches_more(self):
        binary = bus_switching(list(range(100)), gray=False)
        assert binary > 1.5  # average ~2 for counting

    def test_constant_stream_switches_nothing(self):
        assert bus_switching([7] * 10) == 0.0

    def test_short_streams(self):
        assert bus_switching([]) == 0.0
        assert bus_switching([3]) == 0.0

    def test_two_word_stream(self):
        # 0 -> 1 in Gray: one flip.
        assert bus_switching([0, 1], gray=True) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bus_switching([-1, 2])
        with pytest.raises(ValueError):
            bus_switching([[1, 2]])

    def test_address_alias(self):
        stream = [0, 4, 8, 12]
        assert address_bus_switching(stream) == bus_switching(stream)

    @given(st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_switching_non_negative_and_bounded(self, words):
        value = bus_switching(words, gray=True)
        assert 0.0 <= value <= 64.0


class TestSwitchingOracle:
    """``bus_switching`` against per-transition ``hamming_distance``."""

    @staticmethod
    def reference(words, gray):
        codes = [gray_encode(w) if gray else w for w in words]
        flips = [hamming_distance(a, b) for a, b in zip(codes, codes[1:])]
        return sum(flips) / len(flips) if flips else 0.0

    @given(
        st.lists(st.integers(0, 2 ** 62), max_size=80),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_hamming_mean_exactly(self, words, gray):
        assert bus_switching(words, gray=gray) == self.reference(words, gray)

    @pytest.mark.parametrize("gray", [True, False])
    @pytest.mark.parametrize(
        "words",
        [[], [2 ** 62], [0, 2 ** 62 - 1], [2 ** 40 + 5, 2 ** 33]],
    )
    def test_short_streams_match_exactly(self, words, gray):
        assert bus_switching(words, gray=gray) == self.reference(words, gray)

    def test_high_bits_counted(self):
        # Bits above 32 flip too: 0 -> 2**62 - 1 switches 62 lines.
        assert bus_switching([0, 2 ** 62 - 1], gray=False) == 62.0
