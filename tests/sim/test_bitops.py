"""Unit and property tests for packed bit-vector helpers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    bit_get,
    bit_set,
    ones_mask,
    pack_bits,
    pack_patterns,
    popcount,
    random_word,
    unpack_bits,
    unpack_patterns,
    weighted_random_word,
)


class TestMasks:
    def test_ones_mask(self):
        assert ones_mask(0) == 0
        assert ones_mask(1) == 1
        assert ones_mask(8) == 255

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ones_mask(-1)


class TestBitAccess:
    def test_get_set(self):
        w = 0b1010
        assert bit_get(w, 1) == 1
        assert bit_get(w, 0) == 0
        assert bit_set(w, 0, 1) == 0b1011
        assert bit_set(w, 3, 0) == 0b0010
        assert bit_set(w, 1, 1) == w  # already set

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(ones_mask(100)) == 100


class TestPacking:
    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_pack_unpack_roundtrip(self, bits):
        word = pack_bits(bits)
        assert unpack_bits(word, len(bits)) == bits

    def test_pack_patterns_transposes(self):
        patterns = [[1, 0], [0, 1], [1, 1]]
        words = pack_patterns(patterns, 2)
        assert words[0] == 0b101  # signal 0: patterns 0, 2
        assert words[1] == 0b110  # signal 1: patterns 1, 2

    def test_pack_patterns_shape_check(self):
        with pytest.raises(ValueError):
            pack_patterns([[1, 0], [1]], 2)

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3),
            max_size=16,
        )
    )
    def test_pack_unpack_patterns_roundtrip(self, patterns):
        words = pack_patterns(patterns, 3)
        assert unpack_patterns(words, len(patterns)) == patterns


class TestNdarrayBridge:
    """uint64 ndarray ↔ bignum word bridge used by the numpy backend."""

    import numpy as np

    @given(st.integers(0, (1 << 200) - 1), st.integers(0, 200))
    def test_word_roundtrip(self, word, n_patterns):
        from repro.sim import ndarray_to_word, ones_mask, word_to_ndarray

        arr = word_to_ndarray(word, n_patterns)
        assert ndarray_to_word(arr) == word & ones_mask(n_patterns)

    @pytest.mark.parametrize("n_patterns", [0, 1, 63, 64, 65, 128, 129])
    def test_word_count_and_shape(self, n_patterns):
        from repro.sim import word_count, word_to_ndarray

        arr = word_to_ndarray(0, n_patterns)
        assert arr.shape == (word_count(n_patterns),)
        assert arr.dtype == self.np.dtype("<u8")

    def test_view_is_read_only(self):
        from repro.sim import word_to_ndarray

        arr = word_to_ndarray(0b1011, 64)
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 1

    def test_high_bits_masked(self):
        from repro.sim import ndarray_to_word, word_to_ndarray

        # Bits above n_patterns never leak into the array.
        assert ndarray_to_word(word_to_ndarray(0b111, 2)) == 0b11

    @given(st.lists(st.integers(0, 1), max_size=130))
    def test_pack_bits_ndarray_matches_bignum(self, bits):
        from repro.sim.bitops import (
            ndarray_to_word,
            pack_bits,
            pack_bits_ndarray,
            unpack_bits,
            unpack_bits_ndarray,
        )

        arr = pack_bits_ndarray(bits)
        assert ndarray_to_word(arr) == pack_bits(bits)
        assert unpack_bits_ndarray(arr, len(bits)) == bits
        assert unpack_bits(pack_bits(bits), len(bits)) == bits

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3),
            max_size=70,
        )
    )
    def test_pack_patterns_ndarray_matches_bignum(self, patterns):
        from repro.sim.bitops import (
            ndarray_to_word,
            pack_patterns,
            pack_patterns_ndarray,
            word_count,
        )

        mat = pack_patterns_ndarray(patterns, 3)
        words = pack_patterns(patterns, 3)
        assert mat.shape == (3, word_count(len(patterns)))
        for s in range(3):
            assert ndarray_to_word(mat[s]) == words[s]

    def test_pack_patterns_ndarray_shape_check(self):
        from repro.sim.bitops import pack_patterns_ndarray

        with pytest.raises(ValueError):
            pack_patterns_ndarray([[1, 0], [1]], 2)


class TestRandomWords:
    def test_deterministic_by_seed(self):
        a = random_word(128, random.Random(5))
        b = random_word(128, random.Random(5))
        assert a == b

    def test_bounded(self):
        w = random_word(64, random.Random(0))
        assert 0 <= w < (1 << 64)

    def test_zero_patterns(self):
        assert random_word(0, random.Random(0)) == 0
        assert weighted_random_word(0, 0.5, random.Random(0)) == 0

    @pytest.mark.parametrize("weight", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_weighted_word_statistics(self, weight):
        n = 1 << 14
        w = weighted_random_word(n, weight, random.Random(3))
        density = w.bit_count() / n
        assert density == pytest.approx(weight, abs=0.03)

    def test_weighted_extremes_exact(self):
        n = 256
        assert weighted_random_word(n, 0.0, random.Random(0)) == 0
        assert weighted_random_word(n, 1.0, random.Random(0)) == ones_mask(n)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            weighted_random_word(8, 1.5, random.Random(0))
