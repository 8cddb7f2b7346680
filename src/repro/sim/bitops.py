"""Packed bit-vector helpers for pattern-parallel simulation.

A *word* is an arbitrary-precision Python integer whose bit ``i`` carries a
signal's value under pattern ``i``.  Python's bignum kernel executes the
bitwise operators in C over the whole vector at once, so a single pass over
a levelized netlist simulates **all** patterns simultaneously — the
pattern-parallel trick that makes the pure-Python fault simulator workable
at benchmark scale (repro band note: "fault sim slower but workable").
"""

from __future__ import annotations

import random
from typing import Iterable, List

__all__ = [
    "ones_mask",
    "bit_get",
    "bit_set",
    "popcount",
    "random_word",
    "weighted_random_word",
    "pack_bits",
    "unpack_bits",
    "pack_patterns",
    "unpack_patterns",
    "split_word_blocks",
    "word_count",
]


def ones_mask(n_patterns: int) -> int:
    """Return a word with the low ``n_patterns`` bits set."""
    if n_patterns < 0:
        raise ValueError("pattern count cannot be negative")
    return (1 << n_patterns) - 1


def split_word_blocks(word: int, sizes: List[int]) -> List[int]:
    """Split ``word`` into consecutive blocks of ``sizes`` bits, low first.

    ``result[i]`` holds bits ``[offset_i, offset_i + sizes[i])`` of
    ``word`` shifted down to bit 0.  Blocks are peeled off **high end
    first**: a right shift only pays for the bits it keeps, so extracting
    the top block costs O(block) and masking the remainder costs O(rest) —
    with geometrically growing sizes the whole split is O(total bits),
    where the naive low-first ``(word >> offset) & mask`` scan would be
    O(total × blocks).
    """
    offsets = [0] * len(sizes)
    total = 0
    for i, size in enumerate(sizes):
        if size <= 0:
            raise ValueError("block sizes must be positive")
        offsets[i] = total
        total += size
    out = [0] * len(sizes)
    rem = word & ones_mask(total)
    for i in range(len(sizes) - 1, -1, -1):
        out[i] = rem >> offsets[i]
        rem &= ones_mask(offsets[i])
    return out


def bit_get(word: int, i: int) -> int:
    """Return bit ``i`` of ``word`` (0 or 1)."""
    return (word >> i) & 1


def bit_set(word: int, i: int, value: int) -> int:
    """Return ``word`` with bit ``i`` forced to ``value``."""
    if value:
        return word | (1 << i)
    return word & ~(1 << i)


def popcount(word: int) -> int:
    """Number of set bits in ``word``."""
    return word.bit_count()


def random_word(n_patterns: int, rng: random.Random) -> int:
    """Uniformly random ``n_patterns``-bit word (each bit fair)."""
    if n_patterns == 0:
        return 0
    return rng.getrandbits(n_patterns)


def weighted_random_word(n_patterns: int, weight: float, rng: random.Random) -> int:
    """Random word whose bits are 1 with probability ``weight``.

    Implemented by AND/OR-combining fair words to reach a dyadic
    approximation of ``weight`` with 8-bit resolution — far faster than a
    per-bit Bernoulli loop and statistically adequate for weighted-random
    test generation.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if n_patterns == 0:
        return 0
    # Build the dyadic expansion: start from the least significant bit of
    # the 8-bit fraction.  AND with a fair word halves the probability;
    # OR-ing in a fair word maps p -> (1+p)/2.
    frac = round(weight * 256)
    if frac <= 0:
        return 0
    if frac >= 256:
        return ones_mask(n_patterns)
    word = 0
    seen_one = False
    for bit_idx in range(8):  # LSB to MSB of the fraction
        bit = (frac >> bit_idx) & 1
        fair = random_word(n_patterns, rng)
        if not seen_one:
            if bit:
                word = fair
                seen_one = True
            continue
        if bit:
            word |= fair  # p -> (1 + p) / 2
        else:
            word &= fair  # p -> p / 2
    return word


def pack_bits(bits: Iterable[int]) -> int:
    """Pack an iterable of 0/1 values into a word (first bit = bit 0)."""
    word = 0
    for i, b in enumerate(bits):
        if b:
            word |= 1 << i
    return word


#: byte value -> its 8 bits, LSB first (drives the byte-at-a-time unpack).
_BYTE_BITS = [tuple((b >> i) & 1 for i in range(8)) for b in range(256)]


def unpack_bits(word: int, n_patterns: int) -> List[int]:
    """Expand a word into a list of 0/1 ints of length ``n_patterns``.

    Chunked through the bignum's byte export plus a 256-entry lookup
    table — eight bits per step instead of one shift-and-mask per bit.
    Negative words (infinite two's-complement bit strings) fall back to
    the per-bit scan.
    """
    if n_patterns <= 0:
        return []
    if word < 0:
        return [(word >> i) & 1 for i in range(n_patterns)]
    low = word & ((1 << n_patterns) - 1)
    bits: List[int] = []
    table = _BYTE_BITS
    for byte in low.to_bytes((n_patterns + 7) >> 3, "little"):
        bits.extend(table[byte])
    del bits[n_patterns:]
    return bits


def pack_patterns(patterns: List[List[int]], n_signals: int) -> List[int]:
    """Transpose pattern-major 0/1 matrices into signal-major packed words.

    ``patterns[p][s]`` is the value of signal ``s`` under pattern ``p``; the
    result has one word per signal with pattern ``p`` in bit ``p``.

    Bits are staged in per-signal bytearrays and converted once at the
    end: ``word |= 1 << p`` would copy the whole growing bignum per set
    bit (O(patterns²) bit-work per signal), while a bytearray store is
    O(1) and ``int.from_bytes`` is a single linear pass.
    """
    n_bytes = (len(patterns) + 7) >> 3
    buffers = [bytearray(n_bytes) for _ in range(n_signals)]
    for p, pattern in enumerate(patterns):
        if len(pattern) != n_signals:
            raise ValueError(
                f"pattern {p} has {len(pattern)} values; expected {n_signals}"
            )
        index = p >> 3
        bit = 1 << (p & 7)
        for s, value in enumerate(pattern):
            if value:
                buffers[s][index] |= bit
    return [int.from_bytes(buf, "little") for buf in buffers]


def unpack_patterns(words: List[int], n_patterns: int) -> List[List[int]]:
    """Inverse of :func:`pack_patterns`."""
    return [[(w >> p) & 1 for w in words] for p in range(n_patterns)]


# ---------------------------------------------------------------------------
# uint64 ndarray bridge (word-parallel numpy backend)
#
# The numpy backend stores each signal as a little-endian ``(n_words,)``
# uint64 vector: pattern ``i`` lives in bit ``i % 64`` of element ``i // 64``,
# so ``word == sum(arr[k] << (64 * k))``.  Both layouts export the same byte
# string (CPython bignums and ``<u8`` arrays are little-endian over bytes),
# so a conversion is a byte copy (:func:`repro.sim.npsim.words_to_rows`
# packs many words at once).
# ---------------------------------------------------------------------------


def word_count(n_patterns: int) -> int:
    """Number of 64-bit words needed to hold ``n_patterns`` pattern bits."""
    if n_patterns < 0:
        raise ValueError("pattern count cannot be negative")
    return (n_patterns + 63) >> 6
