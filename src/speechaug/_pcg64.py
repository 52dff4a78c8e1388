"""numpy's ``Generator(PCG64(seed))`` replayed in plain Python, bit for bit:
SeedSequence's hash of the seed, the 128-bit LCG with its XSL-RR output and
Lemire's bounded integers, each as numpy's C code does it. A seed draws what
it draws under numpy, without numpy, and no numpy version can change that.

It is the package's one generator: the effect chain's per-utterance draws,
the weighted sampler and ``textaug --take-n``'s reservoir all come from it.
"""

from __future__ import annotations

import operator
from typing import Callable

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, multiplier: int) -> Callable[[int], int]:
    """SeedSequence's 32-bit hash, whose multiplier moves on at each call."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    seed = operator.index(seed)  # a TypeError for a float, as numpy gives
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # 32-bit words, least significant first; a seed of 0 is one word
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [generate(pool[i % 4]) for i in range(8)]
    # pairs of 32-bit words, read little-endian as 64-bit ones
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The draws of numpy's ``Generator(PCG64(seed))``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # from state 0: one step, add the initial state, one more step
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULTIPLIER + self._inc) & _MASK128
        self._half: int | None = None  # the high half of a word next32 split

    def next64(self) -> int:
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        word = (state >> 64) ^ (state & _MASK64)
        rotation = state >> 122
        return (word >> rotation | word << (64 - rotation)) & _MASK64

    def next32(self) -> int:
        # next64 never reads or clears the kept half, as in numpy
        if self._half is None:
            word = self.next64()
            self._half = word >> 32
            return word & _MASK32
        half, self._half = self._half, None
        return half

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one word."""
        return (self.next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high), drawn as numpy's int64 ``integers``."""
        n = high - low
        if not 0 < n <= 1 << 64:
            raise ValueError(f"integers needs low < high <= low + 2**64, got {low}, {high}")
        if n == 1:
            return low  # numpy draws nothing for a range of one
        bits, draw = (32, self.next32) if n <= 1 << 32 else (64, self.next64)
        mask = (1 << bits) - 1
        product = draw() * n
        if product & mask < n:
            # reject the low products that would favour some results; at
            # n == 2**bits the threshold is 0 and the word is the result
            threshold = (mask + 1 - n) % n
            while product & mask < threshold:
                product = draw() * n
        return low + (product >> bits)
