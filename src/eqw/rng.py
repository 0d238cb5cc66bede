"""Deterministic 64-bit generator for seeded simulation runs.

splitmix64 (Steele, Lea, Flood 2014) with unbiased bounded draws and a
Fisher-Yates shuffle. The algorithm is pinned here, rather than delegating
to ``random.Random``, so that a (seed, n) pair reproduces the same bytes on
every platform and Python version.
"""
from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Sequence of 64-bit words fully determined by the integer seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, nbits: int) -> int:
        """nbits uniform bits assembled from as many words as needed."""
        if nbits <= 0:
            raise ValueError(f"need a positive bit count, got {nbits}")
        v = 0
        got = 0
        while got < nbits:
            v = (v << 64) | self.next_u64()
            got += 64
        return v >> (got - nbits)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection, so no modulo bias.

        Accepts arbitrarily large bounds; each attempt succeeds with
        probability above one half.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        nbits = (bound - 1).bit_length()
        if nbits == 0:
            return 0
        while True:
            v = self.bits(nbits)
            if v < bound:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down.

        Index j is ``below(i + 1)`` with the draw inlined: every bound fits in
        64 bits, so each attempt takes the top i.bit_length() bits of one
        word and is rejected while it exceeds i.
        """
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            shift = 64 - i.bit_length()
            while True:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                j = (z ^ (z >> 31)) >> shift
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._state = state
