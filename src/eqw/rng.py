"""Deterministic 64-bit generator and a keyed permutation for seeded runs.

splitmix64 (Steele, Lea, Flood 2014) with unbiased bounded draws, and a
seed-keyed bijection on n-bit words. Its values at 0, 1, 2, ... are distinct
by construction, so seeded runs take distinct n-bit words from it (Simon
output labels, Grover solutions) at a few integer operations each, never
touching all 2^n. The algorithms are pinned here, rather than delegating to
``random.Random``, so that a (seed, n) pair reproduces the same bytes on
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


class KeyedPermutation:
    """A seed-keyed bijection P on nbits-bit words: three rounds of
    k = ((k xor b) * a) mod 2^nbits, then k ^= k >> ceil(nbits/2), with a odd
    and a, b drawn from SplitMix64(seed). Each step is invertible for every
    nbits >= 1, so no cycle-walking is needed.

    P is a fixed bijection per seed, not a uniform draw over all of them.
    """

    def __init__(self, nbits: int, seed: int):
        rng = SplitMix64(seed)
        self._keys = tuple((rng.bits(nbits) | 1, rng.bits(nbits)) for _ in range(3))
        self._mask = (1 << nbits) - 1
        self._shift = (nbits + 1) // 2

    def __call__(self, k: int) -> int:
        mask, shift = self._mask, self._shift
        for a, b in self._keys:
            k = ((k ^ b) * a) & mask
            k ^= k >> shift
        return k
