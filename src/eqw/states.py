"""Exact representations of Boolean functions and integer-amplitude states.

Amplitudes are arbitrary-precision signed integers with implicit
normalization: the physical amplitude at basis index x is amps[x] / sqrt(sum
of squares). A state holds all 2^n amplitudes, or only its support (every
Simon state is built so). Basis indices follow one convention everywhere:
x = sum_i x_i * 2^(n-i), so qubit 1 is the most significant bit and the
tensor product puts the left operand's qubits in the most significant
positions.

A Boolean function's truth table is one int with bit x = f(x), the value
of its hex encoding (0110 is 0x6). This module converts it to and from text;
scans build it as sum(1 << x), and the ANF kernel packs tables into lanes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence


_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")
_SIGNS = {"0": 1, "1": -1}


def require_qubit_count(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: {0,1}^n -> {0,1} packed into one int, bit x = f(x)."""

    n: int
    table: int

    def __post_init__(self):
        require_qubit_count(self.n)
        # bit_length <= 2^n, decided without building 2^n, which may be huge
        if (not isinstance(self.table, int) or self.table < 0
                or (self.table.bit_length() - 1).bit_length() > self.n):
            raise ValueError(f"truth table must be an int of at most 2^{self.n} bits")

    def bits(self) -> str:
        """Text encoding, index ascending (x = 0 first)."""
        return format(self.table, f"0{1 << self.n}b")[::-1]

    def __call__(self, x: int) -> int:
        return self.table >> x & 1


class StateVector:
    """2^m integer amplitudes, not all zero; normalization is implicit.

    ``StateVector(m, amps)`` holds the 2^m tuple; ``from_terms(m, terms)``
    holds only the support, {index: nonzero amplitude} by ascending index,
    and builds the tuple on the first read of ``amps``. ``entries()`` reads
    the support of either. Equality, hash and repr are those of (m, amps).
    """

    __slots__ = ("m", "_amps", "_terms")

    def __init__(self, m: int, amps: tuple[int, ...]):
        require_qubit_count(m)
        if len(amps) != 1 << m:
            raise ValueError(f"amplitude vector has {len(amps)} entries, expected 2^{m}")
        if not any(amps):
            raise ValueError("amplitude vector must have at least one nonzero entry")
        self._hold(m, amps, None)

    @classmethod
    def from_terms(cls, m: int, terms: dict[int, int]) -> "StateVector":
        """The state with amplitude terms[x] at each x and 0 elsewhere."""
        require_qubit_count(m)
        terms = dict(sorted(terms.items()))
        if (not terms or not all(terms.values())
                or next(iter(terms)) < 0 or next(reversed(terms)) >> m):
            raise ValueError(f"need one or more terms, indices in 0..2^{m} - 1, values nonzero")
        return object.__new__(cls)._hold(m, None, terms)

    def _hold(self, m: int, amps, terms) -> "StateVector":
        for name, value in (("m", m), ("_amps", amps), ("_terms", terms)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __reduce__(self):  # pickle and copy rebuild the held form
        if self._terms is None:
            return StateVector, (self.m, self._amps)
        return StateVector.from_terms, (self.m, self._terms)

    @property
    def amps(self) -> tuple[int, ...]:
        if self._amps is None:
            amps = [0] * (1 << self.m)
            for x, a in self._terms.items():
                amps[x] = a
            object.__setattr__(self, "_amps", tuple(amps))
        return self._amps

    def entries(self) -> tuple:
        """(values, ascending support), values[x] the amplitude at support index x:
        the held dict and its keys, or the tuple and a scan that caches nothing."""
        if self._terms is not None:
            return self._terms, list(self._terms)
        a = self._amps
        return a, list(compress(range(len(a)), a))

    def __eq__(self, other) -> bool:
        return isinstance(other, StateVector) and (self.m, self.amps) == (other.m, other.amps)

    def __hash__(self) -> int:
        return hash((self.m, self.amps))

    def __repr__(self) -> str:
        return f"StateVector(m={self.m!r}, amps={self.amps!r})"

    def is_sign_vector(self) -> bool:
        """True when every amplitude is +1 or -1 (a real equally weighted state)."""
        return set(self.amps) <= {1, -1}

    def plus_count(self) -> int:
        return sum(1 for a in self.amps if a > 0)

    def minus_count(self) -> int:
        return sum(1 for a in self.amps if a < 0)

    def canonical(self) -> "StateVector":
        """Global-sign canonical form: first nonzero amplitude positive."""
        values, support = self.entries()
        return self.negate() if values[support[0]] < 0 else self

    def negate(self) -> "StateVector":
        return StateVector(self.m, tuple(-a for a in self.amps))

    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(self.entries()[1])


@dataclass(frozen=True)
class LinearForm:
    """Parity function x -> a.x of an n-bit string a, held as an int, bit 1 most significant."""

    n: int
    value: int

    def __post_init__(self):
        require_qubit_count(self.n)
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    @classmethod
    def from_value(cls, n: int, value: int) -> "LinearForm":
        return cls(n, value)


def make_function(n: int, table: Sequence[int] | str) -> BooleanFunction:
    """Pack a {0,1} string or bit sequence of length 2^n, index ascending."""
    if isinstance(table, str) and not set(table) <= {"0", "1"}:
        raise ValueError(f"truth table string must be over {{0,1}}, got {table!r}")
    require_qubit_count(n)
    if len(table).bit_length() != n + 1 or len(table) != 1 << n:  # a huge n builds no 2^n
        raise ValueError(f"truth table has {len(table)} entries, expected 2^{n}")
    if not isinstance(table, str):
        if not set(table) <= {0, 1}:
            raise ValueError("truth table entries must be 0 or 1")
        table = bytes(table).translate(_ASCII_BITS)
    return BooleanFunction(n, int(table[::-1], 2))


def parse_function(n: int, text: str) -> BooleanFunction:
    """Parse the two accepted text encodings of a truth table.

    Binary form: a {0,1} string of length 2^n, index ascending. Hex form
    "0x...": the packed table, bit of input x at position x counted from
    the least significant bit of the hex value.
    """
    require_qubit_count(n)
    if text.lower().startswith("0x"):
        try:
            value = int(text, 16)
        except ValueError:
            raise ValueError(f"malformed hex truth table {text!r}") from None
        if (value.bit_length() - 1).bit_length() > n:
            raise ValueError(f"hex truth table {text!r} does not fit 2^{n} bits")
        return BooleanFunction(n, value)
    return make_function(n, text)


def bv_function(a: LinearForm) -> BooleanFunction:
    """Truth table of the parity function f(x) = a1 x1 xor ... xor an xn, built
    by doubling: index bit b appends the table, complemented if a holds bit b."""
    av, table = a.value, 0
    for b in range(a.n):
        width = 1 << b
        high = table ^ ((1 << width) - 1) if av >> b & 1 else table
        table |= high << width
    return BooleanFunction(a.n, table)


def state_from_function(f: BooleanFunction) -> StateVector:
    """Sign vector with amps[x] = (-1)^f(x)."""
    return StateVector(f.n, tuple(map(_SIGNS.__getitem__, f.bits())))


def uniform_state(n: int) -> StateVector:
    """All 2^n amplitudes equal to +1."""
    require_qubit_count(n)
    return StateVector(n, (1,) * (1 << n))


def weight(f: BooleanFunction) -> int:
    """Number of inputs mapped to 1."""
    return f.table.bit_count()


def is_balanced(f: BooleanFunction) -> bool:
    """True iff exactly half of the 2^n inputs map to 1."""
    return weight(f) == 1 << (f.n - 1)


def complement(f: BooleanFunction) -> BooleanFunction:
    """Pointwise negation; its state is the original state with a global -1."""
    return BooleanFunction(f.n, f.table ^ ((1 << (1 << f.n)) - 1))


def apply_local_x(s: StateVector, qubit: int) -> StateVector:
    """Permute amplitudes by flipping one qubit's bit in every basis index."""
    if not 1 <= qubit <= s.m:
        raise ValueError(f"qubit {qubit} out of range 1..{s.m}")
    bit = 1 << (s.m - qubit)
    amps = s.amps
    return StateVector(s.m, tuple(amps[x ^ bit] for x in range(len(amps))))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits occupy the most significant positions."""
    return tensor_all((a, b))


def tensor_all(factors: Iterable[StateVector]) -> StateVector:
    """Left-to-right tensor product of a sequence of states."""
    m, amps = 0, [1]
    for f in factors:
        m, amps = m + f.m, [x * y for x in amps for y in f.amps]
    if not m:
        raise ValueError("need at least one factor")
    return StateVector(m, tuple(amps))


# Little-endian struct codes of the kernel's signed lanes by width in
# bits; standard sizes, so every host packs the same bytes.
_LANE_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}

# Masks of transforms up to this length are cached; longer ones are built
# per call, so a large transform leaves no memory behind. The CLI's caps
# keep every state it transforms at or below this length.
_CACHED_MASK_SIZE = 1 << 13


def _tile(pattern: int, period: int, total: int) -> int:
    """Repeat the low ``period`` bits of pattern up to ``total`` bits, both
    powers of two."""
    while period < total:
        pattern |= pattern << period
        period *= 2
    return pattern


def _butterfly_masks(size: int, width: int, skip: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Lane masks of the packed butterfly: the sign bit of every lane, and
    per level (shift, low lanes, sign bits of the low lanes)."""
    total = size * width
    signs = _tile(1 << (width - 1), width, total)
    levels = []
    h = 1 << skip
    while h < size:
        low = _tile((1 << (h * width)) - 1, 2 * h * width, total)
        levels.append((h * width, low, low & signs))
        h *= 2
    return signs, tuple(levels)


_cached_butterfly_masks = lru_cache(maxsize=64)(_butterfly_masks)


def hadamard_all(a: Sequence[int], skip: int = 0) -> list[int]:
    """Unnormalized Hadamard on every qubit of a but the last ``skip``.

    Returns a new list b with b[j] = sum_x a[x] (-1)^(popcount(j & x)),
    where j and x differ at most in index bits ``skip`` and up: each level
    maps the pair (a[j], a[j + h]) to (a[j] + a[j + h], a[j] - a[j + h]),
    and the ``skip`` least significant bits, the last qubits, are left
    alone. len(a) must be a power of two.

    Packed-lane kernel, integer-exact: every entry sits in a w-bit
    offset-binary lane (value + 2^(w-1)) of one Python int, w the smallest
    of 8, 16, 32 and 64 bits that holds max|a| * 2^levels with its sign.
    A level is a few whole-int operations: low lanes L and high lanes H
    become L + H - B and L - H + B, with B = 2^(w-1) in each lane; each
    lane's result lies in [0, 2^w), so no carry crosses a lane. Raises
    ValueError when the bound does not fit a 64-bit lane.
    """
    size = len(a)
    if size & (size - 1) or not size:
        raise ValueError(f"vector length {size} is not a power of two")
    bound = max(max(a), -min(a)) << max(size.bit_length() - 1 - skip, 0)
    width = 8
    while bound >> width - 1:
        width *= 2
        if width > 64:
            raise ValueError(f"entries up to {bound} do not fit a 64-bit signed lane")
    masks = _cached_butterfly_masks if size <= _CACHED_MASK_SIZE else _butterfly_masks
    signs, levels = masks(size, width, skip)
    # lane j holds a[j] at bits j*w and up
    lanes = f"<{size}{_LANE_CODES[width]}"
    v = int.from_bytes(struct.pack(lanes, *a), "little") ^ signs
    for shift, low, bias in levels:
        lo = v & low
        hi = v >> shift & low
        v = lo + hi - bias | (lo - hi + bias) << shift
    return list(struct.unpack(lanes, (v ^ signs).to_bytes(size * width // 8, "little")))
