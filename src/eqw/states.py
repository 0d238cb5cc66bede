"""Exact representations of Boolean functions and integer-amplitude states.

Amplitudes are arbitrary-precision signed integers with implicit
normalization: the physical amplitude at basis index x is
amps[x] / sqrt(sum of squares). Basis indices follow one convention
everywhere: x = sum_i x_i * 2^(n-i), so qubit 1 is the most significant
bit and the tensor product puts the left operand's qubits in the most
significant positions.

A Boolean function's truth table is one int with bit x = f(x), the value
of its hex encoding (0110 is 0x6); only this module packs or unpacks it.
"""
from __future__ import annotations

from dataclasses import dataclass
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
        size = 1 << self.n
        if not isinstance(self.table, int) or self.table < 0 or self.table.bit_length() > size:
            raise ValueError(f"truth table must be an int of at most 2^{self.n} = {size} bits")

    def bits(self) -> str:
        """Text encoding, index ascending (x = 0 first)."""
        return format(self.table, f"0{1 << self.n}b")[::-1]

    def __call__(self, x: int) -> int:
        return self.table >> x & 1


@dataclass(frozen=True)
class StateVector:
    """2^m integer amplitudes, not all zero; normalization is implicit."""

    m: int
    amps: tuple[int, ...]

    def __post_init__(self):
        require_qubit_count(self.m)
        if len(self.amps) != 1 << self.m:
            raise ValueError(
                f"amplitude vector has {len(self.amps)} entries, expected 2^{self.m}"
            )
        if not any(self.amps):
            raise ValueError("amplitude vector must have at least one nonzero entry")

    def is_sign_vector(self) -> bool:
        """True when every amplitude is +1 or -1 (a real equally weighted state)."""
        return all(a == 1 or a == -1 for a in self.amps)

    def plus_count(self) -> int:
        return sum(1 for a in self.amps if a > 0)

    def minus_count(self) -> int:
        return sum(1 for a in self.amps if a < 0)

    def canonical(self) -> "StateVector":
        """Global-sign canonical form: first nonzero amplitude positive."""
        for a in self.amps:
            if a:
                if a < 0:
                    return StateVector(self.m, tuple(-x for x in self.amps))
                return self
        raise AssertionError("unreachable: zero vector rejected at construction")

    def negate(self) -> "StateVector":
        return StateVector(self.m, tuple(-a for a in self.amps))

    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(x for x, a in enumerate(self.amps) if a)


@dataclass(frozen=True)
class LinearForm:
    """An n-bit string a defining the parity function x -> a.x; a = 0 is constant."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        require_qubit_count(self.n)
        if len(self.bits) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def value(self) -> int:
        """Integer encoding under the shared bit convention (bit 1 most significant)."""
        return int("".join(map(str, self.bits)), 2)

    @classmethod
    def from_value(cls, n: int, value: int) -> "LinearForm":
        require_qubit_count(n)
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} out of range for {n} bits")
        return cls(n, tuple((value >> (n - i)) & 1 for i in range(1, n + 1)))


def make_function(n: int, table: Sequence[int] | str) -> BooleanFunction:
    """Pack a {0,1} string or bit sequence of length 2^n, index ascending."""
    if isinstance(table, str) and not set(table) <= {"0", "1"}:
        raise ValueError(f"truth table string must be over {{0,1}}, got {table!r}")
    require_qubit_count(n)
    if len(table) != 1 << n:
        raise ValueError(f"truth table has {len(table)} entries, expected 2^{n} = {1 << n}")
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
        if value.bit_length() > 1 << n:
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
    nb = len(b.amps)
    out = [0] * (len(a.amps) * nb)
    for x, ax in enumerate(a.amps):
        if ax == 0:
            continue
        base = x * nb
        for y, by in enumerate(b.amps):
            out[base + y] = ax * by
    return StateVector(a.m + b.m, tuple(out))


def tensor_all(factors: Iterable[StateVector]) -> StateVector:
    """Left-to-right tensor product of a sequence of states."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = tensor(acc, f)
    return acc


def hadamard_all(a: list[int], skip: int = 0) -> list[int]:
    """Unnormalized Hadamard on every qubit of a but the last ``skip``, in place.

    The butterfly maps each pair (a[j], a[j + h]) to (a[j] + a[j + h],
    a[j] - a[j + h]) for every index bit h from bit ``skip`` up, so the
    ``skip`` least significant bits, the last qubits, are left alone.
    O(n 2^n) integer additions; returns a.
    """
    h = 1 << skip
    size = len(a)
    while h < size:
        for start in range(0, size, h * 2):
            for j in range(start, start + h):
                x, y = a[j], a[j + h]
                a[j] = x + y
                a[j + h] = x - y
        h *= 2
    return a
