"""State-preparation pipelines: phase oracle with a minus-target qubit, and
the two-register periodic-function evolution with measurement collapse.

The register states analysed elsewhere are generated here by actually
simulating the oracle unitaries on integer amplitude vectors, so agreement
with the direct constructions is a real check, not a tautology.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

from .errors import ResourceCapError, TargetEntanglementError
from .rng import KeyedPermutation, SplitMix64
from .states import _CACHED_MASK_SIZE, BooleanFunction, StateVector, hadamard_all

GLOBAL_STATE_CAP = 8

# H^(x)n |0...0> (x) (+1, -1), the layer before the oracle, by qubit count
# n + 1; kept for layers of at most _CACHED_MASK_SIZE entries, as the
# butterfly masks are, so a large pipeline leaves no memory behind.
_DJ_LAYERS: dict[int, tuple[int, ...]] = {}


def _split_register_target(state: StateVector) -> tuple[StateVector, StateVector]:
    """Split an (n+1)-qubit post-oracle state into register and target parts.

    The state is register (x) (+1, -1) exactly when every odd entry is minus
    the even entry before it; the even entries are then the register.
    Raises TargetEntanglementError otherwise. Unreachable from the pipeline
    below, which is itself something the tests confirm both ways.
    """
    register = state.amps[::2]
    if state.amps[1::2] != tuple(map(operator.neg, register)):
        raise TargetEntanglementError("target qubit is not in the (+1, -1) state")
    return StateVector(state.m - 1, register), StateVector(1, (1, -1))


def dj_oracle_pipeline(f: BooleanFunction) -> tuple[StateVector, StateVector]:
    """Run the full (n+1)-qubit preparation and return (register, target).

    Register starts in |0...0>, target in the unnormalized (+1, -1) pair;
    Hadamards act on the register only, then the oracle maps |x>|y> to
    |x>|f(x) xor y>, swapping the two target amplitudes of each x with
    f(x) = 1. The target factor is verified unchanged before the register
    is returned. The Hadamard layer does not depend on f, so it is run once
    per size and copied for each f (``_DJ_LAYERS``).
    """
    n = f.n
    m = n + 1
    layer = _DJ_LAYERS.get(m)
    if layer is None:
        amps = [0] * (1 << m)
        amps[0], amps[1] = 1, -1
        layer = tuple(hadamard_all(amps, skip=1))
        if len(layer) <= _CACHED_MASK_SIZE:
            _DJ_LAYERS[m] = layer
    amps = list(layer)
    bits = f.bits()
    x = bits.find("1")
    while x >= 0:
        base = x << 1
        amps[base], amps[base + 1] = amps[base + 1], amps[base]
        x = bits.find("1", x + 1)
    return _split_register_target(StateVector(m, tuple(amps)))


def prepare_dj_state(f: BooleanFunction) -> StateVector:
    """Register state after the oracle call; equals the direct sign vector."""
    register, _ = dj_oracle_pipeline(f)
    return register


def _json_integer(value) -> int:
    """A JSON integer as it is; a float, a string or a bool raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


@dataclass(frozen=True)
class SimonInstance:
    """A periodic 2-to-1 function: table[x] = table[y] iff x = y xor r.

    A loaded table is a tuple, checked in full; CosetLabels are 2-to-1 by
    construction and not scanned."""

    n: int
    r: int
    table: Sequence[int]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.r <= 0 or self.r.bit_length() > self.n:
            raise ValueError(f"period must be a nonzero {self.n}-bit value, got {self.r}")
        table, r = self.table, self.r
        if isinstance(table, CosetLabels) and (table.n, table.r) == (self.n, r):
            return
        size = len(table)
        if size.bit_length() != self.n + 1 or size != 1 << self.n:  # a huge n builds no 2^n
            raise ValueError("table must cover all 2^n inputs")
        # In range, periodic, and no output shared by two cosets: one output per
        # coset. Range and periodicity faults are named first, in input order.
        for x, out in enumerate(table):
            if not 0 <= out < size:
                raise ValueError(f"output {out} is not an {self.n}-bit value")
            if out != table[x ^ r]:
                raise ValueError(f"table breaks periodicity at input {x}")
        seen: dict[int, int] = {}
        for x, out in enumerate(table):
            prev = seen.setdefault(out, x)
            if prev != x and prev != (x ^ r):
                raise ValueError(f"output {out} is shared beyond its period coset")

    def r_bits(self) -> str:
        return format(self.r, f"0{self.n}b")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r_bits(),
            "table": [format(v, f"0{self.n}b") for v in self.table],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimonInstance":
        """Inverse of to_dict; a malformed instance raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("instance must be a JSON object with fields n, r and table")
        fields = (("n", _json_integer, "an integer"),
                  ("r", lambda r: int(str(r), 2), "a bit string"),
                  ("table", lambda t: tuple(int(str(v), 2) for v in t), "a list of bit strings"))
        values = []
        for name, parse, kind in fields:
            if name not in data:
                raise ValueError(f"instance has no field {name!r}")
            try:
                values.append(parse(data[name]))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"malformed instance: field {name!r} must be {kind}") from None
        return cls(*values)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Second-register readout plus the collapsed first-register state."""

    n: int
    observed: int
    collapsed: StateVector

    def observed_bits(self) -> str:
        return format(self.observed, f"0{self.n}b")


def coset_representative(r: int, k: int) -> int:
    """The k-th smallest of the coset minima min(x, x xor r): k with a 0 bit
    inserted at r's top bit."""
    low = (1 << (r.bit_length() - 1)) - 1
    return (k & ~low) << 1 | (k & low)


def coset_index(r: int, x: int) -> int:
    """The k with x in coset {coset_representative(r, k), its xor with r}:
    x xor r if x has r's top bit, then that bit deleted."""
    low = (1 << (r.bit_length() - 1)) - 1
    if x & (low + 1):
        x ^= r
    return (x >> 1 & ~low) | (x & low)


class CosetLabels(Sequence):
    """A seeded instance's table, computed per read and never stored:
    table[x] = P(coset_index(r, x)), P the seed's KeyedPermutation, so cosets
    get distinct labels. Equal to, and hashed as, the tuple of its entries."""

    def __init__(self, n: int, r: int, seed: int):
        self.n, self.r, self._label = n, r, KeyedPermutation(n, seed)

    def __len__(self) -> int:
        return 1 << self.n

    def __getitem__(self, x: int) -> int:
        return self._label(coset_index(self.r, range(1 << self.n)[x]))  # bounds as a tuple's

    def __iter__(self) -> Iterator[int]:
        return map(self._label, map(coset_index, repeat(self.r), range(1 << self.n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, CosetLabels)) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def _indicator_state(m: int, support: Iterable[int]) -> StateVector:
    """The m-qubit state with amplitude 1 on support and 0 elsewhere."""
    return StateVector.from_terms(m, dict.fromkeys(support, 1))


def parse_period(n: int, r: int | str) -> int:
    """A nonzero n-bit period, given as a bit string or an int, as an int."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if isinstance(r, str):
        if len(r) != n or not set(r) <= {"0", "1"}:
            raise ValueError(f"period must be an {n}-bit string, got {r!r}")
        value = int(r, 2)
    else:
        value = int(r)
    if value <= 0 or value.bit_length() > n:
        raise ValueError(f"period must be a nonzero {n}-bit value, got {r!r}")
    return value


def make_simon_instance(n: int, r: int | str, seed: int) -> SimonInstance:
    """Build a periodic 2-to-1 function with seed-determined output labels.

    Coset k = {coset_representative(r, k), its xor with r} is labelled P(k),
    P the seed's KeyedPermutation of n-bit words. The labels are distinct by
    construction, so the build is O(n): no table is stored or scanned.
    """
    rv = parse_period(n, r)
    return SimonInstance(n, rv, CosetLabels(n, rv, seed))


def simon_global_state(inst: SimonInstance) -> StateVector:
    """Joint 2n-qubit state after the function evaluation.

    First register in the most significant n bits; +1 amplitude at every
    |x>|f(x)>, so exactly 2^n nonzero entries.
    """
    n = inst.n
    if n > GLOBAL_STATE_CAP:
        raise ResourceCapError(
            f"global two-register state capped at n = {GLOBAL_STATE_CAP}, got {n}"
        )
    return _indicator_state(2 * n, ((x << n) | out for x, out in enumerate(inst.table)))


def simon_measure(inst: SimonInstance, seed: int) -> MeasurementOutcome:
    """Collapse the first register by a seeded uniform readout of the second.

    Draws one of the 2^(n-1) output values uniformly (splitmix64, rejection
    sampled) and returns it with the two-term state on {xbar, xbar xor r}.
    """
    xbar = coset_representative(inst.r, SplitMix64(seed).below(1 << (inst.n - 1)))
    return MeasurementOutcome(inst.n, inst.table[xbar],
                              _indicator_state(inst.n, (xbar, xbar ^ inst.r)))


def simon_canonical_state(n: int, r: int | str) -> StateVector:
    """Two-term state |0...0> + |r>, the xbar = 0 representative of a collapse."""
    return _indicator_state(n, (0, parse_period(n, r)))
