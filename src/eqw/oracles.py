"""State-preparation pipelines: phase oracle with a minus-target qubit, and
the two-register periodic-function evolution with measurement collapse.

The register states analysed elsewhere are generated here by actually
simulating the oracle unitaries on integer amplitude vectors, so agreement
with the direct constructions is a real check, not a tautology.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceCapError, TargetEntanglementError
from .rng import SplitMix64
from .states import BooleanFunction, StateVector, hadamard_all

GLOBAL_STATE_CAP = 8


def _split_register_target(state: StateVector) -> tuple[StateVector, StateVector]:
    """Split an (n+1)-qubit post-oracle state into register and target parts.

    The state is register (x) (+1, -1) exactly when every odd entry is minus
    the even entry before it; the even entries are then the register.
    Raises TargetEntanglementError otherwise. Unreachable from the pipeline
    below, which is itself something the tests confirm both ways.
    """
    register = state.amps[::2]
    if state.amps[1::2] != tuple(-a for a in register):
        raise TargetEntanglementError("target qubit is not in the (+1, -1) state")
    return StateVector(state.m - 1, register), StateVector(1, (1, -1))


def dj_oracle_pipeline(f: BooleanFunction) -> tuple[StateVector, StateVector]:
    """Run the full (n+1)-qubit preparation and return (register, target).

    Register starts in |0...0>, target in the unnormalized (+1, -1) pair;
    Hadamards act on the register only, then the oracle maps |x>|y> to
    |x>|f(x) xor y>, swapping the two target amplitudes of each x with
    f(x) = 1. The target factor is verified unchanged before the register
    is returned.
    """
    n = f.n
    m = n + 1
    amps = [0] * (1 << m)
    amps[0], amps[1] = 1, -1
    hadamard_all(amps, skip=1)
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


@dataclass(frozen=True)
class SimonInstance:
    """A periodic 2-to-1 function: table[x] = table[y] iff x = y xor r."""

    n: int
    r: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 0 < self.r < (1 << self.n):
            raise ValueError(f"period must be a nonzero {self.n}-bit value, got {self.r}")
        size = 1 << self.n
        table, r = self.table, self.r
        if len(table) != size:
            raise ValueError("table must cover all 2^n inputs")
        # Once outputs are in range and periodic, no output is shared beyond
        # its coset exactly when there is one output per coset.
        if (
            min(table) < 0
            or max(table) >= size
            or list(table) != [table[x ^ r] for x in range(size)]
            or len(set(table)) != size >> 1
        ):
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        """Walk the table in input order and raise for its first fault."""
        for x, out in enumerate(self.table):
            if not 0 <= out < (1 << self.n):
                raise ValueError(f"output {out} is not an {self.n}-bit value")
            if out != self.table[x ^ self.r]:
                raise ValueError(f"table breaks periodicity at input {x}")
        seen: dict[int, int] = {}
        for x, out in enumerate(self.table):
            prev = seen.setdefault(out, x)
            if prev != x and prev != (x ^ self.r):
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
        try:
            n = int(data["n"])
            r = int(str(data["r"]), 2)
            table = tuple(int(str(v), 2) for v in data["table"])
        except KeyError as exc:
            raise ValueError(f"instance has no field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed instance: {exc}") from None
        return cls(n, r, table)


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


def _indicator_state(m: int, support: Iterable[int]) -> StateVector:
    """The m-qubit state with amplitude 1 on support and 0 elsewhere."""
    amps = [0] * (1 << m)
    for x in support:
        amps[x] = 1
    return StateVector(m, tuple(amps))


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
    if not 0 < value < (1 << n):
        raise ValueError(f"period must be a nonzero {n}-bit value, got {r!r}")
    return value


def make_simon_instance(n: int, r: int | str, seed: int) -> SimonInstance:
    """Build a periodic 2-to-1 table with seed-determined output labels.

    Inputs are grouped into the 2^(n-1) cosets {x, x xor r}; a Fisher-Yates
    shuffle of all 2^n output words (splitmix64 keyed by the seed) assigns
    each coset, in ascending-representative order, a distinct output.
    """
    rv = parse_period(n, r)
    size = 1 << n
    labels = list(range(size))
    SplitMix64(seed).shuffle(labels)
    table = [0] * size
    for k in range(size >> 1):
        rep = coset_representative(rv, k)
        table[rep] = table[rep ^ rv] = labels[k]
    return SimonInstance(n, rv, tuple(table))


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
