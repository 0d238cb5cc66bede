"""Exact tensor-factorization structure of integer-amplitude pure states.

Everything here is decided with integer arithmetic: a state splits across a
bipartition iff its reshaped coefficient matrix has rank 1, which is tested
by cross-multiplication against a reference entry, with no elimination and
no tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress
from typing import Iterable, Optional

from .errors import ResourceCapError
from .states import LinearForm, StateVector, bv_function, hadamard_all

FACTOR_CAP = 12

LABEL_FULLY_SEPARABLE = "fully-separable"
LABEL_BISEPARABLE = "biseparable"
LABEL_Q_SEPARABLE = "q-separable"
LABEL_GME = "genuinely-multipartite-entangled"


@dataclass(frozen=True, slots=True)
class Bipartition:
    """A nonempty proper subset of the 1-based qubit indices of an n-qubit state.

    ``rmask`` has the basis-index bit of every subset qubit set.
    """

    n: int
    subset: tuple[int, ...]
    rmask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subset = tuple(sorted(self.subset))
        object.__setattr__(self, "subset", subset)
        if not 1 <= len(subset) <= self.n - 1:
            raise ValueError(
                f"subset size {len(subset)} must be between 1 and n-1 = {self.n - 1}"
            )
        if len(set(subset)) != len(subset):
            raise ValueError("subset contains repeated qubit indices")
        if subset[0] < 1 or subset[-1] > self.n:
            raise ValueError(f"qubit indices must lie in 1..{self.n}")
        object.__setattr__(self, "rmask", sum(1 << (self.n - q) for q in subset))

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.subset)
        return tuple(q for q in range(1, self.n + 1) if q not in inside)


@lru_cache(maxsize=512)
def _index_maps(n: int, subset: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Basis-index offsets of the rows and columns of the reshape at a bipartition.

    Entry (i, j) of the reshape is amps[rows[i] | cols[j]]. Row i takes its
    bits from the subset qubits in listed order, column j from the other
    qubits in ascending order, the first qubit most significant in each; the
    2^k row and 2^(n-k) column offsets are built by doubling.
    """
    def offsets(qubits) -> tuple[int, ...]:
        out = [0]
        for q in qubits:
            bit = 1 << (n - q)
            out = [y for x in out for y in (x, x | bit)]
        return tuple(out)

    return offsets(subset), offsets(q for q in range(1, n + 1) if q not in subset)


def _reshape(s: StateVector, p: Bipartition) -> list[list[int]]:
    rows, cols = _index_maps(s.m, p.subset)
    amps = s.amps
    return [[amps[r | c] for c in cols] for r in rows]


def _content_reduced(vec: list[int]) -> list[int]:
    g = math.gcd(*vec)
    return [v // g for v in vec]


def try_factor(
    s: StateVector,
    p: Bipartition,
    *,
    support: Optional[list[int]] = None,
    hint: Optional[list[int]] = None,
) -> Optional[tuple[StateVector, StateVector]]:
    """Split s across the bipartition if its reshaped matrix has rank 1.

    Walks the support against its first index x0 = (r0, c0): rank 1 holds iff
    every support entry satisfies a[r][c] * a[r0][c0] == a[r][c0] * a[r0][c]
    and the support is the whole rectangle supp(column c0) x supp(row r0).
    The walk stops at the first failing entry, and only a split reads the
    factors, through the offset tables. Returns content-reduced integer
    factors, the subset factor with its first nonzero entry positive, such
    that their tensor product equals s up to a positive rational scale.
    None means no split.

    A caller that tries many cuts of one state passes its ascending
    ``support`` (the indices of its nonzero amplitudes) and a one-element
    ``hint`` list. The hinted index is tested first, and a refuting index
    found by the walk is stored back into it. Any index that breaks the 2x2
    minor refutes rank 1, so the hint changes only how soon a cut is
    rejected, never the answer.
    """
    if s.m < 2:
        raise ValueError("need at least 2 qubits to bipartition")
    if p.n != s.m:
        raise ValueError(f"bipartition is for {p.n} qubits, state has {s.m}")
    a = s.amps
    if support is None:
        support = list(compress(range(len(a)), a))
    rmask = p.rmask
    cmask = (len(a) - 1) ^ rmask
    x0 = support[0]
    ref = a[x0]
    r0, c0 = x0 & rmask, x0 & cmask
    for x in chain(hint or (), support):
        if a[x] * ref != a[(x & rmask) | c0] * a[r0 | (x & cmask)]:
            if hint is not None:
                hint[0] = x
            return None
    rows, cols = _index_maps(s.m, p.subset)
    u = [a[r | c0] for r in rows]
    v = [a[r0 | c] for c in cols]
    if len(support) != (len(u) - u.count(0)) * (len(v) - v.count(0)):
        return None
    u = _content_reduced(u)
    v = _content_reduced(v)
    if ref < 0:
        v = [-x for x in v]
    for x in u:
        if x:
            if x < 0:
                u = [-y for y in u]
                v = [-y for y in v]
            break
    k = len(p.subset)
    return StateVector(k, tuple(u)), StateVector(s.m - k, tuple(v))


@dataclass(frozen=True)
class Factorization:
    """Finest tensor decomposition: blocks of qubit indices with their factors.

    Blocks are ordered by smallest contained index; reassembling the factors
    under the shared index convention reproduces the input up to one overall
    positive rational scale.
    """

    n: int
    blocks: tuple[tuple[tuple[int, ...], StateVector], ...]

    @property
    def q(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(qs) for qs, _ in self.blocks))

    def block_index_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(qs for qs, _ in self.blocks)

    def reassemble(self) -> StateVector:
        """Tensor the block factors back together at their original positions."""
        out = [1] * (1 << self.n)
        for qubits, factor in self.blocks:
            rows, cols = _index_maps(self.n, qubits)
            for r, amp in zip(rows, factor.amps):
                for c in cols:
                    out[r | c] *= amp
        return StateVector(self.n, tuple(out))


def _cut_list(m: int) -> Iterable[Bipartition]:
    return (
        Bipartition(m, local)
        for t in range(1, m // 2 + 1)
        for local in combinations(range(1, m + 1), t)
        if 2 * t < m or local[0] == 1
    )


@lru_cache(maxsize=None)
def _cached_cuts(m: int) -> tuple[Bipartition, ...]:
    return tuple(_cut_list(m))


def _cuts(m: int) -> Iterable[Bipartition]:
    """Every bipartition of m qubits once, by subset size 1..m//2, then
    lexicographic; a half-size cut is given by the side holding qubit 1,
    which is the side that comes first.

    Kept for m <= FACTOR_CAP only (2,047 cuts at m = 12); above the cap
    there are too many to hold (524k at m = 20), so they are built as used.
    """
    return _cached_cuts(m) if m <= FACTOR_CAP else _cut_list(m)


def _split_blocks(
    qubits: tuple[int, ...], s: StateVector
) -> list[tuple[tuple[int, ...], StateVector]]:
    m = len(qubits)
    if m == 1:
        return [(qubits, s)]
    support = list(compress(range(1 << m), s.amps))
    hint = [support[0]]
    for p in _cuts(m):
        res = try_factor(s, p, support=support, hint=hint)
        if res is None:
            continue
        factor, cofactor = res
        fq = tuple(qubits[i - 1] for i in p.subset)
        cq = tuple(qubits[i - 1] for i in p.complement)
        return _split_blocks(fq, factor) + _split_blocks(cq, cofactor)
    return [(qubits, s)]


def check_factor_cap(n: int, cap: int = FACTOR_CAP) -> None:
    """Refuse an n-qubit factorization above the cap, before any 2^n work."""
    if n > cap:
        raise ResourceCapError(
            f"factorization capped at {cap} qubits (state has {n}); raise the cap to proceed"
        )


def finest_factorization(s: StateVector, cap: int = FACTOR_CAP) -> Factorization:
    """Peel factors greedily by subset size until no bipartition splits.

    Subsets of each size are tried in lexicographic order, so the result is
    deterministic; the partition itself is unique for pure states.
    """
    check_factor_cap(s.m, cap)
    blocks = _split_blocks(tuple(range(1, s.m + 1)), s)
    blocks.sort(key=lambda b: b[0][0])
    return Factorization(s.m, tuple(blocks))


@dataclass(frozen=True)
class SeparabilityReport:
    """q-separability class of a state: block count, sizes, label, factors."""

    q: int
    block_sizes: tuple[int, ...]
    label: str
    factorization: Factorization

    def to_dict(self) -> dict:
        return {
            "schema": "report-v1",
            "q": self.q,
            "label": self.label,
            "blocks": [
                {"qubits": list(qs), "amps": [str(a) for a in f.amps]}
                for qs, f in self.factorization.blocks
            ],
        }


def classify(s: StateVector, cap: int = FACTOR_CAP) -> SeparabilityReport:
    """Finest factorization plus its q-separability label.

    q = n is fully separable (trivially so for a single qubit), q = 1 is
    genuinely multipartite entangled, q = 2 biseparable, otherwise
    q-separable.
    """
    fac = finest_factorization(s, cap=cap)
    q = fac.q
    if q == s.m:
        label = LABEL_FULLY_SEPARABLE
    elif q == 1:
        label = LABEL_GME
    elif q == 2:
        label = LABEL_BISEPARABLE
    else:
        label = LABEL_Q_SEPARABLE
    return SeparabilityReport(q, fac.block_sizes(), label, fac)


@lru_cache(maxsize=16)
def _anf_masks(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
    """Masks over a packed n-variable table, bit y standing for index y.

    Returns one Möbius step (shift 2^b, mask of the indices with bit b set,
    which is the truth table of index bit b) per variable bit b, and
    (b, c, mask of the monomials holding both bits) per pair of variable bits.
    """
    holds = [bv_function(LinearForm.from_value(n, 1 << b)).table for b in range(n)]
    steps = tuple((1 << b, holds[b]) for b in range(n))
    pairs = tuple((b, c, holds[b] & holds[c]) for b, c in combinations(range(n), 2))
    return steps, pairs


def sign_block_sizes(n: int, table: int) -> tuple[int, ...]:
    """Sorted finest block sizes of the sign vector (-1)^f, read off f's ANF.

    ``table`` packs the truth table of f into one int, bit x = f(x). The state
    (-1)^f is a hypergraph state whose hyperedges are the monomials of the
    algebraic normal form of f, and it factors across a cut exactly when no
    monomial holds qubits on both sides (Rossi, Huber, Bruß & Macchiavello,
    *Quantum hypergraph states*, NJP 15, 113022, 2013). So its finest blocks
    are the connected components of the graph that joins two qubits when
    some monomial holds both. The ANF comes from n masked shift/XOR Möbius
    steps, each edge from one AND against a cached pair mask. The result
    equals ``finest_factorization(s).block_sizes()`` with no state built and
    no rank-1 test run.
    """
    if n < 1 or table < 0 or table >> (1 << n):
        raise ValueError(f"need n >= 1 and a table of 2^n bits, got n={n}")
    steps, pairs = _anf_masks(n)
    anf = table
    for shift, mask in steps:
        anf ^= (anf << shift) & mask
    block = [1 << b for b in range(n)]
    for b, c, mask in pairs:
        if anf & mask and not block[b] >> c & 1:
            merged = block[b] | block[c]
            for d in range(n):
                if merged >> d & 1:
                    block[d] = merged
    return tuple(sorted(blk.bit_count() for blk in set(block)))


def wht(s: StateVector) -> list[int]:
    """Walsh-Hadamard spectrum of a sign vector by the in-place butterfly.

    spectrum[a] = sum_x s[x] * (-1)^(a.x), with a encoded under the shared
    bit convention. O(n 2^n) integer additions.
    """
    if not s.is_sign_vector():
        raise ValueError("spectrum is defined here for +-1 amplitude vectors only")
    return hadamard_all(list(s.amps))


def full_separability_fast(s: StateVector) -> Optional[tuple[LinearForm, int]]:
    """Spectral test for full separability of a sign vector.

    A sign vector is fully separable iff its spectrum has a single nonzero
    coefficient, necessarily +-2^n at the position of the defining parity
    string. Returns that string and the sign, or None.
    """
    spectrum = wht(s)
    hit = -1
    for a, coeff in enumerate(spectrum):
        if coeff:
            if hit >= 0:
                return None
            hit = a
    value = spectrum[hit]
    if abs(value) != len(s.amps):
        raise ArithmeticError(f"lone spectral coefficient {value} is not +-{len(s.amps)}")
    return LinearForm.from_value(s.m, hit), (1 if value > 0 else -1)


def schmidt_rank(s: StateVector, p: Bipartition) -> int:
    """Exact rank of the reshaped coefficient matrix at a bipartition.

    Integer Gaussian elimination with gcd reduction per row, so the result
    is exact for arbitrary-precision amplitudes.
    """
    mat = [row[:] for row in _reshape(s, p) if any(row)]
    ncols = 1 << (s.m - len(p.subset))
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        pval = prow[c]
        for i in range(rank + 1, len(mat)):
            val = mat[i][c]
            if val:
                row = [pval * a - val * b for a, b in zip(mat[i], prow)]
                if any(row):
                    g = math.gcd(*row)
                    row = [x // g for x in row]
                mat[i] = row
        rank += 1
    return rank
