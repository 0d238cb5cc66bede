"""Exact tensor-factorization structure of integer-amplitude pure states.

Everything here is decided with integer arithmetic: a state splits across a
bipartition iff its reshaped coefficient matrix has rank 1, which is tested
by cross-multiplication against a reference entry, with no elimination and
no tolerances. A state that is one value on a coset of a subspace of Z_2^n
and 0 elsewhere is factored by GF(2) row reduction instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice, repeat
from struct import error as struct_error, pack, unpack
from typing import Iterable, Iterator, Optional

from .errors import ResourceCapError
from .states import LinearForm, StateVector, _tile, hadamard_all

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
    factors whose tensor product equals s up to a positive rational scale.
    The subset factor u starts at u[r0] = a[x0] (a nonzero u[r], r < r0,
    would put r | c0 < x0 in the support), so it is divided by -gcd when
    a[x0] < 0 and its first nonzero entry is positive. None means no split.

    A caller that tries many cuts of one state passes its ascending
    ``support`` (the indices of its nonzero amplitudes) and a ``hint`` list
    of indices that refuted earlier cuts. The whole list is tested before
    the walk, and a refuting index the walk finds is appended to it; a
    split, or a refutation by the list or by the rectangle count, leaves
    it as it was. Any index, in the support or not, whose 2x2 minor against
    x0 is nonzero refutes rank 1, so the hint changes only how soon a cut
    is rejected, never the answer.
    """
    if s.m < 2:
        raise ValueError("need at least 2 qubits to bipartition")
    if p.n != s.m:
        raise ValueError(f"bipartition is for {p.n} qubits, state has {s.m}")
    a = s.amps
    if support is None:
        support = s.entries()[1]
    rmask = p.rmask
    cmask = (len(a) - 1) ^ rmask
    x0 = support[0]
    ref = a[x0]
    r0, c0 = x0 & rmask, x0 & cmask
    for x in hint or ():
        if a[x] * ref != a[(x & rmask) | c0] * a[r0 | (x & cmask)]:
            return None
    for x in support:
        if a[x] * ref != a[(x & rmask) | c0] * a[r0 | (x & cmask)]:
            if hint is not None:
                hint.append(x)
            return None
    rows, cols = _index_maps(s.m, p.subset)
    u = [a[r | c0] for r in rows]
    v = [a[r0 | c] for c in cols]
    if len(support) != (len(u) - u.count(0)) * (len(v) - v.count(0)):
        return None
    gu = math.gcd(*u) if ref > 0 else -math.gcd(*u)
    gv = math.gcd(*v)
    k = len(p.subset)
    # a list comprehension fills a tuple faster than a generator: 1.3x at 2^10 entries
    return (StateVector(k, tuple([x // gu for x in u])),
            StateVector(s.m - k, tuple([x // gv for x in v])))


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
    qubits: tuple[int, ...], s: StateVector, support: list[int]
) -> list[tuple[tuple[int, ...], StateVector]]:
    """Peel finest blocks one per step: the reference engine, taking the
    ascending support of s. Cuts go by subset size and split iff their subset
    is a union of blocks, so the first subset to split is a smallest block
    (one of two, at a half-size cut). It is kept as found, and the
    cofactor's sweep starts at cuts of its size.

    Each step keeps a hint list for ``try_factor``: every index that
    refuted a cut of the step's state, tested against each later cut
    before its support walk. An index that refutes one cut often refutes
    many, so on a state whose walks run long (a few-solution Grover state,
    where only indices near the marked ones refute) most cuts are turned
    away in a few reads. The list starts empty for each cofactor, whose
    indices are another state's.
    """
    blocks = []
    least = 1  # no block left has fewer qubits
    while (m := len(qubits)) > 1:
        hint: list[int] = []
        cuts = _cuts(m)
        if least > 1:  # skip the smaller cuts without a test, so a GME sweep pays nothing
            cuts = islice(cuts, sum(math.comb(m, k) for k in range(1, least)), None)
        for p in cuts:
            res = try_factor(s, p, support=support, hint=hint)
            if res is not None:
                break
        else:
            break
        factor, s = res
        blocks.append((tuple(qubits[i - 1] for i in p.subset), factor))
        qubits = tuple(qubits[i - 1] for i in p.complement)
        least = len(p.subset)
        support = s.entries()[1]
    blocks.append((qubits, s))
    return blocks


def _coset_rows(a: tuple[int, ...] | dict[int, int], support: list[int]) -> Optional[list[int]]:
    """The reduced echelon basis of H, rows by ascending pivot (top bit), when
    the state whose values a and support ``entries()`` gave is c times the
    indicator of a coset x0 + H with d = dim H >= 1; else None.

    Every nonzero amplitude must equal c = a[x0], x0 the first support index,
    the support must have 2^d points, and their XOR differences from x0 must
    span d dimensions. A basis state (d = 0) is left to the sweep, whose
    one-point walks peel it in n - 1 rank-1 tests. Four sampled entries are
    compared with c before the support's values are counted, so most
    mixed-sign vectors are turned away in O(1). The least point x0 of a
    coset has no pivot bit set, so in ascending order the point at position
    2^j is x0 xor the row of the j-th lowest pivot. The rows are read off
    there and doubled out in ascending order; the support must be that list,
    which is exact, as 2^d distinct points built from d rows are a coset of
    their span.
    """
    size = len(support)
    x0 = support[0]
    c = a[x0]
    if (size < 2 or size & (size - 1)
            or any(a[support[i]] != c for i in (size - 1, size >> 1, size // 3, 2 * size // 3))
            or list(map(a.__getitem__, support)).count(c) != size):
        return None
    rows = [support[1 << j] ^ x0 for j in range(size.bit_length() - 1)]
    coset = [x0]
    for row in rows:
        coset += [x ^ row for x in coset]
    return rows if coset == support else None


def _join(masks: Iterable[int]) -> list[int]:
    """Connected components of a family of bit masks: the disjoint unions of
    the masks that share a bit, directly or through other masks."""
    out: list[int] = []
    for mask in masks:
        kept = []
        for other in out:
            if other & mask:
                mask |= other
            else:
                kept.append(other)
        out = kept + [mask]
    return out


# The one-qubit basis states, by (bit, sign), held by their support: the
# coset engine's singleton factors, shared as StateVector is immutable.
_BASIS_QUBITS = {(bit, sign): StateVector.from_terms(1, {bit: sign})
                 for bit in (0, 1) for sign in (1, -1)}


def _coset_blocks(
    s: StateVector, x0: int, c: int, rows: list[int]
) -> list[tuple[tuple[int, ...], StateVector]]:
    """Finest blocks of s = c times the indicator of x0 + span(rows), rows in
    reduced echelon form.

    Rows that share a qubit are joined: the blocks are the connected
    components of the binary matroid of H (Oxley, *Matroid Theory*, ch. 4),
    and a qubit in no row is a basis-state singleton, taken from
    ``_BASIS_QUBITS``. Each factor is the 0/1 indicator of the coset
    projected on its qubits, held by its support, as the sweep's content
    reduction leaves it, except that the block the sweep leaves for last
    (the largest, of those the one with the latest first qubit) carries the
    sign of c. A state of one block is returned as it is.
    """
    n = s.m
    masks = _join(rows)
    covered = sum(masks)  # the masks are disjoint
    blocks = [(tuple(q for q in range(1, n + 1) if mask >> (n - q) & 1), mask) for mask in masks]
    blocks += [((q,), 0) for q in range(1, n + 1) if not covered >> (n - q) & 1]
    if len(blocks) == 1:
        return [(blocks[0][0], s)]
    last = max(blocks, key=lambda b: (len(b[0]), b[0][0]))[0]
    sign = -1 if c < 0 else 1

    def local(x: int, qubits: tuple[int, ...]) -> int:
        y = 0
        for q in qubits:
            y = y << 1 | (x >> (n - q) & 1)
        return y

    out = []
    for qubits, mask in blocks:
        value = sign if qubits == last else 1
        if mask:
            points = [local(x0, qubits)]
            for row in rows:
                if row & mask:
                    shift = local(row, qubits)
                    points += [y ^ shift for y in points]
            factor = StateVector.from_terms(len(qubits), dict.fromkeys(points, value))
        else:
            factor = _BASIS_QUBITS[x0 >> (n - qubits[0]) & 1, value]
        out.append((qubits, factor))
    return out


def check_factor_cap(n: int, cap: int = FACTOR_CAP) -> None:
    """Refuse an n-qubit factorization above the cap, before any 2^n work."""
    if n > cap:
        raise ResourceCapError(
            f"factorization capped at {cap} qubits (state has {n}); raise the cap to proceed"
        )


def finest_factorization(s: StateVector, cap: int = FACTOR_CAP) -> Factorization:
    """Finest tensor factorization of s, by one of two engines.

    The support is read once, from ``s.entries()``; a Simon state holds it.
    A state equal to c on the points of a coset x0 + H of a subspace H of
    Z_2^n, and 0 elsewhere (every Simon collapse, the uniform state), is
    factored by GF(2) row reduction: the qubits of each reduced echelon row
    of H are joined, and a qubit in no row is a basis-state singleton
    (``_coset_blocks``). Every other state goes to the reference engine, the
    rank-1 sweep (``_split_blocks``), which peels factors greedily by subset
    size until no bipartition splits; subsets of each size are tried in
    lexicographic order. Both give the same blocks and factors, and the
    partition itself is unique for pure states.
    """
    check_factor_cap(s.m, cap)
    values, support = s.entries()
    rows = _coset_rows(values, support)
    if rows is None:
        blocks = _split_blocks(tuple(range(1, s.m + 1)), s, support)
    else:
        blocks = _coset_blocks(s, support[0], values[support[0]], rows)
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


# Tables are packed this many bits at a time, in lanes of max(8, 2^n) bits,
# at least one lane a chunk. Masks are cached per n up to the factor cap,
# a chunk's width each; wider lanes get theirs built per call. A placement
# scan in process took 8% longer with 1 KB chunks at n = 5 and 27% at n = 8,
# and 16 KB chunks saved 4% and 9% more (2-core host).
_ANF_CHUNK_BITS = 1 << 15
# Little-endian struct codes of the lanes that fit a machine word, by bytes;
# a wider lane packs as a byte string. Packing every lane as a byte string
# costs 0.13 against 0.08 us a table at n = 5, and took census-verify's
# wall_s from 0.3229 to 0.3273 s (perfbench/run.py, medians of 10 paired
# 30 s runs on a 2-core host; slower in 10 of 10).
_LANE_UINTS = {1: "B", 2: "H", 4: "I", 8: "Q"}
# Qubit graphs each n keeps the block sizes of; the table empties when full.
# All 1,024 graphs on 5 qubits fit.
_GRAPHS_HELD = 1024


class _GraphBlocks(dict):
    """Sorted component sizes of graphs on n vertices, by edge key: an int,
    or its little-endian bytes, with bit 2^b + 2^c set when b and c are
    joined. Computed on a miss; at most _GRAPHS_HELD are kept."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, key) -> tuple[int, ...]:
        if len(self) >= _GRAPHS_HELD:
            self.clear()
        bits = int.from_bytes(key, "little") if isinstance(key, bytes) else key
        # edge b-c sits at index 2^b + 2^c, which is also its mask; a qubit on no edge is alone
        edges = ((1 << b) | (1 << c) for b, c in combinations(range(self.n), 2))
        blocks = _join(e for e in edges if bits >> e & 1)
        sizes = [blk.bit_count() for blk in blocks] + [1] * (self.n - sum(blocks).bit_count())
        sizes = self[key] = tuple(sorted(sizes))
        return sizes


def _anf_masks(n: int) -> tuple[int, int, int, tuple[tuple[int, int, int], ...], int,
                                _GraphBlocks]:
    """Masks over one chunk of n-variable lanes, bit y of a lane standing for
    index y, and the n-vertex graph table.

    Returns the bytes of a lane, the lanes of a chunk, the padding bits of
    every lane, per variable bit b (shift 2^b, indices with bit b set,
    indices with bit b clear), the weight-2 indices 2^b + 2^c, and an empty
    ``_GraphBlocks(n)``.
    """
    size = 1 << n
    width = max(8, size)
    total = width * max(1, _ANF_CHUNK_BITS // width)
    table = (1 << size) - 1
    steps = []
    for b in range(n):
        hold = _tile(((1 << (1 << b)) - 1) << (1 << b), 2 << b, size)
        steps.append((1 << b, _tile(hold, width, total), _tile(table ^ hold, width, total)))
    pairs = sum(1 << ((1 << b) | (1 << c)) for b, c in combinations(range(n), 2))
    return (
        width // 8,
        total // width,
        _tile(table ^ ((1 << width) - 1), width, total),
        tuple(steps),
        _tile(pairs, width, total),
        _GraphBlocks(n),
    )


_cached_anf_masks = lru_cache(maxsize=FACTOR_CAP)(_anf_masks)


def anf_block_sizes(n: int, tables: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Sorted finest block sizes of each sign vector (-1)^f, in order, read
    off f's algebraic normal form.

    Each table packs the truth table of f into one int, bit x = f(x). The
    state (-1)^f is a hypergraph state whose hyperedges are the monomials of
    the ANF of f, and it factors across a cut exactly when no monomial holds
    qubits on both sides (Rossi, Huber, Bruß & Macchiavello, *Quantum
    hypergraph states*, NJP 15, 113022, 2013). So its finest blocks are the
    connected components of the graph that joins two qubits when some
    monomial holds both. Each yield equals
    ``finest_factorization(s).block_sizes()``, with no state built and no
    rank-1 test run.

    Packed-lane kernel: a chunk of tables sits in lanes of max(8, 2^n) bits
    of one int. n masked shift/XOR Möbius steps give every lane's ANF, and n
    masked shift/OR steps its superset closure D, where D[y] is set when a
    monomial holds every bit of y. Bits b and c share a monomial iff
    D[2^b + 2^c] is set, so one AND with the weight-2 indices leaves in each
    lane a key holding every edge of the graph; a bounded table maps keys to
    component sizes. Raises ValueError, when its chunk is read, for a table
    that is negative or wider than 2^n bits.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    lane_bytes, lanes, pad, steps, pairs, graphs = (
        _cached_anf_masks if n <= FACTOR_CAP else _anf_masks)(n)
    code = _LANE_UINTS.get(lane_bytes)
    tables = iter(tables)
    while chunk := list(islice(tables, lanes)):
        if code:
            fmt, items = f"<{len(chunk)}{code}", chunk
        else:
            fmt = f"{lane_bytes}s" * len(chunk)
            items = map(int.to_bytes, chunk, repeat(lane_bytes), repeat("little"))
        try:
            anf = int.from_bytes(pack(fmt, *items), "little")
        except (OverflowError, struct_error):  # a table negative or wider than its lane
            anf = None
        if anf is None or anf & pad:  # or reaching into a byte lane's padding
            raise ValueError(f"need tables in 0..2^(2^n) - 1, n={n}")
        for shift, hold, _ in steps:
            anf ^= (anf << shift) & hold
        for shift, _, clear in steps:
            anf |= (anf >> shift) & clear
        keys = (anf & pairs).to_bytes(len(chunk) * lane_bytes, "little")
        yield from map(graphs.__getitem__, unpack(fmt, keys))


def sign_block_sizes(n: int, table: int) -> tuple[int, ...]:
    """Sorted finest block sizes of the sign vector (-1)^f: ``anf_block_sizes``
    on the one table."""
    return next(anf_block_sizes(n, (table,)))


def wht(s: StateVector) -> list[int]:
    """Walsh-Hadamard spectrum of a sign vector by the packed-lane butterfly.

    spectrum[a] = sum_x s[x] * (-1)^(a.x), with a encoded under the shared
    bit convention. Integer-exact: ``hadamard_all`` packs the +-1 entries
    into 8-bit lanes up to n = 6, 16-bit lanes up to n = 14 and 32-bit
    lanes up to n = 30, and runs each of the n levels as a few big-int operations.
    """
    if not s.is_sign_vector():
        raise ValueError("spectrum is defined here for +-1 amplitude vectors only")
    return hadamard_all(s.amps)


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

    Integer row-echelon form on the rows of the support: the nonzero
    amplitudes are read once and grouped by their subset bits x & rmask
    into sparse rows {column bits: value}; zero rows are never built. Each
    gcd-reduced row is cross-multiplied with the kept row of its lead (least
    column) until it is empty or its lead is new, and is kept there. Each
    kept row has a lead no other kept row has, so the rank is their number.
    The register state holds its 2^n support points, one per register-cut
    row, so that rank costs O(2^n), not the 2^(2n) of the full reshape.
    """
    if p.n != s.m:
        raise ValueError(f"bipartition is for {p.n} qubits, state has {s.m}")
    (a, support), rmask = s.entries(), p.rmask
    cmask = ((1 << s.m) - 1) ^ rmask
    rows: dict[int, dict[int, int]] = {}
    for x in support:
        rows.setdefault(x & rmask, {})[x & cmask] = a[x]
    kept: dict[int, dict[int, int]] = {}
    for row in rows.values():
        while row:
            if (g := math.gcd(*row.values())) > 1:
                row = {c: x // g for c, x in row.items()}
            lead = min(row)
            if lead not in kept:
                kept[lead] = row
                break
            pivot = kept[lead]
            u, w = pivot[lead], row[lead]
            row = {c: x for c in row.keys() | pivot.keys()
                   if (x := u * row.get(c, 0) - w * pivot.get(c, 0))}
    return len(kept)
