"""Closed-form counts, log-space fractions, and exhaustive enumeration oracles.

All counts are exact Python integers. Where a closed form counts
(partition, factor) combinations rather than distinct functions, the report
records the upper-bound relation instead of asserting equality; the
enumeration oracles supply the distinct counts.
"""
from __future__ import annotations

import math
import multiprocessing
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

from .errors import ResourceCapError
from .oracles import simon_canonical_state
from .separability import FACTOR_CAP, check_factor_cap, finest_factorization, sign_block_sizes

FRACTION_CAP = 20
DJ_FULL_CAP = 4
GROVER_STATE_CAP = 10_000_000
# Placements one scan may walk: above DJ n = 5 (601,080,390), which --max-n 5
# allows, and far below DJ n = 6 (1.8e18), which would run for centuries.
PLACEMENT_CAP = 10**9
# At most one pool shard per this many placements, rounded up, so a scan no
# longer than this runs in process. On a 2-core host a two-shard pool took
# 64 ms against 54 ms in process for DJ n = 4 (12,870 placements) and 179 ms
# against 193 ms for Grover (5, 4) (35,960). The value is only a bound inside
# that bracket; the crossover itself was not measured.
MIN_SHARD_PLACEMENTS = 16_384

RELATION_EQUAL = "equal"
RELATION_UPPER = "formula-upper-bound"
RELATION_ORACLE_ONLY = "oracle-only"
RELATION_FORMULA_ONLY = "formula-only"

_LOG2_SQRT_2PI = 0.5 * math.log2(2.0 * math.pi)


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient with the usual domain restrictions."""
    if a < 0 or b < 0 or b > a:
        raise ValueError(f"binomial requires 0 <= b <= a, got ({a}, {b})")
    return math.comb(a, b)


def count_balanced(n: int) -> int:
    """Functions on n bits taking each output value on exactly half the inputs."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return binom(1 << n, 1 << (n - 1))


def count_balanced_fully_separable(n: int) -> int:
    """Balanced functions whose sign vector is a full product: 2 (2^n - 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 2 * ((1 << n) - 1)


def count_pairblock_factorizations(n: int) -> int:
    """Closed form 2 (2^(n-2) - 1) * 8 * B(n, 2) for the one-entangled-pair class.

    Counts (partition, factor) combinations; the distinct-function oracle
    count is bounded above by it (exactly half of it at small n).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return 2 * ((1 << (n - 2)) - 1) * 8 * binom(n, 2)


def count_bisep_fixed_partition(n: int, k: int) -> int:
    """Sign vectors split as a k | n-k product with at least one balanced side."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    bal_k = binom(1 << k, 1 << (k - 1))
    bal_nk = binom(1 << (n - k), 1 << (n - k - 1))
    return bal_k * (1 << (1 << (n - k))) + bal_nk * (1 << (1 << k)) - bal_k * bal_nk


def count_dj_bisep_upper(n: int) -> tuple[int, int]:
    """Both closed forms of the biseparable-balanced bound, computed exactly.

    The half-weighted terms are accumulated in doubled units and checked
    even before halving, so the arithmetic never leaves the integers.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    doubled_a = 0
    for k in range(1, (n - 1) // 2 + 1):
        doubled_a += 2 * binom(n, k) * count_bisep_fixed_partition(n, k)
    if n % 2 == 0:
        doubled_a += binom(n, n // 2) * count_bisep_fixed_partition(n, n // 2)
    if doubled_a % 2:
        raise ArithmeticError(f"doubled partition sum {doubled_a} is odd")
    doubled_b = 0
    for k in range(1, n):
        bal_k = binom(1 << k, 1 << (k - 1))
        bal_nk = binom(1 << (n - k), 1 << (n - k - 1))
        doubled_b += binom(n, k) * (2 * bal_k * (1 << (1 << (n - k))) - bal_k * bal_nk)
    if doubled_b % 2:
        raise ArithmeticError(f"doubled cut sum {doubled_b} is odd")
    return doubled_a // 2, doubled_b // 2


def log2_int(x: int) -> float:
    """log2 of a positive integer of any size."""
    if x <= 0:
        raise ValueError(f"need a positive integer, got {x}")
    shift = max(0, x.bit_length() - 64)
    return math.log2(x >> shift) + shift


def _log2_factorial(k: int) -> float:
    return math.lgamma(k + 1) / math.log(2.0)


@dataclass(frozen=True)
class LogFraction:
    """A ratio carried in log2 space: ratio = numerator / denominator."""

    log2_numerator: float
    log2_denominator: float
    log2_ratio: float

    @classmethod
    def of(cls, log2_numerator: float, log2_denominator: float) -> "LogFraction":
        return cls(log2_numerator, log2_denominator, log2_numerator - log2_denominator)


@dataclass(frozen=True)
class DjFractions:
    """Separable-fraction values for one n: exact, Stirling form, and the
    biseparable bound."""

    n: int
    sep_exact: LogFraction
    sep_asymptotic: LogFraction
    bisep_bound: LogFraction


def dj_fractions(n: int, cap: int = FRACTION_CAP) -> DjFractions:
    """Exact and asymptotic log2 fractions of separable balanced functions.

    sep_exact is log2 of 2 (2^n - 1) (2^(n-1)!)^2 / 2^n!; sep_asymptotic is
    its Stirling form sqrt(2 pi) (2^n - 1) 2^(n/2) / 2^(2^n); bisep_bound is
    sqrt(2 pi) n^2 2^(n/2) / 2^(2^(n-1)).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > cap:
        raise ResourceCapError(f"fractions capped at n = {cap}, got {n}")
    half = 1 << (n - 1)
    exact = LogFraction.of(
        log2_int(2 * ((1 << n) - 1)) + 2.0 * _log2_factorial(half),
        _log2_factorial(1 << n),
    )
    asym = LogFraction.of(
        _LOG2_SQRT_2PI + log2_int((1 << n) - 1) + n / 2.0,
        float(1 << n),
    )
    bound = LogFraction.of(
        _LOG2_SQRT_2PI + 2.0 * math.log2(n) + n / 2.0,
        float(half),
    )
    return DjFractions(n, exact, asym, bound)


def grover_bisep_fraction_log2(n: int, m: int) -> float:
    """log2 of n B(2^(n-1), M/2) / B(2^n, M) for even M."""
    if m % 2 != 0:
        raise ValueError(f"defined for even M only, got {m}")
    if not 0 < m < (1 << n):
        raise ValueError(f"need 0 < M < 2^n, got M={m}, n={n}")
    return log2_int(n * binom(1 << (n - 1), m // 2)) - log2_int(binom(1 << n, m))


@dataclass(frozen=True)
class GroverCounts:
    """Closed-form counts for the M-solution sign placements of one (n, M)."""

    n: int
    m: int
    total: int
    bisep_formula: int
    jsep_form_count: Optional[int]
    fully_entangled_formula: Optional[int]
    outside_regime: bool


def count_grover(n: int, m: int) -> GroverCounts:
    """Total, biseparable, power-of-two form, and odd-M counts for (n, M).

    The outside_regime flag marks M^2 >= 2^n, where the biseparable closed
    form stops bounding the distinct count; odd M means no tensor split at
    all, so the fully-entangled count equals the total.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < m < (1 << n):
        raise ValueError(f"need 0 < M < 2^n, got M={m}, n={n}")
    total = binom(1 << n, m)
    bisep = n * binom(1 << (n - 1), m // 2) if m % 2 == 0 else 0
    jsep = None
    if m & (m - 1) == 0:
        k = m.bit_length() - 1
        jsep = (1 << (n - k)) * binom(n, k)
    fully = total if m % 2 == 1 else None
    return GroverCounts(n, m, total, bisep, jsep, fully, m * m >= (1 << n))


@dataclass(frozen=True)
class SimonWeightClass:
    weight: int
    count: int
    q: int


@dataclass(frozen=True)
class SimonCensus:
    """Period-weight histogram of collapsed-state classes, plus the modal weight."""

    n: int
    rows: tuple[SimonWeightClass, ...]
    modal_weight: int


def count_simon(n: int) -> SimonCensus:
    """B(n, k) periods of weight k, each collapsing to a class with q = n-k+1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rows = tuple(SimonWeightClass(k, binom(n, k), n - k + 1) for k in range(1, n + 1))
    return SimonCensus(n, rows, n // 2)


@dataclass(frozen=True)
class CensusRow:
    """One class of states: closed-form value, enumerated value, and how the
    two are asserted to relate."""

    class_name: str
    formula: Optional[int]
    oracle: Optional[int]
    relation: str
    note: Optional[str] = None

    def check(self) -> Optional[str]:
        """None when the asserted relation holds, else a failure description."""
        if self.formula is not None and self.oracle is not None:
            if self.relation == RELATION_EQUAL and self.formula != self.oracle:
                return (
                    f"{self.class_name}: formula {self.formula} != oracle {self.oracle}"
                )
            if self.relation == RELATION_UPPER and self.formula < self.oracle:
                return (
                    f"{self.class_name}: formula {self.formula} is below oracle "
                    f"{self.oracle}, bound violated"
                )
        return None


@dataclass(frozen=True)
class CensusReport:
    algorithm: str
    n: int
    rows: tuple[CensusRow, ...]
    m: Optional[int] = None

    def to_dict(self) -> dict:
        rows = []
        for r in self.rows:
            row = {
                "class": r.class_name,
                "formula": None if r.formula is None else str(r.formula),
                "oracle": None if r.oracle is None else str(r.oracle),
                "relation": r.relation,
            }
            if r.note is not None:
                row["note"] = r.note
            rows.append(row)
        out = {"schema": "census-v1", "algorithm": self.algorithm, "n": self.n}
        if self.m is not None:
            out["m"] = self.m
        out["rows"] = rows
        return out

    def failures(self) -> list[str]:
        return [msg for msg in (r.check() for r in self.rows) if msg]


def shard_bounds(total: int, workers: int, min_shard: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) ranges that cover range(total) in order: one per
    worker, but at most one per min_shard items, rounded up, and at least one."""
    shards = max(1, min(workers, -(-total // min_shard)))
    step, extra = divmod(total, shards)
    cuts = [i * step + min(i, extra) for i in range(shards + 1)]
    return list(zip(cuts, cuts[1:]))


def pool_map(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], one worker process per job; a single job
    runs in process.

    This is the package's one process pool. Its workers are daemonic and
    cannot start pools of their own, so no job may call ``enumerate_*``.
    """
    if len(jobs) <= 1:
        return list(map(fn, jobs))
    with multiprocessing.Pool(processes=len(jobs)) as pool:
        return pool.map(fn, jobs)


def placements(n: int, m: int, lo: int = 0, hi: Optional[int] = None):
    """Packed truth tables, bit x set at each minus sign, of every placement
    of m minus signs among the 2^n amplitudes with combination rank in
    [lo, hi), in rank order."""
    return (
        sum(1 << x for x in minus)
        for minus in islice(combinations(range(1 << n), m), lo, hi)
    )


def _scan_placements(args: tuple[int, int, int, int]) -> Counter:
    """Histogram of finest block sizes over one rank shard of placements.

    Each placement's table goes to the ANF kernel ``sign_block_sizes``; no
    state is built and no rank-1 test runs.
    """
    n, m, lo, hi = args
    return Counter(sign_block_sizes(n, table) for table in placements(n, m, lo, hi))


def _placement_histogram(n: int, m: int, workers: int) -> Counter:
    """Block-size histogram over every placement of m minus signs.

    Sharded by contiguous combination-rank ranges with an additive merge, so
    the result does not depend on the worker count. The scan takes at most
    one shard per MIN_SHARD_PLACEMENTS placements, and one shard runs in
    process. States above FACTOR_CAP qubits, and scans of more than
    PLACEMENT_CAP placements, are refused before any scan.
    """
    check_factor_cap(n)
    total = binom(1 << n, m)
    if total > PLACEMENT_CAP:
        raise ResourceCapError(
            f"placement scan capped at {PLACEMENT_CAP} placements, B(2^{n}, {m}) = {total}"
        )
    jobs = [(n, m, lo, hi) for lo, hi in shard_bounds(total, workers, MIN_SHARD_PLACEMENTS)]
    return sum(pool_map(_scan_placements, jobs), Counter())


def _report_rows(rows: list[tuple], enumerated: bool) -> tuple[CensusRow, ...]:
    """Build a report's rows from (class, closed form, enumerated count,
    relation, note) tuples.

    An enumerated report keeps every row and drops the closed form of
    oracle-only rows; a closed-form report keeps the rows that have a closed
    form, with no enumerated count and no asserted relation.
    """
    if enumerated:
        return tuple(
            CensusRow(
                name,
                None if relation == RELATION_ORACLE_ONLY else formula,
                oracle,
                relation,
                note,
            )
            for name, formula, oracle, relation, note in rows
        )
    return tuple(
        CensusRow(name, formula, None, RELATION_FORMULA_ONLY, note)
        for name, formula, _, _, note in rows
        if formula is not None
    )


def _dj_rows(n: int, sizes: Optional[Counter]) -> tuple[CensusRow, ...]:
    """DJ rows from the block-size histogram of the balanced placements, or
    closed forms only when sizes is None."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    def count(keep) -> int:
        return sum(c for s, c in (sizes or Counter()).items() if keep(s))

    pair = count_pairblock_factorizations(n) if n >= 3 else None
    rows = [
        ("balanced", count_balanced(n), count(lambda s: True), RELATION_EQUAL, None),
        (
            "balanced-fully-separable",
            count_balanced_fully_separable(n),
            count(lambda s: len(s) == n),
            RELATION_EQUAL,
            None,
        ),
        (
            "balanced-pair-block",
            pair,
            count(lambda s: s == (1,) * (n - 2) + (2,)),
            RELATION_ORACLE_ONLY if pair is None else RELATION_UPPER,
            None,
        ),
        (
            "balanced-biseparable",
            count_dj_bisep_upper(n)[0],
            count(lambda s: len(s) >= 2),
            RELATION_UPPER,
            None,
        ),
        (
            "balanced-genuinely-entangled",
            None,
            count(lambda s: len(s) == 1),
            RELATION_ORACLE_ONLY,
            None,
        ),
    ]
    return _report_rows(rows, sizes is not None)


def enumerate_dj(n: int, workers: int = 1, cap: int = DJ_FULL_CAP) -> CensusReport:
    """Exhaustively classify the balanced functions on n bits.

    Runs one scan over the placements of 2^(n-1) minus signs, each read by
    the ANF kernel ``sign_block_sizes``, capped at n = cap.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > cap:
        raise ResourceCapError(
            f"balanced-function enumeration capped at n = {cap}, got {n}; the default"
            f" cap is n = {DJ_FULL_CAP}, raised with --max-n"
        )
    sizes = _placement_histogram(n, 1 << (n - 1), workers)
    return CensusReport("dj", n, _dj_rows(n, sizes))


def dj_formula_report(n: int) -> CensusReport:
    """Closed-form rows only, for runs without the exhaustive oracle."""
    return CensusReport("dj", n, _dj_rows(n, None))


def _grover_rows(
    gc: GroverCounts, qcounts: Optional[list[int]]
) -> tuple[CensusRow, ...]:
    n, m = gc.n, gc.m
    q = qcounts or [0] * (n + 1)
    outside = "outside the M^2 < 2^n regime; {} {} not asserted"
    rows = [("total", gc.total, sum(q), RELATION_EQUAL, None)]
    if m % 2 == 1:
        rows.append(
            ("fully-entangled", gc.fully_entangled_formula, q[1], RELATION_EQUAL, None)
        )
        rows.append(
            (
                "biseparable",
                0,
                sum(q[2:]),
                RELATION_EQUAL,
                "odd solution count admits no tensor split",
            )
        )
    else:
        if m == 2 and not gc.outside_regime:
            relation, note = RELATION_EQUAL, None
        elif 4 <= m <= 1 << (n - 2):
            relation = RELATION_UPPER
            note = "closed form counts (partition, factor) pairs"
        else:
            relation = RELATION_ORACLE_ONLY
            note = outside.format("closed form", gc.bisep_formula)
        rows.append(("biseparable", gc.bisep_formula, sum(q[2:]), relation, note))
        rows.append(("fully-entangled", None, q[1], RELATION_ORACLE_ONLY, None))
        if gc.jsep_form_count is not None and m >= 4:
            k, jsep = m.bit_length() - 1, gc.jsep_form_count
            in_regime = m <= 1 << (n - 2)
            rows.append(
                (
                    f"{k + 1}-separable-form",
                    jsep,
                    q[k + 1],
                    RELATION_EQUAL if in_regime else RELATION_ORACLE_ONLY,
                    None if in_regime else outside.format("form count", jsep),
                )
            )
    rows += [
        (f"q-{j}", None, q[j], RELATION_ORACLE_ONLY, None)
        for j in range(1, n + 1)
        if q[j]
    ]
    return _report_rows(rows, qcounts is not None)


def check_grover_caps(n: int, m: int) -> GroverCounts:
    """Refuse an (n, M) scan of more than GROVER_STATE_CAP states, or one
    above the qubit cap, before it starts; else return its closed-form counts."""
    gc = count_grover(n, m)
    if gc.total > GROVER_STATE_CAP:
        raise ResourceCapError(
            f"enumeration capped at {GROVER_STATE_CAP} states, B(2^{n}, {m}) = {gc.total}"
        )
    check_factor_cap(n)
    return gc


def enumerate_grover(n: int, m: int, workers: int = 1) -> CensusReport:
    """Classify every placement of M minus signs among the 2^n amplitudes."""
    gc = check_grover_caps(n, m)
    qcounts = [0] * (n + 1)
    for sizes, count in _placement_histogram(n, m, workers).items():
        qcounts[len(sizes)] += count
    return CensusReport("grover", n, _grover_rows(gc, qcounts), m=m)


def grover_formula_report(n: int, m: int) -> CensusReport:
    """Closed-form rows only for one (n, M)."""
    gc = count_grover(n, m)
    return CensusReport("grover", n, _grover_rows(gc, None), m=m)


def _simon_rows(sc: SimonCensus, classes: Optional[Counter]) -> tuple[CensusRow, ...]:
    """Simon rows from the (period weight, collapsed q) histogram, or closed
    forms only when classes is None."""
    found = classes or Counter()
    periods = sum(found.values())
    rows = [
        (
            f"weight-{row.weight}",
            row.count,
            found.get((row.weight, row.q), 0),
            RELATION_EQUAL,
            f"collapsed class q = {row.q}",
        )
        for row in sc.rows
    ]
    rows.append(("total-nonzero-periods", (1 << sc.n) - 1, periods, RELATION_EQUAL, None))
    rows.append(("modal-weight", sc.modal_weight, None, RELATION_FORMULA_ONLY, None))
    return _report_rows(rows, classes is not None)


def enumerate_simon(n: int, cap: int = FACTOR_CAP) -> CensusReport:
    """Classify the collapsed state of every nonzero period on n qubits."""
    sc = count_simon(n)
    check_factor_cap(n, cap)
    classes = Counter(
        (r.bit_count(), finest_factorization(simon_canonical_state(n, r), cap=cap).q)
        for r in range(1, 1 << n)
    )
    return CensusReport("simon", n, _simon_rows(sc, classes))


def simon_formula_report(n: int) -> CensusReport:
    return CensusReport("simon", n, _simon_rows(count_simon(n), None))
