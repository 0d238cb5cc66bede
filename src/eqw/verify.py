"""Executable invariant suites behind the CLI verify command.

Each suite re-derives a family of claims by exhaustive or seeded-sample
enumeration and reports per-check pass/fail lines with the first
counterexample's truth table. Upper-bound gaps between closed forms and
distinct counts are reported as informational lines; only a violated bound
or a failed exact comparison fails a check.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .census import (
    RELATION_UPPER,
    count_dj_bisep_upper,
    enumerate_dj,
    enumerate_grover,
    enumerate_simon,
    sign_placements,
)
from .oracles import (
    dj_oracle_pipeline,
    make_simon_instance,
    simon_canonical_state,
    simon_global_state,
    simon_measure,
)
from .rng import SplitMix64
from .separability import (
    Bipartition,
    classify,
    full_separability_fast,
    lemma_check,
    schmidt_rank,
    wht,
)
from .states import BooleanFunction, StateVector, state_from_function

SAMPLE_BUDGET = 10_000
_SAMPLE_SEED = 0x5EED

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INFO = "info"


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    status: str
    detail: str


def _bits(n: int, fi: int) -> str:
    """Truth-table string of the function with integer encoding fi."""
    return "".join(str((fi >> x) & 1) for x in range(1 << n))


def _sign_state(n: int, fi: int) -> StateVector:
    return StateVector(n, tuple(1 - 2 * ((fi >> x) & 1) for x in range(1 << n)))


def _function(n: int, fi: int) -> BooleanFunction:
    return BooleanFunction(n, tuple((fi >> x) & 1 for x in range(1 << n)))


def _sample_function_ints(n: int, count: int, seed: int) -> list[int]:
    rng = SplitMix64(seed ^ n)
    size = 1 << n
    return [rng.below(1 << size) for _ in range(count)]


def _spread(total: int, buckets: int) -> int:
    return max(1, total // max(1, buckets))


def verify_wht(ns: list[int]) -> list[Check]:
    """Spectral full-separability test against the factorization engine."""
    checks = []
    sampled_ns = [n for n in ns if n > 3]
    per_n = _spread(SAMPLE_BUDGET, len(sampled_ns)) if sampled_ns else 0
    for n in ns:
        size = 1 << n
        if n <= 3:
            candidates = range(1 << size)
            mode = f"exhaustive over {1 << size} sign vectors"
        else:
            candidates = _sample_function_ints(n, per_n, _SAMPLE_SEED)
            mode = f"{per_n} seeded samples"
        bad = None
        parseval_bad = None
        for fi in candidates:
            s = _sign_state(n, fi)
            spectral = full_separability_fast(s) is not None
            engine = classify(s).q == n
            if spectral != engine:
                bad = fi
                break
            if n <= 3:
                spectrum = wht(s)
                if sum(c * c for c in spectrum) != 1 << (2 * n):
                    parseval_bad = fi
                    break
        if bad is not None:
            checks.append(
                Check(
                    "wht",
                    f"spectral-vs-engine n={n}",
                    STATUS_FAIL,
                    f"disagreement at truth table {_bits(n, bad)}",
                )
            )
        else:
            checks.append(
                Check("wht", f"spectral-vs-engine n={n}", STATUS_PASS, mode)
            )
        if n <= 3:
            if parseval_bad is not None:
                checks.append(
                    Check(
                        "wht",
                        f"parseval n={n}",
                        STATUS_FAIL,
                        f"sum of squares wrong at truth table {_bits(n, parseval_bad)}",
                    )
                )
            else:
                checks.append(
                    Check(
                        "wht",
                        f"parseval n={n}",
                        STATUS_PASS,
                        f"sum of squared coefficients = 2^{2 * n} on all sign vectors",
                    )
                )
    return checks


def _compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered splits of n into at least two positive parts."""
    if n < 2:
        return []
    out = []

    def rec(rest: int, acc: tuple[int, ...]):
        if rest == 0:
            if len(acc) >= 2:
                out.append(acc)
            return
        for part in range(1, rest + 1):
            rec(rest - part, acc + (part,))

    rec(n, ())
    return out


def verify_lemma(ns: list[int]) -> list[Check]:
    """Balancedness of products vs factors, in both directions."""
    checks = []
    for n in ns:
        if n > 4:
            checks.append(
                Check(
                    "lemma",
                    f"product-direction n={n}",
                    STATUS_INFO,
                    "skipped: exhaustive product enumeration runs up to n = 4",
                )
            )
            continue
        bad = None
        tried = 0
        for parts in _compositions(n):
            spaces = [range(1 << (1 << k)) for k in parts]
            for signs in product(*spaces):
                factors = [_sign_state(k, fi) for k, fi in zip(parts, signs)]
                tried += 1
                prod_bal, any_bal = lemma_check(factors)
                if prod_bal != any_bal:
                    bad = (parts, signs)
                    break
            if bad:
                break
        if bad:
            checks.append(
                Check(
                    "lemma",
                    f"product-direction n={n}",
                    STATUS_FAIL,
                    f"factor sizes {bad[0]} signs {bad[1]} disagree",
                )
            )
        else:
            checks.append(
                Check(
                    "lemma",
                    f"product-direction n={n}",
                    STATUS_PASS,
                    f"{tried} factor tuples, product balanced iff a factor is",
                )
            )
        bad_fi = None
        for minus, s in sign_placements(n, 1 << (n - 1)):
            rep = classify(s)
            if rep.q < 2:
                continue
            blocks_balanced = any(
                f.plus_count() == f.minus_count()
                for _, f in rep.factorization.blocks
            )
            if not blocks_balanced:
                bad_fi = sum(1 << x for x in minus)
                break
        if bad_fi is not None:
            checks.append(
                Check(
                    "lemma",
                    f"decomposition-direction n={n}",
                    STATUS_FAIL,
                    f"no balanced block for balanced table {_bits(n, bad_fi)}",
                )
            )
        else:
            checks.append(
                Check(
                    "lemma",
                    f"decomposition-direction n={n}",
                    STATUS_PASS,
                    "every splittable balanced sign vector has a balanced block",
                )
            )
    return checks


def _census_checks(suite: str, report, label: str) -> list[Check]:
    checks = []
    failures = report.failures()
    if failures:
        for msg in failures:
            checks.append(Check(suite, label, STATUS_FAIL, msg))
        return checks
    checks.append(
        Check(suite, label, STATUS_PASS, "all asserted census relations hold")
    )
    for row in report.rows:
        if row.relation == RELATION_UPPER and row.oracle is not None:
            checks.append(
                Check(
                    suite,
                    f"{label} {row.class_name}",
                    STATUS_INFO,
                    f"upper bound: formula {row.formula} >= distinct {row.oracle}",
                )
            )
    return checks


def verify_dj(ns: list[int], workers: int = 1) -> list[Check]:
    """Census relations, the two bound forms, and pipeline equivalence."""
    checks = []
    for n in ns:
        a, b = count_dj_bisep_upper(n)
        if a != b:
            checks.append(
                Check("dj", f"bound-forms n={n}", STATUS_FAIL, f"{a} != {b}")
            )
        else:
            checks.append(
                Check("dj", f"bound-forms n={n}", STATUS_PASS, f"both forms give {a}")
            )
        if n <= 4:
            checks.extend(
                _census_checks("dj", enumerate_dj(n, workers=workers), f"census n={n}")
            )
        else:
            checks.append(
                Check(
                    "dj",
                    f"census n={n}",
                    STATUS_INFO,
                    "skipped: full enumeration is capped at n = 4",
                )
            )
    sampled_ns = [n for n in ns if n > 3]
    per_n = _spread(SAMPLE_BUDGET, len(sampled_ns)) if sampled_ns else 0
    for n in ns:
        if n <= 3:
            candidates = range(1 << (1 << n))
            mode = f"exhaustive over {1 << (1 << n)} functions"
        else:
            candidates = _sample_function_ints(n, per_n, _SAMPLE_SEED + 1)
            mode = f"{per_n} seeded samples"
        bad = None
        for fi in candidates:
            f = _function(n, fi)
            register, target = dj_oracle_pipeline(f)
            if register.amps != state_from_function(f).amps or target.amps != (1, -1):
                bad = fi
                break
        if bad is not None:
            checks.append(
                Check(
                    "dj",
                    f"pipeline-equivalence n={n}",
                    STATUS_FAIL,
                    f"pipeline deviates at truth table {_bits(n, bad)}",
                )
            )
        else:
            checks.append(
                Check("dj", f"pipeline-equivalence n={n}", STATUS_PASS, mode)
            )
    return checks


def verify_grover(ns: list[int], workers: int = 1) -> list[Check]:
    """Exhaustive per-q classification for every small solution count."""
    checks = []
    for n in ns:
        for m in range(1, min(4, (1 << n) - 1) + 1):
            report = enumerate_grover(n, m, workers=workers)
            checks.extend(_census_checks("grover", report, f"census n={n} M={m}"))
            if m % 2 == 1:
                q1 = next((r.oracle for r in report.rows if r.class_name == "q-1"), 0)
                total = next(r.oracle for r in report.rows if r.class_name == "total")
                if q1 != total:
                    checks.append(
                        Check(
                            "grover",
                            f"odd-M-entangled n={n} M={m}",
                            STATUS_FAIL,
                            f"{total - q1} states with an odd solution count split",
                        )
                    )
                else:
                    checks.append(
                        Check(
                            "grover",
                            f"odd-M-entangled n={n} M={m}",
                            STATUS_PASS,
                            f"all {total} states genuinely entangled",
                        )
                    )
    return checks


def verify_simon(ns: list[int], seeds: tuple[int, ...] = (0, 1, 2, 7, 11)) -> list[Check]:
    """Collapsed-state classes per period weight, seed invariance, register rank."""
    checks = []
    for n in ns:
        if n < 2:
            continue
        checks.extend(_census_checks("simon", enumerate_simon(n), f"census n={n}"))
        bad = None
        for r in range(1, 1 << n):
            rep = classify(simon_canonical_state(n, r))
            k = r.bit_count()
            ones = tuple(q for q in range(1, n + 1) if (r >> (n - q)) & 1)
            if rep.q != n - k + 1:
                bad = (r, f"q = {rep.q}, expected {n - k + 1}")
                break
            if k >= 2:
                block = next(
                    (
                        (qs, f)
                        for qs, f in rep.factorization.blocks
                        if len(qs) > 1
                    ),
                    None,
                )
                ghz = tuple(
                    1 if x in (0, (1 << k) - 1) else 0 for x in range(1 << k)
                )
                if block is None or block[0] != ones or block[1].amps != ghz:
                    bad = (r, "period bits do not form a single all-or-nothing block")
                    break
        if bad is not None:
            checks.append(
                Check(
                    "simon",
                    f"collapsed-classes n={n}",
                    STATUS_FAIL,
                    f"period {bad[0]:0{n}b}: {bad[1]}",
                )
            )
        else:
            checks.append(
                Check(
                    "simon",
                    f"collapsed-classes n={n}",
                    STATUS_PASS,
                    f"all {(1 << n) - 1} periods in class q = n - wt(r) + 1",
                )
            )
        bad = None
        for r in sorted({1, 0b11, (1 << n) - 1}):
            inst = make_simon_instance(n, r, seed=1234)
            sizes = None
            for seed in seeds:
                outcome = simon_measure(inst, seed)
                rep = classify(outcome.collapsed)
                if sizes is None:
                    sizes = rep.block_sizes
                elif rep.block_sizes != sizes:
                    bad = (r, seed)
                    break
            if bad:
                break
        if bad:
            checks.append(
                Check(
                    "simon",
                    f"collapse-seed-invariance n={n}",
                    STATUS_FAIL,
                    f"period {bad[0]:0{n}b} changed class at seed {bad[1]}",
                )
            )
        else:
            checks.append(
                Check(
                    "simon",
                    f"collapse-seed-invariance n={n}",
                    STATUS_PASS,
                    f"block sizes stable across {len(seeds)} seeds",
                )
            )
        if n <= 4:
            bad = None
            for r in range(1, 1 << n):
                inst = make_simon_instance(n, r, seed=99)
                rank = schmidt_rank(
                    simon_global_state(inst),
                    Bipartition(2 * n, tuple(range(1, n + 1))),
                )
                if rank != 1 << (n - 1):
                    bad = r
                    break
            if bad is not None:
                checks.append(
                    Check(
                        "simon",
                        f"register-rank n={n}",
                        STATUS_FAIL,
                        f"period {bad:0{n}b} gives rank != 2^(n-1)",
                    )
                )
            else:
                checks.append(
                    Check(
                        "simon",
                        f"register-rank n={n}",
                        STATUS_PASS,
                        f"rank across the register cut = {1 << (n - 1)} for all periods",
                    )
                )
    return checks


SUITES = {
    "dj": verify_dj,
    "grover": verify_grover,
    "simon": verify_simon,
    "lemma": verify_lemma,
    "wht": verify_wht,
}


def run_verify(suite: str, ns: list[int], workers: int = 1) -> list[Check]:
    names = list(SUITES) if suite == "all" else [suite]
    checks: list[Check] = []
    for name in names:
        fn = SUITES[name]
        if name in ("dj", "grover"):
            checks.extend(fn(ns, workers=workers))
        else:
            checks.extend(fn(ns))
    return checks
