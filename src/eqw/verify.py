"""Executable invariant suites behind the CLI verify command.

Each claim is one check function that scans the candidates it is given and
reports pass, or fail with the first counterexample. The CLI suites and the
acceptance tests run the same check functions on their own candidate sets.
Upper-bound gaps between closed forms and distinct counts are reported as
informational lines; only a violated bound or a failed exact comparison
fails a check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, compress, product, tee
from math import prod
from typing import Callable, Iterable, Sequence

from .census import (
    DJ_FULL_CAP,
    MIN_SHARD_CANDIDATES,
    RELATION_UPPER,
    check_grover_caps,
    count_balanced,
    count_dj_bisep_upper,
    enumerate_dj,
    enumerate_grover,
    enumerate_simon,
    placements,
    pool_map,
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
    anf_block_sizes,
    check_factor_cap,
    classify,
    full_separability_fast,
    schmidt_rank,
    wht,
)
from .states import BooleanFunction, StateVector, state_from_function, tensor_all

SAMPLE_BUDGET = 10_000
_SAMPLE_SEED = 0x5EED
# The measurement seeds under which each period's collapse keeps its class.
COLLAPSE_SEEDS = (0, 1, 2, 7, 11)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INFO = "info"


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    status: str
    detail: str


def _check(suite: str, name: str, candidates: Iterable, is_bad: Callable[..., bool],
           fail_detail: Callable[..., str], pass_detail: str) -> Check:
    """PASS, or FAIL with fail_detail(c) at the first candidate c where
    is_bad(c) holds; the scan stops there."""
    for c in candidates:
        if is_bad(c):
            return Check(suite, name, STATUS_FAIL, fail_detail(c))
    return Check(suite, name, STATUS_PASS, pass_detail)


def _sharded(check: Callable[[Sequence], Check], candidates: Sequence, workers: int) -> Check:
    """check(candidates), run on contiguous shards of candidates over the pool.

    Each shard runs the unchanged check. The first shard's FAIL, else the
    first PASS, is what one serial scan returns: the same first
    counterexample and the same detail text.
    """
    results = pool_map(check, candidates, workers, MIN_SHARD_CANDIDATES)
    return next((c for c in results if c.status == STATUS_FAIL), results[0])


def function_sample(n: int, per_n: int, rng: SplitMix64, noun: str) -> tuple[Sequence[int], str]:
    """Every function int at n <= 3, else per_n draws from rng; with the
    mode text that a passing check reports."""
    if n <= 3:
        return range(1 << (1 << n)), f"exhaustive over {1 << (1 << n)} {noun}"
    return [rng.below(1 << (1 << n)) for _ in range(per_n)], f"{per_n} seeded samples"


def _per_n(ns: Sequence[int]) -> int:
    """SAMPLE_BUDGET shared out over the sampled (n > 3) sizes."""
    return max(1, SAMPLE_BUDGET // max(1, sum(n > 3 for n in ns)))


def _compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered splits of n into at least two positive parts, ascending."""
    return sorted(
        tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, n)))
        for k in range(1, n)
        for cuts in combinations(range(1, n), k)
    )


def check_spectral(n: int, fis: Iterable[int], mode: str) -> Check:
    """The WHT full-separability test agrees with the engine on each table."""

    def disagree(f: BooleanFunction) -> bool:
        s = state_from_function(f)
        return (full_separability_fast(s) is not None) != (classify(s).q == n)

    return _check("wht", f"spectral-vs-engine n={n}", map(partial(BooleanFunction, n), fis),
                  disagree, lambda f: f"disagreement at truth table {f.bits()}", mode)


def check_parseval(n: int) -> Check:
    """Every sign vector's squared WHT coefficients sum to 2^(2n)."""
    fs = map(partial(BooleanFunction, n), range(1 << (1 << n)))
    return _check("wht", f"parseval n={n}", fs,
                  lambda f: sum(c * c for c in wht(state_from_function(f))) != 1 << (2 * n),
                  lambda f: f"sum of squares wrong at truth table {f.bits()}",
                  f"sum of squared coefficients = 2^{2 * n} on all sign vectors")


def lemma_check(factors: list[StateVector]) -> tuple[bool, bool]:
    """Compare balancedness of a tensor product with that of its factors.

    Returns (product is balanced, at least one factor is balanced); the two
    are equal for sign-vector factors.
    """
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    if not all(f.is_sign_vector() for f in factors):
        raise ValueError("factors must have +-1 amplitudes")
    product = tensor_all(factors)
    product_balanced = product.plus_count() == product.minus_count()
    any_factor_balanced = any(f.plus_count() == f.minus_count() for f in factors)
    return product_balanced, any_factor_balanced


def check_lemma_product(n: int) -> Check:
    """A product of sign vectors is balanced iff one of its factors is."""
    splits = _compositions(n)
    tuples = (
        (parts, signs)
        for parts in splits
        for signs in product(*(range(1 << (1 << k)) for k in parts))
    )
    count = sum(prod(1 << (1 << k) for k in parts) for parts in splits)

    def disagree(c) -> bool:
        parts, signs = c
        factors = [state_from_function(BooleanFunction(k, fi)) for k, fi in zip(parts, signs)]
        prod_bal, any_bal = lemma_check(factors)
        return prod_bal != any_bal

    return _check("lemma", f"product-direction n={n}", tuples, disagree,
                  lambda c: f"factor sizes {c[0]} signs {c[1]} disagree",
                  f"{count} factor tuples, product balanced iff a factor is")


def check_lemma_decomposition(n: int, ranks: range | None = None) -> Check:
    """Every balanced sign vector that splits has a balanced block.

    Scans the balanced tables with combination rank in ranks, by default
    all of them. The ANF kernel ``anf_block_sizes`` screens out the vectors
    with one block, which cannot fail, so only the splittable ones are built
    and factored, in rank order.
    """
    if ranks is None:
        ranks = range(count_balanced(n))
    tables, screened = tee(placements(n, 1 << (n - 1), ranks))
    blocks = anf_block_sizes(n, screened)
    splittable = compress(tables, (len(sizes) >= 2 for sizes in blocks))

    def no_balanced_block(table: int) -> bool:
        rep = classify(state_from_function(BooleanFunction(n, table)))
        return rep.q >= 2 and not any(
            f.plus_count() == f.minus_count() for _, f in rep.factorization.blocks
        )

    return _check("lemma", f"decomposition-direction n={n}", splittable,
                  no_balanced_block,
                  lambda t: f"no balanced block for balanced table {BooleanFunction(n, t).bits()}",
                  "every splittable balanced sign vector has a balanced block")


def check_pipeline(n: int, fis: Iterable[int], mode: str) -> Check:
    """The DJ oracle pipeline equals direct construction, ancilla (+1, -1)."""

    def deviates(f: BooleanFunction) -> bool:
        register, target = dj_oracle_pipeline(f)
        return register.amps != state_from_function(f).amps or target.amps != (1, -1)

    return _check("dj", f"pipeline-equivalence n={n}", map(partial(BooleanFunction, n), fis),
                  deviates, lambda f: f"pipeline deviates at truth table {f.bits()}", mode)


def _simon_class_problem(n: int, r: int) -> str | None:
    """Why period r's collapsed state breaks q = n - wt(r) + 1 with one
    all-or-nothing block on the period bits, or None if it does not."""
    rep = classify(simon_canonical_state(n, r))
    k = r.bit_count()
    if rep.q != n - k + 1:
        return f"q = {rep.q}, expected {n - k + 1}"
    if k >= 2:
        ones = tuple(q for q in range(1, n + 1) if (r >> (n - q)) & 1)
        ghz = tuple(1 if x in (0, (1 << k) - 1) else 0 for x in range(1 << k))
        block = next((b for b in rep.factorization.blocks if len(b[0]) > 1), None)
        if block is None or block[0] != ones or block[1].amps != ghz:
            return "period bits do not form a single all-or-nothing block"
    return None


def check_simon_classes(n: int, periods: Sequence[int] | None = None) -> Check:
    """Each period's collapsed state, by default every period's, is in class
    q = n - wt(r) + 1."""
    return _check("simon", f"collapsed-classes n={n}",
                  range(1, 1 << n) if periods is None else periods,
                  lambda r: _simon_class_problem(n, r) is not None,
                  lambda r: f"period {r:0{n}b}: {_simon_class_problem(n, r)}",
                  f"all {(1 << n) - 1} periods in class q = n - wt(r) + 1")


def check_seed_invariance(n: int, periods: Iterable[int], instance_seed: int,
                          seeds: Sequence[int]) -> Check:
    """A period's collapse has the same block sizes under every seed."""

    def changed_at(r: int) -> int | None:
        inst = make_simon_instance(n, r, seed=instance_seed)
        sizes = [classify(simon_measure(inst, seed).collapsed).block_sizes for seed in seeds]
        return next((seed for seed, s in zip(seeds, sizes) if s != sizes[0]), None)

    return _check("simon", f"collapse-seed-invariance n={n}", periods,
                  lambda r: changed_at(r) is not None,
                  lambda r: f"period {r:0{n}b} changed class at seed {changed_at(r)}",
                  f"block sizes stable across {len(seeds)} seeds")


def check_register_rank(n: int, instance_seed: int) -> Check:
    """The global state has rank 2^(n-1) across the register cut, every period."""
    cut = Bipartition(2 * n, tuple(range(1, n + 1)))

    def rank(r: int) -> int:
        return schmidt_rank(simon_global_state(make_simon_instance(n, r, seed=instance_seed)), cut)

    return _check("simon", f"register-rank n={n}", range(1, 1 << n),
                  lambda r: rank(r) != 1 << (n - 1),
                  lambda r: f"period {r:0{n}b} gives rank != 2^(n-1)",
                  f"rank across the register cut = {1 << (n - 1)} for all periods")


def check_odd_m_entangled(n: int, m: int, report) -> Check:
    """Every Grover state with an odd solution count m is genuinely entangled."""
    q1 = next((r.oracle for r in report.rows if r.class_name == "q-1"), 0)
    total = next(r.oracle for r in report.rows if r.class_name == "total")
    return _check("grover", f"odd-M-entangled n={n} M={m}", [total - q1],
                  lambda split: split != 0,
                  lambda split: f"{split} states with an odd solution count split",
                  f"all {total} states genuinely entangled")


def census_checks(suite: str, report, label: str) -> list[Check]:
    """One FAIL per violated census relation; else a PASS and one INFO line
    per upper-bound row that has an enumerated count."""
    failures = report.failures()
    if failures:
        return [Check(suite, label, STATUS_FAIL, msg) for msg in failures]
    return [Check(suite, label, STATUS_PASS, "all asserted census relations hold")] + [
        Check(suite, f"{label} {row.class_name}", STATUS_INFO,
              f"upper bound: formula {row.formula} >= distinct {row.oracle}")
        for row in report.rows
        if row.relation == RELATION_UPPER and row.oracle is not None
    ]


def verify_wht(ns: Sequence[int], workers: int = 1) -> list[Check]:
    """Spectral full-separability test against the factorization engine."""
    checks = []
    per_n = _per_n(ns)
    for n in ns:
        rng = SplitMix64(_SAMPLE_SEED ^ n)
        fis, mode = function_sample(n, per_n, rng, "sign vectors")
        checks.append(_sharded(partial(check_spectral, n, mode=mode), fis, workers))
        if n <= 3:
            checks.append(check_parseval(n))
    return checks


def verify_lemma(ns: Sequence[int], workers: int = 1) -> list[Check]:
    """Balancedness of products vs factors, in both directions."""
    checks = []
    for n in ns:
        if n > 4:
            checks.append(Check("lemma", f"product-direction n={n}", STATUS_INFO,
                                "skipped: exhaustive product enumeration runs up to n = 4"))
            checks.append(Check("lemma", f"decomposition-direction n={n}", STATUS_INFO,
                                "skipped: exhaustive balanced-vector scan runs up to n = 4"))
        else:
            checks += [
                check_lemma_product(n),
                _sharded(partial(check_lemma_decomposition, n), range(count_balanced(n)),
                         workers),
            ]
    return checks


def verify_dj(ns: Sequence[int], workers: int = 1) -> list[Check]:
    """Census relations, the two bound forms, and pipeline equivalence."""
    checks = []
    for n in ns:
        a, b = count_dj_bisep_upper(n)
        checks.append(_check("dj", f"bound-forms n={n}", [(a, b)], lambda ab: ab[0] != ab[1],
                             lambda ab: f"{ab[0]} != {ab[1]}", f"both forms give {a}"))
        if n <= DJ_FULL_CAP:
            checks += census_checks("dj", enumerate_dj(n, workers=workers), f"census n={n}")
        else:
            checks.append(Check("dj", f"census n={n}", STATUS_INFO,
                                f"skipped: full enumeration is capped at n = {DJ_FULL_CAP}"))
    per_n = _per_n(ns)
    for n in ns:
        rng = SplitMix64((_SAMPLE_SEED + 1) ^ n)
        fis, mode = function_sample(n, per_n, rng, "functions")
        checks.append(_sharded(partial(check_pipeline, n, mode=mode), fis, workers))
    return checks


def _grover_ms(n: int) -> range:
    """The grover suite's solution counts at n, 1..min(4, 2^n - 1), built without 2^n."""
    return range(1, 5) if n > 2 else range(1, 1 << n)


def verify_grover(ns: Sequence[int], workers: int = 1) -> list[Check]:
    """Exhaustive per-q classification for every small solution count."""
    checks = []
    for n in ns:
        for m in _grover_ms(n):
            report = enumerate_grover(n, m, workers=workers)
            checks += census_checks("grover", report, f"census n={n} M={m}")
            if m % 2 == 1:
                checks.append(check_odd_m_entangled(n, m, report))
    return checks


def verify_simon(ns: Sequence[int], workers: int = 1) -> list[Check]:
    """Collapsed-state classes per period weight, seed invariance, register rank."""
    checks = []
    for n in ns:
        if n < 2:
            continue
        checks += census_checks("simon", enumerate_simon(n, workers), f"census n={n}")
        checks.append(_sharded(partial(check_simon_classes, n), range(1, 1 << n), workers))
        checks.append(check_seed_invariance(n, sorted({1, 0b11, (1 << n) - 1}), 1234,
                                        COLLAPSE_SEEDS))
        if n <= 4:
            checks.append(check_register_rank(n, 99))
    return checks


SUITES = {
    "dj": verify_dj,
    "grover": verify_grover,
    "simon": verify_simon,
    "lemma": verify_lemma,
    "wht": verify_wht,
}


def _refuse_over_cap(names: list[str], ns: Sequence[int]) -> None:
    """Before any suite runs, raise the cap error of the smallest refused n:
    every suite's 12-qubit cap in run order, grover's state cap first."""
    for n in ns:
        for name in names:
            if name == "grover":
                for m in _grover_ms(n):
                    check_grover_caps(n, m)
            check_factor_cap(n)


def run_verify(suite: str, ns: Sequence[int], workers: int = 1) -> list[Check]:
    names = list(SUITES) if suite == "all" else [suite]
    _refuse_over_cap(names, ns)
    return [check for name in names for check in SUITES[name](ns, workers=workers)]
