"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each criterion gathers its own evidence into a problem list, announces the
verdict on an uncaptured stream, then asserts the list is empty, so exactly
one line appears per criterion regardless of outcome. Criteria 4 to 7 run
the same check functions as the CLI verify suites, on their own candidates.
"""
import hashlib
import json
import math
import time
from pathlib import Path

from click.testing import CliRunner

from eqw.census import (
    count_balanced,
    count_balanced_fully_separable,
    count_dj_bisep_upper,
    count_pairblock_factorizations,
    dj_fractions,
    enumerate_dj,
    enumerate_grover,
    grover_bisep_fraction_log2,
)
from eqw.cli import main as cli_main
from eqw.rng import SplitMix64
from eqw.verify import (
    STATUS_FAIL,
    check_lemma_decomposition,
    check_lemma_product,
    check_odd_m_entangled,
    check_parseval,
    check_pipeline,
    check_register_rank,
    check_seed_invariance,
    check_simon_classes,
    check_spectral,
    function_sample,
)

PINNED_DIGESTS = (
    Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "cli_digests.json"
)


def _failures(checks) -> list[str]:
    return [f"{c.name}: {c.detail}" for c in checks if c.status == STATUS_FAIL]


def _report(capsys, number: int, description: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"[acceptance {number}] {status} - {description}"
    if problems:
        line += f" :: {problems[0]}"
    with capsys.disabled():
        print(line, flush=True)
    assert not problems, problems


def test_criterion_1_dj_exact_counts(capsys):
    problems = []
    expected = {2: (6, 6), 3: (70, 14), 4: (12870, 30)}
    start = time.monotonic()
    for n, (bal, sep) in expected.items():
        rows = {r.class_name: r for r in enumerate_dj(n, workers=1).rows}
        if rows["balanced"].oracle != bal or rows["balanced"].formula != count_balanced(n):
            problems.append(f"n={n}: balanced {rows['balanced'].oracle} != {bal}")
        if (
            rows["balanced-fully-separable"].oracle != sep
            or rows["balanced-fully-separable"].formula
            != count_balanced_fully_separable(n)
        ):
            problems.append(
                f"n={n}: fully separable {rows['balanced-fully-separable'].oracle} != {sep}"
            )
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        problems.append(f"single-threaded n<=4 enumeration took {elapsed:.1f}s >= 60s")
    _report(
        capsys,
        1,
        f"exhaustive balanced counts equal closed forms at n=2,3,4 ({elapsed:.1f}s)",
        problems,
    )


def test_criterion_2_dj_upper_bounds(capsys):
    problems = []
    rows3 = {r.class_name: r for r in enumerate_dj(3).rows}
    if rows3["balanced-biseparable"].oracle != 38:
        problems.append(f"n=3 distinct biseparable {rows3['balanced-biseparable'].oracle} != 38")
    if not rows3["balanced-biseparable"].oracle <= count_dj_bisep_upper(3)[0] == 132:
        problems.append("n=3 biseparable bound violated")
    if rows3["balanced-pair-block"].oracle != 24:
        problems.append(f"n=3 pair-block {rows3['balanced-pair-block'].oracle} != 24")
    if not rows3["balanced-pair-block"].oracle <= count_pairblock_factorizations(3) == 48:
        problems.append("n=3 pair-block bound violated")
    rows4 = {r.class_name: r for r in enumerate_dj(4).rows}
    if rows4["balanced-biseparable"].oracle > count_dj_bisep_upper(4)[0]:
        problems.append("n=4 biseparable bound violated")
    if rows4["balanced-pair-block"].oracle > count_pairblock_factorizations(4):
        problems.append("n=4 pair-block bound violated")
    for n in range(2, 13):
        a, b = count_dj_bisep_upper(n)
        if a != b:
            problems.append(f"bound forms differ at n={n}: {a} != {b}")
    _report(
        capsys,
        2,
        "distinct counts sit under the closed-form bounds; both bound forms agree n=2..12",
        problems,
    )


def test_criterion_3_dj_entanglement_trend(capsys):
    problems = []
    start = time.monotonic()
    fractions = []
    for n in (2, 3, 4):
        rows = {r.class_name: r for r in enumerate_dj(n).rows}
        fractions.append(
            rows["balanced-genuinely-entangled"].oracle / rows["balanced"].oracle
        )
    if fractions[0] != 0.0:
        problems.append(f"n=2 entangled fraction {fractions[0]} != 0")
    if not math.isclose(fractions[1], 32 / 70):
        problems.append(f"n=3 entangled fraction {fractions[1]} != 32/70")
    if not fractions[0] < fractions[1] < fractions[2]:
        problems.append(f"entangled fraction not increasing: {fractions}")
    t_formula = time.monotonic()
    fr = dj_fractions(14)
    gap = abs(fr.sep_asymptotic - fr.sep_exact)
    if gap >= 0.02:
        problems.append(f"Stirling gap at n=14 is {gap:.4f} >= 0.02")
    formula_elapsed = time.monotonic() - t_formula
    if formula_elapsed >= 10.0:
        problems.append(f"formula evaluation took {formula_elapsed:.1f}s >= 10s")
    _report(
        capsys,
        3,
        f"entangled fraction grows {fractions[0]:.2f} -> {fractions[1]:.2f} -> "
        f"{fractions[2]:.2f}; Stirling gap at n=14 within 0.02",
        problems,
    )


def test_criterion_4_grover(capsys):
    problems = _failures(
        check_odd_m_entangled(n, m, enumerate_grover(n, m)) for n in (3, 4) for m in (1, 3)
    )
    for n in (3, 4):
        rows = {r.class_name: r for r in enumerate_grover(n, 2).rows}
        expected = n * (1 << (n - 1))
        if rows["biseparable"].oracle != expected or rows["biseparable"].relation != "equal":
            problems.append(
                f"n={n} M=2 biseparable {rows['biseparable'].oracle} != {expected}"
            )
    rows44 = {r.class_name: r for r in enumerate_grover(4, 4).rows}
    if rows44.get("3-separable-form") is None or rows44["3-separable-form"].oracle != 24:
        problems.append("n=4 M=4 triseparable form count 24 missing from oracle classes")
    if not rows44["biseparable"].oracle <= 112 == rows44["biseparable"].formula:
        problems.append("n=4 M=4 biseparable total not bounded by 112")
    for m in (2, 4):
        vals = [grover_bisep_fraction_log2(n, m) for n in range(4, 21)]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            problems.append(f"M={m} biseparable fraction not strictly decreasing")
    _report(
        capsys,
        4,
        "odd M fully entangled; M=2 count exact; M=4 form/bound hold; fraction vanishes",
        problems,
    )


def test_criterion_5_simon(capsys):
    checks = [check_simon_classes(n) for n in range(2, 7)]
    checks += [
        check_seed_invariance(n, [r], 77, range(12))
        for n, r in [(3, 0b110), (4, 0b1011), (5, 0b10101)]
    ]
    checks += [check_register_rank(n, 5) for n in (2, 3, 4)]
    _report(
        capsys,
        5,
        "period weight sets the class for all r at n=2..6; rank and seed invariance hold",
        _failures(checks),
    )


def test_criterion_6_pipeline_equivalence(capsys):
    # exhaustive at n = 1..3, then 2000 draws per n = 4..8 from one generator
    rng = SplitMix64(0xACCE)
    samples = [(n, *function_sample(n, 2000, rng, "functions")) for n in range(1, 9)]
    checked = sum(len(fis) for _, fis, _ in samples)
    _report(
        capsys,
        6,
        f"oracle pipeline equals direct construction with ancilla (+1,-1) ({checked} cases)",
        _failures(check_pipeline(*sample) for sample in samples),
    )


def test_criterion_7_separability_engine(capsys):
    # exhaustive at n = 2, 3, then 3334 draws per n = 4..6 from one generator
    rng = SplitMix64(0x7AB)
    checks = [
        check_spectral(n, *function_sample(n, 3334, rng, "sign vectors")) for n in range(2, 7)
    ]
    checks += [check_parseval(n) for n in (2, 3)]
    checks += [
        check(n)
        for n in (2, 3, 4)
        for check in (check_lemma_product, check_lemma_decomposition)
    ]
    _report(
        capsys,
        7,
        "spectral test tracks the engine exhaustively and on samples; both factor-"
        "balance directions hold to n=4",
        _failures(checks),
    )


def test_criterion_8_determinism_and_runtime(capsys):
    problems = []
    runner = CliRunner()
    for args in (
        ["census", "dj", "--n", "3", "--exhaustive"],
        ["census", "grover", "--n", "4", "--m", "2", "--exhaustive"],
    ):
        one = runner.invoke(cli_main, args + ["--workers", "1"], catch_exceptions=False)
        eight = runner.invoke(cli_main, args + ["--workers", "8"], catch_exceptions=False)
        if one.output != eight.output:
            problems.append(f"{' '.join(args)}: 1 vs 8 workers differ")
        json.loads(one.output)
    sim_args = ["simulate", "simon", "--n", "3", "--r", "110", "--seed", "7"]
    a = runner.invoke(cli_main, sim_args, catch_exceptions=False)
    b = runner.invoke(cli_main, sim_args, catch_exceptions=False)
    if a.output != b.output:
        problems.append("repeated seeded simulation differs")
    start = time.monotonic()
    res = runner.invoke(
        cli_main, ["verify", "--suite", "all", "--n", "2..4"], catch_exceptions=False
    )
    elapsed = time.monotonic() - start
    if res.exit_code != 0:
        problems.append(f"verify --suite all --n 2..4 exited {res.exit_code}")
    # the output does not depend on the worker count, so the pinned
    # two-worker digest holds for this run too
    pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))
    if hashlib.sha256(res.stdout_bytes).hexdigest() != pinned[
        "verify --suite all --n 2..4 --workers 2"
    ]:
        problems.append("verify --suite all --n 2..4 stdout differs from its pinned digest")
    if elapsed >= 300.0:
        problems.append(f"verify took {elapsed:.0f}s >= 300s")
    _report(
        capsys,
        8,
        f"worker count and reruns are byte-identical; full verify ran in {elapsed:.1f}s",
        problems,
    )
