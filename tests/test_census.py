import math
import re
from itertools import combinations

import pytest

from eqw import census
from eqw.census import (
    CensusRow,
    SimonWeightClass,
    binom,
    count_balanced,
    count_balanced_fully_separable,
    count_bisep_fixed_partition,
    count_dj_bisep_upper,
    count_grover,
    count_pairblock_factorizations,
    count_simon,
    dj_formula_report,
    dj_fractions,
    enumerate_dj,
    enumerate_grover,
    enumerate_simon,
    grover_bisep_fraction_log2,
    grover_formula_report,
    log2_int,
    simon_formula_report,
)
from eqw.errors import ResourceCapError
from eqw.separability import Bipartition, try_factor

from conftest import balanced_sign_states, canonical_amps, interleave_product


def pascal_row(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def test_binom_small_values():
    assert binom(8, 4) == 70
    assert binom(16, 8) == 12870
    assert binom(5, 0) == 1 and binom(5, 5) == 1


def test_binom_against_pascal_recurrence():
    row = pascal_row(30)
    for b in range(31):
        assert binom(30, b) == row[b]
    big = binom(1 << 10, 1 << 9)
    assert big == pascal_row(1024)[512]
    assert len(str(big)) == 307


def test_binom_domain():
    with pytest.raises(ValueError):
        binom(3, 4)
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -1)


@pytest.mark.parametrize(
    "n,expected",
    [(2, (6, 6)), (3, (70, 14)), (4, (12870, 30))],
)
def test_balanced_counts(n, expected):
    assert (count_balanced(n), count_balanced_fully_separable(n)) == expected


def test_balanced_counts_domain():
    with pytest.raises(ValueError):
        count_balanced(0)
    with pytest.raises(ValueError):
        count_balanced_fully_separable(0)


def test_pairblock_formula():
    assert count_pairblock_factorizations(3) == 48
    assert count_pairblock_factorizations(4) == 2 * 3 * 8 * 6
    with pytest.raises(ValueError):
        count_pairblock_factorizations(2)


def test_bisep_fixed_partition_values():
    assert count_bisep_fixed_partition(3, 1) == 44
    assert count_bisep_fixed_partition(2, 1) == 12
    with pytest.raises(ValueError):
        count_bisep_fixed_partition(3, 3)
    with pytest.raises(ValueError):
        count_bisep_fixed_partition(3, 0)


def test_bisep_fixed_partition_oracle_at_one_cut():
    # distinct balanced sign vectors splitting at the fixed cut {1} of n=3
    hits = sum(
        1
        for s in balanced_sign_states(3)
        if try_factor(s, Bipartition(3, (1,))) is not None
    )
    assert hits == 22
    assert hits == count_bisep_fixed_partition(3, 1) // 2


def test_dj_bisep_upper_values_and_form_equality():
    assert count_dj_bisep_upper(2) == (12, 12)
    assert count_dj_bisep_upper(3) == (132, 132)
    for n in range(2, 13):
        a, b = count_dj_bisep_upper(n)
        assert a == b
    with pytest.raises(ValueError):
        count_dj_bisep_upper(1)


def test_dj_fractions_values():
    assert dj_fractions(2).sep_exact == pytest.approx(0.0, abs=1e-12)
    assert dj_fractions(3).sep_exact == pytest.approx(
        math.log2(14 / 70), abs=1e-12
    )
    # n=5 against a direct big-integer evaluation of the same ratio
    num = 2 * 31 * math.factorial(16) ** 2
    den = math.factorial(32)
    assert dj_fractions(5).sep_exact == pytest.approx(
        log2_int(num) - log2_int(den), abs=1e-9
    )


def test_dj_fractions_structure_and_cap():
    fr = dj_fractions(4)
    assert [type(v) for v in (fr.sep_exact, fr.sep_asymptotic, fr.bisep_bound)] == [float] * 3
    with pytest.raises(ResourceCapError):
        dj_fractions(21)
    with pytest.raises(ValueError):
        dj_fractions(1)


def test_dj_fractions_stop_where_a_float_overflows():
    fr = dj_fractions(1014, cap=1014)
    assert all(-math.inf < v < 0 for v in (fr.sep_exact, fr.sep_asymptotic, fr.bisep_bound))
    for cap in (1015, 10**6):
        with pytest.raises(ResourceCapError, match="overflow a float at n = 1015"):
            dj_fractions(1015, cap=cap)


def test_stirling_convergence():
    gaps = []
    for n in range(4, 15):
        fr = dj_fractions(n)
        gaps.append(abs(fr.sep_asymptotic - fr.sep_exact))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02
    for n in range(8, 15):
        fr = dj_fractions(n)
        assert abs(fr.sep_asymptotic - fr.sep_exact) < 0.02


def test_sep_exact_strictly_decreasing():
    vals = [dj_fractions(n).sep_exact for n in range(2, 15)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_biseparable_oracle_fraction_strictly_decreasing():
    fractions = []
    for n in (2, 3, 4):
        rows = {r.class_name: r for r in enumerate_dj(n).rows}
        fractions.append(rows["balanced-biseparable"].oracle / rows["balanced"].oracle)
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_count_grover_values():
    gc = count_grover(3, 1)
    assert gc.total == 8
    assert gc.jsep_form_count == 8  # 2^n B(n, 0)
    assert not gc.outside_regime
    gc = count_grover(3, 2)
    assert (gc.total, gc.bisep_formula) == (28, 12)
    gc = count_grover(4, 4)
    assert gc.jsep_form_count == 24
    assert gc.bisep_formula == 112
    assert gc.outside_regime  # boundary case M = 2^(n/2)
    gc = count_grover(2, 2)
    assert gc.outside_regime
    gc = count_grover(5, 3)
    assert gc.bisep_formula == 0


def test_odd_m_fully_entangled_row_is_the_total():
    for n, m in ((3, 1), (5, 3)):
        rows = {r.class_name: r for r in grover_formula_report(n, m).rows}
        assert rows["fully-entangled"].formula == rows["total"].formula == count_grover(n, m).total


def test_count_grover_domain():
    with pytest.raises(ValueError):
        count_grover(3, 0)
    with pytest.raises(ValueError):
        count_grover(3, 8)
    with pytest.raises(ValueError):
        count_grover(1, 1)


def test_grover_fraction_monotone():
    for m in (2, 4):
        vals = [grover_bisep_fraction_log2(n, m) for n in range(4, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_count_simon():
    assert count_simon(3) == (SimonWeightClass(1, 3, 3), SimonWeightClass(2, 3, 2),
                              SimonWeightClass(3, 1, 1))
    for n in range(2, 11):
        assert sum(r.count for r in count_simon(n)) == (1 << n) - 1
    for n, modal in ((3, 1), (6, 3)):
        rows = {r.class_name: r for r in simon_formula_report(n).rows}
        assert rows["modal-weight"].formula == modal
    with pytest.raises(ValueError):
        count_simon(1)


def test_census_row_check():
    assert CensusRow("x", 5, 5, "equal").check() is None
    assert CensusRow("x", 5, 6, "equal").check() is not None
    assert CensusRow("x", 5, 4, "formula-upper-bound").check() is None
    assert CensusRow("x", 3, 4, "formula-upper-bound").check() is not None
    assert CensusRow("x", None, 4, "oracle-only").check() is None


def test_enumerate_dj_small_values():
    r2 = {r.class_name: r for r in enumerate_dj(2).rows}
    assert r2["balanced"].oracle == 6
    assert r2["balanced-fully-separable"].oracle == 6
    assert r2["balanced-biseparable"].oracle == 6
    assert r2["balanced-genuinely-entangled"].oracle == 0
    assert r2["balanced-pair-block"].oracle == 0

    r3 = {r.class_name: r for r in enumerate_dj(3).rows}
    assert r3["balanced"].oracle == 70
    assert r3["balanced-fully-separable"].oracle == 14
    assert r3["balanced-pair-block"].oracle == 24
    assert r3["balanced-biseparable"].oracle == 38
    assert r3["balanced-genuinely-entangled"].oracle == 32
    assert not enumerate_dj(3).failures()


def test_enumerate_dj_inclusion_exclusion_cross_check():
    # distinct biseparable balanced at n=3 from per-cut counts:
    # three 1|2 cuts, 22 each; pairwise and triple intersections are the
    # fully separable class (14): 3*22 - 3*14 + 14 = 38
    per_cut = []
    for q in (1, 2, 3):
        per_cut.append(
            sum(
                1
                for s in balanced_sign_states(3)
                if try_factor(s, Bipartition(3, (q,))) is not None
            )
        )
    assert per_cut == [22, 22, 22]
    assert 3 * 22 - 3 * 14 + 14 == 38


def _generated_balanced_products(n: int) -> set[tuple[int, ...]]:
    """Every balanced two-factor product state, deduplicated up to sign.

    Builds states as explicit products rather than classifying them, so it
    is independent of the factorization engine.
    """
    seen: set[tuple[int, ...]] = set()
    for k in range(1, n // 2 + 1):
        for subset in combinations(range(1, n + 1), k):
            for ui in range(1 << (1 << k)):
                u = tuple(1 - 2 * ((ui >> x) & 1) for x in range(1 << k))
                for vi in range(1 << (1 << (n - k))):
                    v = tuple(1 - 2 * ((vi >> x) & 1) for x in range(1 << (n - k)))
                    amps = interleave_product(n, subset, u, v)
                    if sum(amps) == 0:
                        seen.add(canonical_amps(amps))
    return seen


def test_enumerate_dj_n3_against_generation_oracle():
    # the census counts sign vectors (s and -s separately); the canonical
    # dedup folds each pair, and the negation of a balanced product is again
    # a balanced product, so the census value is twice the set size
    generated = _generated_balanced_products(3)
    assert 2 * len(generated) == 38
    rows = {r.class_name: r for r in enumerate_dj(3).rows}
    assert rows["balanced-biseparable"].oracle == 2 * len(generated)


def test_enumerate_dj_n4_against_generation_oracle():
    generated = _generated_balanced_products(4)
    rows = {r.class_name: r for r in enumerate_dj(4).rows}
    assert rows["balanced-biseparable"].oracle == 2 * len(generated)
    assert rows["balanced-biseparable"].oracle == 1070
    assert rows["balanced-pair-block"].oracle == 144  # = 288 / 2, the sign fold
    assert rows["balanced-genuinely-entangled"].oracle == 12870 - 1070
    assert not enumerate_dj(4).failures()


def test_enumerate_dj_workers_deterministic():
    assert enumerate_dj(3, workers=1) == enumerate_dj(3, workers=2)
    assert enumerate_dj(3, workers=1) == enumerate_dj(3, workers=8)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_dj_matches_grover_at_half_solutions(n, workers):
    # a balanced function is a Grover oracle with M = 2^(n-1) solutions, so
    # both censuses classify the same sign vectors
    dj = {r.class_name: r.oracle for r in enumerate_dj(n, workers=workers).rows}
    grover = {
        r.class_name: r.oracle
        for r in enumerate_grover(n, 1 << (n - 1), workers=workers).rows
    }
    q = [grover.get(f"q-{k}", 0) for k in range(n + 1)]
    assert dj["balanced"] == grover["total"] == sum(q)
    assert dj["balanced-fully-separable"] == q[n]
    assert dj["balanced-biseparable"] == sum(q[2:]) == grover["biseparable"]
    assert dj["balanced-genuinely-entangled"] == q[1]


def test_enumerate_dj_caps():
    with pytest.raises(ResourceCapError):
        enumerate_dj(5)
    with pytest.raises(ResourceCapError):
        enumerate_dj(6, cap=5)
    with pytest.raises(ValueError):
        enumerate_dj(1)


def test_enumerate_grover_exact_classes():
    r = {row.class_name: row for row in enumerate_grover(3, 1).rows}
    assert r["fully-entangled"].oracle == 8 and r["total"].oracle == 8
    r = {row.class_name: row for row in enumerate_grover(3, 2).rows}
    assert r["biseparable"].oracle == 12 and r["biseparable"].relation == "equal"
    assert r["q-1"].oracle == 16
    r = {row.class_name: row for row in enumerate_grover(3, 3).rows}
    assert r["fully-entangled"].oracle == 56
    r = {row.class_name: row for row in enumerate_grover(4, 2).rows}
    assert r["biseparable"].oracle == 32 and r["biseparable"].relation == "equal"


def test_enumerate_grover_m4_n4():
    r = {row.class_name: row for row in enumerate_grover(4, 4).rows}
    assert r["3-separable-form"].formula == 24
    assert r["3-separable-form"].oracle == 24
    assert r["biseparable"].relation == "formula-upper-bound"
    assert r["biseparable"].formula == 112
    assert r["biseparable"].oracle == 88
    assert r["q-2"].oracle == 64
    assert not enumerate_grover(4, 4).failures()


def test_enumerate_grover_m4_n4_generation_oracle():
    # products with total minus count 4 (normalizing the sign pairing), built
    # independently of the classifier
    seen: set[tuple[int, ...]] = set()
    for k in (1, 2):
        for subset in combinations(range(1, 5), k):
            for ui in range(1 << (1 << k)):
                u = tuple(1 - 2 * ((ui >> x) & 1) for x in range(1 << k))
                for vi in range(1 << (1 << (4 - k))):
                    v = tuple(1 - 2 * ((vi >> x) & 1) for x in range(1 << (4 - k)))
                    amps = interleave_product(4, subset, u, v)
                    minus = sum(1 for a in amps if a < 0)
                    if minus == 4:
                        seen.add(amps)
                    elif minus == 12:
                        seen.add(tuple(-a for a in amps))
    assert len(seen) == 88


def test_enumerate_grover_outside_regime_row():
    r = {row.class_name: row for row in enumerate_grover(2, 2).rows}
    assert r["biseparable"].relation == "oracle-only"
    assert r["biseparable"].formula is None
    assert r["biseparable"].oracle == 6
    assert "outside" in r["biseparable"].note
    assert not enumerate_grover(2, 2).failures()


def test_enumerate_grover_workers_deterministic(monkeypatch, pool_starts):
    # 35,960 placements in shards of at least 4,096: 2 and 3 workers start
    # pools of 2 and 3 shards
    monkeypatch.setattr(census, "MIN_SHARD_PLACEMENTS", 4096)
    one = enumerate_grover(5, 4, workers=1)
    assert one == enumerate_grover(5, 4, workers=2) == enumerate_grover(5, 4, workers=3)
    assert pool_starts == [2, 3]


def test_short_scans_run_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a short scan")

    monkeypatch.setattr(census.multiprocessing, "Pool", no_pool)
    assert binom(16, 8) <= binom(32, 4) <= census.MIN_SHARD_PLACEMENTS
    assert enumerate_dj(4, workers=2) == enumerate_dj(4, workers=1)
    assert enumerate_grover(5, 4, workers=2) == enumerate_grover(5, 4, workers=1)
    assert enumerate_grover(4, 4, workers=8) == enumerate_grover(4, 4, workers=1)
    assert (1 << 9) - 1 <= census.MIN_SHARD_CANDIDATES
    assert enumerate_simon(9, workers=8) == enumerate_simon(9, workers=1)


def test_enumerate_grover_cap(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started above the state cap")

    monkeypatch.setattr(census.multiprocessing, "Pool", no_scan)
    monkeypatch.setattr(census, "_scan_placements", no_scan)
    with pytest.raises(ResourceCapError,
                       match=re.escape("capped at 10000000 states, B(2^7, 4) = 10668000")):
        enumerate_grover(7, 4)


def test_scans_above_the_factor_cap_are_refused_before_they_start(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started above the qubit cap")

    monkeypatch.setattr(census.multiprocessing, "Pool", no_scan)
    monkeypatch.setattr(census, "_scan_placements", no_scan)
    message = re.escape("factorization capped at 12 qubits (state has 13)")
    with pytest.raises(ResourceCapError, match=message):
        enumerate_grover(13, 1, workers=2)
    with pytest.raises(ResourceCapError, match=message):
        enumerate_dj(13, cap=13)


def test_scans_too_long_to_index_are_refused_before_they_start(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started past the placement index")

    monkeypatch.setattr(census.multiprocessing, "Pool", no_scan)
    monkeypatch.setattr(census, "_scan_placements", no_scan)
    # C(64, 32) placements at n = 6 would take centuries; C(128, 64) at
    # n = 7 are more than islice can index
    with pytest.raises(ResourceCapError, match="placement scan capped"):
        enumerate_dj(6, cap=6)
    with pytest.raises(ResourceCapError, match="placement scan capped"):
        enumerate_dj(7, cap=7)
    with pytest.raises(ResourceCapError, match="placement scan capped"):
        enumerate_dj(12, workers=2, cap=12)


def test_enumerate_simon():
    rep = enumerate_simon(4)
    rows = {r.class_name: r for r in rep.rows}
    for k in range(1, 5):
        assert rows[f"weight-{k}"].formula == binom(4, k)
        assert rows[f"weight-{k}"].oracle == binom(4, k)
    assert rows["total-nonzero-periods"].oracle == 15
    assert rows["modal-weight"].formula == 2
    assert not rep.failures()


def test_formula_reports_have_no_oracle():
    for rep in (dj_formula_report(3), grover_formula_report(3, 2), simon_formula_report(3)):
        assert all(r.oracle is None for r in rep.rows)
        assert all(r.relation == "formula-only" for r in rep.rows)
        assert not rep.failures()


def test_report_serialization():
    rep = enumerate_dj(2)
    data = rep.to_dict()
    assert data["schema"] == "census-v1"
    assert data["rows"][0] == {
        "class": "balanced",
        "formula": "6",
        "oracle": "6",
        "relation": "equal",
    }


def test_log2_int_handles_huge_values():
    assert log2_int(1) == 0.0
    assert log2_int(1 << 300) == pytest.approx(300.0, abs=1e-9)
    x = binom(1 << 16, 1 << 15)
    assert log2_int(x) == pytest.approx(
        (math.lgamma((1 << 16) + 1) - 2 * math.lgamma((1 << 15) + 1)) / math.log(2),
        rel=1e-12,
    )
    with pytest.raises(ValueError):
        log2_int(0)


def test_pool_map_starts_no_more_processes_than_cores(monkeypatch):
    # a stand-in pool records its size and maps in process, so the test
    # starts no process however many workers are asked for
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            return list(map(fn, shards))

    monkeypatch.setattr(census.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(census, "available_cores", lambda: 3)
    items = range(1_000_000)
    for workers in (2, 3, 5000):
        assert sum(census.pool_map(sum, items, workers, 1)) == sum(items)
    assert started == [2, 3, 3]
    monkeypatch.setattr(census, "available_cores", lambda: 1)
    assert census.pool_map(len, items, 5000, 1) == [len(items)]
    assert started == [2, 3, 3]


def test_available_cores_reads_the_affinity_before_the_host_count(monkeypatch):
    # a process held to 2 of 64 cores gets 2; without an affinity call the
    # host's count is read, and an unknown count is 1
    monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 64)
    assert census.available_cores() == 2
    monkeypatch.delattr(census.os, "sched_getaffinity")
    assert census.available_cores() == 64
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert census.available_cores() == 1


def test_a_process_held_to_one_core_scans_in_process(monkeypatch):
    # 4 workers asked for on a host of 8 cores, with the affinity at one:
    # the long scan runs in process, and the census prints the same bytes
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on a process held to one core")

    monkeypatch.setattr(census, "MIN_SHARD_PLACEMENTS", 4096)
    one = enumerate_grover(5, 4, workers=1).to_dict()
    monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(census.multiprocessing, "Pool", no_pool)
    assert enumerate_grover(5, 4, workers=4).to_dict() == one
