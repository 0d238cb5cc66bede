import dataclasses
import json

import pytest
from click.testing import CliRunner

from eqw import census, cli, verify
from eqw.rng import SplitMix64
from eqw.separability import sign_block_sizes, wht
from eqw.states import BooleanFunction, StateVector, state_from_function, uniform_state


def test_parseval_scans_every_table_after_a_spectral_failure(monkeypatch):
    # the spectral test now disagrees with the engine at the first table
    # (all +1, fully separable), and Parseval breaks only at the last one
    monkeypatch.setattr(verify, "full_separability_fast", lambda s: None)
    last = (-1,) * 4
    monkeypatch.setattr(
        verify, "wht", lambda s: [0] * 4 if s.amps == last else wht(s)
    )
    spectral, parseval = verify.verify_wht([2])
    assert spectral.status == verify.STATUS_FAIL
    assert spectral.detail == "disagreement at truth table 0000"
    assert parseval.name == "parseval n=2"
    assert parseval.status == verify.STATUS_FAIL
    assert parseval.detail == "sum of squares wrong at truth table 1111"


def test_lemma_check_examples():
    assert verify.lemma_check([StateVector(1, (1, -1)), StateVector(1, (1, 1))]) == (True, True)
    assert verify.lemma_check([StateVector(1, (1, 1)), StateVector(1, (1, 1))]) == (False, False)
    with pytest.raises(ValueError):
        verify.lemma_check([StateVector(1, (1, 1))])
    with pytest.raises(ValueError):
        verify.lemma_check([StateVector(1, (1, 0)), StateVector(1, (1, 1))])


def test_lemma_agreement_all_pairs_1x2():
    for ua in range(4):
        u = state_from_function(BooleanFunction(1, ua))
        for vb in range(16):
            v = state_from_function(BooleanFunction(2, vb))
            prod_bal, any_bal = verify.lemma_check([u, v])
            assert prod_bal == any_bal


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_stdout_does_not_depend_on_the_worker_count(fmt):
    # n = 4 has three scans long enough to shard: spectral, pipeline and
    # lemma decomposition
    runner = CliRunner()
    outs = {
        workers: runner.invoke(cli.main, ["verify", "--suite", "all", "--n", "2..4", "--format",
                                          fmt, "--workers", workers], catch_exceptions=False)
        for workers in ("1", "2", "5")
    }
    assert {res.exit_code for res in outs.values()} == {0}
    assert outs["1"].stdout_bytes == outs["2"].stdout_bytes == outs["5"].stdout_bytes


def test_lemma_decomposition_stdout_does_not_depend_on_the_worker_count(monkeypatch,
                                                                        pool_starts):
    # n = 4's 12,870 balanced tables in shards of at least 1,024: 2 and 3
    # workers start pools of 2 and 3 shards
    monkeypatch.setattr(verify, "MIN_SHARD_CANDIDATES", 1024)
    outs = [CliRunner().invoke(cli.main, ["verify", "--suite", "lemma", "--n", "2..4",
                                          "--workers", workers], catch_exceptions=False)
            for workers in ("1", "2", "3")]
    assert [res.exit_code for res in outs] == [0, 0, 0]
    assert outs[0].stdout_bytes == outs[1].stdout_bytes == outs[2].stdout_bytes
    assert pool_starts == [2, 3]


def test_screened_lemma_decomposition_reports_the_serial_counterexample(monkeypatch,
                                                                        pool_starts):
    # two splittable balanced tables are given the factors of the uniform
    # state, which has no balanced block; forked workers carry the patch, and
    # every worker count names the earlier one, as an unscreened scan would
    monkeypatch.setattr(verify, "MIN_SHARD_CANDIDATES", 1024)
    tables = list(census.placements(4, 8, range(12870)))
    splittable = [t for t in tables if len(sign_block_sizes(4, t)) >= 2]
    bad = {splittable[len(splittable) // 2], splittable[-3]}
    real, unbalanced = verify.classify, verify.classify(uniform_state(4))

    def classify(s):
        table = sum(1 << x for x, a in enumerate(s.amps) if a < 0)
        return unbalanced if table in bad else real(s)

    monkeypatch.setattr(verify, "classify", classify)
    first = min(bad, key=tables.index)
    want = f"no balanced block for balanced table {BooleanFunction(4, first).bits()}"
    for workers in (1, 2, 3):
        _, decomposition = verify.verify_lemma([4], workers=workers)
        assert (decomposition.status, decomposition.detail) == (verify.STATUS_FAIL, want)
    assert pool_starts == [2, 3]


@pytest.mark.parametrize("bad_in_first_shard", [False, True])
def test_a_sharded_scan_reports_the_serial_counterexample(monkeypatch, bad_in_first_shard):
    # the spectral test is made to disagree with the engine at one table past
    # the first of two shards, and optionally at one in the first shard too;
    # forked workers carry the patch
    fis, _ = verify.function_sample(4, verify.SAMPLE_BUDGET, SplitMix64(verify._SAMPLE_SEED ^ 4),
                                    "sign vectors")
    first, second = census.pool_map(list, fis, 2, verify.MIN_SHARD_CANDIDATES)
    seen = set(first)
    bad = {next(t for t in second if t not in seen)}
    if bad_in_first_shard:
        bad.add(first[len(first) // 2])
    bad_amps = {state_from_function(BooleanFunction(4, t)).amps for t in bad}
    real = verify.full_separability_fast

    def flipped(s):
        if s.amps in bad_amps:
            return None if real(s) is not None else ()
        return real(s)

    monkeypatch.setattr(verify, "full_separability_fast", flipped)
    [one] = verify.verify_wht([4], workers=1)
    [two] = verify.verify_wht([4], workers=2)
    first_bad = min(bad, key=fis.index)
    assert one.status == verify.STATUS_FAIL
    assert one.detail == f"disagreement at truth table {BooleanFunction(4, first_bad).bits()}"
    assert two == one


def test_short_verify_scans_run_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a short scan")

    monkeypatch.setattr(census.multiprocessing, "Pool", no_pool)
    res = CliRunner().invoke(cli.main, ["verify", "--n", "2..3", "--workers", "2"])
    assert res.exit_code == 0, res.output
    assert "0 failed" in res.stdout


def _verify(*args):
    return CliRunner().invoke(cli.main, ["verify", *args, "--workers", "1"],
                              catch_exceptions=False)


def _rows(res) -> list[str]:
    """The table's lines with each run of spaces cut to one."""
    return [" ".join(line.split()) for line in res.stdout.splitlines()]


def test_a_failed_census_relation_exits_1(monkeypatch):
    real = census.count_balanced
    monkeypatch.setattr(census, "count_balanced", lambda n: real(n) + 1)
    res = _verify("--suite", "dj", "--n", "2")
    assert res.exit_code == 1
    lines = _rows(res)
    assert "FAIL dj census n=2 balanced: formula 7 != oracle 6" in lines
    assert lines[-1] == "2 passed, 1 failed"
    res = _verify("--suite", "dj", "--n", "2", "--format", "json")
    assert res.exit_code == 1
    assert json.loads(res.stdout)["passed"] is False


def _one_more_block(classify):
    def faulty(s):
        rep = classify(s)
        return dataclasses.replace(rep, q=rep.q + 1)

    return faulty


def _reversed_period(state):
    return lambda n, r: state(n, int(format(r, f"0{n}b")[::-1], 2))


@pytest.mark.parametrize("name, fault, detail", [
    ("classify", _one_more_block, "period 001: q = 4, expected 3"),
    # r = 011 collapses onto qubits 1 and 2, not its period bits 2 and 3
    ("simon_canonical_state", _reversed_period,
     "period 011: period bits do not form a single all-or-nothing block"),
])
def test_a_collapse_out_of_its_class_fails(monkeypatch, name, fault, detail):
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    res = _verify("--suite", "simon", "--n", "3")
    assert res.exit_code == 1
    lines = _rows(res)
    assert f"FAIL simon collapsed-classes n=3 {detail}" in lines
    assert lines[-1].endswith(" passed, 1 failed")


@pytest.mark.parametrize("suite, rows", [
    ("lemma", ["INFO lemma product-direction n=5 skipped: exhaustive product enumeration"
               " runs up to n = 4",
               "INFO lemma decomposition-direction n=5 skipped: exhaustive balanced-vector"
               " scan runs up to n = 4"]),
    ("dj", ["INFO dj census n=5 skipped: full enumeration is capped at n = 4"]),
])
def test_suites_past_their_enumeration_range_print_skip_rows(suite, rows):
    res = _verify("--suite", suite, "--n", "5")
    assert res.exit_code == 0
    lines = _rows(res)
    assert all(row in lines for row in rows)
