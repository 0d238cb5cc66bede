import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqw
import eqw.cli as cli
from eqw import census, verify
from eqw.cli import main
from eqw.rng import SplitMix64

# stdout SHA-256 of json, csv and table output that the benchmark's pinned
# digests (json census and asymptotics, table verify) leave uncovered
PINNED = json.loads((Path(__file__).parent / "cli_digests.json").read_text())
SIMON_INSTANCE = {"n": 3, "r": "101",
                  "table": ["011", "000", "101", "110", "000", "011", "110", "101"]}


@pytest.fixture()
def runner():
    return CliRunner()


def _schema(name: str) -> dict:
    with resources.files("eqw").joinpath("schemas").joinpath(name).open() as fh:
        return json.load(fh)


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def test_classify_truth_table(runner):
    res = invoke(runner, "classify", "--n", "2", "--truth-table", "0110")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["q"] == 2 and data["label"] == "fully-separable"
    jsonschema.validate(data, _schema("report-v1.json"))


def test_classify_simon_r_ghz(runner):
    res = invoke(runner, "classify", "--n", "3", "--simon-r", "111")
    data = json.loads(res.output)
    assert data["q"] == 1
    assert data["label"] == "genuinely-multipartite-entangled"
    jsonschema.validate(data, _schema("report-v1.json"))


def test_classify_twelve_qubit_states_under_the_default_cap(runner):
    # simon_canonical_state for r = 1...1 is |0...0> + |1...1>, GHZ-12
    res = invoke(runner, "classify", "--n", "12", "--simon-r", "1" * 12)
    data = json.loads(res.output)
    assert data["q"] == 1
    assert [b["qubits"] for b in data["blocks"]] == [list(range(1, 13))]
    table = format(SplitMix64(12).bits(1 << 12), "04096b")
    res = invoke(runner, "classify", "--n", "12", "--truth-table", table)
    assert json.loads(res.output)["q"] == 1


def test_classify_bv_a(runner):
    res = invoke(runner, "classify", "--n", "3", "--bv-a", "101")
    data = json.loads(res.output)
    assert data["q"] == 3 and data["label"] == "fully-separable"


def test_classify_hex_table(runner):
    res = invoke(runner, "classify", "--n", "2", "--truth-table", "0x6")
    assert json.loads(res.output)["q"] == 2


def test_classify_input_errors_exit_2(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--truth-table", "00110"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["classify", "--n", "2"])
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["classify", "--n", "2", "--truth-table", "0110", "--bv-a", "11"],
    )
    assert res.exit_code == 2
    res = runner.invoke(main, ["classify", "--n", "2", "--unknown-flag", "x"])
    assert res.exit_code == 2
    for n, bv_a in (("0", ""), ("0", "0"), ("-1", "")):
        res = runner.invoke(main, ["classify", "--n", n, "--bv-a", bv_a])
        assert res.exit_code == 2
        assert res.stderr == f"error: qubit count must be a positive integer, got {n}\n"


def test_classify_cap_exit_3(runner):
    res = runner.invoke(main, ["classify", "--n", "13", "--bv-a", "1" * 13])
    assert res.exit_code == 3
    res = runner.invoke(
        main, ["classify", "--n", "13", "--bv-a", "1" * 13, "--max-n", "13"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["q"] == 13


def test_classify_env_cap_override(runner):
    res = runner.invoke(
        main,
        ["classify", "--n", "13", "--bv-a", "1" * 13],
        env={"EQW_MAX_N": "13"},
    )
    assert res.exit_code == 0


def test_classify_csv_roundtrip(runner):
    res = invoke(runner, "classify", "--n", "3", "--simon-r", "110", "--format", "csv")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["q", "label", "block", "qubits", "amps"]
    assert len(rows) == 1 + 2  # q=2: one pair block, one singleton
    assert all(len(r) == 5 for r in rows[1:])


def test_classify_table_format(runner):
    res = invoke(runner, "classify", "--n", "2", "--truth-table", "0110", "--format", "table")
    assert "fully-separable" in res.output


def test_simulate_dj(runner):
    res = invoke(runner, "simulate", "dj", "--n", "2", "--truth-table", "0110")
    data = json.loads(res.output)
    assert data["state"]["amps"] == {"0": "1", "1": "-1", "2": "-1", "3": "1"}
    jsonschema.validate(data["report"], _schema("report-v1.json"))


def test_simulate_simon_deterministic(runner):
    args = ["simulate", "simon", "--n", "3", "--r", "110", "--seed", "7"]
    a = invoke(runner, *args)
    b = invoke(runner, *args)
    assert a.output == b.output
    data = json.loads(a.output)
    assert data["report"]["q"] == 2
    assert data["instance"]["r"] == "110"
    nz = sorted(int(k) for k in data["state"]["amps"])
    assert nz[0] ^ nz[1] == int("110", 2)


def test_simulate_simon_rejects_zero_period(runner):
    res = runner.invoke(main, ["simulate", "simon", "--n", "3", "--r", "000"])
    assert res.exit_code == 2


def test_simulate_simon_instance_roundtrip(runner, tmp_path):
    path = tmp_path / "inst.json"
    res = invoke(
        runner,
        "simulate", "simon", "--n", "3", "--r", "101", "--seed", "3",
        "--instance-out", str(path),
    )
    first = json.loads(res.output)
    res2 = invoke(
        runner,
        "simulate", "simon", "--n", "3", "--seed", "3", "--instance", str(path),
    )
    second = json.loads(res2.output)
    assert first["instance"] == second["instance"]
    assert first["observed"] == second["observed"]
    assert res.stdout_bytes == res2.stdout_bytes


def test_simulate_simon_reports_an_unwritable_instance_out(runner, tmp_path):
    path = tmp_path / "missing" / "x.json"
    res = runner.invoke(main, ["simulate", "simon", "--n", "3", "--r", "011",
                               "--instance-out", str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: cannot write --instance-out ")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("args, code", [
    (["classify", "--n", "1000000000000", "--truth-table", "01"], 2),
    (["classify", "--n", "1000000000000", "--truth-table", "0x1"], 3),
    (["simulate", "dj", "--n", "1000000000000", "--truth-table", "01"], 2),
    (["simulate", "grover", "--n", "1000000000000", "--m", "1"], 3),
    (["simulate", "grover", "--n", "1000000000000", "--solutions", "-1"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_a_huge_n_exits_without_building_a_power_of_two(runner, args, code):
    # flags are checked by bit length, so 2^n is never built as an int
    res = runner.invoke(main, args)
    assert res.exit_code == code
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_an_instance_file_with_a_huge_n_is_an_input_error(runner, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 10 ** 12, "r": "1", "table": ["0", "0"]}))
    res = runner.invoke(main, ["simulate", "simon", "--n", str(10 ** 12), "--instance", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: table must cover all 2^n inputs\n"


@pytest.mark.parametrize(
    "content, field",
    [('{"n": 3}', "'r'"), ('{"r": "11", "table": []}', "'n'"), ("[1, 2]", "object"),
     ('{"n": 3, "r": "110", "table": 5}', "malformed")],
)
def test_simulate_simon_rejects_a_malformed_instance_file(runner, tmp_path, content, field):
    path = tmp_path / "inst.json"
    path.write_text(content)
    res = runner.invoke(main, ["simulate", "simon", "--n", "3", "--instance", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and field in res.stderr


@pytest.mark.parametrize("fields, message", [
    ({"n": "three"}, "malformed instance: field 'n' must be an integer"),
    ({"n": 1e400}, "malformed instance: field 'n' must be an integer"),
    ({"r": "0x1"}, "malformed instance: field 'r' must be a bit string"),
    ({"table": ["011", 2.5]}, "malformed instance: field 'table' must be a list of bit strings"),
])
def test_simulate_simon_names_a_malformed_instance_field(runner, tmp_path, fields, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(SIMON_INSTANCE, **fields)))
    res = runner.invoke(main, ["simulate", "simon", "--n", "3", "--instance", str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("n", [3.9, "3", True])
def test_an_instance_n_that_is_not_a_json_integer_is_refused(runner, tmp_path, n):
    # int() would truncate 3.9 and read "3" and true as qubit counts
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(SIMON_INSTANCE, n=n)))
    res = runner.invoke(main, ["simulate", "simon", "--n", "3", "--instance", str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: malformed instance: field 'n' must be an integer\n"


def test_simulate_simon_names_an_instance_file_that_is_not_json(runner, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text("{'n': 3}")
    res = runner.invoke(main, ["simulate", "simon", "--n", "3", "--instance", str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (f"error: --instance {path} is not JSON: Expecting property name"
                          " enclosed in double quotes: line 1 column 2 (char 1)\n")


def test_simulate_simon_rejects_an_instance_of_another_size(runner, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(SIMON_INSTANCE))
    res = runner.invoke(main, ["simulate", "simon", "--n", "9", "--instance", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: --n 9 does not match the instance's n = 3\n"


@pytest.mark.parametrize("args", [
    ["classify", "--n", "22", "--truth-table", "0x1"],
    ["classify", "--n", "30", "--truth-table", "0x1"],
    ["classify", "--n", "13", "--simon-r", "1" * 13],
    ["classify", "--n", "13", "--bv-a", "1" * 13],
    ["simulate", "dj", "--n", "18", "--truth-table", "0x1"],
    ["simulate", "grover", "--n", "20", "--m", "3"],
    ["simulate", "grover", "--n", "13", "--solutions", "1,2"],
    ["simulate", "simon", "--n", "20", "--r", "1" * 20],
], ids=" ".join)
def test_over_cap_runs_exit_3_before_building_a_state(runner, monkeypatch, args):
    def refuse(*_args, **_kwargs):
        raise RuntimeError("a state was built for a run over the cap")

    for name in ("state_from_function", "bv_function", "simon_canonical_state",
                 "BooleanFunction", "prepare_dj_state", "make_simon_instance", "KeyedPermutation"):
        monkeypatch.setattr(cli, name, refuse)
    res = runner.invoke(main, args)
    n = args[args.index("--n") + 1]
    assert res.exit_code == 3
    assert res.stderr == (
        f"error: factorization capped at 12 qubits (state has {n}); raise the cap to proceed\n"
    )


@pytest.mark.parametrize("args", [
    ["simulate", "dj", "--n", "-1", "--truth-table", "01"],
    ["simulate", "grover", "--n", "-1", "--m", "1"],
    ["simulate", "grover", "--n", "-1", "--solutions", "0"],
], ids=" ".join)
def test_simulate_rejects_a_negative_qubit_count(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stderr == "error: qubit count must be a positive integer, got -1\n"


def test_simulate_grover_seeded_and_explicit(runner):
    a = invoke(runner, "simulate", "grover", "--n", "3", "--m", "2", "--seed", "5")
    b = invoke(runner, "simulate", "grover", "--n", "3", "--m", "2", "--seed", "5")
    assert a.output == b.output
    data = json.loads(a.output)
    assert len(data["solutions"]) == 2
    res = invoke(runner, "simulate", "grover", "--n", "3", "--solutions", "1,6")
    data = json.loads(res.output)
    assert data["solutions"] == [1, 6]
    assert data["truth_table"] == "01000010"


def test_census_dj_csv_rows(runner):
    res = invoke(runner, "census", "dj", "--n", "3", "--exhaustive", "--format", "csv")
    lines = res.output.strip().split("\n")
    assert "balanced,70,70,equal" in lines
    assert "balanced-fully-separable,14,14,equal" in lines
    parsed = list(csv.reader(io.StringIO(res.output)))
    assert parsed[0] == ["class", "formula", "oracle", "relation"]
    assert all(len(r) == 4 for r in parsed[1:])


def test_census_grover_example_row(runner):
    res = invoke(
        runner,
        "census", "grover", "--n", "3", "--m", "2", "--exhaustive", "--format", "csv",
    )
    assert "biseparable,12,12,equal" in res.output.strip().split("\n")


def test_census_simon_rows(runner):
    res = invoke(runner, "census", "simon", "--n", "3")
    data = json.loads(res.output)
    jsonschema.validate(data, _schema("census-v1.json"))
    by_class = {r["class"]: r for r in data["rows"]}
    assert by_class["weight-1"]["formula"] == "3"
    assert by_class["weight-2"]["formula"] == "3"
    assert by_class["weight-3"]["formula"] == "1"


def test_census_json_validates_schema(runner):
    for args in (
        ["census", "dj", "--n", "3", "--exhaustive"],
        ["census", "dj", "--n", "3"],
        ["census", "grover", "--n", "3", "--m", "4", "--exhaustive"],
        ["census", "simon", "--n", "4", "--exhaustive"],
    ):
        res = invoke(runner, *args)
        jsonschema.validate(json.loads(res.output), _schema("census-v1.json"))


def test_census_workers_byte_identical(runner, monkeypatch, pool_starts):
    # DJ at n = 4 (12,870 placements) and Grover (5, 4) (35,960) in shards of
    # at least 4,096: 2 and 3 workers start pools of 2 and 3 shards
    monkeypatch.setattr(census, "MIN_SHARD_PLACEMENTS", 4096)
    for scan in (("dj", "--n", "4"), ("grover", "--n", "5", "--m", "4")):
        outs = [invoke(runner, "census", *scan, "--exhaustive", "--workers", workers).stdout_bytes
                for workers in ("1", "2", "3")]
        assert outs[0] == outs[1] == outs[2]
    assert pool_starts == [2, 3, 2, 3]


def test_default_workers_follow_the_cpu_affinity(runner, monkeypatch):
    # a process held to one of 8 cores: the default --workers is 1, and it
    # and an explicit 4 scan in process and print the bytes of --workers 1
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on a process held to one core")

    asked = []
    scan_grover = cli.enumerate_grover

    def recording(n, m, workers):
        asked.append(workers)
        return scan_grover(n, m, workers=workers)

    monkeypatch.setattr(census, "MIN_SHARD_PLACEMENTS", 4096)
    monkeypatch.setattr(cli, "enumerate_grover", recording)
    scan = ("census", "grover", "--n", "5", "--m", "4", "--exhaustive")
    one = invoke(runner, *scan, "--workers", "1").stdout_bytes
    monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(census.multiprocessing, "Pool", no_pool)
    assert invoke(runner, *scan).stdout_bytes == one
    assert invoke(runner, *scan, "--workers", "4").stdout_bytes == one
    assert asked == [1, 1, 4]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_census_simon_stdout_does_not_depend_on_the_worker_count(runner, monkeypatch,
                                                                 pool_starts, fmt):
    # 255 periods in shards of at least 64: 2 and 5 workers start pools of 2
    # and 4 shards on a host of 4 cores
    monkeypatch.setattr(census, "MIN_SHARD_CANDIDATES", 64)
    outs = [invoke(runner, "census", "simon", "--n", "8", "--exhaustive", "--format", fmt,
                   "--workers", workers).stdout_bytes for workers in ("1", "2", "5")]
    assert outs[0] == outs[1] == outs[2]
    assert pool_starts == [2, 4]


@pytest.mark.parametrize("n, m", [
    (13, None), (13, 4096), (14, 16000), (18, 262143), (20, 1285), (20, 1048575), (64, 8),
])
def test_closed_form_counts_under_the_digit_cap_print(runner, n, m):
    # B(N, M) = B(N, N - M), so the count is short at M near N as at M near 0;
    # B(2^20, 1285) is the longest Grover total at n = 20 under 4,301 digits
    args = ["census", "dj", "--n", str(n)] if m is None else \
        ["census", "grover", "--n", str(n), "--m", str(m)]
    data = json.loads(invoke(runner, *args).output)
    assert data["rows"][0]["formula"] == str(math.comb(1 << n, m or 1 << (n - 1)))


@pytest.mark.parametrize("args", [
    ["census", "dj", "--n", "14"],
    ["census", "dj", "--n", "22"],
    ["census", "grover", "--n", "14", "--m", "8192"],
    ["census", "grover", "--n", "20", "--m", "1286"],
    ["census", "grover", "--n", "20", "--m", str((1 << 20) - 1286)],
    ["census", "grover", "--n", "24", "--m", "8388608"],
    ["census", "grover", "--n", "14", "--m", "8192", "--exhaustive"],
    ["census", "simon", "--n", "14285"],
], ids=" ".join)
def test_closed_form_counts_over_the_digit_cap_exit_3_before_they_are_built(
        runner, monkeypatch, args):
    # bounds refuse all but the two Grover totals at M = 1286 from either
    # end, which are built, 14,285 bits long, only to compare with 10^4300
    def refuse(*_args, **_kwargs):
        raise RuntimeError("a count was built over the digit cap")

    near_the_cap = args[-1] in ("1286", str((1 << 20) - 1286))
    for name in ("count_balanced", "count_dj_bisep_upper", "GroverCounts", "SimonWeightClass",
                 *(() if near_the_cap else ("binom",))):
        monkeypatch.setattr(census, name, refuse)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stderr == f"error: census counts capped at 4300 digits, longer at n = {args[3]}\n"


def test_the_digit_cap_holds_without_the_interpreter_limit():
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0",
           "PYTHONPATH": str(Path(eqw.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-m", "eqw.cli", "census", "dj", "--n", "22"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 3
    assert res.stderr == "error: census counts capped at 4300 digits, longer at n = 22\n"


def test_census_caps_exit_3(runner):
    res = runner.invoke(main, ["census", "dj", "--n", "5", "--exhaustive"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["census", "grover", "--n", "13", "--m", "1", "--exhaustive"])
    assert res.exit_code == 3  # 13 qubits is past the classification cap
    assert "factorization capped at 12 qubits (state has 13)" in res.output
    res = runner.invoke(main, ["census", "grover", "--n", "2", "--m", "5", "--exhaustive"])
    assert res.exit_code == 2  # M out of range is an input error
    for n in ("6", "7"):
        res = runner.invoke(main, ["census", "dj", "--n", n, "--exhaustive", "--max-n", n])
        assert res.exit_code == 3  # --max-n lifts the n cap; C(2^n, 2^(n-1)) placements stay refused
        assert "placement scan capped" in res.output


def test_census_grover_requires_m(runner):
    res = runner.invoke(main, ["census", "grover", "--n", "3", "--exhaustive"])
    assert res.exit_code == 2


def test_verify_wht_example(runner):
    res = runner.invoke(main, ["verify", "--suite", "wht", "--n", "2..3"])
    assert res.exit_code == 0
    assert "0 failed" in res.output


def test_verify_json_output(runner):
    res = runner.invoke(
        main, ["verify", "--suite", "lemma", "--n", "2..3", "--format", "json"]
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True
    assert all(c["status"] in ("pass", "fail", "info") for c in data["checks"])


@pytest.mark.parametrize("args", [
    ["census", "dj", "--n", "3", "--exhaustive"],
    ["verify", "--suite", "wht", "--n", "2"],
], ids=" ".join)
@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_exit_2(runner, monkeypatch, args, workers):
    def refuse(*_args, **_kwargs):
        raise RuntimeError("a command ran with fewer than one worker")

    monkeypatch.setattr(cli, "enumerate_dj", refuse)
    monkeypatch.setattr(cli, "run_verify", refuse)
    res = runner.invoke(main, args + ["--workers", workers])
    assert res.exit_code == 2
    assert f"Invalid value for '--workers': {workers} is not in the range x>=1" in res.stderr


@pytest.mark.parametrize("args, message", [
    (["--suite", "grover", "--n", "2..7", "--workers", "2"],
     "enumeration capped at 10000000 states, B(2^7, 4) = 10668000"),
    (["--suite", "all", "--n", "2..13"],
     "enumeration capped at 10000000 states, B(2^7, 4) = 10668000"),
    (["--suite", "grover", "--n", "13"],
     "factorization capped at 12 qubits (state has 13); raise the cap to proceed"),
    (["--suite", "dj", "--n", "13"],
     "factorization capped at 12 qubits (state has 13); raise the cap to proceed"),
    (["--suite", "wht", "--n", "2..13"],
     "factorization capped at 12 qubits (state has 13); raise the cap to proceed"),
    (["--suite", "simon", "--n", "2..13"],
     "factorization capped at 12 qubits (state has 13); raise the cap to proceed"),
    (["--suite", "lemma", "--n", "13"],
     "factorization capped at 12 qubits (state has 13); raise the cap to proceed"),
    (["--suite", "lemma", "--n", "5..10000000000"],
     "factorization capped at 12 qubits (state has 13); raise the cap to proceed"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_verify_over_cap_ranges_exit_3_before_any_suite_runs(runner, monkeypatch, args, message):
    def refuse(*_args, **_kwargs):
        raise RuntimeError("a suite ran for a range over the cap")

    monkeypatch.setattr(census, "_placement_histogram", refuse)
    monkeypatch.setattr(census, "finest_factorization", refuse)
    monkeypatch.setattr(verify, "classify", refuse)
    monkeypatch.setattr(verify, "dj_oracle_pipeline", refuse)
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


def test_verify_bad_range_exit_2(runner):
    res = runner.invoke(main, ["verify", "--suite", "wht", "--n", "x..3"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", "--suite", "wht", "--n", "4..2"])
    assert res.exit_code == 2


def test_asymptotics_values(runner):
    res = invoke(runner, "asymptotics", "--max-n", "8")
    data = json.loads(res.output)
    rows = {row["n"]: row for row in data["rows"]}
    assert rows[3]["sep_exact_log2"] == pytest.approx(-2.3219, abs=1e-3)
    assert rows[2]["grover_m4_log2"] is None
    vals = [rows[n]["sep_exact_log2"] for n in range(2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_asymptotics_cap(runner):
    res = runner.invoke(main, ["asymptotics", "--max-n", "21"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["asymptotics", "--max-n", "21"], env={"EQW_MAX_N": "21"})
    assert res.exit_code == 0


def test_asymptotics_stops_where_the_fractions_overflow_a_float(runner):
    env = {"EQW_MAX_N": "1015"}
    res = runner.invoke(main, ["asymptotics", "--max-n", "1014", "--format", "csv"], env=env)
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 1 + 1013  # n = 2..1014
    res = runner.invoke(main, ["asymptotics", "--max-n", "1015"], env=env)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: fractions overflow a float at n = 1015\n"


def test_asymptotics_csv_roundtrip(runner):
    res = invoke(runner, "asymptotics", "--max-n", "6", "--format", "csv")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0][0] == "n"
    assert len(rows) == 1 + 5  # n = 2..6


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_asymptotics_without_rows_prints_only_the_header(runner, max_n):
    header = "n,sep_exact_log2,sep_stirling_log2,bisep_bound_log2,grover_m2_log2,grover_m4_log2"
    out = {fmt: invoke(runner, "asymptotics", "--max-n", max_n, "--format", fmt)
           for fmt in ("json", "csv", "table")}
    assert [res.exit_code for res in out.values()] == [0, 0, 0]
    assert json.loads(out["json"].output) == {"rows": []}
    assert out["csv"].output == header + "\n"
    names, dashes = out["table"].output.splitlines()
    assert names.split() == header.split(",") and set(dashes) == {"-", " "}


@pytest.mark.parametrize("line", sorted(PINNED))
def test_output_matches_its_pinned_digest(runner, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text(json.dumps(SIMON_INSTANCE))
    res = invoke(runner, *line.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == PINNED[line]


def test_in_process_commands_free_their_output_streams(runner):
    # click caches the stream it echoes to by default, keyed weakly on the
    # stream but holding it strongly, so each in-process call kept its output
    def live_text_streams() -> int:
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    counts = []
    for _ in range(5):
        invoke(runner, "census", "dj", "--n", "3")
        invoke(runner, "classify", "--n", "2", "--truth-table", "0110", "--format", "table")
        runner.invoke(main, ["census", "dj", "--n", "5", "--exhaustive"])
        counts.append(live_text_streams())
    assert counts[-1] <= counts[0]


# ---------------------------------------------------------------- CLI contract

CONTRACT_NS = [-1, 0, 1, 2, 3, 13, 10 ** 12]
# every edge value, and as often n = 2 or 3, which most flags accept
QUBITS = st.one_of(st.sampled_from(CONTRACT_NS), st.sampled_from([2, 3]))
BLANKS = ["", " ", "\t"]
FORMAT_FLAGS = st.sampled_from(["json", "csv", "table"]).map(lambda f: ["--format", f])
SEED_FLAGS = st.one_of(st.just([]), st.sampled_from([-1, 0, 7, 2 ** 64]).map(
    lambda s: ["--seed", str(s)]))


def _bit_strings(n: int) -> st.SearchStrategy:
    """Bit strings of length n and n +- 1, where those lengths exist, and blanks."""
    lengths = [k for k in (n - 1, n, n + 1) if 0 <= k <= 16]
    return st.one_of(st.sampled_from(BLANKS + ["2", "1" * 20]),
                     *(st.text("01", min_size=k, max_size=k) for k in lengths))


def _truth_tables(n: int) -> st.SearchStrategy:
    """Binary tables of 2^n - 1, 2^n and 2^n + 1 characters at small n, hex
    tables that fit 2^n bits or are one bit too wide, blanks and junk."""
    junk = st.sampled_from(BLANKS + ["0x", "0xg", "01", "0x1", "0x" + "f" * 40])
    if not 0 <= n <= 3:
        return st.one_of(junk, st.just("0" * (1 << 13) if n == 13 else "0110"))
    size = 1 << n
    return st.one_of(
        junk,
        *(st.text("01", min_size=k, max_size=k) for k in (size - 1, size, size + 1) if k),
        st.integers(0, (1 << size) - 1).map(hex),
        st.just(hex(1 << size)),
    )


@st.composite
def _classify_argv(draw):
    n = draw(QUBITS)
    sources = {"--truth-table": _truth_tables(n), "--simon-r": _bit_strings(n),
               "--bv-a": _bit_strings(n)}
    count = draw(st.sampled_from([1, 1, 1, 0, 2]))  # mostly the one source the command needs
    argv = ["classify", "--n", str(n)]
    for flag in draw(st.permutations(sorted(sources)))[:count]:
        argv += [flag, draw(sources[flag])]
    return argv + draw(FORMAT_FLAGS)


@st.composite
def _simulate_argv(draw):
    algorithm = draw(st.sampled_from(["dj", "grover", "simon"]))
    n = draw(QUBITS)
    argv = ["simulate", algorithm, "--n", str(n)]
    if algorithm == "dj":
        argv += draw(st.one_of(st.just([]), _truth_tables(n).map(lambda t: ["--truth-table", t])))
    elif algorithm == "grover":
        small = [(1 << n) - 1, 1 << n] if 0 <= n <= 13 else []
        m = st.sampled_from([-1, 0, 1, 2, 3, 10 ** 12] + small).map(lambda m: ["--m", str(m)])
        solutions = st.sampled_from(BLANKS + ["0", "0,1", "-1", "x", "1,,2", "7", "3,3"]).map(
            lambda s: ["--solutions", s])
        argv += draw(st.one_of(st.just([]), m, solutions, st.tuples(m, solutions).map(
            lambda pair: pair[0] + pair[1])))
    else:
        source = st.one_of(st.just([]), _bit_strings(n).map(lambda r: ["--r", r]),
                           st.sampled_from(["valid", "faulty", "not-json", "missing", "dir"]).map(
                               lambda f: ["--instance", f"<instance:{f}>"]))
        out = st.one_of(st.just([]), st.sampled_from(["writable", "unwritable", "dir"]).map(
            lambda f: ["--instance-out", f"<out:{f}>"]))
        argv += draw(source) + draw(out)
    return argv + draw(SEED_FLAGS) + draw(FORMAT_FLAGS)


@st.composite
def _census_argv(draw):
    algorithm = draw(st.sampled_from(["dj", "grover", "simon"]))
    n = draw(QUBITS)  # every n is <= 4 or above a cap
    argv = ["census", algorithm, "--n", str(n)]
    if algorithm == "grover" and draw(st.booleans()):
        small = [(1 << n) - 1, 1 << n] if 0 <= n <= 13 else []
        argv += ["--m", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 10 ** 12] + small)))]
    if draw(st.booleans()):
        argv.append("--exhaustive")
    return argv + ["--workers", "1"] + draw(FORMAT_FLAGS)


@st.composite
def _verify_argv(draw):
    suite = draw(st.sampled_from(["dj", "grover", "simon", "lemma", "wht", "all"]))
    # ranges within 2..3, over the cap, or malformed
    n = draw(st.sampled_from(BLANKS + ["2", "3", "2..3", " 2..3 ", "13", "2..13", "12..13",
                                      "1000000000000", "2..1000000000000", "x..3", "3..2",
                                      "-1", "0", "1", "0..3", "2..", "..3"]))
    return ["verify", "--suite", suite, "--n", n, "--workers", "1"] + draw(FORMAT_FLAGS)


@st.composite
def _asymptotics_argv(draw):
    # --max-n is this command's table length; EQW_MAX_N is not set
    rows = draw(st.one_of(st.just([]), st.sampled_from(CONTRACT_NS).map(
        lambda n: ["--max-n", str(n)])))
    return ["asymptotics"] + rows + draw(FORMAT_FLAGS)


@pytest.fixture(scope="module")
def contract_paths(tmp_path_factory) -> dict[str, str]:
    """Paths the contract argv name by placeholder: --instance files valid
    for n = 3, faulty, not JSON, missing or a directory, and --instance-out
    paths that can and cannot be written."""
    root = tmp_path_factory.mktemp("cli-contract")
    faulty = dict(SIMON_INSTANCE, table=["011", "000", "101", "110", "000", "011", "110", "111"])
    (root / "valid.json").write_text(json.dumps(SIMON_INSTANCE))
    (root / "faulty.json").write_text(json.dumps(faulty))
    (root / "not-json.json").write_text("{")
    return {
        "<instance:valid>": str(root / "valid.json"),
        "<instance:faulty>": str(root / "faulty.json"),
        "<instance:not-json>": str(root / "not-json.json"),
        "<instance:missing>": str(root / "absent.json"),
        "<instance:dir>": str(root),
        "<out:writable>": str(root / "out.json"),
        "<out:unwritable>": str(root / "no-such-dir" / "out.json"),
        "<out:dir>": str(root),
    }


@settings(derandomize=True, deadline=None, max_examples=1000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(_classify_argv(), _simulate_argv(), _census_argv(), _verify_argv(),
                 _asymptotics_argv()))
def test_every_argv_ends_in_a_documented_exit_code(contract_paths, argv):
    argv = [contract_paths.get(arg, arg) for arg in argv]
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code in (0, 1, 2, 3)
    assert res.exit_code != 1 or argv[0] == "verify"
    assert "Traceback" not in res.stdout + res.stderr
    if res.exit_code in (2, 3):
        assert res.stdout == ""
    if res.exit_code == 0 and argv[-1] == "json":
        data = json.loads(res.stdout)
        if argv[0] == "classify":
            jsonschema.validate(data, _schema("report-v1.json"))
        elif argv[0] == "simulate":
            jsonschema.validate(data["report"], _schema("report-v1.json"))
        elif argv[0] == "census":
            jsonschema.validate(data, _schema("census-v1.json"))


# Limits on each child process alone: 1 GB of address space and 30 s of CPU,
# so a runaway allocation or loop fails the test and leaves the host alone.
_CHILD_AS_BYTES = 1 << 30
_CHILD_CPU_S = 30


def _run_limited(argv, env=None):
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_BYTES, _CHILD_AS_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (_CHILD_CPU_S, _CHILD_CPU_S))

    env = {**os.environ, "PYTHONPATH": str(Path(eqw.__file__).parents[1]), **(env or {})}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=4 * _CHILD_CPU_S, preexec_fn=limit)


@pytest.mark.parametrize("args, env, code", [
    (["classify", "--n", "1000000000000", "--truth-table", "01"], None, 2),
    (["simulate", "grover", "--n", "1000000000000", "--m", "1"], None, 3),
    (["verify", "--suite", "grover", "--n", "1000000000000"], None, 3),
    (["asymptotics", "--max-n", "1015"], {"EQW_MAX_N": "1015"}, 3),
    (["simulate", "simon", "--n", "3", "--instance", "<instance:not-json>"], None, 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_refused_argv_exit_cleanly_in_a_limited_subprocess(contract_paths, args, env, code):
    args = [contract_paths.get(arg, arg) for arg in args]
    res = _run_limited(["-m", "eqw.cli", *args], env)
    assert res.returncode == code, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_verify_fails_without_asserts():
    # under -O every assert is stripped, the first line's included; a wrong
    # closed form must still exit 1
    script = ("assert False, 'asserts are live'\n"
              "from eqw import census, cli\n"
              "real = census.count_balanced\n"
              "census.count_balanced = lambda n: real(n) + 1\n"
              "cli.main(['verify', '--suite', 'dj', '--n', '2', '--workers', '1'])\n")
    res = _run_limited(["-O", "-c", script])
    assert (res.returncode, res.stderr) == (1, "")
    assert "formula 7 != oracle 6" in res.stdout
    assert res.stdout.endswith("2 passed, 1 failed\n")
