import csv
import gc
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

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
                 "BooleanFunction", "prepare_dj_state", "make_simon_instance", "SplitMix64"):
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


def test_census_workers_byte_identical(runner):
    a = invoke(runner, "census", "dj", "--n", "3", "--exhaustive", "--workers", "1")
    b = invoke(runner, "census", "dj", "--n", "3", "--exhaustive", "--workers", "8")
    assert a.output == b.output
    # long enough a scan to start a pool
    grover = ("census", "grover", "--n", "5", "--m", "4", "--exhaustive", "--workers")
    assert invoke(runner, *grover, "1").output == invoke(runner, *grover, "3").output


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
