"""Command-line front end: classify, simulate, census, verify, asymptotics.

Every command is a pure function of its flags (and explicit seeds), so
identical invocations print identical bytes. Exit codes: 0 success, 1
verification failure, 2 input error, 3 resource cap exceeded.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys

import click

from . import census as census_mod
from .census import (
    dj_formula_report,
    dj_fractions,
    enumerate_dj,
    enumerate_grover,
    enumerate_simon,
    grover_bisep_fraction_log2,
    grover_formula_report,
    simon_formula_report,
)
from .errors import ResourceCapError
from .oracles import (
    SimonInstance,
    make_simon_instance,
    parse_period,
    prepare_dj_state,
    simon_canonical_state,
    simon_measure,
)
from .rng import KeyedPermutation
from .separability import FACTOR_CAP, check_factor_cap, classify
from .states import (
    BooleanFunction,
    LinearForm,
    StateVector,
    bv_function,
    parse_function,
    require_qubit_count,
    state_from_function,
)
from .verify import STATUS_FAIL, run_verify

EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3

FORMATS = click.Choice(["json", "csv", "table"])


def _effective_cap(default: int, max_n: int | None) -> int:
    """The largest of the default, EQW_MAX_N and --max-n, where given."""
    raw = os.environ.get("EQW_MAX_N", "0")
    try:
        return max(default, int(raw), default if max_n is None else max_n)
    except ValueError:
        raise ValueError(f"EQW_MAX_N must be an integer, got {raw!r}") from None


def _guard(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResourceCapError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_RESOURCE_CAP)
        except ValueError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_INPUT_ERROR)

    return wrapper


def _emit(fmt: str, payload: dict, header: list[str], rows: list[list[str]],
          footer: str | None = None) -> None:
    """Print one result: JSON from payload, CSV or an aligned table from the rows.

    The table alone ends with the footer line, when one is given.
    """
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        click.echo(buf.getvalue(), file=sys.stdout, nl=False)
    else:
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        line = "  ".join(f"{{:<{w}}}" for w in widths)
        click.echo(line.format(*header).rstrip(), file=sys.stdout)
        click.echo("  ".join("-" * w for w in widths), file=sys.stdout)
        for row in rows:
            click.echo(line.format(*row).rstrip(), file=sys.stdout)
        if footer is not None:
            click.echo(footer, file=sys.stdout)


def _sparse_state(s: StateVector) -> dict:
    values, support = s.entries()
    return {"qubits": s.m, "amps": {str(x): str(values[x]) for x in support}}


@click.group()
def main():
    """Exact entanglement analysis of equally weighted oracle states."""


@main.command("classify")
@click.option("--n", "n", type=int, required=True, help="Qubit count.")
@click.option("--truth-table", "truth_table", help="Binary or 0x-hex truth table.")
@click.option("--simon-r", "simon_r", help="Nonzero period bit string.")
@click.option("--bv-a", "bv_a", help="Parity-function bit string a.")
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
@click.option("--max-n", "max_n", type=int, default=None, help="Raise the qubit cap.")
@_guard
def classify_cmd(n, truth_table, simon_r, bv_a, fmt, max_n):
    """Classify the tensor-factorization structure of one state."""
    given = [v for v in (truth_table, simon_r, bv_a) if v is not None]
    if len(given) != 1:
        raise click.UsageError(
            "give exactly one of --truth-table, --simon-r, --bv-a"
        )
    if truth_table is not None:
        f = parse_function(n, truth_table)
    elif simon_r is not None:
        period = parse_period(n, simon_r)
    else:
        require_qubit_count(n)
        if len(bv_a) != n or not set(bv_a) <= {"0", "1"}:
            raise ValueError(f"--bv-a must be an {n}-bit string, got {bv_a!r}")
    cap = _effective_cap(FACTOR_CAP, max_n)
    check_factor_cap(n, cap)
    if simon_r is not None:
        state = simon_canonical_state(n, period)
    else:
        if bv_a is not None:
            f = bv_function(LinearForm(n, int(bv_a, 2)))
        state = state_from_function(f)
    payload = classify(state, cap=cap).to_dict()
    rows = [
        [str(payload["q"]), payload["label"], str(i),
         " ".join(map(str, block["qubits"])), " ".join(block["amps"])]
        for i, block in enumerate(payload["blocks"], 1)
    ]
    _emit(fmt, payload, ["q", "label", "block", "qubits", "amps"], rows)


def _grover_function(n: int, m: int | None, solutions: str | None, seed: int, cap: int):
    """The marked set, from --solutions or the first M values of the seed's
    keyed permutation, and its function.

    The flags are validated by bit length, so a huge n builds no 2^n value,
    and the qubit cap is checked before any 2^n work.
    """
    require_qubit_count(n)
    if (m is None) == (solutions is None):
        raise click.UsageError("give exactly one of --m or --solutions")
    if solutions is not None:
        try:
            marked = sorted({int(tok) for tok in solutions.split(",")})
        except ValueError:
            raise ValueError(f"--solutions must be comma-separated integers") from None
        if not marked or any(x < 0 or x.bit_length() > n for x in marked):
            raise ValueError(f"solution indices must lie in 0..2^{n} - 1")
    elif m <= 0 or m.bit_length() > n:
        raise ValueError(f"need 0 < M < 2^n, got M={m}")
    check_factor_cap(n, cap)
    if solutions is None:
        marked = sorted(map(KeyedPermutation(n, seed), range(m)))
    return BooleanFunction(n, sum(1 << x for x in marked)), marked


@main.command("simulate")
@click.argument("algorithm", type=click.Choice(["dj", "grover", "simon"]))
@click.option("--n", "n", type=int, required=True)
@click.option("--truth-table", "truth_table", help="dj: binary or 0x-hex truth table.")
@click.option("--m", "m", type=int, default=None, help="grover: number of solutions.")
@click.option("--solutions", help="grover: comma-separated solution indices.")
@click.option("--r", "r", help="simon: nonzero period bit string.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--instance", "instance_path", type=click.Path(exists=True, dir_okay=False),
              help="simon: reload a dumped instance instead of building one.")
@click.option("--instance-out", "instance_out", type=click.Path(dir_okay=False),
              help="simon: dump the instance table to this file.")
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
@click.option("--max-n", "max_n", type=int, default=None, help="Raise the qubit cap.")
@_guard
def simulate_cmd(algorithm, n, truth_table, m, solutions, r, seed, instance_path,
                 instance_out, fmt, max_n):
    """Run one oracle pipeline and classify the prepared state."""
    cap = _effective_cap(FACTOR_CAP, max_n)
    if algorithm == "simon":
        if instance_path is not None:
            try:
                with open(instance_path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"--instance {instance_path} is not JSON: {exc}") from None
            inst = SimonInstance.from_dict(data)
            if inst.n != n:
                raise ValueError(f"--n {n} does not match the instance's n = {inst.n}")
            check_factor_cap(n, cap)
        elif r is None:
            raise click.UsageError("simon needs --r or --instance")
        else:
            period = parse_period(n, r)
            check_factor_cap(n, cap)
            inst = make_simon_instance(n, period, seed)
        if instance_out:
            try:
                with open(instance_out, "w", encoding="utf-8") as fh:
                    json.dump(inst.to_dict(), fh, indent=2)
                    fh.write("\n")
            except OSError as exc:
                raise ValueError(f"cannot write --instance-out {instance_out}: "
                                 f"{exc.strerror}") from None
        outcome = simon_measure(inst, seed)
        state = outcome.collapsed
        payload = {"algorithm": "simon", "seed": seed, "instance": inst.to_dict(),
                   "observed": outcome.observed_bits()}
    else:
        if algorithm == "dj":
            if truth_table is None:
                raise click.UsageError("dj needs --truth-table")
            f = parse_function(n, truth_table)
            check_factor_cap(n, cap)
            head = {}
        else:
            f, marked = _grover_function(n, m, solutions, seed, cap)
            head = {"solutions": marked, "seed": seed}
        state = prepare_dj_state(f)
        payload = {"algorithm": algorithm, "n": n, **head, "truth_table": f.bits()}
    payload["state"] = _sparse_state(state)
    payload["report"] = classify(state, cap=cap).to_dict()
    rows = [[k, str(v)] for k, v in payload.items() if k not in ("state", "report")]
    rows += [["amp[" + idx + "]", val] for idx, val in payload["state"]["amps"].items()]
    rows += [["q", str(payload["report"]["q"])], ["label", payload["report"]["label"]]]
    _emit(fmt, payload, ["field", "value"], rows)


@main.command("census")
@click.argument("algorithm", type=click.Choice(["dj", "grover", "simon"]))
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, default=None, help="grover: number of solutions.")
@click.option("--exhaustive", is_flag=True, help="Add enumeration-oracle columns.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Enumeration worker processes [default: available cores].")
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
@click.option("--max-n", "max_n", type=int, default=None,
              help="Raise the exhaustive DJ cap (n = 4) and the Simon 12-qubit cap.")
@_guard
def census_cmd(algorithm, n, m, exhaustive, workers, fmt, max_n):
    """Closed-form counts, optionally reconciled against exhaustive enumeration."""
    if workers is None:
        workers = census_mod.available_cores()
    if algorithm == "dj":
        if exhaustive:
            cap = _effective_cap(census_mod.DJ_FULL_CAP, max_n)
            report = enumerate_dj(n, workers=workers, cap=cap)
        else:
            report = dj_formula_report(n)
    elif algorithm == "grover":
        if m is None:
            raise click.UsageError("grover census needs --m")
        report = enumerate_grover(n, m, workers=workers) if exhaustive \
            else grover_formula_report(n, m)
    else:
        cap = _effective_cap(FACTOR_CAP, max_n)
        report = enumerate_simon(n, workers, cap) if exhaustive else simon_formula_report(n)
    payload = report.to_dict()
    rows = [[row["class"], row["formula"] or "", row["oracle"] or "", row["relation"]]
            for row in payload["rows"]]
    _emit(fmt, payload, ["class", "formula", "oracle", "relation"], rows)


@main.command("verify")
@click.option("--suite", type=click.Choice(["dj", "grover", "simon", "lemma", "wht", "all"]),
              default="all", show_default=True)
@click.option("--n", "n_range", default="2..4", show_default=True,
              help="Qubit range, e.g. 3 or 2..4.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Worker processes for scans and sampled checks [default: available cores].")
@click.option("--format", "fmt", type=FORMATS, default="table", show_default=True)
@_guard
def verify_cmd(suite, n_range, workers, fmt):
    """Re-derive the counting claims by enumeration; exit 1 on any violation."""
    if workers is None:
        workers = census_mod.available_cores()
    text = n_range.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"--n must look like '3' or '2..4', got {n_range!r}") from None
    if lo < 2 or hi < lo:
        raise ValueError(f"--n range must satisfy 2 <= lo <= hi, got {n_range!r}")
    checks = run_verify(suite, range(lo, hi + 1), workers=workers)
    failed = [c for c in checks if c.status == STATUS_FAIL]
    payload = {
        "suite": suite,
        "n": f"{lo}..{hi}",
        "passed": not failed,
        "checks": [
            {"suite": c.suite, "name": c.name, "status": c.status, "detail": c.detail}
            for c in checks
        ],
    }
    rows = [[c.status.upper(), c.suite, c.name, c.detail] for c in checks]
    n_pass = sum(1 for c in checks if c.status == "pass")
    _emit(fmt, payload, ["status", "suite", "name", "detail"], rows,
          footer=f"{n_pass} passed, {len(failed)} failed")
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command("asymptotics")
@click.option("--max-n", "max_n", type=int, default=14, show_default=True,
              help="Largest n in the table (capped at 20 unless EQW_MAX_N raises it).")
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
@_guard
def asymptotics_cmd(max_n, fmt):
    """Per-n log2 fractions: exact, Stirling form, and the vanishing bounds."""
    cap = _effective_cap(census_mod.FRACTION_CAP, None)
    header = ["n", "sep_exact_log2", "sep_stirling_log2", "bisep_bound_log2",
              "grover_m2_log2", "grover_m4_log2"]
    rows = []
    for n in range(2, max_n + 1):
        fr = dj_fractions(n, cap=cap)
        rows.append(dict(zip(header, (
            n,
            fr.sep_exact,
            fr.sep_asymptotic,
            fr.bisep_bound,
            grover_bisep_fraction_log2(n, 2),
            grover_bisep_fraction_log2(n, 4) if (1 << n) > 4 else None,
        ))))
    cells = [
        ["" if row[k] is None else (str(row[k]) if k == "n" else f"{row[k]:.6f}")
         for k in header]
        for row in rows
    ]
    _emit(fmt, {"rows": rows}, header, cells)


if __name__ == "__main__":
    main()
