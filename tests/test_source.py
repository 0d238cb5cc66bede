import ast
from pathlib import Path

import eqw
from eqw import separability


def test_library_has_no_assert_statements():
    # checks written as assert vanish under python -O; the library raises
    found = []
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_cli_names_the_stream_of_every_echo():
    # click.echo with no file= caches each stream it meets and never frees
    # it, so every in-process call (click.testing.CliRunner) leaked its output
    path = Path(eqw.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "echo"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "click"
        and not any(kw.arg == "file" for kw in node.keywords)
    ]
    assert found == []


def test_sweep_keeps_the_names_the_benchmark_reads():
    # the benchmark counts rank-1 tests by rebinding separability.try_factor,
    # which the sweep sees only through the module global, and reads the
    # index-map hit ratio from _index_maps.cache_info()
    tree = ast.parse(Path(separability.__file__).read_text())
    sweep = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_split_blocks"
    )
    called = [node.func for node in ast.walk(sweep) if isinstance(node, ast.Call)]
    assert any(isinstance(f, ast.Name) and f.id == "try_factor" for f in called)
    assert callable(separability._index_maps.cache_info)


def test_oracles_prepare_states_without_the_factorization_engine():
    # the preparation layer checks its target qubit by its own identity, so
    # what it prints does not hang on the sweep's factor-sign convention
    path = Path(eqw.__file__).parent / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {f"{module}.{a.name}" if module in (".", "eqw") else module
                         for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    package = {m.removeprefix("eqw").lstrip(".") for m in imported if m.startswith((".", "eqw"))}
    assert package <= {"errors", "rng", "states"}


def test_only_the_sweep_calls_try_factor():
    # one caller keeps the benchmark's separability.try_factor_calls a count
    # of the sweep's rank-1 tests alone
    def calls_try_factor(node) -> bool:
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "try_factor"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "try_factor"
        )

    calls = []
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if calls_try_factor(node)]
    sweep = next(
        node for node in ast.parse(Path(separability.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_split_blocks"
    )
    inside = [f"separability.py:{node.lineno}" for node in ast.walk(sweep) if calls_try_factor(node)]
    assert inside and calls == inside


def test_one_function_starts_process_pools():
    # every scan shards through census.pool_map, so the pool's start-up rule
    # (one job runs in process) and its daemonic workers live in one place
    def starts_pool(node) -> bool:
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "Pool"
            or isinstance(node.func, ast.Name) and node.func.id == "Pool"
        )

    calls, functions = [], {}
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if starts_pool(node)]
        functions.update(
            (f"{path.name}:{node.name}", node) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        )
    pool_map = functions["census.py:pool_map"]
    inside = [f"census.py:{node.lineno}" for node in ast.walk(pool_map) if starts_pool(node)]
    assert len(calls) == 1 and calls == inside
