import ast
from pathlib import Path

import eqw
from eqw import census, separability


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


def test_the_sweep_does_not_call_itself():
    # _split_blocks peels one finest block per step in a loop; a recursive
    # sweep would try every cut of each block it had already split off
    tree = ast.parse(Path(separability.__file__).read_text())
    sweep = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_split_blocks"
    )
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(sweep) if isinstance(node, ast.Call)}
    assert "try_factor" in called and "_split_blocks" not in called


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
    # every scan shards through census.pool_map, so how a scan is cut, when
    # it pools (a lone shard runs in process) and its daemonic workers live
    # in one place
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
    assert not hasattr(census, "shard_bounds")
    for scan in ("census.py:_placement_histogram", "census.py:enumerate_simon",
                 "verify.py:_sharded"):
        called = {node.func.id for node in ast.walk(functions[scan])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "pool_map" in called, scan


def test_one_transform_kernel():
    # the packed-lane butterfly is the one Walsh-Hadamard kernel: defined in
    # eqw.states, called by the spectral test and the DJ pipeline alone
    defined, callers = [], []
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "hadamard_all"]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [
                    f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and (
                        isinstance(node.func, ast.Name) and node.func.id == "hadamard_all"
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr == "hadamard_all"
                    )
                ]
    assert defined == ["states.hadamard_all"]
    assert sorted(callers) == ["oracles.dj_oracle_pipeline", "separability.wht"]


def test_seeded_choices_come_from_one_keyed_permutation():
    # Simon labels and Grover solutions read the keyed permutation in
    # eqw.rng; no shuffle of all 2^n words is left to come back as a second path
    defined, shuffles = [], []
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        text = path.read_text()
        shuffles += [f"{path.name}:{i}" for i, line in enumerate(text.splitlines(), 1)
                     if "shuffle" in line.lower()]
        defined += [f"{path.stem}.{node.name}" for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.ClassDef) and "Permutation" in node.name]
    assert shuffles == []
    assert defined == ["rng.KeyedPermutation"]


def test_one_anf_kernel():
    # the packed-lane ANF kernel holds the one Möbius step (x ^= (x << s) & m);
    # the scans feed it whole iterables: no call to it in census or verify
    # sits in a loop, a comprehension, a lambda or a nested function
    kernel = {"anf_block_sizes", "sign_block_sizes"}
    per_item = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ast.Lambda, ast.FunctionDef)

    def moebius_step(node) -> bool:
        return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor)
                and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.BitAnd)
                and isinstance(node.value.left, ast.BinOp)
                and isinstance(node.value.left.op, ast.LShift))

    def kernel_calls(fn) -> list:
        return [node for node in ast.walk(fn) if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in kernel or getattr(node.func, "attr", None) in kernel)]

    steps, functions = [], {}
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                functions[f"{path.stem}.{fn.name}"] = fn
                steps += [f"{path.stem}.{fn.name}" for node in ast.walk(fn) if moebius_step(node)]
    assert steps == ["separability.anf_block_sizes"]
    callers = [name for name, fn in functions.items() if kernel_calls(fn)]
    assert sorted(callers) == ["census._scan_placements", "separability.sign_block_sizes",
                               "verify.check_lemma_decomposition"]
    for scan in ("census._scan_placements", "verify.check_lemma_decomposition"):
        looped = {id(node) for outer in ast.walk(functions[scan])
                  if isinstance(outer, per_item) and outer is not functions[scan]
                  for node in ast.walk(outer)}
        assert not [call for call in kernel_calls(functions[scan]) if id(call) in looped], scan
    assert not any(isinstance(node, per_item + (ast.comprehension,))
                   for node in ast.walk(functions["separability.sign_block_sizes"])
                   if node is not functions["separability.sign_block_sizes"])


def test_one_coset_engine():
    # finest_factorization picks the engine in one place: no other function
    # tests for a coset state or factors one by GF(2) row reduction
    engine = {"_coset_rows", "_coset_blocks"}
    callers = []
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) in engine
                     or getattr(node.func, "attr", None) in engine)
                for node in ast.walk(fn)
            ):
                callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["separability.finest_factorization"]


def test_one_reshape_reader():
    # schmidt_rank reads the rows of the support, so it builds no offset
    # tables: only the rank-1 test's factors and reassembly read _index_maps
    callers = []
    for fn in ast.walk(ast.parse(Path(separability.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_index_maps"
            for node in ast.walk(fn)
        ):
            callers.append(fn.name)
    assert "schmidt_rank" not in callers
    assert sorted(callers) == ["reassemble", "try_factor"]


def test_one_support_scan():
    # StateVector.entries() is the one place a support is found: a state held
    # by its support hands over its keys, and only a dense one is scanned.
    # No other module runs compress over amplitudes (the range(...) idiom or
    # an argument that reads .amps), and in oracles only the DJ pipeline,
    # which runs the Hadamard kernel on the dense (n+1)-qubit vector, builds
    # a [0] * (1 << ...) list: every Simon state is built from its support
    def scans_amplitudes(node) -> bool:
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "compress"):
            return False
        first = node.args[0] if node.args else None
        return (isinstance(first, ast.Call) and getattr(first.func, "id", None) == "range"
                or any(isinstance(sub, ast.Attribute) and sub.attr in ("amps", "_amps")
                       for arg in node.args for sub in ast.walk(arg)))

    def zero_list(node) -> bool:
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, ast.List) and len(side.elts) == 1
                        and isinstance(side.elts[0], ast.Constant) and side.elts[0].value == 0
                        for side in (node.left, node.right))
                and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.LShift)
                        for side in (node.left, node.right)))

    scans, dense = [], []
    for path in sorted(Path(eqw.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                scans += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                          if scans_amplitudes(node)]
                if path.stem == "oracles":
                    dense += [fn.name for node in ast.walk(fn) if zero_list(node)]
    assert scans == ["states.entries"]
    assert dense == ["dj_oracle_pipeline"]
