import ast
from pathlib import Path

import eqw


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
