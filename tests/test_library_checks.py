import ast
from pathlib import Path

import crossint


def test_no_assert_statements_in_library():
    # python -O strips assert statements; library checks must raise instead
    found = []
    for path in sorted(Path(crossint.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in library code: {found}"
