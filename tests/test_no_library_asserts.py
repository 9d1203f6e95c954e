"""The library states its invariants as raises, never as assert statements.

`python -O` strips assert statements, so an invariant written as one
would silently stop being checked; InternalInvariant survives -O.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "muram")


def test_no_assert_statement_in_the_library():
    files = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "ramification.py" in files
    found = []
    for name in files:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
