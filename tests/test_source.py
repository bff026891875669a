"""Source-level checks on the library package."""

import ast
from pathlib import Path

import valsem

SRC = Path(valsem.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes;
    # library checks raise VerificationError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
