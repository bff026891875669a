"""Source-level checks on the library package."""

import ast
import re
from collections import Counter
from pathlib import Path

import valsem

SRC = Path(valsem.__file__).parent

# the decimal renderings behind --approx, the only place floats may appear
FLOAT_ALLOWED = {("cli.py", "_approx"), ("cli.py", "_approx_vec"), ("cli.py", "_SQRT2_FLOAT")}


def _top_level_name(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


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


def test_library_has_no_floats():
    # every value is exact; a float literal or a call of float() outside
    # the --approx renderings would break that promise
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if (path.name, _top_level_name(stmt)) in FLOAT_ALLOWED:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Constant) and isinstance(node.value, float):
                    found.append(f"{path.name}:{node.lineno}: float literal")
                elif isinstance(node, ast.Name) and node.id == "float":
                    found.append(f"{path.name}:{node.lineno}: name float")
    assert found == []


def test_exports_are_referenced():
    # an export that neither the README, the CLI nor the benchmark names
    # is API no one uses; ValsemError is kept as the base of every error
    root = Path(__file__).resolve().parents[1]
    texts = [root / "README.md", SRC / "cli.py", *sorted((root / "bench").glob("**/*.py"))]
    words = set()
    for path in texts:
        words |= set(re.findall(r"\w+", path.read_text()))
    assert sorted(set(valsem.__all__) - words - {"ValsemError"}) == []


def test_private_names_are_used():
    # a module-level _name that occurs once is its own definition: a
    # helper or constant that a deletion left behind
    paths = sorted(SRC.glob("*.py"))
    uses = Counter(w for path in paths for w in re.findall(r"\w+", path.read_text()))
    found = [
        f"{path.name}:{name}"
        for path in paths
        for stmt in ast.parse(path.read_text(), str(path)).body
        for name in [_top_level_name(stmt)]
        if name and name.startswith("_") and not name.startswith("__") and uses[name] < 2
    ]
    assert found == []


def _code_uses(tree):
    """Every name the code refers to: loads, attribute reads and imports.
    A name met only in a docstring or a comment is not among them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_public_names_are_used():
    # a public function, class or method that no code in the library
    # refers to and that neither the README nor the benchmark names is API
    # that nothing calls, kept alive only by the tests
    root = Path(__file__).resolve().parents[1]
    paths = sorted(SRC.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    texts = [root / "README.md", *sorted((root / "bench").glob("**/*.py"))]
    uses = {name for tree in trees.values() for name in _code_uses(tree)}
    uses |= {w for path in texts for w in re.findall(r"\w+", path.read_text())}
    found = []
    for path, tree in trees.items():
        for stmt in tree.body:
            defs = [stmt] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(stmt, ast.ClassDef):
                defs += [node for node in stmt.body if isinstance(node, ast.FunctionDef)]
            found += [
                f"{path.name}:{node.name}"
                for node in defs
                if not node.name.startswith("_") and node.name not in uses
            ]
    assert found == []
