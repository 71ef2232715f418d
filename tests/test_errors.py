import ast
from pathlib import Path

import platknot
from platknot.errors import InternalError, PlatError


def test_internal_error_is_a_coded_plat_error():
    assert issubclass(InternalError, PlatError)
    assert InternalError("x").code == "InternalError"


def test_package_has_no_assert_statements():
    # python -O strips assert, so invariant guards must raise InternalError
    found = []
    for path in sorted(Path(platknot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _letter_uses(tree):
    """Line numbers that read ``.letters`` or construct ``BraidLetter``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "letters":
            yield node.lineno
        if isinstance(node, ast.Call):
            if "BraidLetter" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                yield node.lineno


def test_only_braid_and_braid_closure_expand_crossings():
    # words are stored as runs; the per-crossing view is braid.py's, and
    # braid_closure is the one consumer that draws a crossing per letter
    found = []
    for path in sorted(Path(platknot.__file__).parent.glob("*.py")):
        if path.name == "braid.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "plat.py":
            fn = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "braid_closure")
            allowed = set(range(fn.lineno, fn.end_lineno + 1))
        found += [f"{path.name}:{line}" for line in _letter_uses(tree) if line not in allowed]
    assert found == []
