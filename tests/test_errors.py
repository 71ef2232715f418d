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
