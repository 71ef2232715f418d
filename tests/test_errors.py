import ast
from fractions import Fraction
from pathlib import Path

import pytest

import platknot
from platknot import (
    BraidWord,
    TwistMatrix,
    VerticalSphere,
    cf_evaluate,
    cf_reconstruct,
    maximal_collection,
    schubert_pair,
    validate,
)
from platknot.braid import parse_word
from platknot.errors import (
    DimensionsOutOfTheoremRange,
    FormatError,
    IndexRange,
    InternalError,
    InvalidCoefficients,
    NotRepresentable,
    PlatError,
    TooManyCrossings,
    WidthTooSmall,
    WrongRowLength,
    require_ints,
    shown,
)


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


HUGE = 10 ** 5000  # past Python's 4,300-digit int-to-str limit

# (call, the code it must raise); each once ended in a bare ValueError,
# raised while its own message printed the int
HUGE_INT_CASES = [
    (lambda: validate(TwistMatrix(HUGE, [(1,)])), WrongRowLength),
    (lambda: validate(TwistMatrix(-HUGE, [(1,)])), WidthTooSmall),
    (lambda: BraidWord(HUGE + 1), IndexRange),
    (lambda: TwistMatrix.from_json_dict({"m": 2, "n": HUGE, "rows": [[1]]}), FormatError),
    (lambda: schubert_pair([HUGE, 1.5, 3]), InvalidCoefficients),
    (lambda: cf_evaluate([HUGE, True]), InvalidCoefficients),
    (lambda: VerticalSphere((HUGE, 1.5)), FormatError),
    (lambda: maximal_collection(HUGE, 1.5), FormatError),
    (lambda: maximal_collection(3, HUGE), DimensionsOutOfTheoremRange),
    (lambda: cf_reconstruct(Fraction(2 * HUGE + 1, 2)), NotRepresentable),
    (lambda: len(BraidWord(4, [(1, HUGE)])), TooManyCrossings),
    (lambda: parse_word("s1^" + "9" * 5000, 4), FormatError),
]


@pytest.mark.parametrize("call, error", HUGE_INT_CASES,
                         ids=[error.__name__ + str(i) for i, (_, error) in enumerate(HUGE_INT_CASES)])
def test_an_int_of_any_size_ends_in_its_code(call, error):
    with pytest.raises(error):
        call()


def test_require_ints_names_the_types_not_the_values():
    with pytest.raises(IndexRange) as exc:
        require_ints(IndexRange, "things", [1, 2.5, True, HUGE, "x"])
    assert str(exc.value) == "things must be of type int, got bool, float, str"
    require_ints(IndexRange, "things", [0, -HUGE])


def test_shown_renders_any_value():
    assert shown(3) == "3" and shown("a") == "'a'" and shown(Fraction(7, 2), str) == "7/2"
    assert shown(HUGE) == "<int too long to print>"
    assert shown((1, HUGE)) == "<tuple too long to print>"


def test_exact_int_rule_has_one_home():
    # the rule is errors.require_ints; BraidWord's per-run loop keeps an
    # inline copy for speed, and its strand check shares that method
    found = []
    homes = {("errors.py", "require_ints"), ("braid.py", "__post_init__")}
    for path in sorted(Path(platknot.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, ast.FunctionDef) or (path.name, fn.name) in homes:
                continue
            text = ast.get_source_segment(source, fn)
            if "is not int" in text or "set(map(type" in text:
                found.append(f"{path.name}:{fn.name}")
    assert found == []
