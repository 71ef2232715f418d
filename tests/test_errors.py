import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

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
    bounded,
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


MODULES = sorted(info.name for info in pkgutil.iter_modules(platknot.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists_once(name):
    # a deletion must take its __all__ entry with it
    module = importlib.import_module(f"platknot.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


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
    (lambda: TwistMatrix.from_text("2 1\n" + "9" * 5000), FormatError),
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


# pieces of a message: words (an apostrophe inside one quotes nothing),
# signed digit runs, and strings as repr shows them
_WORDS = st.sampled_from(["got", "Python's", "n=", "(", "),", ":", "s2^"])
_DIGIT_RUNS = st.builds(str.__add__, st.sampled_from(["", "-", "+"]),
                        st.integers(1, 80).map("7".__mul__))
_REPRS = st.text(max_size=80).map(repr)


def _named(piece: str) -> str:
    """What bounded makes of one piece: a long repr by the length of the
    string it shows, a long digit run by its digit count and its sign."""
    if piece[:1] in "'\"":
        return piece if len(piece) <= 42 else (
            f"a string of {len(ast.literal_eval(piece))} characters")
    digits = piece.lstrip("+-")
    if digits.isdigit() and len(digits) > 40:
        return f"{'a negative' if piece[0] == '-' else 'an'} integer of {len(digits)} digits"
    return piece


@given(st.lists(st.one_of(_WORDS, _DIGIT_RUNS, _REPRS), max_size=8))
def test_bounded_names_each_long_value_by_its_length(pieces):
    out = bounded(" ".join(pieces))
    assert out == " ".join(map(_named, pieces))  # short pieces, and all text between, unchanged
    assert bounded(out) == out


def test_a_coded_error_is_bounded_wherever_printed():
    assert str(IndexRange(f"index {-10 ** 50} of {'x' * 41!r}, {10 ** 50}, {chr(9) * 41!r}")) == (
        "index a negative integer of 51 digits of a string of 41 characters, "
        "an integer of 51 digits, a string of 41 characters")
    short = f"index {10 ** 39} of {'x' * 40!r}"
    assert str(IndexRange(short)) == short


def _is_int(node) -> bool:
    """``int`` alone, or inside a tuple or set literal."""
    if isinstance(node, (ast.Tuple, ast.Set)):
        return any(map(_is_int, node.elts))
    return isinstance(node, ast.Name) and node.id == "int"


def _is_type_of(node) -> bool:
    """``type(x)`` or ``x.__class__``."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type"
            or isinstance(node, ast.Attribute) and node.attr == "__class__")


def _tests_exact_int(node) -> bool:
    """A comparison of ``type(x)`` or ``x.__class__`` with ``int``,
    ``isinstance(x, int)``, or ``set(map(type, ...))``."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return any(map(_is_type_of, sides)) and any(map(_is_int, sides))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "isinstance":
            return len(node.args) == 2 and _is_int(node.args[1])
        return ast.unparse(node).startswith("set(map(type, ")
    return False


def test_exact_int_rule_has_one_home():
    # the rule is errors.require_ints; BraidWord.__post_init__ keeps an inline
    # copy in its per-run loop, a little faster per word than a call (its
    # comment gives the measurement); cf_reconstruct's int-or-Fraction test is
    # a different rule
    found = []
    homes = {("errors.py", "require_ints"), ("braid.py", "__post_init__"),
             ("twobridge.py", "cf_reconstruct")}
    for path in sorted(Path(platknot.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef) or (path.name, fn.name) in homes:
                continue
            if any(map(_tests_exact_int, ast.walk(fn))):
                found.append(f"{path.name}:{fn.name}")
    assert found == []
