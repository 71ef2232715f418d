import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import platknot
from platknot import TwistMatrix, invariants, twobridge
from platknot.braid import CROSSING_BUDGET
from platknot.canonical import symmetry_group
from platknot.cli import main
from platknot.errors import PlatError
from platknot.plat import row_width, to_braid_word

from conftest import address_space_cap, random_matrix


@pytest.fixture
def example_file(tmp_path, example_matrix):
    path = tmp_path / "example.plat"
    path.write_text(example_matrix.to_text())
    return str(path)


@pytest.fixture
def digit_limit():
    """Set Python's int-to-str digit limit (0: none) for one test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def write_plat(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_even_height_exit_2_with_code(self, tmp_path, capsys):
        bad = write_plat(tmp_path, "bad.plat", "4 2\n-4 -4 -4\n-4 -4 -4 -4\n")
        assert main(["validate", bad]) == 2
        assert "EvenHeight" in capsys.readouterr().err
        bad = write_plat(tmp_path, "bad.json", '{"m": 4, "rows": [[-4, -4, -4], [-4, 6, -4, -4]]}')
        assert main(["--json", "validate", bad]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "EvenHeight"


class TestCanon:
    def test_json_round_trip_is_fixed_point(self, example_file, capsys, tmp_path):
        assert main(["--json", "canon", example_file]) == 0
        out1 = capsys.readouterr().out
        again = write_plat(tmp_path, "canon.json", out1)
        assert main(["--json", "canon", again]) == 0
        assert capsys.readouterr().out == out1


class TestEquiv:
    def test_rotation_image_equivalent(self, tmp_path, example_matrix, capsys):
        from platknot.canonical import SymmetryElement, apply
        a = write_plat(tmp_path, "a.plat", example_matrix.to_text())
        for g in SymmetryElement:  # the identity too: a file and its copy
            b = write_plat(tmp_path, "b.plat", apply(g, example_matrix).to_text())
            assert main(["equiv", a, b]) == 0

    def test_inequivalent_exit_1(self, tmp_path, example_matrix):
        a = write_plat(tmp_path, "a.plat", example_matrix.to_text())
        b = write_plat(tmp_path, "b.plat",
                       "4 3\n-5 -4 -4\n-4 6 -4 -4\n-4 -4 -6\n")
        assert main(["equiv", a, b]) == 1

    # two width-2 plats a flype apart: both close to one knot (15 crossings,
    # determinant 131), but no rotation maps one onto the other
    FLYPE_PAIR = ("2 3\n5\n-4 0\n6\n", "2 3\n5\n-2 -2\n6\n")
    LOW = "4 3\n-4 -3 -4\n-4 -4 -4 -4\n-4 -4 -4\n"  # one |a| = 3

    # a rotation is an isotopy of any plat: outside the hypotheses too
    @pytest.mark.parametrize("text1, text2", [
        ("2 1\n5\n", "2 1\n5\n"),
        (FLYPE_PAIR[0], FLYPE_PAIR[0]),
        (FLYPE_PAIR[0], "2 3\n6\n0 -4\n5\n"),  # the HV image
        (LOW, "4 3\n-4 -4 -4\n-4 -4 -4 -4\n-4 -3 -4\n"),  # the H image
    ], ids=["2x1-identical", "flype-identical", "flype-hv", "low-h"])
    def test_rotation_equal_outside_the_theorem_exit_0(self, tmp_path, capsys, text1, text2):
        a, b = write_plat(tmp_path, "a.plat", text1), write_plat(tmp_path, "b.plat", text2)
        assert main(["equiv", a, b]) == 0
        assert main(["--json", "equiv", b, a]) == 0
        assert capsys.readouterr() == ("equivalent\n" + '{"equivalent": true}\n', "")

    def test_flype_pair_exit_2_with_the_theorem_code(self, tmp_path, capsys):
        a, b = (write_plat(tmp_path, f"{k}.plat", text) for k, text in zip("ab", self.FLYPE_PAIR))
        assert main(["equiv", a, b]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: DimensionsOutOfTheoremRange: need m >= 4 and odd "
                                     "n >= 3, got m=2, n=3\n")
        assert main(["--json", "equiv", a, b]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "DimensionsOutOfTheoremRange"

    @pytest.mark.parametrize("outside, code", [(FLYPE_PAIR[0], "DimensionsOutOfTheoremRange"),
                                               (LOW, "NotHighlyTwisted")])
    def test_one_file_inside_one_outside_exit_2_with_its_code(self, tmp_path, example_matrix,
                                                              capsys, outside, code):
        a = write_plat(tmp_path, "a.plat", example_matrix.to_text())
        b = write_plat(tmp_path, "b.plat", outside)
        for pair in ([a, b], [b, a]):
            assert main(["equiv", *pair]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {code}: ")

    def test_first_failing_check_is_reported(self, tmp_path, capsys):
        # the first file's checks come before the second's
        low = write_plat(tmp_path, "low.plat", self.LOW)
        flype = write_plat(tmp_path, "flype.plat", self.FLYPE_PAIR[0])
        assert main(["equiv", low, flype]) == 2
        assert capsys.readouterr().err.startswith("error: NotHighlyTwisted: ")
        assert main(["equiv", flype, low]) == 2
        assert capsys.readouterr().err.startswith("error: DimensionsOutOfTheoremRange: ")

    @pytest.mark.parametrize("argv", [["equiv"], ["hilden", "coset"]])
    def test_malformed_second_file_is_refused_when_read(self, tmp_path, capsys, argv):
        # both files are read, and so checked, before any work: the second
        # file's shape error comes before the first file's theorem range
        a = write_plat(tmp_path, "a.plat", "3 3\n4 4\n4 4 4\n4 4\n")
        b = write_plat(tmp_path, "b.plat", "4 3\n-4 -4\n-4 -4 -4 -4\n-4 -4 -4\n")
        assert main(argv + [a, b]) == 2
        assert capsys.readouterr().err.startswith("error: WrongRowLength")


class TestTwobridge:
    def test_rational_exponent_inside_the_digit_bound(self, capsys):
        # 6 characters plus exponent 4000 stay inside the 4,300-digit bound
        assert main(["twobridge", "--rational", "1e4000"]) == 0
        big = "1" + "0" * 4000
        assert capsys.readouterr().out == f"{big} = [{big}]\n"

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_tall_file_refused_before_the_convergent_pass(self, tmp_path, capsys, monkeypatch,
                                                          side):
        # 160,001 coefficients 3: the numerator has at least 48,164 digits
        f = write_plat(tmp_path, "tall.plat", "2 160001\n" + "3\n3 3\n" * 80_000 + "3\n")
        monkeypatch.setattr(twobridge, "schubert_pair",
                            lambda coeffs: pytest.fail("the convergent pass ran"))
        assert main(["twobridge", f, "--side", side]) == 2
        assert capsys.readouterr().err.startswith("error: TooManyDigits: ")

    def test_list_just_under_the_bound_prints(self, capsys, digit_limit):
        # 1,427 coefficients 1025 give a 4,297-digit numerator, whose bound
        # is 4,296: at a limit of 4,297 it prints, at 4,295 it is refused
        coeffs = [1025] * 1427
        assert twobridge.min_numerator_digits(coeffs) == 4296
        digit_limit(4297)
        pair = " ".join(map(str, sorted(twobridge.schubert_pair(coeffs)))) + "\n"
        assert main(["twobridge", "--coeffs", ",".join(map(str, coeffs))]) == 0
        assert capsys.readouterr().out == pair
        digit_limit(4295)
        assert main(["twobridge", "--coeffs", ",".join(map(str, coeffs))]) == 2
        assert "at least 4296 digits, over Python's limit of 4295" in capsys.readouterr().err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_rational_past_a_lowered_limit_exits_2(self, capsys, digit_limit, json_flag):
        # 1e700 passes the 4,300-digit bound on the input, but its 701
        # digits cannot be printed at a limit of 640
        digit_limit(640)
        assert main([*json_flag, "twobridge", "--rational", "1e700"]) == 2
        message = ("an exact result is too long to print: it has more than Python's limit "
                   "of 640 digits")
        err = (json.dumps({"error": "TooManyDigits", "message": message}) if json_flag
               else f"error: TooManyDigits: {message}")
        assert capsys.readouterr() == ("", err + "\n")

    def test_no_limit_refuses_nothing_early(self, capsys, digit_limit):
        coeffs = ",".join(["999"] * 3001)  # 8,130-digit bound: refused at the default limit
        digit_limit(0)
        assert main(["twobridge", "--coeffs", coeffs]) == 0
        assert len(capsys.readouterr().out) > 2 * 8130


EXAMPLE_TEXT = "4 3\n-4 -4 -4\n-4 6 -4 -4\n-4 -4 -6\n"
TREFOIL = "2 1\n3\n"
BAD_JSON = ['{"m": "x", "rows": [[3]]}', '{"m": 2, "rows": [["a"]]}',
            '{"m": 2, "n": "z", "rows": [[3]]}', '{"m": 2, "rows": [[1.5]]}',
            '{"m": 2, "rows": [[true]]}', '{"m": false, "rows": [[3]]}']
BEYOND_MAXSIZE = "2 1\n10000000000000000000\n"  # len() of its word would overflow
LONG_INT_JSON = '{"m": 2, "rows": [[1' + "0" * 4300 + ']]}'  # past Python's int digit limit
DEEP_JSON = '{"m": ' + "[" * 100_000 + "]" * 100_000 + "}"
THOUSAND_DIGITS = "4 3\n" + "\n".join(" ".join(["9" * 1000] * k) for k in (3, 4, 3)) + "\n"
# a zero row between two 4,300-digit entries: their runs merge into a 4,301-digit exponent
MERGED_PAST_LIMIT = "2 3\n" + "9" * 4300 + "\n0 0\n" + "9" * 4300 + "\n"
NINES = "9" * 5000  # past the digit limit: a token never echoed whole
LONG_HEADER = f"2 1 {NINES}\n3\n"
AT_LIMIT = "9" * 4300  # prints, but is named by its length
LONG_ENTRY = f"2 1\n{AT_LIMIT}\n"
# (contents of FILE, its label in test ids, its code): each refusal would
# print a long value of the file
LONG_VALUES = [
    (f"2 {AT_LIMIT}\n", "long n", "FormatError"),
    (f"{AT_LIMIT} 1\n3\n", "long m", "WrongRowLength"),
    ('{"plat-format": "' + "x" * 5000 + '", "m": 2, "rows": [[3]]}', "long plat-format",
     "FormatError"),
    ('{"m": 2, "n": ' + "9" * 4000 + ', "rows": [[3]]}', "long JSON n", "FormatError"),
    ('{"m": -' + "9" * 4000 + ', "rows": [[3]]}', "long negative JSON m", "WidthTooSmall"),
]
# (arguments, contents of FILE or None, what stderr must name)
REJECTED = (
    [(["invariants", "FILE"], text, "FormatError") for text in BAD_JSON]
    + [(["hilden", "random", "--strands", k, "--length", "2"], None, "IndexRange")
       for k in ("1", "0", "3", "-4")]
    + [(["invariants", "FILE", "--jones-cap", v], EXAMPLE_TEXT, "--jones-cap")
       for v in ("60", "-1", "x")]
    + [(["hilden", "apply", "FILE", "--jones-cap", "23"], EXAMPLE_TEXT, "--jones-cap")]
    + [(["hilden", "random", "--strands", "8", "--length", v], None, "--length")
       for v in ("-3", "1001")]
    + [(["hilden", "coset", "FILE", "FILE", "--samples", v], EXAMPLE_TEXT, "--samples")
       for v in ("-1", "10001")]
    + [(["hilden", "random", "--strands", k, "--length", "2"], None, "--strands")
       for k in ("258", "1024")]
    + [([cmd, "FILE"], "2 1\n1000000000\n", "TooManyCrossings")
       for cmd in ("pd", "gauss", "invariants")]
    + [(["--json", "braid", "FILE"], "2 1\n1000000000\n", "TooManyCrossings")]
    + [(argv, BEYOND_MAXSIZE, "TooManyCrossings")
       for argv in (["pd", "FILE"], ["--json", "braid", "FILE"],
                    ["hilden", "apply", "FILE", "--left", "h1@1"])]
    + [(["braid", "FILE"], MERGED_PAST_LIMIT, "TooManyDigits"),
       (["hilden", "apply", "FILE", "--left", "h1@1"], MERGED_PAST_LIMIT, "TooManyCrossings")]
    # a long token is named by its length, not echoed
    + [(["hilden", "apply", "FILE", "--left", f"h1@{NINES}"], EXAMPLE_TEXT, "FormatError"),
       (["hilden", "apply", "FILE", "--right", f"h{NINES}@1"], EXAMPLE_TEXT, "IndexRange"),
       (["hilden", "apply", "FILE", "--right", NINES], EXAMPLE_TEXT, "FormatError"),
       (["hilden", "random", "--strands", NINES, "--length", "2"], None, "--strands"),
       (["hilden", "random", "--strands", "8", "--length", NINES[:4000]], None, "--length"),
       (["hilden", "random", "--strands", "8", "--length", "2", "--seed", NINES], None, "--seed"),
       (["validate", "FILE"], LONG_HEADER, "FormatError")]
    # a long value the message prints is named by its length too
    + [(["hilden", "apply", "FILE", "--left", "h1@" + NINES[:4299]], EXAMPLE_TEXT, "IndexRange"),
       (["hilden", "apply", "FILE", "--left", "h1@8" + NINES[:4297] + "8"], EXAMPLE_TEXT,
        "IndexParity")]
    + [(argv, LONG_ENTRY, "TooManyCrossings")
       for argv in (["--json", "braid", "FILE"], ["invariants", "FILE"])]
    + [(["validate", "FILE"], text, code) for text, _, code in LONG_VALUES]
    + [(["pd", "FILE", "--style", "x" * 5000], EXAMPLE_TEXT, "--style"),
       (["twobridge", "FILE", "--side", "y" * 5000], EXAMPLE_TEXT, "--side")]
    + [(["spheres", "--m", "101", "--n", "3"], None, "--m"),
       (["spheres", "--m", "4", "--n", "103"], None, "--n"),
       (["spheres", "--m", "3", "--n", "101"], None, "DimensionsOutOfTheoremRange"),
       (["spheres", "--m", "100", "--n", "2"], None, "DimensionsOutOfTheoremRange")]
    # --force is canon's only; equiv decides what it can prove without it
    + [(["equiv", "FILE", "FILE", "--force"], EXAMPLE_TEXT, "--force")]
    + [(["validate", "FILE"], LONG_INT_JSON, "FormatError"),
       (["canon", "FILE"], DEEP_JSON, "FormatError")]
    # exact results past the digit limit, and --rational bounded before it is built
    + [(["twobridge", "--coeffs", ",".join(["999"] * 3001)], None, "TooManyDigits"),
       (["hilden", "coset", "FILE", "FILE", "--samples", "2"], THOUSAND_DIGITS, "TooManyDigits")]
    + [(["twobridge", "--rational", v], None, "FormatError")
       for v in ("1e5000", "1e-3000000", "1" * 4301, "9" * 4000 + "e400")]
    # exactly one source: FILE, --coeffs or --rational
    + [(["twobridge"], None, "--coeffs"),
       (["twobridge", "FILE", "--coeffs", "3,-3,3"], EXAMPLE_TEXT, "--coeffs"),
       (["twobridge", "--coeffs", "3,-3,3", "--rational", "21/8"], None, "--rational")]
)


def _short(arg: str) -> str:
    return arg if len(arg) <= 40 else f"{arg[:8]}...({len(arg)} chars)"


@pytest.mark.parametrize("argv, text, named", REJECTED,
                         ids=[" ".join(map(_short, argv))
                              + (f" {text}" if text in BAD_JSON + [BEYOND_MAXSIZE] else "")
                              + {MERGED_PAST_LIMIT: " merged", LONG_HEADER: " long header",
                                 LONG_ENTRY: " long entry",
                                 **{text: f" {label}" for text, label, _ in LONG_VALUES}}.get(
                                     text, "")
                              for argv, text, _ in REJECTED])
def test_rejected_input_exits_2_naming_the_code_or_option(tmp_path, capsys, argv, text, named):
    # any exception other than argparse's SystemExit escapes main and fails here
    path = "FILE"
    if text is not None:
        path = write_plat(tmp_path, "input.plat", text)
        argv = [path if a == "FILE" else a for a in argv]
    try:
        with address_space_cap():  # a missed bound fails here, not the machine
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    err = capsys.readouterr().err
    assert status == 2 and named in err and "Traceback" not in err
    assert len(err.replace(path, "FILE")) < 300  # no input echoed whole


@pytest.mark.parametrize("side", ["left", "right"])
def test_hilden_apply_bounds_the_moves_per_side(tmp_path, capsys, side):
    f = write_plat(tmp_path, "e.plat", EXAMPLE_TEXT)
    assert main(["--json", "hilden", "apply", f, f"--{side}", ",".join(["h1@1"] * 1000)]) == 0
    assert json.loads(capsys.readouterr().out)["crossings"] == 1044
    assert main(["hilden", "apply", f, f"--{side}", ",".join(["h1@1"] * 1001)]) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and f"--{side}" in err and "1000" in err


@pytest.mark.parametrize("text", [TREFOIL, EXAMPLE_TEXT])
def test_hilden_apply_json_keys_are_the_invariants_keys_plus_word(tmp_path, capsys, text):
    f = write_plat(tmp_path, "t.plat", text)
    assert main(["--json", "invariants", f]) == 0
    inv_keys = set(json.loads(capsys.readouterr().out))
    assert main(["--json", "hilden", "apply", f, "--left", "h1@1"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == inv_keys | {"strands", "word"}


def test_consecutive_calls_share_no_options(tmp_path, capsys):
    f = write_plat(tmp_path, "t.plat", TREFOIL)
    assert main(["--json", "invariants", f]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["invariants", f]) == 0
    assert capsys.readouterr().out.startswith("components:")
    outs = []
    for argv in (["--style", "even"], [], ["--style", "standard"]):
        assert main(["invariants", f, *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[2] != outs[0]


def test_hilden_coset_on_60x61_plats_with_5_digit_twists_exits_2_fast(tmp_path):
    # 3.8M colouring bits per closure determinant, 74 s each on a 2-vCPU VM;
    # the timeout fails a missing bound fast instead of running for an hour
    rng = random.Random(60)
    files = [write_plat(tmp_path, f"{k}.plat",
                        random_matrix(rng, 60, 61, 10_000, 99_999).to_text()) for k in "ab"]
    env = {**os.environ, "PYTHONPATH": str(Path(platknot.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "platknot.cli", "hilden", "coset", *files],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and "error: TooMuchWork:" in proc.stderr


def budget_matrix(crossings: int) -> TwistMatrix:
    """A 12x13 plat of exactly ``crossings`` crossings, its |a| spread evenly
    over its 149 entries and its signs seeded."""
    rng = random.Random(12)
    widths = [row_width(12, i) for i in range(1, 14)]
    size, rest = divmod(crossings, sum(widths))
    mags = iter([size + 1] * rest + [size] * (sum(widths) - rest))
    return TwistMatrix(12, [[rng.choice((1, -1)) * next(mags) for _ in range(w)] for w in widths])


@pytest.mark.parametrize("extra, status", [(0, 0), (1, 2)], ids=["budget", "budget+1"])
def test_invariant_report_bound_is_the_crossing_budget(tmp_path, extra, status):
    # the report's bound: the closure and the Wirtinger elimination of a
    # CROSSING_BUDGET-crossing diagram finish well inside the timeout, and
    # one crossing more is refused before any work
    f = write_plat(tmp_path, "budget.plat", budget_matrix(CROSSING_BUDGET + extra).to_text())
    env = {**os.environ, "PYTHONPATH": str(Path(platknot.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "platknot.cli", "--json", "invariants", f],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == status
    if status:
        assert json.loads(proc.stderr)["error"] == "TooManyCrossings"
    else:
        report = json.loads(proc.stdout)
        assert report["crossings"] == CROSSING_BUDGET and report["jones"] is None
        assert (report["determinant"] % 2 == 1) == (report["components"] == 1)


@pytest.mark.parametrize("argv", [["invariants", "FILE"], ["--json", "invariants", "FILE"],
                                  ["hilden", "apply", "FILE", "--left", "h1@1"]])
def test_invariant_report_past_the_digit_limit_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(invariants, "determinant", lambda diagram: 10 ** 5000)
    f = write_plat(tmp_path, "t.plat", TREFOIL)
    assert main([f if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    head = '{"error": "TooManyDigits", ' if "--json" in argv else "error: TooManyDigits: "
    assert out == "" and err.startswith(head)


def test_import_platknot_builds_no_parser():
    code = ("import sys, platknot; "
            "print(sorted({'argparse', 'platknot.cli'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(platknot.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# (argv, first 16 hex digits of the sha256 of stdout) on the example matrix,
# FILE standing for its path: the digests CI checks on the installed `plat`
# script, then the text and JSON output of canon, gauss, spheres and pd
OUTPUT_PINS = [
    ("pd FILE --style standard", "a9025e27baba0dc4"),
    ("gauss FILE --style standard", "143770a8a8baa0f9"),
    ("--json invariants FILE --style standard", "b530ee0691ca1f63"),
    ("pd FILE --style even", "8be95ed9ac11b657"),
    ("gauss FILE --style even", "898a74de2a9bd40d"),
    ("--json invariants FILE --style even", "c7c15a0bf1adc7cd"),
    ("pd FILE --style doubly_even", "5d8aa38107954bf5"),
    ("gauss FILE --style doubly_even", "a1955d810c7aa6f3"),
    ("--json invariants FILE --style doubly_even", "c6daaf9070867403"),
    ("--json hilden random --strands 8 --length 6 --seed 3", "004f58e5c868ca31"),
    ("--json hilden apply FILE --left h2@1,h1@3 --right h3@5", "5dee79ffba0845b2"),
    ("canon FILE", "b7020aaaf02d8307"),
    ("--json canon FILE", "183a3f32e9646d58"),
    ("--json gauss FILE", "c1772ab484618058"),
    ("--json pd FILE", "4b67193efee9a52b"),
    ("spheres --m 4 --n 3", "6bc546101fa9fd18"),
    ("--json spheres --m 4 --n 3", "af816b0c597de270"),
]


@pytest.mark.parametrize("command, digest", OUTPUT_PINS)
def test_output_pinned(example_file, capsys, command, digest):
    assert main([example_file if a == "FILE" else a for a in command.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


# (argv, contents of FILE, exit status, stdout, stderr), FILE in stderr
# standing for the file's path: outputs short enough to state whole; an
# argparse refusal is stated by its last line, after the usage lines
EXACT_OUTPUTS = [
    pytest.param("twobridge --coeffs 3,-3,3", None, 0, "33/10\n", "",
                 id="twobridge --coeffs 3,-3,3"),
    pytest.param("twobridge --rational 21/8", None, 0, "21/8 = [3; -3, 3]\n", "",
                 id="twobridge --rational 21/8"),
    # a value starting with "-" is joined to its option by "="
    pytest.param("twobridge --rational=-21/8", None, 0, "-21/8 = [-3; 3, -3]\n", "",
                 id="twobridge --rational=-21/8"),
    pytest.param("twobridge --coeffs=-3,3,-3", None, 0, "-33/10\n", "",
                 id="twobridge --coeffs=-3,3,-3"),
    pytest.param("twobridge FILE --side right", EXAMPLE_TEXT, 0, "-86/15 -86/23\n", "",
                 id="twobridge FILE --side right"),
    pytest.param("--json symmetries FILE", EXAMPLE_TEXT, 0, '{"symmetries": ["id"]}\n', "",
                 id="--json symmetries FILE"),
    # every row a palindrome, and the row sequence too: all four rotations
    pytest.param("--json symmetries FILE", "4 3\n-4 5 -4\n6 -4 -4 6\n-4 5 -4\n", 0,
                 '{"symmetries": ["id", "h", "v", "hv"]}\n', "",
                 id="--json symmetries palindromic"),
    # rows 1 and 3 both short: the first wrong row is named
    pytest.param("validate FILE", "4 3\n-4 -4\n-4 6 -4 -4\n-4 -4\n", 2, "",
                 "error: WrongRowLength: row 1 must have 3 entries, got 2\n",
                 id="validate rows 1 and 3 short"),
    # not a traceback and exit 1, which equiv also gives for "not equivalent"
    pytest.param("validate FILE", b"4 3\n\xff\n", 2, "",
                 "error: FormatError: cannot read FILE: not UTF-8 at byte 4\n",
                 id="validate non-UTF-8"),
    pytest.param("validate FILE", EXAMPLE_TEXT, 0, "ok: width 4, height 3\n", "",
                 id="validate FILE"),
    # a UTF-8 byte-order mark is dropped, before a text or a JSON matrix
    pytest.param("validate FILE", b"\xef\xbb\xbf" + EXAMPLE_TEXT.encode(), 0,
                 "ok: width 4, height 3\n", "", id="validate text after a BOM"),
    pytest.param("validate FILE", b'\xef\xbb\xbf{"m": 2, "rows": [[3]]}', 0,
                 "ok: width 2, height 1\n", "", id="validate JSON after a BOM"),
    pytest.param("validate FILE", b"\xef\xbb\xbf4 3\n\xff\n", 2, "",
                 "error: FormatError: cannot read FILE: not UTF-8 at byte 7\n",
                 id="validate non-UTF-8 after a BOM"),
    pytest.param("validate FILE", None, 2, "",
                 "error: FormatError: cannot read FILE: No such file or directory\n",
                 id="validate missing file"),
    pytest.param("canon FILE", TestEquiv.LOW, 2, "",
                 "error: NotHighlyTwisted: every |a_ij| >= 4 is required\n", id="canon low"),
    pytest.param("canon FILE --force", "2 1\n5\n", 0, "2 1\n5\n", "", id="canon FILE --force"),
    pytest.param("symmetries FILE", "4 3\n-4 -4 -4\n-4 -4 -4 -4\n-4 -4 -4\n", 0,
                 "id h v hv\n", "", id="symmetries all -4"),
    pytest.param("braid FILE", TREFOIL, 0, "4 strands: s2^-3\n", "", id="braid trefoil"),
    # text braid prints the runs, so no crossing budget applies
    pytest.param("braid FILE", "2 1\n1000000000\n", 0, "4 strands: s2^-1000000000\n", "",
                 id="braid 10^9 crossings"),
    pytest.param("braid FILE", BEYOND_MAXSIZE, 0, "4 strands: s2^-10000000000000000000\n", "",
                 id="braid beyond maxsize"),
    pytest.param("pd FILE", TREFOIL, 0, "X[1,5,2,4]\nX[5,3,6,2]\nX[3,1,4,6]\n", "",
                 id="pd trefoil"),
    pytest.param("gauss FILE", TREFOIL, 0, "U1+ O2+ U3+ O1+ U2+ O3+\n", "", id="gauss trefoil"),
    pytest.param("invariants FILE", TREFOIL, 0,
                 "components:  1\ncrossings:   3\nwrithe:      3\ndeterminant: 3\n"
                 "jones:       -t^4 + t^3 + t\n", "", id="invariants trefoil"),
    pytest.param("invariants FILE --jones-cap 22", EXAMPLE_TEXT, 0,
                 "components:  4\ncrossings:   44\nwrithe:      16\ndeterminant: 1140352\n"
                 "jones:       skipped (44 crossings > cap 22)\n", "",
                 id="invariants FILE --jones-cap 22"),
    pytest.param("--json invariants FILE", TREFOIL, 0,
                 '{"components": 1, "crossings": 3, "determinant": 3, "jones": '
                 '{"2": 1, "6": 1, "8": -1}, "jones-exponent-unit": "t^(1/2)", "writhe": 3}\n',
                 "", id="--json invariants trefoil"),
    pytest.param("twobridge --rational 1/2", None, 2, "",
                 "error: NotRepresentable: 1/2 is equidistant from 0 and 1; no nearest integer\n",
                 id="twobridge --rational 1/2"),
    pytest.param("hilden apply FILE --left h1@1", TREFOIL, 0,
                 "strands:     4\nword:        s1 s2^-3\ncomponents:  1\ncrossings:   4\n"
                 "writhe:      4\ndeterminant: 3\njones:       -t^4 + t^3 + t\n", "",
                 id="hilden apply trefoil --left h1@1"),
    pytest.param("hilden random --strands 8 --length 4 --seed 7", None, 0,
                 "strands:     8\nword:        s4 s5 s3 s4 s6 s7 s5 s6 s3 s4 s5 s3 s4\n"
                 "components:  4\ncrossings:   13\nwrithe:      1\ndeterminant: 0\n"
                 "jones:       -t^(3/2) - 3*t^(1/2) - 3*t^(-1/2) - t^(-3/2)\n", "",
                 id="hilden random --strands 8 --length 4 --seed 7"),
    pytest.param("hilden coset FILE FILE --samples 2", EXAMPLE_TEXT, 0,
                 "verdict: same_coset\nrotation-related: True\n"
                 "word 1 invariants: {'components': 4, 'determinant': 1140352}\n"
                 "word 2 invariants: {'components': 4, 'determinant': 1140352}\n"
                 "sampled translates checked: 2\nno violations found\n", "",
                 id="hilden coset FILE FILE --samples 2"),
    # random.Random seeds an int by its absolute value, so a negative seed
    # would draw what its positive twin draws
    pytest.param("hilden random --strands 8 --length 4 --seed=-3", None, 2, "",
                 "plat hilden random: error: argument --seed: '-3' is not at least 0\n",
                 id="hilden random --seed=-3"),
    pytest.param("hilden coset FILE FILE --seed=-3", EXAMPLE_TEXT, 2, "",
                 "plat hilden coset: error: argument --seed: '-3' is not at least 0\n",
                 id="hilden coset FILE FILE --seed=-3"),
    # an integer past Python's digit limit is named by place and length, not echoed
    pytest.param("validate FILE", "2 1\n" + "9" * 4301 + "\n", 2, "",
                 "error: FormatError: line 2: an integer of 4301 digits is over Python's limit "
                 "of 4300\n", id="validate a 4,301-digit entry"),
    pytest.param("twobridge --coeffs 3," + "9" * 4301 + ",3", None, 2, "",
                 "error: FormatError: --coeffs entry 2: an integer of 4301 digits is over "
                 "Python's limit of 4300\n", id="twobridge --coeffs with a 4,301-digit entry"),
    # a long string is named by its own length, escapes decoded, and a long
    # integer by its sign too
    pytest.param("validate FILE", "\t".join("2" * 20) + " " + "3" * 14 + "\n3\n", 2, "",
                 "error: FormatError: header must be 'm n', got a string of 54 characters\n",
                 id="validate a 54-character header with 19 tabs"),
    pytest.param("validate FILE", '{"m": -' + "9" * 4000 + ', "rows": [[3]]}', 2, "",
                 "error: WidthTooSmall: width m must be >= 2, got a negative integer of 4000 "
                 "digits\n", id="validate a JSON m of -(4,000 nines)"),
    # a refused value is named once, not again in Python's message
    pytest.param("twobridge --rational x", None, 2, "",
                 "error: FormatError: bad rational 'x': not an integer, a decimal or p/q with "
                 "q != 0\n",
                 id="twobridge --rational x"),
    pytest.param("twobridge --rational 1/0", None, 2, "",
                 "error: FormatError: bad rational '1/0': not an integer, a decimal or p/q with "
                 "q != 0\n",
                 id="twobridge --rational 1/0"),
    pytest.param("validate FILE", '{"m": 2}', 2, "",
                 "error: FormatError: bad twist-matrix JSON: no key 'rows'\n",
                 id="validate JSON without rows"),
    pytest.param("validate FILE", '{"m": 2, "rows": 5}', 2, "",
                 "error: FormatError: bad twist-matrix JSON: rows must be a list of rows\n",
                 id="validate JSON rows 5"),
    # an all-zero plat closes to free circles only
    pytest.param("pd FILE", "2 1\n0\n", 0, "(circle)\n(circle)\n", "", id="pd free circles"),
    pytest.param("spheres --m 4 --n 3", None, 0,
                 "r = 5\nS(1,1,1)\nS(2,1,1)\nS(2,2,1)\nS(2,3,1)\nS(2,3,2)\n", "",
                 id="spheres --m 4 --n 3"),
    pytest.param("spheres --m 3 --n 3", None, 2, "",
                 "error: DimensionsOutOfTheoremRange: need m >= 4 and odd n >= 3, got m=3, n=3\n",
                 id="spheres --m 3 --n 3"),
]


@pytest.mark.parametrize("command, content, status, out, err", EXACT_OUTPUTS)
def test_exact_output(tmp_path, capsys, command, content, status, out, err):
    path = tmp_path / "input.plat"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    try:
        got = main([str(path) if a == "FILE" else a for a in command.split()]), capsys.readouterr()
    except SystemExit as exc:  # argparse's usage lines wrap with the terminal's width
        got_out, got_err = capsys.readouterr()
        usage, line = got_err[:-1].rsplit("\n", 1)
        assert usage.startswith("usage: plat ")
        got = exc.code, (got_out, line + "\n")
    assert got == (status, (out, err.replace("FILE", str(path))))


# -- boundary fuzz: generated matrix files, text and JSON, well formed or not.
# m, n <= 12 and |a| <= 10^6 keep every example short: the crossing budget
# stops braid expansion above 10,000 crossings before any work.
_ODD_VALUES = st.one_of(st.floats(), st.booleans(), st.none(),
                        st.lists(st.integers(-9, 9), max_size=2))
_NOISE = st.sampled_from(["", "   ", "# a comment", "#", "\t"])


@st.composite
def _matrix_fields(draw):
    """(m, n, rows) of a plat, well formed or with one defect: an entry, a
    row length, m or n of the wrong value or type."""
    defect = draw(st.sampled_from([None] * 6 + ["entry", "widths", "m", "n"]))
    m, n = draw(st.integers(2, 12)), draw(st.sampled_from([1, 3, 5, 7, 9, 11]))
    entries = draw(st.sampled_from([
        st.integers(-3, 3),                                        # small: Jones computed
        st.builds(lambda s, a: s * a, st.sampled_from([-1, 1]), st.integers(4, 9)),  # canon
        st.integers(-10 ** 6, 10 ** 6)]))
    if defect == "widths":
        widths = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    else:
        widths = [row_width(m, i) for i in range(1, n + 1)]
    rows = [draw(st.lists(entries, min_size=w, max_size=w)) for w in widths]
    if defect == "entry" and rows[0]:
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(_ODD_VALUES)
    if defect == "m":
        m = draw(_ODD_VALUES | st.integers(-3, 15))
    if defect == "n":
        n = draw(_ODD_VALUES | st.integers(-3, 15))
    return m, n, rows


@st.composite
def _plat_texts(draw):
    """The text format of generated fields, with comments and blank lines."""
    m, n, rows = draw(_matrix_fields())
    lines = []
    for fields in [(m, n), *rows]:
        lines += draw(st.lists(_NOISE, max_size=2))
        line = " ".join(map(str, fields))
        lines.append(line + draw(st.sampled_from(["", "  # note", "#"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def _plat_json_dicts(draw):
    m, n, rows = draw(_matrix_fields())
    obj = {"m": m, "rows": rows}
    if draw(st.booleans()):
        obj["n"] = n
    if draw(st.integers(0, 4)) == 0:
        obj["plat-format"] = draw(st.sampled_from([1, 2, "1", None]))
    return obj


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _read_or_coded_error(read, source):
    """Read ``source``; a coded error passes.  A matrix it returns keeps the
    shape rule, so the operations that once checked it themselves run."""
    try:
        mat = read(source)
    except PlatError:
        return
    assert isinstance(mat, TwistMatrix)
    for operation in (to_braid_word, symmetry_group, twobridge.left_boundary_coeffs,
                      twobridge.right_boundary_coeffs):
        operation(mat)


@_FUZZ
@given(text=_plat_texts())
def test_from_text_returns_a_matrix_or_a_coded_error(text):
    _read_or_coded_error(TwistMatrix.from_text, text)


@_FUZZ
@given(obj=_plat_json_dicts())
def test_from_json_dict_returns_a_matrix_or_a_coded_error(obj):
    _read_or_coded_error(TwistMatrix.from_json_dict, obj)


FUZZ_COMMANDS = (["validate", "FILE"], ["canon", "FILE"], ["equiv", "FILE", "FILE"],
                 ["symmetries", "FILE"], ["braid", "FILE"], ["twobridge", "FILE"],
                 ["invariants", "FILE", "--jones-cap", "10"])


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.plat"


@settings(_FUZZ, max_examples=100)
@given(content=(_plat_texts() | _plat_json_dicts().map(json.dumps)).map(str.encode) | st.binary())
def test_every_command_exits_0_1_or_2_with_a_code(fuzz_file, content):
    # an exception escaping main fails the test
    fuzz_file.write_bytes(content)
    for argv in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([str(fuzz_file) if a == "FILE" else a for a in argv])
        assert status in (0, 1, 2), argv
        if status == 2:
            assert re.fullmatch(r"error: [A-Z][A-Za-z]+: [^\n]*\n", err.getvalue()), argv
        else:
            assert err.getvalue() == "" and out.getvalue(), argv
