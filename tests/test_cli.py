import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import platknot
from platknot.cli import main

from conftest import address_space_cap


@pytest.fixture
def example_file(tmp_path, example_matrix):
    path = tmp_path / "example.plat"
    path.write_text(example_matrix.to_text())
    return str(path)


def write_plat(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_ok(self, example_file, capsys):
        assert main(["validate", example_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_even_height_exit_2_with_code(self, tmp_path, capsys):
        bad = write_plat(tmp_path, "bad.plat", "4 2\n-4 -4 -4\n-4 -4 -4 -4\n")
        assert main(["validate", bad]) == 2
        assert "EvenHeight" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.plat"]) == 2
        assert "FormatError" in capsys.readouterr().err


class TestCanon:
    def test_deterministic_output(self, example_file, capsys):
        assert main(["canon", example_file]) == 0
        first = capsys.readouterr().out
        assert main(["canon", example_file]) == 0
        assert capsys.readouterr().out == first

    def test_precondition_failure(self, tmp_path, capsys):
        low = write_plat(tmp_path, "low.plat", "4 3\n-4 -3 -4\n-4 -4 -4 -4\n-4 -4 -4\n")
        assert main(["canon", low]) == 2
        assert "NotHighlyTwisted" in capsys.readouterr().err

    def test_force(self, tmp_path, capsys):
        low = write_plat(tmp_path, "low.plat", "2 1\n5\n")
        assert main(["canon", low, "--force"]) == 0
        assert capsys.readouterr().out == "2 1\n5\n"

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
        b = write_plat(tmp_path, "b.plat", apply(SymmetryElement.H, example_matrix).to_text())
        assert main(["equiv", a, b]) == 0

    def test_inequivalent_exit_1(self, tmp_path, example_matrix):
        a = write_plat(tmp_path, "a.plat", example_matrix.to_text())
        b = write_plat(tmp_path, "b.plat",
                       "4 3\n-5 -4 -4\n-4 6 -4 -4\n-4 -4 -6\n")
        assert main(["equiv", a, b]) == 1

    def test_precondition_exit_2(self, tmp_path):
        a = write_plat(tmp_path, "a.plat", "2 1\n5\n")
        assert main(["equiv", a, a]) == 2


class TestSymmetries:
    def test_symmetric_matrix(self, tmp_path, capsys):
        f = write_plat(tmp_path, "sym.plat", "4 3\n-4 -4 -4\n-4 -4 -4 -4\n-4 -4 -4\n")
        assert main(["symmetries", f]) == 0
        assert capsys.readouterr().out.split() == ["id", "h", "v", "hv"]


class TestDiagramOutputs:
    def test_braid(self, tmp_path, capsys):
        f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
        assert main(["braid", f]) == 0
        assert "s2^-3" in capsys.readouterr().out

    def test_pd(self, tmp_path, capsys):
        f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
        assert main(["pd", f]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["X[1,5,2,4]", "X[5,3,6,2]", "X[3,1,4,6]"]

    def test_gauss(self, tmp_path, capsys):
        f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
        assert main(["gauss", f]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_invariants_with_jones(self, tmp_path, capsys):
        f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
        assert main(["invariants", f]) == 0
        out = capsys.readouterr().out
        assert "determinant: 3" in out and "jones:" in out

    def test_invariants_respects_cap(self, example_file, capsys):
        assert main(["invariants", example_file, "--jones-cap", "22"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_invariants_json(self, tmp_path, capsys):
        f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
        assert main(["--json", "invariants", f]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["determinant"] == 3
        assert payload["components"] == 1


class TestTwobridge:
    def test_coeffs(self, capsys):
        assert main(["twobridge", "--coeffs", "3,-3,3"]) == 0
        assert capsys.readouterr().out.strip()

    def test_rational(self, capsys):
        assert main(["twobridge", "--rational", "21/8"]) == 0
        assert "[3; -3, 3]".replace(" ", "") in capsys.readouterr().out.replace(" ", "")

    def test_rational_exponent_inside_the_digit_bound(self, capsys):
        # 6 characters plus exponent 4000 stay inside the 4,300-digit bound
        assert main(["twobridge", "--rational", "1e4000"]) == 0
        big = "1" + "0" * 4000
        assert capsys.readouterr().out == f"{big} = [{big}]\n"

    def test_rational_not_representable(self, capsys):
        assert main(["twobridge", "--rational", "1/2"]) == 2
        assert "NotRepresentable" in capsys.readouterr().err

    def test_file_side(self, tmp_path, example_matrix, capsys):
        f = write_plat(tmp_path, "e.plat", example_matrix.to_text())
        assert main(["twobridge", f, "--side", "right"]) == 0
        assert capsys.readouterr().out.strip()


class TestHilden:
    def test_apply(self, tmp_path, capsys):
        f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
        assert main(["hilden", "apply", f, "--left", "h1@1"]) == 0
        out = capsys.readouterr().out
        assert "s1 s2^-3" in out and "determinant: 3" in out

    def test_random_deterministic(self, capsys):
        assert main(["hilden", "random", "--strands", "8", "--length", "4", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["hilden", "random", "--strands", "8", "--length", "4", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_coset(self, tmp_path, example_matrix, capsys):
        f = write_plat(tmp_path, "e.plat", example_matrix.to_text())
        assert main(["hilden", "coset", f, f, "--samples", "2"]) == 0
        assert "same_coset" in capsys.readouterr().out


EXAMPLE_TEXT = "4 3\n-4 -4 -4\n-4 6 -4 -4\n-4 -4 -6\n"
BAD_JSON = ['{"m": "x", "rows": [[3]]}', '{"m": 2, "rows": [["a"]]}',
            '{"m": 2, "n": "z", "rows": [[3]]}', '{"m": 2, "rows": [[1.5]]}',
            '{"m": 2, "rows": [[true]]}', '{"m": false, "rows": [[3]]}']
BEYOND_MAXSIZE = "2 1\n10000000000000000000\n"  # len() of its word would overflow
LONG_INT_JSON = '{"m": 2, "rows": [[1' + "0" * 4300 + ']]}'  # past Python's int digit limit
DEEP_JSON = '{"m": ' + "[" * 100_000 + "]" * 100_000 + "}"
THOUSAND_DIGITS = "4 3\n" + "\n".join(" ".join(["9" * 1000] * k) for k in (3, 4, 3)) + "\n"
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
       for cmd in ("pd", "gauss", "invariants", "braid")]
    + [(["--json", "braid", "FILE"], "2 1\n1000000000\n", "TooManyCrossings")]
    + [(argv, BEYOND_MAXSIZE, "TooManyCrossings")
       for argv in (["pd", "FILE"], ["braid", "FILE"], ["--json", "braid", "FILE"],
                    ["hilden", "apply", "FILE", "--left", "h1@1"])]
    + [(["spheres", "--m", "101", "--n", "3"], None, "--m"),
       (["spheres", "--m", "4", "--n", "103"], None, "--n"),
       (["spheres", "--m", "3", "--n", "101"], None, "DimensionsOutOfTheoremRange"),
       (["spheres", "--m", "100", "--n", "2"], None, "DimensionsOutOfTheoremRange")]
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
                              for argv, text, _ in REJECTED])
def test_rejected_input_exits_2_naming_the_code_or_option(tmp_path, capsys, argv, text, named):
    # any exception other than argparse's SystemExit escapes main and fails here
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


@pytest.mark.parametrize("side", ["left", "right"])
def test_hilden_apply_bounds_the_moves_per_side(tmp_path, capsys, side):
    f = write_plat(tmp_path, "e.plat", EXAMPLE_TEXT)
    assert main(["--json", "hilden", "apply", f, f"--{side}", ",".join(["h1@1"] * 1000)]) == 0
    assert json.loads(capsys.readouterr().out)["crossings"] == 1044
    assert main(["hilden", "apply", f, f"--{side}", ",".join(["h1@1"] * 1001)]) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and f"--{side}" in err and "1000" in err


@pytest.mark.parametrize("text", ["2 1\n3\n", EXAMPLE_TEXT])
def test_hilden_apply_json_keys_are_the_invariants_keys_plus_word(tmp_path, capsys, text):
    f = write_plat(tmp_path, "t.plat", text)
    assert main(["--json", "invariants", f]) == 0
    inv_keys = set(json.loads(capsys.readouterr().out))
    assert main(["--json", "hilden", "apply", f, "--left", "h1@1"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == inv_keys | {"strands", "word"}


def test_consecutive_calls_share_no_options(tmp_path, capsys):
    f = write_plat(tmp_path, "t.plat", "2 1\n3\n")
    assert main(["--json", "invariants", f]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["invariants", f]) == 0
    assert capsys.readouterr().out.startswith("components:")
    outs = []
    for argv in (["--style", "even"], [], ["--style", "standard"]):
        assert main(["invariants", f, *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[2] != outs[0]


def test_import_platknot_builds_no_parser():
    code = ("import sys, platknot; "
            "print(sorted({'argparse', 'platknot.cli'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(platknot.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestSpheres:
    def test_listing(self, capsys):
        assert main(["spheres", "--m", "4", "--n", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "r = 5"
        assert out[1] == "S(1,1,1)" and out[-1] == "S(2,3,2)"

    def test_out_of_range(self, capsys):
        assert main(["spheres", "--m", "3", "--n", "3"]) == 2
        assert "DimensionsOutOfTheoremRange" in capsys.readouterr().err
