"""Command-line interface: one ``plat`` binary exposing every operation.

Exit codes: 0 success (or positive decision), 1 negative decision (e.g.
``equiv`` on inequivalent plats), 2 usage or precondition failure (for
``equiv``, also plats outside the theorem's hypotheses that are not
rotation-equal).  All domain errors print a machine-parsable code on
stderr; ``--json`` switches stdout to JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
from fractions import Fraction

from . import braid as braidmod
from . import canonical, hilden, invariants, spheres, twobridge
from .errors import FormatError, PlatError, TooManyDigits, bounded, refused_int
from .plat import PlatClosureStyle, TwistMatrix, braid_closure, closure, to_braid_word

__all__ = ["main"]


def _load_matrix(path: str) -> TwistMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # drop a BOM; byte offsets count it
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None
    if not text.lstrip().startswith("{"):
        return TwistMatrix.from_text(text)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
        raise FormatError(f"bad JSON in {path}: {exc}") from None
    return TwistMatrix.from_json_dict(obj)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


@contextlib.contextmanager
def _digit_limit():
    """Turn Python's int-to-str limit, met while printing an exact result, into
    TooManyDigits; every other ValueError is caught where it is raised."""
    try:
        yield
    except ValueError:
        raise TooManyDigits("an exact result is too long to print: it has more than "
                            f"Python's limit of {sys.get_int_max_str_digits()} digits") from None


def _cmd_validate(args) -> int:
    mat = _load_matrix(args.file)  # the reader checks the shape rule
    _emit(args, {"ok": True, "m": mat.m, "n": mat.n}, f"ok: width {mat.m}, height {mat.n}")
    return 0


def _cmd_canon(args) -> int:
    mat = _load_matrix(args.file)
    canon = canonical.canonical_form(mat, force=args.force)
    _emit(args, canon.to_json_dict(), canon.to_text()[:-1])  # print adds the last newline
    return 0


def _cmd_equiv(args) -> int:
    same = canonical.equivalent(_load_matrix(args.file1), _load_matrix(args.file2))
    _emit(args, {"equivalent": same}, "equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_symmetries(args) -> int:
    mat = _load_matrix(args.file)
    group = [g.value for g in canonical.symmetry_group(mat)]
    _emit(args, {"symmetries": group}, " ".join(group))
    return 0


def _cmd_braid(args) -> int:
    word = to_braid_word(_load_matrix(args.file))
    if args.json:  # only the JSON form expands the crossings, within CROSSING_BUDGET
        print(json.dumps(braidmod.word_json(word), sort_keys=True))
    else:  # runs merged across zero rows can outgrow an entry: main's digit guard
        print(f"{word.strands} strands: {braidmod.format_word(word)}")
    return 0


def _cmd_pd(args) -> int:
    diagram = closure(_load_matrix(args.file), PlatClosureStyle(args.style))
    if args.json:  # not _emit: sorted keys would put free_loops before pd
        print(json.dumps({"pd": [list(q) for q in diagram.quadruples],
                          "free_loops": diagram.free_loops}))
    else:
        for line in diagram.pd_lines():
            print(line)
        for _ in range(diagram.free_loops):
            print("(circle)")
    return 0


def _cmd_gauss(args) -> int:
    lines = closure(_load_matrix(args.file), PlatClosureStyle(args.style)).gauss_lines()
    _emit(args, {"gauss": lines}, "\n".join(lines))
    return 0


def _print_invariants(args, word, style: PlatClosureStyle, head: tuple = ()) -> int:
    """Print the invariant report of the ``style`` closure of ``word`` after
    the ``(name, value)`` fields in ``head``: components, crossings, writhe,
    determinant and Jones, which is skipped above ``--jones-cap`` crossings."""
    diagram = braid_closure(word, style)
    fields = [*head,
              ("components", diagram.n_components),
              ("crossings", diagram.crossing_count),
              ("writhe", diagram.writhe),
              ("determinant", invariants.determinant(diagram))]
    payload = dict(fields)
    if diagram.crossing_count <= args.jones_cap:
        jv = invariants.jones(diagram)
        payload["jones"] = {str(e): c for e, c in sorted(jv.coeffs.items())}
        payload["jones-exponent-unit"] = "t^(1/2)"
        fields.append(("jones", jv.format("t", 2)))
    else:
        payload["jones"] = None
        fields.append(("jones", f"skipped ({diagram.crossing_count} crossings "
                                f"> cap {args.jones_cap})"))
    _emit(args, payload, "\n".join(f"{name + ':':<13}{value}" for name, value in fields))
    return 0


def _cmd_invariants(args) -> int:
    word = to_braid_word(_load_matrix(args.file))
    return _print_invariants(args, word, PlatClosureStyle(args.style))


MAX_RATIONAL_DIGITS = 4300  # Python's default int-to-str limit


def _parse_fraction(text: str) -> Fraction:
    """``--rational`` as a Fraction.  Its length plus its decimal exponent
    bounds the digits of numerator and denominator, so both are checked
    against MAX_RATIONAL_DIGITS before Fraction builds 10^exponent."""
    try:
        if len(text) > MAX_RATIONAL_DIGITS or (
                len(text) + abs(int(text.lower().partition("e")[2] or 0)) > MAX_RATIONAL_DIGITS):
            raise FormatError(f"bad rational {text!r}: more than {MAX_RATIONAL_DIGITS} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # Python's message would quote the value again
        raise FormatError(f"bad rational {text!r}: not an integer, a decimal or p/q with "
                          "q != 0") from None


def _parse_coeff_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise refused_int((f"--coeffs entry {k}", tok) for k, tok in enumerate(tokens, 1)) from None


def _cmd_twobridge(args) -> int:
    if args.rational is not None:
        r = _parse_fraction(args.rational)
        expansion = twobridge.cf_reconstruct(r)
        head, tail = expansion[0], expansion[1:]
        rendered = f"[{head}; {', '.join(str(a) for a in tail)}]" if tail else f"[{head}]"
        _emit(args,
              {"rational": str(r), "expansion": list(expansion)},
              f"{r} = {rendered}")
        return 0
    if args.coeffs is not None:
        coeffs = _parse_coeff_list(args.coeffs)
    else:
        mat = _load_matrix(args.file)
        coeffs = list(twobridge.left_boundary_coeffs(mat) if args.side == "left"
                      else twobridge.right_boundary_coeffs(mat))
    limit, digits = sys.get_int_max_str_digits(), twobridge.min_numerator_digits(coeffs)
    if limit and digits > limit:  # no output could be printed: refuse before the work
        raise TooManyDigits(f"the Schubert pair's numerator has at least {digits} digits, "
                            f"over Python's limit of {limit}")
    pair = sorted(twobridge.schubert_pair(coeffs))
    _emit(args, {"coeffs": coeffs, "schubert-pair": [str(r) for r in pair]},
          " ".join(str(r) for r in pair))
    return 0


MAX_MOVES = 1000  # most moves per side of `hilden apply`, and most `hilden random --length`


def _parse_moves(text: str | None, side: str) -> list[hilden.HildenMove]:
    tokens = (text or "").replace(",", " ").split()
    if len(tokens) > MAX_MOVES:
        raise FormatError(f"--{side} takes at most {MAX_MOVES} moves, got {len(tokens)}")
    moves = []
    for k, tok in enumerate(tokens, 1):
        kind, at, idx = tok.partition("@")
        if not at:
            raise FormatError(f"--{side} move {k}: {tok!r} is not kind@index")
        try:
            index = int(idx)
        except ValueError:
            raise refused_int(((f"--{side} move {k} index", idx),)) from None
        moves.append(hilden.HildenMove(kind, index))
    return moves


def _print_word_invariants(args, word) -> int:
    braidmod.budgeted_crossings(word)  # the report's bound, before the word is printed
    return _print_invariants(args, word, PlatClosureStyle.STANDARD,
                             (("strands", word.strands), ("word", braidmod.format_word(word))))


def _cmd_hilden_apply(args) -> int:
    mat = _load_matrix(args.file)
    word = hilden.apply_moves(to_braid_word(mat),
                              _parse_moves(args.left, "left"),
                              _parse_moves(args.right, "right"))
    return _print_word_invariants(args, word)


def _cmd_hilden_random(args) -> int:
    word = hilden.random_hilden_element(args.strands, args.length, random.Random(args.seed))
    return _print_word_invariants(args, word)


def _cmd_hilden_coset(args) -> int:
    report = hilden.coset_consistency(_load_matrix(args.file1), _load_matrix(args.file2),
                                      samples=args.samples, seed=args.seed)
    if args.json:  # not _emit: sorted keys would reorder these, which perfbench's goldens pin
        print(json.dumps({"verdict": report.verdict,
                          "rotation_related": report.rotation_related,
                          "consistent": report.consistent,
                          "violations": list(report.violations)}))
    else:
        print(report.summary())
    return 0 if report.consistent else 1


def _cmd_spheres(args) -> int:
    chain = spheres.maximal_collection(args.m, args.n)
    _emit(args, {"r": len(chain), "spheres": [list(s.c) for s in chain]},
          "\n".join([f"r = {len(chain)}", *map(str, chain)]))
    return 0


def _int_in(lo: int | None, hi: int):
    """argparse type for an integer in lo..hi (lo None: at most hi, and the
    command rejects a value that is too small), checked before any work."""
    def check(text: str) -> int:
        value = int(text)
        if value > hi or (lo is not None and value < lo):
            bound = f"at most {hi}" if lo is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"{text!r} is not {bound}")
        return value
    check.__name__ = "int"  # argparse refuses a ValueError as "invalid int value"
    return check


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a refusal quotes the value; subparsers share the class
        super().error(bounded(message))


def _shared_option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@functools.cache  # built by the first main() call; parsing never modifies it
def build_parser() -> argparse.ArgumentParser:
    style = _shared_option("--style", default="standard",
                           choices=[s.value for s in PlatClosureStyle])
    jones_cap = _shared_option(
        "--jones-cap", type=_int_in(0, invariants.BRACKET_CAP), default=invariants.BRACKET_CAP,
        help="largest crossing count whose Jones polynomial is computed, "
             f"0..{invariants.BRACKET_CAP} (default {invariants.BRACKET_CAP})")
    seed = _shared_option("--seed", type=int, default=0)
    parser = _Parser(
        prog="plat",
        description="Highly twisted plat diagrams: canonical forms, invariants, "
                    "2-bridge data, Hilden moves and vertical spheres.")
    parser.add_argument("--json", action="store_true", help="emit JSON lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, parents=(), under=sub):
        p = under.add_parser(name, help=help_, parents=parents)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, "check the row-length pattern of a matrix file")
    p.add_argument("file")

    p = add("canon", _cmd_canon, "print the canonical form (rotation-orbit minimum)")
    p.add_argument("file")
    p.add_argument("--force", action="store_true",
                   help="normalize even outside the uniqueness hypotheses")

    p = add("equiv", _cmd_equiv, "decide plat equivalence (exit 0 yes / 1 no / 2 undecided)")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("symmetries", _cmd_symmetries, "rotations fixing the matrix")
    p.add_argument("file")

    p = add("braid", _cmd_braid, "standard-form braid word of a matrix")
    p.add_argument("file")

    for name, fn, help_ in (("pd", _cmd_pd, "PD code of the plat closure"),
                            ("gauss", _cmd_gauss, "Gauss code of the plat closure")):
        p = add(name, fn, help_, [style])
        p.add_argument("file")

    p = add("invariants", _cmd_invariants, "components, writhe, determinant, Jones",
            [style, jones_cap])
    p.add_argument("file")

    p = add("twobridge", _cmd_twobridge, "Schubert pair / expansion reconstruction")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?")
    source.add_argument("--coeffs", help='coefficient list, e.g. "3,-3,3"')
    source.add_argument("--rational", help="reconstruct the |a_i| >= 3 expansion of p/q")
    p.add_argument("--side", default="left", choices=["left", "right"],
                   help="boundary column when reading coefficients from FILE")

    ph = sub.add_parser("hilden", help="Hilden moves and double-coset probes")
    hsub = ph.add_subparsers(dest="subcommand", required=True)
    p = add("apply", _cmd_hilden_apply, "multiply the standard word by Hilden moves",
            [jones_cap], hsub)
    p.add_argument("file")
    p.add_argument("--left",
                   help=f'moves multiplied on the left, at most {MAX_MOVES}, e.g. "h2@1,h1@3"')
    p.add_argument("--right", help=f"moves multiplied on the right, at most {MAX_MOVES}")
    p = add("random", _cmd_hilden_random, "seeded random element of the Hilden subgroup",
            [jones_cap, seed], hsub)
    p.add_argument("--strands", type=_int_in(None, 256), required=True,
                   help="even strand count, at most 256")
    p.add_argument("--length", type=_int_in(0, MAX_MOVES), required=True,
                   help=f"number of generators multiplied, 0..{MAX_MOVES}")
    p = add("coset", _cmd_hilden_coset, "falsification harness for coset equality", [seed], hsub)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--samples", type=_int_in(0, 10_000), default=20,
                   help="Hilden translates checked, 0..10000 (default 20)")

    p = add("spheres", _cmd_spheres, "canonical maximal collection of vertical spheres")
    p.add_argument("--m", type=_int_in(None, 100), required=True,
                   help="plat width, at most 100")
    p.add_argument("--n", type=_int_in(None, 101), required=True,
                   help="plat height, at most 101")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _digit_limit():
            return args.fn(args)
    except PlatError as exc:
        if args.json:
            print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        else:
            print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
