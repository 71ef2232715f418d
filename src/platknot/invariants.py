"""Diagram invariants and the oracles that check them, in exact integer
arithmetic: Laurent polynomials with integer coefficients, a brute-force
Kauffman bracket over all 2^c smoothing states (at most ``BRACKET_CAP``
crossings), the Jones polynomial by writhe normalization, and the link
determinant.

:func:`closure_determinant`, which the coset harness uses, sweeps Fox
colourings over a braid word's m bridges with no diagram built.  Its oracle
:func:`determinant`, also the CLI report's, and the bracket read a PD code
through one table, :func:`_pd_mates`, of the two ends of each label.  The
determinant walks each over-arc on it to find the Wirtinger generators and
eliminates the sparse minor at t = -1 on +-1 pivots, with fraction-free
(Bareiss) elimination of the small core that remains.  Past reading the
code, the two are deliberately independent: |jones(t=-1)| must reproduce
the determinant on every diagram, split ones included (both are 0 there),
and that cross-check lets the package trust its sign and orientation
conventions.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from .braid import BraidWord
from .errors import FormatError, InternalError, TooManyCrossings, shown
from .plat import PlanarDiagram, PlatClosureStyle, check_style

__all__ = [
    "LaurentPoly",
    "DELTA",
    "kauffman_bracket",
    "jones",
    "jones_canonical",
    "jones_at_minus_one",
    "max_writhe",
    "closure_determinant",
    "determinant",
    "BRACKET_CAP",
]

BRACKET_CAP = 22


class LaurentPoly:
    """Laurent polynomial in one variable with integer coefficients.

    Exponents are plain integers; what one unit of exponent means (A, t, or
    t^(1/2)) is up to the caller.  Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e: k * c for e, c in self.coeffs.items()})

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by x^d."""
        return LaurentPoly({e + d: c for e, c in self.coeffs.items()})

    def reciprocal(self) -> "LaurentPoly":
        """Substitute x -> 1/x."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def format(self, var: str = "A", exponent_denominator: int = 1) -> str:
        """Render with exponents divided by ``exponent_denominator``."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            num, rem = divmod(e, exponent_denominator)
            if rem == 0:
                power = "" if num == 1 else f"^{num}"
                term = "1" if e == 0 else f"{var}{power}"
            else:
                term = f"{var}^({e}/{exponent_denominator})"
            if e == 0:
                body = str(abs(c))
            else:
                body = term if abs(c) == 1 else f"{abs(c)}*{term}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"


DELTA = LaurentPoly({2: -1, -2: -1})  # loop value -A^2 - A^-2


def _pd_mates(quadruples) -> list[int]:
    """``mate[p]`` is the other PD position holding the label at p = 4k + j
    (label j of crossing k).  Raises FormatError unless every crossing has
    four labels and every label sits on two positions."""
    labels = [label for quad in quadruples for label in quad]
    if len(labels) != 4 * len(quadruples):
        raise FormatError("a PD crossing does not have 4 arc ends")
    ends: dict[int, list[int]] = {}
    for pos, label in enumerate(labels):
        ends.setdefault(label, []).append(pos)
    mate = [0] * len(labels)
    for label, pair in ends.items():
        if len(pair) != 2:
            raise FormatError(f"PD label {shown(label)} is on {len(pair)} arc ends, not 2")
        mate[pair[0]], mate[pair[1]] = pair[1], pair[0]
    return mate


def _state_loop_counts(quadruples) -> dict[tuple[int, int], int]:
    """Tally (sum of smoothing exponents, closed loops) over all 2^c states.

    ``mate[e]`` is the far end of the open path that ends at PD position e;
    it starts as :func:`_pd_mates`.  At crossing k the A-smoothing joins
    positions (4k, 4k+1) and (4k+2, 4k+3), the B-smoothing (4k, 4k+3) and
    (4k+1, 4k+2).  A join of p and q closes a loop if mate[p] == q, and
    otherwise splices the two paths into one, undone on return.  The walk
    is depth-first and visits every one of the 2^c leaves (no state
    merging).
    """
    if not quadruples:
        return {(0, 0): 1}
    mate = _pd_mates(quadruples)
    joins = [((1, b, b + 1, b + 2, b + 3), (-1, b, b + 3, b + 1, b + 2))
             for b in range(0, len(mate), 4)]
    counts: dict[tuple[int, int], int] = {}
    last = len(joins) - 1

    def go(k: int, sigma: int, loops: int) -> None:
        for ds, p, q, r, s in joins[k]:
            lp = loops
            mp = mate[p]
            if mp == q:
                lp += 1
            else:
                mq = mate[q]
                mate[mp], mate[mq] = mq, mp
            mr = mate[r]
            if mr == s:
                lp += 1
            else:
                ms = mate[s]
                mate[mr], mate[ms] = ms, mr
            if k == last:
                key = (sigma + ds, lp)
                counts[key] = counts.get(key, 0) + 1
            else:
                go(k + 1, sigma + ds, lp)
            if mr != s:
                mate[mr], mate[ms] = r, s
            if mp != q:
                mate[mp], mate[mq] = p, q

    go(0, 0, 0)
    return counts


def kauffman_bracket(diagram: PlanarDiagram) -> LaurentPoly:
    """Bracket polynomial in A: sum over states of A^sigma * delta^(loops-1).

    Raises TooManyCrossings beyond ``BRACKET_CAP`` (2^c states get
    expensive fast).  Each split circle adds a loop to every state, and
    delta^k = (-A^2 - A^-2)^k = (-1)^k sum_i C(k, i) A^(2k - 4i).  The
    0-crossing unknot gives 1, and so does the empty diagram.
    """
    c = diagram.crossing_count
    if c > BRACKET_CAP:
        raise TooManyCrossings(c, BRACKET_CAP)
    coeffs: dict[int, int] = {}
    for (sigma, loops), mult in _state_loop_counts(diagram.quadruples).items():
        k = max(loops + diagram.free_loops - 1, 0)
        if k % 2:
            mult = -mult
        for i in range(k + 1):
            e = sigma + 2 * k - 4 * i
            coeffs[e] = coeffs.get(e, 0) + mult * comb(k, i)
    return LaurentPoly(coeffs)


def jones(diagram: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial: (-A)^(-3w) * bracket, substituted A = t^(-1/4).

    Returned exponents are in units of t^(1/2) (the half-integer grid);
    they are integers because sigma - 3w is always even.
    """
    return _normalize_bracket(kauffman_bracket(diagram), diagram.writhe)


def max_writhe(diagram: PlanarDiagram) -> int:
    """Largest writhe achievable by re-orienting components independently.

    Self-crossing signs never change; a crossing between two components
    flips sign when exactly one of them reverses.  The maximum is intrinsic
    to the unoriented diagram, unlike the traversal-assigned writhe.  It
    tries up to 2^(k-1) orientations of k linked components, so it raises
    TooManyCrossings beyond ``BRACKET_CAP`` crossings, as the bracket does.
    """
    c = diagram.crossing_count
    if c > BRACKET_CAP:
        raise TooManyCrossings(c, BRACKET_CAP)
    comps = [[0, 0] for _ in diagram.signs]  # per crossing: [under, over] component
    for ci, comp in enumerate(diagram.visits):
        for k, over in comp:
            comps[k][over] = ci
    self_w = 0
    inter: dict[tuple[int, int], int] = {}
    for (cu, co), sign in zip(comps, diagram.signs):
        if cu == co:
            self_w += sign
        else:
            key = (cu, co) if cu < co else (co, cu)
            inter[key] = inter.get(key, 0) + sign
    if not inter:
        return self_w
    ids = sorted({c for key in inter for c in key})
    pos = {c: i for i, c in enumerate(ids)}
    best = None
    for mask in range(1 << (len(ids) - 1)):  # global reversal changes nothing
        flips = [1] + [(-1 if mask >> i & 1 else 1) for i in range(len(ids) - 1)]
        w = self_w + sum(v * flips[pos[a]] * flips[pos[b]]
                         for (a, b), v in inter.items())
        if best is None or w > best:
            best = w
    return best


def _normalize_bracket(bracket: LaurentPoly, w: int) -> LaurentPoly:
    sign = -1 if w % 2 else 1
    out: dict[int, int] = {}
    for e, cf in bracket.coeffs.items():
        ea = e - 3 * w
        if ea % 2 != 0:
            raise InternalError("normalized bracket exponent is odd")
        out[-ea // 2] = sign * cf
    return LaurentPoly(out)


def jones_canonical(diagram: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial of the diagram re-oriented to maximal writhe.

    This is the Jones polynomial of the closure for a specific orientation
    choice, picked so the result does not depend on how the traversal
    happened to orient each component.  Use it when comparing two diagrams
    that should present the same unoriented link.
    """
    return _normalize_bracket(kauffman_bracket(diagram), max_writhe(diagram))


def jones_at_minus_one(poly: LaurentPoly) -> int:
    """|V(t = -1)| for a half-grid Jones polynomial, taking t^(1/2) = i.

    The value of any Jones polynomial there is a Gaussian integer with one
    vanishing part; its absolute value is the link determinant.
    """
    re = im = 0
    for e, cf in poly.coeffs.items():
        r = e % 4
        if r == 0:
            re += cf
        elif r == 1:
            im += cf
        elif r == 2:
            re -= cf
        else:
            im -= cf
    if re != 0 and im != 0:
        raise InternalError(f"V(-1) = {re}{im:+d}i is not unit times integer")
    return abs(re) + abs(im)


def _bareiss_abs_det(mat: list[list[int]]) -> int:
    """|det| of an integer matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        mkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * mkk - mik * row_k[j]) // prev
        prev = mkk
    return abs(m[n - 1][n - 1])


def closure_determinant(word: BraidWord,
                        style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> int:
    """Link determinant of the ``style`` plat closure of ``word``, from Fox
    colourings of its m bridges; no diagram is built.

    One scalar pass per top bridge j colours its two ends 1 and all else 0,
    and sweeps the runs: sigma_i^a maps the colours (x, y) at positions i,
    i+1 to (x + d, y + d), d = a*(x - y), in closed form.  The bottom bridges
    (p, q) then read column j of the colouring matrix, col[p] - col[q]; each
    row of the full matrix sums to 0, and |det| of the first minor is the
    determinant (the Burau matrix at t = -1): 0 on split links, 1 on a lone
    circle.  The minor drops the last top and bottom bridge, so m - 1 passes
    run; on 2 strands the minor is empty.
    """
    check_style(style)
    strands, runs = word.strands, word.runs
    top, bottom = (pairs[:-1] for pairs in style.bridges(strands))  # the minor's bridges
    minor = []
    for p, q in top:
        col = [0] * (strands + 1)
        col[p] = col[q] = 1
        for i, a in runs:
            x, y = col[i], col[i + 1]
            if x != y:  # else d = 0: the run leaves the colours as they are
                d = a * (x - y)
                col[i], col[i + 1] = x + d, y + d
        minor.append([col[p] - col[q] for p, q in bottom])
    return _bareiss_abs_det(minor)  # the transposed minor: same |det|


def determinant(diagram: PlanarDiagram) -> int:
    """Link determinant |Delta(-1)| via Fox calculus on the Wirtinger
    presentation: one relation per crossing with integer stencil
    (over, under_in, under_out) = (2, -1, -1), one relation and one
    generator deleted.  The oracle of :func:`closure_determinant`, and the
    determinant of the CLI report; it works on any PD code whose labels
    each sit on two arc ends, and raises FormatError on any other.

    The minor is eliminated on +-1 pivots in one pass over the rows in row
    order: a row with a unit entry clears that entry's column, choosing the
    unit column shared by the fewest rows, the first on a tie (unimodular,
    so |det| is unchanged), and Bareiss finishes the core that is left.
    Split links have determinant 0, as |V(-1)| does: the Wirtinger minor of
    a split diagram vanishes, and a crossingless circle beside anything
    else (or an entirely-over circle) splits the diagram.  A lone
    crossingless circle is the unknot, 1.
    """
    rows = _wirtinger_minor(diagram.quadruples)  # checks the code first
    if diagram.free_loops:
        return 1 if diagram.free_loops == 1 and not diagram.quadruples else 0
    if rows is None:
        return 0
    col_rows: dict[int, set[int]] = {j: set() for j in range(len(rows))}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    for p, prow in enumerate(rows):  # one pass: each row is tried once, in row order
        c, fewest = -1, 0
        for j, v in prow.items():
            if (v == 1 or v == -1) and (c < 0 or len(col_rows[j]) < fewest):
                c, fewest = j, len(col_rows[j])
        if c < 0:
            continue
        rows[p] = None
        for j in prow:
            col_rows[j].discard(p)
        pivot = prow.pop(c)  # prow now holds the rest of the pivot row
        for r in col_rows.pop(c):
            row = rows[r]
            f = row.pop(c) * pivot
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                    col_rows[j].add(r)
                else:
                    del row[j]
                    col_rows[j].discard(r)
            if not row:
                return 0
    core = [row for row in rows if row is not None]
    return _bareiss_abs_det([[row.get(j, 0) for j in col_rows] for row in core])


def _wirtinger_minor(quads) -> list[dict[int, int]] | None:
    """The Wirtinger matrix at t = -1, last relation and generator deleted,
    as {column: nonzero entry} rows; None if an entirely-over circle leaves
    a generator free.

    A generator (over-arc) is a walk on :func:`_pd_mates` from an under
    position (even): step to the mate q, and while q is an over position
    (odd), pass the crossing to q ^ 2 and step again.  Generator k starts at
    4k + 2, where crossing k's under strand leaves; walks from 4k find new
    arcs only where under strands disagree in orientation.  A position that
    no walk reaches lies on an entirely-over circle.
    """
    mate = _pd_mates(quads)
    gen = [-1] * len(mate)  # PD position -> generator (column)
    cols = 0
    for p in (*range(2, len(mate), 4), *range(0, len(mate), 4)):
        if gen[p] >= 0:
            continue
        while True:
            q = mate[p]
            gen[p] = gen[q] = cols
            if not q & 1:
                break
            p = q ^ 2
        cols += 1
    if -1 in gen:
        return None

    # first minors at t=-1 agree up to sign, so drop the last row and column;
    # each row is filled over, under_in, under_out, in that order
    last, rows = cols - 1, []
    for b in range(0, len(mate) - 4, 4):
        over, under_in, under_out = gen[b + 1], gen[b], gen[b + 2]
        row: dict[int, int] = {}
        if over < last:
            row[over] = 2
        if under_in < last:
            row[under_in] = row.get(under_in, 0) - 1
        if under_out < last:
            row[under_out] = row.get(under_out, 0) - 1
        rows.append({} if over == under_in == under_out else row)  # 2 - 1 - 1 = 0
    return rows
