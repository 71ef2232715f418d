"""Plat diagrams in standard form.

A standard-form plat of width m and height n (n odd) is described by its
coefficient matrix: row i holds the signed crossing counts of the twist
regions at level i, with m-1 entries on odd rows (even-index generators)
and m entries on even rows (odd-index generators).  The braid word
expansion attaches exponent -a_ij to the corresponding generator; that
negation happens in exactly one place, :func:`to_braid_word`.  A
:class:`TwistMatrix` is checked when built, so operations take it as is.

Closing the braid with bridge arcs (three styles: standard, even, doubly
even) yields a crossing-level planar diagram with deterministic PD codes,
arc labels and orientation, suitable for the invariant oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .braid import BraidWord, budgeted_crossings
from .errors import (
    DimensionsOutOfTheoremRange,
    EvenHeight,
    FormatError,
    InternalError,
    WidthTooSmall,
    WrongRowLength,
    refused_int,
    require_ints,
    shown,
)

__all__ = [
    "TwistMatrix",
    "PlatClosureStyle",
    "PlanarDiagram",
    "validate",
    "is_highly_twisted",
    "to_braid_word",
    "braid_closure",
    "closure",
    "component_count",
    "closure_components",
]


def row_width(m: int, i: int) -> int:
    """Number of twist regions at level i (1-based): m-1 on odd rows, m on even."""
    return m - 1 if i % 2 == 1 else m


@dataclass(frozen=True)
class TwistMatrix:
    """Coefficient matrix of a plat in standard form.

    Construction checks everything: ``rows`` must be an iterable of
    iterables and the width and entries must be ``int`` (anything else
    raises FormatError), then :func:`validate` enforces the shape rule, so
    a ``TwistMatrix`` is well formed once built.  Entries may be zero: the
    invariant oracle runs on small, non-highly-twisted diagrams.  Only the
    rotation images of :func:`canonical.apply`, which reorder the rows of a
    matrix already built, skip the second check.
    """

    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(map(tuple, self.rows))
        except TypeError:  # rows, or one of them, is not iterable
            raise FormatError("twist-matrix rows must be an iterable of rows of entries") from None
        require_ints(FormatError, "twist-matrix width and entries", chain((self.m,), *rows))
        object.__setattr__(self, "rows", rows)
        validate(self)

    def _reordered(self, rows: tuple[tuple[int, ...], ...]) -> "TwistMatrix":
        """A matrix of this width whose ``rows``, a tuple of tuples, reorder
        this well-formed matrix's rows and entries, keeping the shape rule;
        built without checking them again."""
        mat = object.__new__(TwistMatrix)
        object.__setattr__(mat, "m", self.m)
        object.__setattr__(mat, "rows", rows)
        return mat

    @property
    def n(self) -> int:
        return len(self.rows)

    def entries(self) -> tuple[int, ...]:
        """All coefficients, rows concatenated in order."""
        return tuple(chain.from_iterable(self.rows))

    # -- text interchange: line 1 "m n", then n whitespace-separated rows --

    @classmethod
    def from_text(cls, text: str) -> "TwistMatrix":
        lines = [line for line in (raw.partition("#")[0].strip() for raw in text.splitlines())
                 if line]
        if not lines:
            raise FormatError("empty twist-matrix file")
        head = lines[0].split()
        if len(head) != 2:
            raise FormatError(f"header must be 'm n', got {lines[0]!r}")
        try:
            m, n = int(head[0]), int(head[1])
            rows = tuple(tuple(map(int, line.split())) for line in lines[1:])
        except ValueError:
            raise refused_int((f"line {k}", token) for k, raw in enumerate(text.splitlines(), 1)
                              for token in raw.partition("#")[0].split()) from None
        if len(rows) != n:
            raise FormatError(f"expected {n} rows, got {len(rows)}")
        return cls(m, rows)

    def to_text(self) -> str:
        out = [f"{self.m} {self.n}"]
        out.extend(" ".join(str(a) for a in row) for row in self.rows)
        return "\n".join(out) + "\n"

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TwistMatrix":
        """The matrix of a parsed JSON object; FormatError for anything
        else, a non-dict ``obj`` included."""
        if not isinstance(obj, dict):
            raise FormatError(f"twist-matrix JSON must be an object, got {type(obj).__name__}")
        if obj.get("plat-format", 1) != 1:
            raise FormatError(f"unsupported plat-format {shown(obj.get('plat-format'))}")
        try:
            m, rows = obj["m"], [tuple(r) for r in obj["rows"]]
        except KeyError as exc:
            raise FormatError(f"bad twist-matrix JSON: no key {exc}") from None
        except TypeError:
            raise FormatError("bad twist-matrix JSON: rows must be a list of rows") from None
        n = obj.get("n", len(rows))
        require_ints(FormatError, "twist-matrix JSON m and n", (m, n))  # cls checks the entries
        if n != len(rows):
            raise FormatError(f"n={shown(n)} does not match {len(rows)} rows")
        return cls(m, rows)

    def to_json_dict(self) -> dict:
        return {"plat-format": 1, "m": self.m, "n": self.n,
                "rows": [list(r) for r in self.rows]}


def validate(mat: TwistMatrix) -> None:
    """Raise on the first violation of the shape rule; the constructor calls it.

    The row widths are compared with the pattern m-1, m, ..., m-1 as one
    tuple; only a mismatch walks the rows, to name the first wrong one.
    """
    m, rows = mat.m, mat.rows
    if m < 2:
        raise WidthTooSmall(f"width m must be >= 2, got {shown(m)}")
    n = len(rows)
    if n % 2 == 0:
        raise EvenHeight(f"height n must be odd and >= 1, got {n}")
    widths = tuple(map(len, rows))
    if widths != (m - 1, m) * (n // 2) + (m - 1,):
        for i, width in enumerate(widths, start=1):
            if width != m - i % 2:  # row_width, inline
                raise WrongRowLength(i, m - i % 2, width)


def check_theorem_range(m: int, n: int) -> None:
    """Raise DimensionsOutOfTheoremRange unless width m >= 4 and height n is
    odd and >= 3, where the uniqueness theorem holds."""
    if m < 4 or n < 3 or n % 2 == 0:
        raise DimensionsOutOfTheoremRange(
            f"need m >= 4 and odd n >= 3, got m={shown(m)}, n={shown(n)}")


def is_highly_twisted(mat: TwistMatrix, c: int) -> bool:
    """True iff every coefficient satisfies |a_ij| >= c.

    The least modulus is taken over the set of distinct entries: one pass
    hashes every entry, then ``abs`` runs once per distinct value, few when
    twists repeat.  Time and memory grow with the number of entries, never
    with ``c``; on all-distinct entries the set costs more than it saves.
    """
    validate(mat)  # redundant; perfbench's nested-validate gate needs it (ROADMAP item 1)
    return min(map(abs, set(chain.from_iterable(mat.rows)))) >= c  # validate leaves row 1 non-empty


def to_braid_word(mat: TwistMatrix) -> BraidWord:
    """Expand to the standard-form word b_1 ... b_n on 2m strands.

    Odd rows use the even generators sigma_2, sigma_4, ..., even rows the
    odd generators sigma_1, sigma_3, ...; coefficient a_ij contributes
    exponent -a_ij (knot-diagram sign convention).
    """
    runs = []
    for i, row in enumerate(mat.rows, start=1):
        first = 2 if i % 2 == 1 else 1
        runs += [(first + 2 * j, -a) for j, a in enumerate(row)]
    return BraidWord(2 * mat.m, tuple(runs))  # BraidWord drops the zero exponents


class PlatClosureStyle(enum.Enum):
    STANDARD = "standard"
    EVEN = "even"
    DOUBLY_EVEN = "doubly_even"

    # bounded: a library caller may try many strand counts; an enum member is
    # a singleton, so the cache keeps no instance alive that would otherwise die
    @lru_cache(maxsize=48)
    def bridges(self, strands: int) -> tuple[tuple[tuple[int, int], ...],
                                             tuple[tuple[int, int], ...]]:
        """The (top, bottom) bridge pairs of this closure on ``strands``
        strands, built once per style and strand count.  An end pairs
        (1,2),(3,4),... or, shifted, (2,3),...,(2m,1): the standard style
        shifts neither end, the even style the bottom, the doubly even style
        both."""
        plain = tuple((p, p + 1) for p in range(1, strands, 2))
        shifted = tuple((p, p % strands + 1) for p in range(2, strands + 1, 2))
        return (shifted if self is PlatClosureStyle.DOUBLY_EVEN else plain,
                plain if self is PlatClosureStyle.STANDARD else shifted)


def check_style(style: PlatClosureStyle) -> None:
    """Raise FormatError unless ``style`` is a PlatClosureStyle; a string value
    is refused, not converted.  The one check of every reader of the bridges."""
    if not isinstance(style, PlatClosureStyle):
        raise FormatError(f"closure style must be a PlatClosureStyle, got {type(style).__name__}")


# Crossing corners.  Braids are drawn top to bottom; NW/NE are the incoming
# ends, and a strand leaves through the opposite corner, corner ^ 3.
_NW, _NE, _SW, _SE = 0, 1, 2, 3
_CCW_NEXT = (_SW, _NW, _SE, _NE)          # counterclockwise successor of each corner
_CCW_FROM = tuple(itemgetter(*corners) for corners in (  # all four, counterclockwise
    (_NW, _SW, _SE, _NE), (_NE, _NW, _SW, _SE), (_SW, _SE, _NE, _NW), (_SE, _NE, _NW, _SW)))
_POSITIVE_OVER = (True, False, False, True)  # per corner: NW-SE is over iff positive
_NEGATIVE_OVER = (False, True, True, False)


@dataclass(frozen=True)
class PlanarDiagram:
    """Crossing-level diagram of a closed-up braid.

    quadruples   PD code: arc labels counterclockwise from the incoming
                 under-strand end, one quadruple per crossing, crossings in
                 braid order (row-major over twist regions, top to bottom
                 inside each region).  Arcs are labelled 1..2c (c
                 crossings) in the order the traversal first meets them.
    signs        crossing signs under the stored orientation: +1 iff the
                 under strand enters one corner counterclockwise after the
                 over strand.
    visits       per component: (crossing index, passes_over) along the
                 traversal, which records the orientation; crossingless
                 circles appear as empty tuples at the end.

    Construction raises FormatError unless there is one sign of +1 or -1
    per crossing and ``visits`` passes every crossing exactly once under
    and once over: one walk counts each pass, a tuple of a crossing index
    0 <= k < c and a flag exactly ``False`` or ``True``, into its (crossing,
    flag) slot.  Signs and crossing indexes must then be exactly ``int``.
    The PD labels are checked where they are read, by the invariant oracles.
    Each field is stored as a tuple, its items (quadruples, components) as
    tuples too, so a diagram built from lists or iterators equals and
    hashes like one built from tuples.
    """

    quadruples: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    visits: tuple[tuple[tuple[int, bool], ...], ...]

    def __post_init__(self):
        try:  # any field may be a one-shot iterator: read each once
            quadruples = tuple(map(tuple, self.quadruples))
            signs = tuple(self.signs)
            visits = tuple(map(tuple, self.visits))
            c = len(quadruples)
            passes = tuple(chain.from_iterable(visits))
            slots = [0] * (2 * c)  # slots[2k + over]: passes of crossing k with that flag
            for pass_ in passes:
                k, over = pass_
                if not (isinstance(pass_, tuple) and type(over) is bool and 0 <= k < c):
                    raise TypeError
                slots[2 * k + over] += 1  # a float k is no index: TypeError
            ok = slots == [1] * (2 * c) and len(signs) == c and set(signs) <= {1, -1}
        except (TypeError, ValueError):  # a field, or a pass, of the wrong shape or type
            ok = False
        if not ok:
            raise FormatError("signs and visits must give every crossing a sign of +1 or -1 "
                              "and one under (False) and one over (True) pass")
        require_ints(FormatError, "crossing signs and visited crossings",
                     chain(signs, map(itemgetter(0), passes)))
        object.__setattr__(self, "quadruples", quadruples)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "visits", visits)

    @property
    def crossing_count(self) -> int:
        return len(self.quadruples)

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    @property
    def n_components(self) -> int:
        return len(self.visits)

    @property
    def free_loops(self) -> int:
        return sum(1 for comp in self.visits if not comp)

    def pd_lines(self) -> list[str]:
        return [f"X[{a},{b},{c},{d}]" for (a, b, c, d) in self.quadruples]

    def gauss_lines(self) -> list[str]:
        """Signed Gauss code, one line per component, crossings numbered by
        first encounter along the stored traversal; O/U marks over/under."""
        number: dict[int, int] = {}
        lines = []
        for comp_visits in self.visits:
            toks = []
            for k, over in comp_visits:
                if k not in number:
                    number[k] = len(number) + 1
                s = "+" if self.signs[k] > 0 else "-"
                toks.append(f"{'O' if over else 'U'}{number[k]}{s}")
            lines.append(" ".join(toks) if toks else "(circle)")
        return lines


def braid_closure(word: BraidWord, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> PlanarDiagram:
    """Close a braid word with bridge arcs and return its planar diagram.

    Closure arcs are nested in the projection plane and carry no crossings,
    so the diagram has exactly len(word) crossings.  It raises
    TooManyCrossings above ``braid.CROSSING_BUDGET`` before building
    anything.

    Arcs are labelled 1..2*len(word) in traversal order, which also fixes
    the component order and orientation.  The first component is entered at
    the first end of the arc through the leftmost top bridge, each later one
    at the first end of the first unvisited arc.  Ends are ordered by
    (segment, crossing, corner); segments run over the top bridges left to
    right, then over each crossing's two outputs in braid order.

    Each crossing input is linked to the output port that hangs above it,
    so the crossings of a run join by slices.  Only the inputs that reach a
    top bridge and the outputs that reach a bottom bridge are left over; a
    union-find over the top bridges joins them along chains of bridges, and
    a chain with no crossing ends is a free circle.
    """
    check_style(style)
    ports = 4 * budgeted_crossings(word)  # before anything is allocated
    top_pairs, bottom_pairs = style.bridges(word.strands)

    # Port 4k + corner is a corner of crossing k; partner[port] is the other
    # end of the arc at it.  cur[pos] is what hangs at strand position pos:
    # the SW or SE output port of the last crossing there, or ~j for top
    # bridge j, whose crossing inputs are listed in tops[j].
    partner, over_at = [0] * ports, []  # over_at[port]: entering there passes over
    cur = [0] * (word.strands + 1)
    for j, (p, q) in enumerate(top_pairs):
        cur[p] = cur[q] = ~j
    tops: list[list[int]] = [[] for _ in top_pairs]
    b = 0  # the NW port of the run's first crossing
    for i, exp in word.runs:
        for port, above in ((b, cur[i]), (b + 1, cur[i + 1])):
            if above < 0:
                tops[~above].append(port)
            else:
                partner[port], partner[above] = above, port
        end = b + 4 * abs(exp)
        # SW of each crossing feeds NW of the next, SE feeds NE
        partner[b + 2:end - 2:4] = range(b + 4, end, 4)
        partner[b + 4:end:4] = range(b + 2, end - 2, 4)
        partner[b + 3:end - 1:4] = range(b + 5, end, 4)
        partner[b + 5:end:4] = range(b + 3, end - 1, 4)
        over_at += (_POSITIVE_OVER if exp > 0 else _NEGATIVE_OVER) * abs(exp)
        cur[i], cur[i + 1] = end - 2, end - 1
        b = end

    # Bottom bridges: two outputs make an arc; a top bridge joins the chain
    # (union-find) of the other end.  Each chain's ends, top-bridge inputs in
    # bridge order and then outputs in port order, make an arc or none.
    root = list(range(len(top_pairs)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    hanging = []  # (output port, top bridge) met at a bottom bridge
    for p, q in bottom_pairs:
        x, y = cur[p], cur[q]
        if x >= 0 and y >= 0:
            partner[x], partner[y] = y, x
        elif x < 0 and y < 0:
            root[find(~y)] = find(~x)
        else:
            hanging.append((x, ~y) if x >= 0 else (y, ~x))
    ends: list[list[int]] = [[] for _ in top_pairs]  # per chain root
    for j, inputs in enumerate(tops):
        ends[find(j)] += inputs
    for port, j in sorted(hanging):
        ends[find(j)].append(port)
    free_circles = 0
    for j, arc in enumerate(ends):
        if root[j] != j:
            continue
        if not arc:
            free_circles += 1
        elif len(arc) != 2:
            raise InternalError("a diagram arc does not have exactly two ends")
        else:
            partner[arc[0]], partner[arc[1]] = arc[1], arc[0]

    # Traversal: entering crossing k at a corner labels the arc just walked
    # (at both its ends), records the entry corner of the under or over
    # strand, and leaves through the opposite corner, port ^ 3.  The first
    # crossing of a component has an input at a top bridge, so after the arc
    # through the leftmost top bridge the first input of each top bridge, in
    # bridge order, starts every later component at its first arc.
    label, labelled = [0] * ports, 0
    entry = [0] * (ports // 2)  # entry[2k + passes_over]: the corner entered
    visits: list[tuple[tuple[int, bool], ...]] = []
    for port in ends[find(0)][:1] + [inputs[0] for inputs in tops if inputs]:
        comp: list[tuple[int, bool]] = []
        while not label[port]:
            labelled += 1
            label[port] = label[partner[port]] = labelled
            k, passes = port >> 2, over_at[port]
            comp.append((k, passes))
            entry[2 * k + passes] = port & 3
            port = partner[port ^ 3]
        if comp:
            visits.append(tuple(comp))
    visits.extend(() for _ in range(free_circles))

    # A crossing is positive iff its under strand enters one corner
    # counterclockwise after its over strand; its PD quadruple starts at the
    # under strand's entry and runs counterclockwise.
    e_unders, e_overs = entry[0::2], entry[1::2]
    return PlanarDiagram(
        quadruples=tuple(_CCW_FROM[e_under](label[at:at + 4])
                         for at, e_under in zip(range(0, ports, 4), e_unders)),
        signs=tuple(1 if e_under == _CCW_NEXT[e_over] else -1
                    for e_under, e_over in zip(e_unders, e_overs)),
        visits=tuple(visits),
    )


def closure(mat: TwistMatrix, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> PlanarDiagram:
    """Planar diagram of the plat closure of the standard-form word of ``mat``."""
    return braid_closure(to_braid_word(mat), style)


def component_count(mat: TwistMatrix, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> int:
    """Number of link components of the plat closure of ``mat``."""
    return closure_components(to_braid_word(mat), style)


def closure_components(word: BraidWord, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> int:
    """Number of link components of the plat closure of ``word``, found
    without :func:`braid_closure`: ``at[pos]`` is the top bridge whose strand
    is at ``pos``, swapped by each run of odd exponent, and each bottom bridge
    joins the top bridges of its two strands in a union-find."""
    check_style(style)
    top_pairs, bottom_pairs = style.bridges(word.strands)
    at = [0] * (word.strands + 1)
    for j, (p, q) in enumerate(top_pairs):
        at[p] = at[q] = j
    for i, exp in word.runs:
        if exp % 2:
            at[i], at[i + 1] = at[i + 1], at[i]
    parent = list(range(len(top_pairs)))
    components = len(top_pairs)
    for p, q in bottom_pairs:
        a, b = at[p], at[q]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            components -= 1
    return components
