"""Plat diagrams in standard form.

A standard-form plat of width m and height n (n odd) is described by its
coefficient matrix: row i holds the signed crossing counts of the twist
regions at level i, with m-1 entries on odd rows (even-index generators)
and m entries on even rows (odd-index generators).  The braid word
expansion attaches exponent -a_ij to the corresponding generator; that
negation happens in exactly one place, :func:`to_braid_word`.

Closing the braid with bridge arcs (three styles: standard, even, doubly
even) yields a crossing-level planar diagram with deterministic PD codes,
arc labels and orientation, suitable for the invariant oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, product

from .braid import BraidWord, permutation
from .errors import (
    DimensionsOutOfTheoremRange,
    EvenHeight,
    FormatError,
    InternalError,
    WidthTooSmall,
    WrongRowLength,
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

    Construction does not enforce the row-length pattern; call
    :func:`validate` (all operations do).  Entries must be ``int`` (anything
    else raises FormatError) and may be zero: the invariant oracle runs on
    small, non-highly-twisted diagrams.
    """

    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        require_ints(FormatError, "twist-matrix width and entries", chain((self.m,), *rows))
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entries(self) -> tuple[int, ...]:
        """All coefficients, rows concatenated in order."""
        return tuple(chain.from_iterable(self.rows))

    # -- text interchange: line 1 "m n", then n whitespace-separated rows --

    @classmethod
    def from_text(cls, text: str) -> "TwistMatrix":
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines:
            raise FormatError("empty twist-matrix file")
        head = lines[0].split()
        if len(head) != 2:
            raise FormatError(f"header must be 'm n', got {lines[0]!r}")
        try:
            m, n = int(head[0]), int(head[1])
            rows = tuple(tuple(int(tok) for tok in line.split()) for line in lines[1:])
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        if len(rows) != n:
            raise FormatError(f"expected {n} rows, got {len(rows)}")
        return cls(m, rows)

    def to_text(self) -> str:
        out = [f"{self.m} {self.n}"]
        out.extend(" ".join(str(a) for a in row) for row in self.rows)
        return "\n".join(out) + "\n"

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TwistMatrix":
        if obj.get("plat-format", 1) != 1:
            raise FormatError(f"unsupported plat-format {shown(obj.get('plat-format'))}")
        try:
            m, rows = obj["m"], [tuple(r) for r in obj["rows"]]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad twist-matrix JSON: {exc}") from None
        n = obj.get("n", len(rows))
        require_ints(FormatError, "twist-matrix JSON m and n", (m, n))  # cls checks the entries
        if n != len(rows):
            raise FormatError(f"n={shown(n)} does not match {len(rows)} rows")
        return cls(m, rows)

    def to_json_dict(self) -> dict:
        return {"plat-format": 1, "m": self.m, "n": self.n,
                "rows": [list(r) for r in self.rows]}


def validate(mat: TwistMatrix) -> None:
    """Raise on the first structural violation; None means well formed."""
    if mat.m < 2:
        raise WidthTooSmall(f"width m must be >= 2, got {shown(mat.m)}")
    if mat.n < 1 or mat.n % 2 == 0:
        raise EvenHeight(f"height n must be odd and >= 1, got {mat.n}")
    m = mat.m
    for i, width in enumerate(map(len, mat.rows), start=1):
        if width != m - i % 2:  # row_width, inline
            raise WrongRowLength(i, m - i % 2, width)


def check_theorem_range(m: int, n: int) -> None:
    """Raise DimensionsOutOfTheoremRange unless width m >= 4 and height n is
    odd and >= 3, where the uniqueness theorem holds."""
    if m < 4 or n < 3 or n % 2 == 0:
        raise DimensionsOutOfTheoremRange(
            f"need m >= 4 and odd n >= 3, got m={shown(m)}, n={shown(n)}")


def is_highly_twisted(mat: TwistMatrix, c: int) -> bool:
    """True iff every coefficient satisfies |a_ij| >= c."""
    validate(mat)
    return min(map(abs, mat.entries())) >= c  # validate leaves row 1 non-empty


def to_braid_word(mat: TwistMatrix) -> BraidWord:
    """Expand to the standard-form word b_1 ... b_n on 2m strands.

    Odd rows use the even generators sigma_2, sigma_4, ..., even rows the
    odd generators sigma_1, sigma_3, ...; coefficient a_ij contributes
    exponent -a_ij (knot-diagram sign convention).
    """
    validate(mat)
    runs = []
    for i, row in enumerate(mat.rows, start=1):
        first = 2 if i % 2 == 1 else 1
        runs += [(first + 2 * j, -a) for j, a in enumerate(row)]
    return BraidWord(2 * mat.m, tuple(runs))  # BraidWord drops the zero exponents


class PlatClosureStyle(enum.Enum):
    STANDARD = "standard"
    EVEN = "even"
    DOUBLY_EVEN = "doubly_even"

    def bridges(self, strands: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The (top, bottom) bridge pairs of this closure on ``strands``
        strands.  An end pairs (1,2),(3,4),... or, shifted, (2,3),...,(2m,1):
        the standard style shifts neither end, the even style the bottom, the
        doubly even style both."""
        plain = [(p, p + 1) for p in range(1, strands, 2)]
        shifted = [(p, p % strands + 1) for p in range(2, strands + 1, 2)]
        return (shifted if self is PlatClosureStyle.DOUBLY_EVEN else plain,
                plain if self is PlatClosureStyle.STANDARD else shifted)


# Crossing corners.  Braids are drawn top to bottom; NW/NE are the incoming ends.
_NW, _NE, _SW, _SE = 0, 1, 2, 3
_OPPOSITE = (_SE, _SW, _NE, _NW)          # strands swap columns through a crossing
_CCW_NEXT = (_SW, _NW, _SE, _NE)          # counterclockwise successor of each corner
_CCW_FROM = ((_NW, _SW, _SE, _NE), (_NE, _NW, _SW, _SE),  # all four, counterclockwise
             (_SW, _SE, _NE, _NW), (_SE, _NE, _NW, _SW))  # from each corner


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
    and once over.  The PD labels are checked where they are read, by the
    invariant oracles.
    """

    quadruples: tuple[tuple[int, int, int, int], ...]
    signs: tuple[int, ...]
    visits: tuple[tuple[tuple[int, bool], ...], ...]

    def __post_init__(self):
        try:
            passes = sorted(chain.from_iterable(self.visits))
            c = len(self.quadruples)
            ok = (len(self.signs) == c and set(self.signs) <= {1, -1}
                  and passes == list(product(range(c), (False, True))))
        except TypeError:  # a field of the wrong shape, or passes that do not compare
            ok = False
        if not ok:
            raise FormatError("signs and visits must give every crossing a sign of +1 or -1 "
                              "and one under and one over pass")
        require_ints(FormatError, "crossing signs and visited crossings",
                     chain(self.signs, (k for k, _ in passes)))

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
    so the diagram has exactly len(word) crossings.  It reads the word's
    bounded letter view, so it raises TooManyCrossings above
    ``braid.CROSSING_BUDGET`` before building anything.

    Arcs are labelled 1..2*len(word) in traversal order, which also fixes
    the component order and orientation.  The first component is entered at
    the first end of the arc through the leftmost top bridge, each later one
    at the first end of the first unvisited arc.  Ends are ordered by
    (segment, crossing, corner); segments run over the top bridges left to
    right, then over each crossing's two outputs in braid order.
    """
    letters = word.letters  # the budget check, before anything is allocated
    top_pairs, bottom_pairs = style.bridges(word.strands)

    # Port 4k + corner is a corner of crossing k.  A strand segment is born
    # at top bridge j (segment j) or at crossing k's SW/SE outputs (segments
    # len(top_pairs) + 2k, + 2k + 1) and dies at crossing inputs or bottom
    # bridges; ports[s] lists the crossing ends of segment s.
    cur = [0] * (word.strands + 1)
    for j, (p, q) in enumerate(top_pairs):
        cur[p] = cur[q] = j
    ports: list[list[int]] = [[] for _ in top_pairs]
    for k, (i, _) in enumerate(letters):
        ports[cur[i]].append(4 * k + _NW)
        ports[cur[i + 1]].append(4 * k + _NE)
        cur[i], cur[i + 1] = len(ports), len(ports) + 1
        ports += [4 * k + _SW], [4 * k + _SE]

    # Bottom bridges merge segments (union-find); each class with ports is
    # an arc (edge) of the 4-valent diagram, each class without a free circle.
    parent = list(range(len(ports)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in bottom_pairs:
        parent[find(cur[q])] = find(cur[p])
    ends: dict[int, list[int]] = {}  # arc root -> its ends, in segment order
    for s, seg_ports in enumerate(ports):
        if seg_ports:
            ends.setdefault(find(s), []).extend(seg_ports)
    free_circles = len({find(j) for j in range(len(top_pairs))} - ends.keys())
    partner = [0] * (4 * len(letters))  # the other end of the arc at each port
    for arc in ends.values():
        if len(arc) != 2:
            raise InternalError("a diagram arc does not have exactly two ends")
        partner[arc[0]], partner[arc[1]] = arc[1], arc[0]

    # Traversal: entering crossing k at a corner labels the arc just walked
    # (at both its ends), records the entry corner of the under or over
    # strand, and leaves through the opposite corner.
    label, labelled = [0] * len(partner), 0
    entry = [[0, 0] for _ in letters]  # per crossing: [under, over] entry corner
    visits: list[tuple[tuple[int, bool], ...]] = []
    starts = [arc[0] for arc in ends.values()]
    if find(0) in ends:
        starts.insert(0, ends[find(0)][0])  # leftmost top bridge
    for port in starts:
        comp: list[tuple[int, bool]] = []
        while not label[port]:
            labelled += 1
            label[port] = label[partner[port]] = labelled
            k, corner = divmod(port, 4)
            over = (corner in (_NW, _SE)) == (letters[k].sign > 0)  # NW-SE is over iff positive
            comp.append((k, over))
            entry[k][over] = corner
            port = partner[4 * k + _OPPOSITE[corner]]
        if comp:
            visits.append(tuple(comp))
    visits.extend(() for _ in range(free_circles))

    # A crossing is positive iff its under strand enters one corner
    # counterclockwise after its over strand; its PD quadruple starts at the
    # under strand's entry and runs counterclockwise.
    return PlanarDiagram(
        quadruples=tuple(tuple(label[4 * k + c] for c in _CCW_FROM[e_under])
                         for k, (e_under, _) in enumerate(entry)),
        signs=tuple(1 if e_under == _CCW_NEXT[e_over] else -1 for e_under, e_over in entry),
        visits=tuple(visits),
    )


def closure(mat: TwistMatrix, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> PlanarDiagram:
    """Planar diagram of the plat closure of the standard-form word of ``mat``."""
    return braid_closure(to_braid_word(mat), style)


def component_count(mat: TwistMatrix, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> int:
    """Number of link components of the plat closure of ``mat``."""
    return closure_components(to_braid_word(mat), style)


def closure_components(word: BraidWord, style: PlatClosureStyle = PlatClosureStyle.STANDARD) -> int:
    """Number of link components of the plat closure of ``word``, via the
    pairing/permutation walk.

    Independent of the diagram traversal in :func:`braid_closure`: walk
    top pairing -> braid permutation -> bottom pairing and count orbits.
    Each component is covered by exactly two orbits (one per direction).
    """
    strands = word.strands
    perm = permutation(word)
    inv = [0] * (strands + 1)
    for i, p in enumerate(perm, start=1):
        inv[p] = i
    tau_t, tau_b = [0] * (strands + 1), [0] * (strands + 1)
    for tau, pairs in zip((tau_t, tau_b), style.bridges(strands)):
        for p, q in pairs:
            tau[p], tau[q] = q, p

    seen = [False] * (strands + 1)
    orbits = 0
    for start in range(1, strands + 1):
        if seen[start]:
            continue
        orbits += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = tau_t[inv[tau_b[perm[p - 1]]]]
    if orbits % 2:
        raise InternalError(f"odd number of closure orbits: {orbits}")
    return orbits // 2
