"""Every fast path against its brute-force oracle, one table row each.

A row draws cases from its strategy, and ``compare(fast(case), oracle(case))``
(equality by default) must hold on each.  A new fast path lands as one new row.
The diagram rows, on (word, style) closures, also run over one seeded corpus.
"""

import functools
import operator
import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from platknot import PlatClosureStyle, TwistMatrix, braid_closure, closure, to_braid_word, validate
from platknot.braid import BraidWord, compose, free_reduce, inverse
from platknot.canonical import ELEMENTS, apply, canonical_form, equivalent, symmetry_group
from platknot.errors import DivisionByZeroTail, PlatError, WrongRowLength
from platknot.hilden import random_hilden_element
from platknot.invariants import (_bareiss_abs_det, _wirtinger_minor, closure_determinant,
                                 determinant, jones, jones_at_minus_one)
from platknot.plat import closure_components, row_width
from platknot.twobridge import cf_evaluate, cf_reconstruct, min_numerator_digits, schubert_pair

from conftest import (LETTERS, any_matrices, braid_words, coeff_lists,
                      diagram_is_connected, letter_words, matrix_pairs, random_small_matrix,
                      ref_letters, run_pairs, run_words, styles)
from test_acceptance import EXAMPLE, criterion_2_plats, criterion_7_plats, criterion_9_variants
from test_canonical import FLIPS
from test_determinant import EDGE_CASES

STANDARD = PlatClosureStyle.STANDARD
JONES_CROSSINGS = 14  # the bracket state sum stays cheap up to here


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the code of the PlatError it raises."""
    try:
        return fn(*args)
    except PlatError as exc:
        return exc.code


# -- braid.runs: the letter-walking operations the runs representation
# -- replaced, on tuples of (index, sign) letters

def ref_inverse(a):
    return tuple((i, -s) for i, s in reversed(a))


def ref_free_reduce(a):
    out = []
    for i, s in a:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


def ref_syllables(a):
    runs = []
    for i, s in a:
        if runs and runs[-1][0] == i and (runs[-1][1] > 0) == (s > 0):
            runs[-1] = (i, runs[-1][1] + s)
        else:
            runs.append((i, s))
    return tuple(runs)


def runs_view(case):
    """The letters and the runs of each operation; the operations build their
    runs without the constructor, so each result is also re-checked by it
    (their letters alone cannot see a run left unmerged)."""
    n, runs_a, runs_b = case
    a, b = BraidWord(n, runs_a), BraidWord(n, runs_b)
    built = (compose(a, b), compose(a, b, a), inverse(a), free_reduce(a),
             free_reduce(compose(a, b)))
    return (ref_letters(a.runs), len(a), *(ref_letters(w.runs) for w in built), a.runs,
            *(w.runs for w in built), *(w == BraidWord(w.strands, w.runs) for w in built),
            a == b)


def letter_walks(case):
    _, runs_a, runs_b = case
    la, lb = ref_letters(runs_a), ref_letters(runs_b)
    built = (la + lb, la + lb + la, ref_inverse(la), ref_free_reduce(la),
             ref_free_reduce(la + lb))
    return (la, len(la), *built, ref_syllables(la),
            *map(ref_syllables, built), *(True for _ in built), la == lb)


# -- plat.closure: the closure built segment by segment, with a port list per
# -- strand segment and a union-find over all segments

NW, NE, SW, SE = 0, 1, 2, 3
CCW_NEXT = (SW, NW, SE, NE)
CCW_FROM = ((NW, SW, SE, NE), (NE, NW, SW, SE), (SW, SE, NE, NW), (SE, NE, NW, SW))


def ref_braid_closure(word, style):
    """(quadruples, signs, visits) of the ``style`` closure of ``word``."""
    letters = ref_letters(word.runs)
    top_pairs, bottom_pairs = style.bridges(word.strands)
    # segment j starts at top bridge j, segments m + 2k and m + 2k + 1 at
    # crossing k's SW and SE outputs; ports[s] lists the crossing ends of s
    cur = [0] * (word.strands + 1)
    for j, (p, q) in enumerate(top_pairs):
        cur[p] = cur[q] = j
    ports = [[] for _ in top_pairs]
    for k, (i, _) in enumerate(letters):
        ports[cur[i]].append(4 * k + NW)
        ports[cur[i + 1]].append(4 * k + NE)
        cur[i], cur[i + 1] = len(ports), len(ports) + 1
        ports += [4 * k + SW], [4 * k + SE]
    parent = list(range(len(ports)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p, q in bottom_pairs:
        parent[find(cur[q])] = find(cur[p])
    ends = {}  # arc root -> its ends, in segment order
    for s, seg_ports in enumerate(ports):
        if seg_ports:
            ends.setdefault(find(s), []).extend(seg_ports)
    free_circles = len({find(j) for j in range(len(top_pairs))} - ends.keys())
    partner = [0] * (4 * len(letters))
    for arc in ends.values():
        assert len(arc) == 2
        partner[arc[0]], partner[arc[1]] = arc[1], arc[0]
    label, labelled = [0] * len(partner), 0
    entry = [[0, 0] for _ in letters]  # per crossing: [under, over] entry corner
    visits = []
    starts = [arc[0] for arc in ends.values()]
    if find(0) in ends:
        starts.insert(0, ends[find(0)][0])
    for port in starts:
        comp = []
        while not label[port]:
            labelled += 1
            label[port] = label[partner[port]] = labelled
            k, corner = divmod(port, 4)
            over = (corner in (NW, SE)) == (letters[k][1] > 0)
            comp.append((k, over))
            entry[k][over] = corner
            port = partner[4 * k + (SE, SW, NE, NW)[corner]]
        if comp:
            visits.append(tuple(comp))
    visits.extend(() for _ in range(free_circles))
    return (tuple(tuple(label[4 * k + c] for c in CCW_FROM[e_under])
                  for k, (e_under, _) in enumerate(entry)),
            tuple(1 if e_under == CCW_NEXT[e_over] else -1 for e_under, e_over in entry),
            tuple(visits))


# -- the determinant's oracles and the component walk's, on (word, style)

def dense_determinant(d) -> int:
    """Bareiss on the whole dense Wirtinger minor (free loops as ``determinant``)."""
    if d.free_loops:
        return 1 if d.free_loops == 1 and not d.quadruples else 0
    rows = _wirtinger_minor(d.quadruples)
    if rows is None:
        return 0
    return _bareiss_abs_det([[row.get(j, 0) for j in range(len(rows))] for row in rows])


class Closure(namedtuple("Closure", "word style")):
    """A (word, style) case; the rows checked on it share its diagram and determinant."""
    diagram = functools.cached_property(lambda self: braid_closure(*self))
    wirtinger = functools.cached_property(lambda self: determinant(self.diagram))


# -- plat.validate: one comparison of the row widths with their pattern; its
# -- oracle walks the rows one by one

def unchecked(m, rows):
    """A matrix of width ``m`` with these rows, built without any check, as
    ``TwistMatrix._reordered`` builds one."""
    mat = object.__new__(TwistMatrix)
    object.__setattr__(mat, "m", m)
    object.__setattr__(mat, "rows", rows)
    return mat


@st.composite
def unchecked_shapes(draw):
    """Width 0-6, height 0-7, each row as wide as the shape rule says or one
    entry off (most rows right, so that valid shapes appear too)."""
    m, n = draw(st.sampled_from(range(7))), draw(st.sampled_from(range(8)))
    offs = st.one_of(st.just(0), st.integers(-1, 1))
    return unchecked(m, tuple((7,) * max(0, row_width(m, i) + draw(offs))
                              for i in range(1, n + 1)))


def validate_outcome(mat):
    """None, or the code and message of validate's error, with the row,
    expected and got of a WrongRowLength."""
    try:
        validate(mat)
    except WrongRowLength as exc:
        return exc.code, str(exc), exc.row, exc.expected, exc.got
    except PlatError as exc:
        return exc.code, str(exc)
    return None


def ref_validate(mat):
    """The shape rule, checked row by row."""
    if mat.m < 2:
        return "WidthTooSmall", f"width m must be >= 2, got {mat.m}"
    if len(mat.rows) % 2 == 0:
        return "EvenHeight", f"height n must be odd and >= 1, got {len(mat.rows)}"
    for i, row in enumerate(mat.rows, start=1):
        expected = mat.m - 1 if i % 2 == 1 else mat.m
        if len(row) != expected:
            return ("WrongRowLength", f"row {i} must have {expected} entries, got {len(row)}",
                    i, expected, len(row))
    return None


# -- canonical: apply builds each image from checked rows without a second
# -- check; its oracle is the checked constructor fed by the index formulas
# -- of apply's docstring, and apply is the oracle of the comparisons of rows
# -- (canonical form, orbit test, symmetry group)

def with_shape(images):
    """Each image with its hash and the types of its rows and entries."""
    return [(t, hash(t), type(t.rows), {type(r) for r in t.rows}, set(map(type, t.entries())))
            for t in images]


def images_by_index(mat):
    """The four images from a_ij -> a_(n+1-i),j (H) and a_ij -> a_i,(w_i+1-j)
    (V), each built by the checked constructor."""
    n, widths = mat.n, [len(row) for row in mat.rows]
    images = []
    for g in ELEMENTS:
        h, v = FLIPS[g]
        image = {(n + 1 - i if h else i, w + 1 - j if v else j): a
                 for i, (w, row) in enumerate(zip(widths, mat.rows), start=1)
                 for j, a in enumerate(row, start=1)}
        images.append(TwistMatrix(mat.m, [[image[i, j] for j in range(1, w + 1)]
                                          for i, w in enumerate(widths, start=1)]))
    return with_shape(images)


def least_image_by_apply(mat):
    return min((apply(g, mat) for g in ELEMENTS), key=lambda t: t.entries())


def fixed_by(g, mat):
    """``mat`` made fixed by ``g``: of each two positions ``g`` swaps, the
    later takes the entry of the earlier."""
    h, v = FLIPS[g]
    n, rows = mat.n, mat.rows

    def source(i, j, w):
        return min((i, j), (n - 1 - i if h else i, w - 1 - j if v else j))

    return TwistMatrix(mat.m, [[rows[a][b] for a, b in (source(i, j, len(row))
                                                        for j in range(len(row)))]
                               for i, row in enumerate(rows)])


@st.composite
def symmetric_matrices(draw):
    """Any matrix made fixed by up to two rotations (palindromic rows, a
    palindromic row sequence, both, or the HV mirror), so every subgroup
    appears: a random matrix is almost never symmetric."""
    mat = draw(any_matrices())
    for g in draw(st.lists(st.sampled_from(ELEMENTS), max_size=2)):
        mat = fixed_by(g, mat)
    return mat


# one matrix fixed by each subgroup: {id}, {id, h}, {id, v}, {id, hv}, all four
SUBGROUP_EXAMPLES = tuple(TwistMatrix(4, rows) for rows in (
    [(-4, -4, -4), (-4, 6, -4, -4), (-4, -4, -6)],
    [(4, 5, 6), (4, 5, 6, 7), (4, 5, 6)],
    [(4, 5, 4), (6, 7, 7, 6), (8, 9, 8)],
    [(4, 5, 6), (7, 8, 8, 7), (6, 5, 4)],
    [(4, 3, 4), (6, -4, -4, 6), (4, 3, 4)],
))


def symmetries_by_apply(mat):
    return tuple(g for g in ELEMENTS if apply(g, mat) == mat)


def compare_canonical_forms(a, b, force):
    """The definition equivalent had before it computed one canonical form."""
    return canonical_form(a, force) == canonical_form(b, force)


# the rows of the second matrix are the first rows of the first: only the
# heights tell them apart
PREFIX_PAIR = (TwistMatrix(4, [(-4,) * 3, (-4,) * 4] * 2 + [(-4,) * 3]),
               TwistMatrix(4, [(-4,) * 3, (-4,) * 4, (-4,) * 3]))


def proved_verdict(pair):
    """What equivalent must answer: True for rotation-equal matrices, whose
    forced canonical forms coincide, for any plats; else the outcome of the
    unforced comparison, False or the code of the failing hypothesis."""
    return compare_canonical_forms(*pair, True) or outcome(compare_canonical_forms, *pair, False)


# -- twobridge: the plain Fraction evaluation the integer kernels replaced

def ref_evaluate(coeffs):
    """Tail-first Fraction evaluation of [a_0; a_1, ..., a_k]."""
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        if value == 0:
            raise DivisionByZeroTail(f"tail of {list(coeffs)} evaluates to 0")
        value = a + 1 / value
    return value


def alternate(coeffs):
    """[a_1, -a_2, a_3, ..., -a_(n-1), a_n]"""
    return [a if i % 2 == 0 else -a for i, a in enumerate(coeffs)]


@st.composite
def width_2_plats(draw):
    """Odd-length coefficient lists with the width-2 matrix of these twists:
    odd rows (a,), even rows (a, 0) or (0, a), the slot drawn."""
    coeffs = draw(coeff_lists(9).filter(odd_length))
    rows = [(a,) if i % 2 == 0 else draw(st.sampled_from([(a, 0), (0, a)]))
            for i, a in enumerate(coeffs)]
    return coeffs, TwistMatrix(2, rows)


def schubert_numerator(case):
    """|p| of the Schubert pair, and whether p is odd."""
    (p,) = {abs(r.numerator) for r in schubert_pair(case[0])}
    return p, p % 2 == 1


def closure_topology(case):
    """The determinant of the standard closure, and whether it is a knot."""
    word = to_braid_word(case[1])
    return closure_determinant(word, STANDARD), closure_components(word, STANDARD) == 1


def numerator_digits(coeffs):
    (numerator,) = {abs(r.numerator) for r in schubert_pair(coeffs)}
    return len(str(numerator))


def odd_length(coeffs):
    return len(coeffs) % 2 == 1


# deadline=None on the rows whose replaced properties ran without a deadline
Row = namedtuple("Row", "name fast oracle strategy max_examples compare examples deadline",
                 defaults=(operator.eq, (), settings().deadline))


EDGE_CLOSURES = tuple(Closure(word, STANDARD) for word, _ in EDGE_CASES.values())


# no crossing on the leftmost top bridge: in the even style its arc starts
# at a crossing output that a bottom bridge reaches
BRIDGE_FREE_CLOSURES = tuple(Closure(BraidWord(n, runs), style)
                             for n, runs in ((4, [(3, 1)]), (6, [(3, 2), (5, -1)]))
                             for style in PlatClosureStyle)


def diagram_row(name, fast, oracle, words, examples=()):
    """A row on 150 closures of ``words`` in any style, and on the edge words."""
    return Row(name, fast, oracle, st.builds(Closure, words, styles), 150,
               examples=EDGE_CLOSURES + examples, deadline=None)


wirtinger = operator.attrgetter("wirtinger")
pd_fields = operator.attrgetter("quadruples", "signs", "visits")
DIAGRAM_ROWS = (
    diagram_row("plat.closure", lambda c: pd_fields(c.diagram), lambda c: ref_braid_closure(*c),
                letter_words | run_words, BRIDGE_FREE_CLOSURES),
    diagram_row("determinant.dense", wirtinger, lambda c: dense_determinant(c.diagram),
                letter_words),
    diagram_row("determinant.colouring", lambda c: closure_determinant(*c), wirtinger,
                letter_words | run_words),
    diagram_row("components.walk", lambda c: closure_components(*c),
                lambda c: c.diagram.n_components, letter_words | run_words),
    diagram_row("determinant.jones", wirtinger, lambda c: jones_at_minus_one(jones(c.diagram)),
                braid_words(LETTERS, JONES_CROSSINGS)),
)
ROWS = DIAGRAM_ROWS + (
    Row("braid.runs", runs_view, letter_walks, run_pairs(), 100),
    Row("canonical.apply", lambda mat: with_shape([apply(g, mat) for g in ELEMENTS]),
        images_by_index, any_matrices(), 300, deadline=None),
    Row("canonical.rows", lambda mat: canonical_form(mat, force=True), least_image_by_apply,
        any_matrices(), 300, deadline=None),
    Row("canonical.orbit", lambda pair: outcome(equivalent, *pair), proved_verdict,
        matrix_pairs(), 300, examples=(PREFIX_PAIR,), deadline=None),
    Row("canonical.symmetry", symmetry_group, symmetries_by_apply, symmetric_matrices(), 300,
        examples=SUBGROUP_EXAMPLES, deadline=None),
    Row("plat.validate", validate_outcome, ref_validate, unchecked_shapes(), 300),
    Row("twobridge.evaluate", lambda c: outcome(cf_evaluate, c), lambda c: outcome(ref_evaluate, c),
        st.lists(st.integers(-5, 5), min_size=1, max_size=15), 400),
    Row("twobridge.schubert", schubert_pair,
        lambda c: frozenset({ref_evaluate(alternate(c)), ref_evaluate(alternate(c[::-1]))}),
        coeff_lists(25).filter(odd_length), 400),
    # topology, not a second copy of the recurrence: a width-2 plat's
    # standard closure is the 2-bridge link of its twists
    Row("twobridge.determinant", schubert_numerator, closure_topology, width_2_plats(), 200),
    Row("twobridge.reconstruct", lambda c: cf_reconstruct(ref_evaluate(c)), tuple,
        coeff_lists(25), 400),
    # |a| - 1 a power of two makes the bit-length step of the digit bound exact
    Row("twobridge.digits", min_numerator_digits, numerator_digits,
        coeff_lists(41, st.sampled_from([3, 5, 9, 1025, 2 ** 20 + 1]) | st.integers(3, 5000))
        .filter(odd_length), 200, compare=operator.le),
)


def check(row: Row, case) -> None:
    fast, oracle = row.fast(case), row.oracle(case)
    assert row.compare(fast, oracle), (row.name, case, fast, oracle)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_fast_path_agrees_with_oracle(row):
    def run(case):
        check(row, case)

    for case in row.examples:
        run = example(case)(run)
    settings(max_examples=row.max_examples, deadline=row.deadline)(given(row.strategy)(run))()


# -- the seeded corpus of the diagram rows ----------------------------------

def criterion_plats() -> list[TwistMatrix]:
    """The plats of acceptance criteria 2 (with their rotations), 7 and 9."""
    plats = [apply(g, mat) for mat in criterion_2_plats() for g in ELEMENTS]
    plats += criterion_7_plats()
    base = canonical_form(EXAMPLE)
    return plats + [base] + [other for _, _, other in criterion_9_variants(base)]


def hilden_translate(word: BraidWord, rng: random.Random) -> BraidWord:
    """A translate h b h' of ``word``, drawn as coset_consistency draws them."""
    h_left, h_right = (random_hilden_element(word.strands, rng.randrange(1, 5), rng)
                       for _ in range(2))
    return compose(h_left, word, h_right)


@functools.cache
def seeded_corpus():
    """The diagram rows' corpus: (the criterion plats' cases, 180 small plats'
    cases, 55 smaller plats' cases, the number of those 55 that are split)."""
    # the criterion plats in every style and two Hilden translates of each
    rng = random.Random(3)
    criterion = []
    for word in map(to_braid_word, criterion_plats()):
        criterion += [Closure(word, style) for style in PlatClosureStyle]
        criterion += [Closure(hilden_translate(word, rng), STANDARD) for _ in range(2)]
    # 60 small plats in each style, and 55 standard closures of at most 16
    # crossings, 15 of them split, which the bracket row checks too
    small = []
    for style in PlatClosureStyle:
        rng = random.Random(42)
        small += [Closure(to_braid_word(random_small_matrix(rng, 18)), style) for _ in range(60)]
    rng = random.Random(31)
    mats = [random_small_matrix(rng, 16) for _ in range(55)]
    split = sum(not diagram_is_connected(closure(mat)) for mat in mats)
    return criterion, small, [Closure(to_braid_word(mat), STANDARD) for mat in mats], split


def in_bracket_range(cases):
    return [case for case in cases if len(case.word) <= JONES_CROSSINGS]


def test_seeded_corpus_keeps_its_coverage():
    criterion, _, _, split = seeded_corpus()
    zeros = sum(case.wirtinger == 0 for case in criterion)
    assert len(criterion) > 2000 and len(in_bracket_range(criterion)) > 300
    assert zeros > 500 and split == 15


@pytest.mark.parametrize("row", DIAGRAM_ROWS, ids=lambda row: row.name)
def test_diagram_row_on_seeded_corpus(row):
    criterion, small, smaller, _ = seeded_corpus()
    if row.name == "determinant.jones":
        criterion, small = in_bracket_range(criterion), []
    for case in criterion + small + smaller:
        check(row, case)
