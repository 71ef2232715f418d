"""The determinant's fast paths against their oracles.

``determinant`` eliminates the Wirtinger minor on +-1 pivots and hands only
the leftover core to Bareiss elimination; these tests run Bareiss on the
whole dense minor of the same diagram and require the same integer.
``closure_determinant`` colours the m bridges of a braid word's plat closure
and never builds a diagram; it must equal ``determinant`` of the closure.
"""

import random

from hypothesis import example, given, settings, strategies as st

from platknot import PlatClosureStyle, TwistMatrix, braid_closure, closure, to_braid_word
from platknot.braid import BraidWord, compose
from platknot.canonical import ELEMENTS, apply, canonical_form
from platknot.hilden import random_hilden_element
from platknot.invariants import (
    _bareiss_abs_det,
    _wirtinger_minor,
    closure_determinant,
    determinant,
    jones,
    jones_at_minus_one,
)
from platknot.plat import closure_components

from conftest import random_matrix
from test_acceptance import EXAMPLE, criterion_2_plats, criterion_7_plats, criterion_9_variants


def dense_determinant(d) -> int:
    """Bareiss on the whole dense Wirtinger minor (free loops as ``determinant``)."""
    if d.free_loops:
        return 1 if d.free_loops == 1 and not d.quadruples else 0
    rows = _wirtinger_minor(d.quadruples)
    if rows is None:
        return 0
    return _bareiss_abs_det([[row.get(j, 0) for j in range(len(rows))] for row in rows])


def criterion_plats() -> list[TwistMatrix]:
    """The plats of acceptance criteria 2 (with their rotations), 7 and 9."""
    plats = [apply(g, mat) for mat in criterion_2_plats() for g in ELEMENTS]
    plats += criterion_7_plats()
    base = canonical_form(EXAMPLE)
    return plats + [base] + [other for _, _, other in criterion_9_variants(base)]


def hilden_translates(mat: TwistMatrix, rng: random.Random, count: int) -> list[BraidWord]:
    """Translates h b h' of the plat's word, drawn as coset_consistency draws them."""
    b = to_braid_word(mat)
    out = []
    for _ in range(count):
        h_left = random_hilden_element(b.strands, rng.randrange(1, 5), rng.randrange(1 << 30))
        h_right = random_hilden_element(b.strands, rng.randrange(1, 5), rng.randrange(1 << 30))
        out.append(compose(compose(h_left, b), h_right))
    return out


def test_sparse_matches_dense_on_criterion_plats_and_translates():
    rng = random.Random(3)
    diagrams = []
    for mat in criterion_plats():
        diagrams.extend(closure(mat, style) for style in PlatClosureStyle)
        diagrams.extend(braid_closure(w) for w in hilden_translates(mat, rng, 2))
    jones_checked = 0
    for d in diagrams:
        det = determinant(d)
        assert det == dense_determinant(d), d.pd_lines()
        if d.crossing_count <= 14:
            assert det == jones_at_minus_one(jones(d)), d.pd_lines()
            jones_checked += 1
    assert len(diagrams) > 2000 and jones_checked > 300


def test_colouring_matches_wirtinger_on_criterion_plats_and_translates():
    rng = random.Random(3)
    closures = []
    for mat in criterion_plats():
        word = to_braid_word(mat)
        closures.extend((word, style) for style in PlatClosureStyle)
        closures.extend((w, PlatClosureStyle.STANDARD) for w in hilden_translates(mat, rng, 2))
    zeros = 0
    for word, style in closures:
        det = closure_determinant(word, style)
        assert det == determinant(braid_closure(word, style)), (word, style)
        zeros += det == 0
    assert len(closures) > 2000 and zeros > 500


EDGE_CASES = {
    "unknot": (BraidWord(2, []), 1),
    "free loops": (BraidWord(4, []), 0),
    "kink beside a free loop": (BraidWord(4, [(1, 1)]), 0),
    "Hopf link": (BraidWord(4, [(2, 2)]), 2),
    "split trefoils": (BraidWord(8, [(2, 3), (6, 3)]), 0),
    "entirely-over circle": (BraidWord(4, [(2, 1), (2, -1)]), 0),
}


def test_edge_case_values():
    for name, (word, expected) in EDGE_CASES.items():
        assert determinant(braid_closure(word)) == expected, name
        for style in PlatClosureStyle:
            assert closure_determinant(word, style) == determinant(braid_closure(word, style)), name


def test_colouring_matches_wirtinger_on_256_strands():
    h = random_hilden_element(256, 1000, 256)
    trefoils = BraidWord(256, [(i, 3) for i in range(2, 256, 2)])
    translate = compose(compose(random_hilden_element(256, 500, 1), trefoils),
                        random_hilden_element(256, 500, 2))
    # a Hilden element closes to the 128-component unlink; the translate to
    # the connected sum of 127 trefoils
    for word, components, det in ((h, 128, 0), (translate, 1, 3 ** 127)):
        assert closure_components(word) == components
        assert closure_determinant(word) == determinant(braid_closure(word)) == det


@st.composite
def braid_words(draw) -> BraidWord:
    strands = draw(st.sampled_from([2, 4, 6, 8]))
    runs = draw(st.lists(
        st.tuples(st.integers(1, strands - 1), st.sampled_from([1, -1])),
        max_size=40))
    return BraidWord(strands, tuple(runs))


@settings(max_examples=150, deadline=None)
@given(braid_words(), st.sampled_from(list(PlatClosureStyle)))
@example(EDGE_CASES["unknot"][0], PlatClosureStyle.STANDARD)
@example(EDGE_CASES["free loops"][0], PlatClosureStyle.STANDARD)
@example(EDGE_CASES["kink beside a free loop"][0], PlatClosureStyle.STANDARD)
@example(EDGE_CASES["Hopf link"][0], PlatClosureStyle.STANDARD)
@example(EDGE_CASES["split trefoils"][0], PlatClosureStyle.STANDARD)
@example(EDGE_CASES["entirely-over circle"][0], PlatClosureStyle.STANDARD)
def test_sparse_matches_dense_on_braid_closures(word, style):
    d = braid_closure(word, style)
    det = determinant(d)
    assert det == dense_determinant(d) == closure_determinant(word, style)
    assert closure_components(word, style) == d.n_components
    if d.crossing_count <= 14:
        assert det == jones_at_minus_one(jones(d))


@st.composite
def run_words(draw) -> BraidWord:
    """Run words on up to 12 strands whose every run is drawn with an
    exponent in -6..6, where ``braid_words`` draws +-1 letters on up to 8."""
    strands = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    runs = draw(st.lists(
        st.tuples(st.integers(1, strands - 1), st.integers(-6, 6).filter(bool)),
        max_size=30))
    return BraidWord(strands, tuple(runs))


@settings(max_examples=150, deadline=None)
@given(run_words(), st.sampled_from(list(PlatClosureStyle)))
def test_colouring_matches_wirtinger_on_run_words(word, style):
    assert closure_determinant(word, style) == determinant(braid_closure(word, style))


def test_large_plat_rotations_agree():
    mat = random_matrix(random.Random(1213), 12, 13, 4, 9)
    dets, components = set(), set()
    for g in ELEMENTS:
        d = closure(apply(g, mat))
        assert 900 <= d.crossing_count <= 1300
        dets.add(determinant(d))
        components.add(d.n_components)
    assert len(dets) == 1 and len(components) == 1
    assert (dets.pop() % 2 == 1) == (components.pop() == 1)
