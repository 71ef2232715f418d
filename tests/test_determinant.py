"""The determinant's fast paths on edge cases and on large diagrams; their
sampled comparisons with the oracles are rows of ``test_differential.py``."""

import random

from platknot import PlatClosureStyle, braid_closure, closure
from platknot.braid import BraidWord, compose
from platknot.canonical import ELEMENTS, apply
from platknot.hilden import random_hilden_element
from platknot.invariants import closure_determinant, determinant
from platknot.plat import closure_components

from conftest import random_matrix

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
    h = random_hilden_element(256, 1000, random.Random(256))
    trefoils = BraidWord(256, [(i, 3) for i in range(2, 256, 2)])
    translate = compose(compose(random_hilden_element(256, 500, random.Random(1)), trefoils),
                        random_hilden_element(256, 500, random.Random(2)))
    # a Hilden element closes to the 128-component unlink; the translate to
    # the connected sum of 127 trefoils
    for word, components, det in ((h, 128, 0), (translate, 1, 3 ** 127)):
        assert closure_components(word) == components
        assert closure_determinant(word) == determinant(braid_closure(word)) == det


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
