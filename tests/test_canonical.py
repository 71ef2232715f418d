import random
from itertools import product

import pytest

from platknot import TwistMatrix
from platknot.canonical import (
    ELEMENTS,
    SymmetryElement,
    apply,
    canonical_form,
    equivalent,
    symmetry_group,
)
from platknot.errors import DimensionsOutOfTheoremRange, FormatError, NotHighlyTwisted

from conftest import random_matrix

ID, H, V, HV = SymmetryElement.ID, SymmetryElement.H, SymmetryElement.V, SymmetryElement.HV
FLIPS = {ID: (False, False), H: (True, False), V: (False, True), HV: (True, True)}


def klein_product(g, h):
    """The Klein four-group law: the h flips and the v flips add mod 2."""
    (gh, gv), (hh, hv) = FLIPS[g], FLIPS[h]
    return next(e for e, flips in FLIPS.items() if flips == (gh ^ hh, gv ^ hv))

ALL_MINUS_4 = TwistMatrix(4, [(-4, -4, -4), (-4, -4, -4, -4), (-4, -4, -4)])


class TestApply:
    def test_identity(self, example_matrix):
        assert apply(ID, example_matrix) == example_matrix

    def test_h_reverses_row_order(self, example_matrix):
        assert apply(H, example_matrix).rows == (
            (-4, -4, -6), (-4, 6, -4, -4), (-4, -4, -4))

    def test_v_reverses_each_row(self, example_matrix):
        assert apply(V, example_matrix).rows == (
            (-4, -4, -4), (-4, -4, 6, -4), (-6, -4, -4))

    @pytest.mark.parametrize("g,h", list(product(ELEMENTS, ELEMENTS)))
    def test_group_law(self, example_matrix, g, h):
        assert apply(g, apply(h, example_matrix)) == apply(klein_product(g, h), example_matrix)

    @pytest.mark.parametrize("g", ["h", None])
    def test_rotation_must_be_a_symmetry_element(self, example_matrix, g):
        with pytest.raises(FormatError, match="SymmetryElement"):
            apply(g, example_matrix)


class TestCanonicalForm:
    def test_fully_symmetric_matrix_is_fixed(self):
        assert canonical_form(ALL_MINUS_4) == ALL_MINUS_4

    def test_example_is_minimum_of_its_orbit(self, example_matrix):
        images = [apply(g, example_matrix) for g in ELEMENTS]
        assert canonical_form(example_matrix) == min(images, key=lambda t: t.entries())

    def test_refuses_low_twist(self):
        mat = TwistMatrix(4, [(-4, -3, -4), (-4, -4, -4, -4), (-4, -4, -4)])
        with pytest.raises(NotHighlyTwisted):
            canonical_form(mat)

    def test_refuses_small_dimensions(self):
        with pytest.raises(DimensionsOutOfTheoremRange):
            canonical_form(TwistMatrix(2, [(5,)]))

    def test_force_escape_normalizes_anyway(self):
        mat = TwistMatrix(2, [(5,)])
        assert canonical_form(mat, force=True) == mat


class TestEquivalent:
    def test_reflexive(self, example_matrix):
        assert equivalent(example_matrix, example_matrix)

    @pytest.mark.parametrize("g", ELEMENTS)
    def test_rotations_are_equivalent(self, example_matrix, g):
        assert equivalent(example_matrix, apply(g, example_matrix))

    def test_single_entry_change_is_inequivalent(self, example_matrix):
        rows = [list(r) for r in example_matrix.rows]
        rows[0][0] = -5
        other = TwistMatrix(4, rows)
        assert not equivalent(example_matrix, other)


class TestSymmetryGroup:
    def test_fully_symmetric(self):
        assert set(symmetry_group(ALL_MINUS_4)) == {ID, H, V, HV}

    def test_example_has_trivial_group(self, example_matrix):
        assert symmetry_group(example_matrix) == (ID,)

    def test_v_only(self):
        mat = TwistMatrix(4, [(-4, -5, -4), (-4, -6, -6, -4), (-5, -4, -5)])
        assert set(symmetry_group(mat)) == {ID, V}

    def test_h_only(self):
        mat = TwistMatrix(4, [(-4, -5, -6), (-4, -6, -6, -4), (-4, -5, -6)])
        assert set(symmetry_group(mat)) == {ID, H}

    def test_always_a_subgroup(self):
        rng = random.Random(5)
        for _ in range(40):
            mat = random_matrix(rng, 4, 3, 4, 5)
            group = set(symmetry_group(mat))
            assert ID in group
            assert all(klein_product(g, h) in group for g in group for h in group)
