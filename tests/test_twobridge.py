import random
from fractions import Fraction

import pytest

from platknot import TwistMatrix, closure
from platknot.errors import (
    DivisionByZeroTail,
    FormatError,
    InvalidCoefficients,
    NotRepresentable,
)
from platknot.invariants import determinant
from platknot.twobridge import (
    cf_evaluate,
    cf_reconstruct,
    left_boundary_coeffs,
    min_numerator_digits,
    right_boundary_coeffs,
    schubert_pair,
)


class TestEvaluate:
    def test_integer(self):
        assert cf_evaluate([4]) == Fraction(4)

    def test_two_levels(self):
        assert cf_evaluate([0, 3, -3]) == Fraction(3, 8)

    def test_hand_example(self):
        assert cf_evaluate([3, -3, 3]) == Fraction(21, 8)

    def test_zero_tail(self):
        with pytest.raises(DivisionByZeroTail):
            cf_evaluate([1, 1, -1])

    def test_empty_rejected(self):
        with pytest.raises(InvalidCoefficients):
            cf_evaluate([])

    @pytest.mark.parametrize("coeffs", [[3.7], [3, 0.5], [True, 3]])
    def test_non_int_coefficients_rejected(self, coeffs):
        with pytest.raises(InvalidCoefficients):
            cf_evaluate(coeffs)


class TestReconstruct:
    def test_simple(self):
        assert cf_reconstruct(Fraction(17, 4)) == (4, 4)

    def test_hand_example(self):
        assert cf_reconstruct(Fraction(21, 8)) == (3, -3, 3)

    def test_half_is_ambiguous(self):
        with pytest.raises(NotRepresentable):
            cf_reconstruct(Fraction(1, 2))

    def test_small_coefficient_fails_fast(self):
        with pytest.raises(NotRepresentable):
            cf_reconstruct(Fraction(7, 3))  # nearest integer is 2

    def test_negative(self):
        assert cf_reconstruct(Fraction(-21, 8)) == (-3, 3, -3)

    def test_integer_input_reconstructs(self):
        assert cf_reconstruct(5) == (5,)
        assert cf_reconstruct(-3) == (-3,)

    def test_tail_bound_during_recursion(self):
        # remainders stay below (3 - sqrt(5))/2, checked exactly:
        # |p/q| <= (3-sqrt5)/2  <=>  (3q - 2p)^2 >= 5 q^2 for p/q > 0
        rng = random.Random(1)
        for _ in range(200):
            coeffs = [rng.choice([1, -1]) * rng.randint(3, 9)
                      for _ in range(rng.randint(1, 10))]
            r = cf_evaluate(coeffs)
            for a in cf_reconstruct(r):
                tail = r - a
                if tail == 0:
                    break
                p, q = abs(tail.numerator), tail.denominator
                assert (3 * q - 2 * p) ** 2 >= 5 * q * q
                r = 1 / tail


class TestSchubertPair:
    def test_singleton_for_length_one(self):
        assert schubert_pair((3,)) == frozenset({Fraction(3)})

    def test_palindrome_gives_singleton(self):
        assert schubert_pair((3, 3, 3)) == frozenset({Fraction(21, 8)})

    def test_reversal_invariance(self):
        assert schubert_pair((3, 3, 4)) == schubert_pair((4, 3, 3))

    def test_distinct_orders_differ(self):
        assert schubert_pair((3, 3, 4)) != schubert_pair((3, 4, 3))

    def test_even_length_rejected(self):
        with pytest.raises(InvalidCoefficients):
            schubert_pair((3, 3))

    def test_low_twist_rejected(self):
        with pytest.raises(InvalidCoefficients):
            schubert_pair((3, 2, 3))

    @pytest.mark.parametrize("coeffs", [(3.7, 3, 3), (3, 3.0, 3), (Fraction(7, 2), 3, 3),
                                        ("3", 3, 3)])
    def test_non_int_coefficients_rejected(self, coeffs):
        with pytest.raises(InvalidCoefficients):
            schubert_pair(coeffs)

    @pytest.mark.parametrize("coeffs", [(3, 3), (3, 2, 3), (3.0,)])
    def test_min_numerator_digits_checks_like_schubert_pair(self, coeffs):
        with pytest.raises(InvalidCoefficients):
            min_numerator_digits(coeffs)

    def test_both_members_share_numerator(self):
        rng = random.Random(9)
        for _ in range(100):
            coeffs = [rng.choice([1, -1]) * rng.randint(3, 9)
                      for _ in range(rng.choice([1, 3, 5]))]
            nums = {abs(r.numerator) for r in schubert_pair(coeffs)}
            assert len(nums) == 1


class TestBoundaryCoeffs:
    def test_left(self, example_matrix):
        assert left_boundary_coeffs(example_matrix) == (-4, -4, -4)

    def test_right(self, example_matrix):
        assert right_boundary_coeffs(example_matrix) == (-4, -4, -6)

    def test_width_two_left_equals_right_on_odd_rows(self):
        mat = TwistMatrix(2, [(5,)])
        assert left_boundary_coeffs(mat) == right_boundary_coeffs(mat)


def boundary_plat(coeffs):
    """Schubert normal form of the 2-bridge link as a width-2 plat."""
    rows = []
    for i, a in enumerate(coeffs, start=1):
        rows.append((a,) if i % 2 == 1 else (a, 0))
    return TwistMatrix(2, rows)


class TestDeterminantOracle:
    # the numerator of the classifying rational must equal the diagram
    # determinant; this pins the interior sign alternation end to end

    @pytest.mark.parametrize("coeffs", [(3,), (-4,), (7,)])
    def test_one_row(self, coeffs):
        (num,) = {abs(r.numerator) for r in schubert_pair(coeffs)}
        assert determinant(closure(boundary_plat(coeffs))) == num

    @pytest.mark.parametrize("coeffs", [(3, 3, 3), (3, -4, 5), (4, 3, 3), (5, -3, 4)])
    def test_three_rows(self, coeffs):
        (num,) = {abs(r.numerator) for r in schubert_pair(coeffs)}
        mat = boundary_plat(coeffs)
        assert sum(abs(a) for a in mat.entries()) <= 22
        assert determinant(closure(mat)) == num


class TestCoefficientBoundary:
    def test_iterator_evaluates_like_a_list(self):
        assert cf_evaluate(iter([3, 3])) == cf_evaluate([3, 3]) == Fraction(10, 3)
        assert cf_evaluate(a for a in (3, -3, 3)) == Fraction(21, 8)

    def test_iterator_gives_the_same_schubert_pair(self):
        assert schubert_pair(iter([3, 3, 4])) == schubert_pair([3, 3, 4])
        assert schubert_pair(iter([3, 3, 4])) == schubert_pair(iter([4, 3, 3]))

    @pytest.mark.parametrize("f", [cf_evaluate, schubert_pair])
    @pytest.mark.parametrize("coeffs", [5, None, 3.0])
    def test_non_iterable_rejected(self, f, coeffs):
        with pytest.raises(InvalidCoefficients):
            f(coeffs)

    @pytest.mark.parametrize("r", [2.5, "x", "21/8", True, None, [3]])
    def test_reconstruct_needs_an_exact_rational(self, r):
        with pytest.raises(FormatError):
            cf_reconstruct(r)

    def test_reconstruct_messages(self):
        with pytest.raises(NotRepresentable, match=r"^7/2 is equidistant from 3 and 4"):
            cf_reconstruct(Fraction(7, 2))
        with pytest.raises(NotRepresentable, match="coefficient 2 of modulus < 3 at position 1"):
            cf_reconstruct(4 + 1 / Fraction(7, 3))
