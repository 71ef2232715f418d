import hashlib
import random

import pytest

from platknot import PlanarDiagram, PlatClosureStyle, TwistMatrix, braid_closure, closure
from platknot.braid import BraidWord
from platknot.errors import FormatError, TooManyCrossings
from platknot.invariants import (
    LaurentPoly,
    determinant,
    jones,
    jones_at_minus_one,
    jones_canonical,
    kauffman_bracket,
    max_writhe,
)

from conftest import random_small_matrix

A = LaurentPoly.monomial


def unknot_diagram():
    # all-zero width-2 matrix closed even-style: one crossingless circle
    return closure(TwistMatrix(2, [(0,)]), PlatClosureStyle.EVEN)


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({3: 0, 1: 2}).coeffs == {1: 2}

    def test_reciprocal(self):
        assert LaurentPoly({3: 2, -1: 5}).reciprocal() == LaurentPoly({-3: 2, 1: 5})

    def test_format(self):
        assert LaurentPoly({4: -1, 3: 1, 1: 1}).format("t") == "-t^4 + t^3 + t"
        assert LaurentPoly().format("t") == "0"
        assert A(1, -5).format("t", 2) == "t^(-5/2)"


class TestBracket:
    def test_zero_crossing_unknot(self):
        d = unknot_diagram()
        assert d.crossing_count == 0 and d.n_components == 1
        assert kauffman_bracket(d) == LaurentPoly.one()

    @pytest.mark.parametrize("a", [1, -1])
    def test_kink_is_minus_a_cubed(self, a):
        d = closure(TwistMatrix(2, [(a,)]))
        assert kauffman_bracket(d) in (A(-1, 3), A(-1, -3))
        # the kink handedness matches the writhe
        assert kauffman_bracket(d) == A(-1, 3 * d.writhe)

    def test_hopf_link(self):
        d = closure(TwistMatrix(2, [(2,)]))
        assert kauffman_bracket(d) == LaurentPoly({4: -1, -4: -1})

    def test_distant_circle_multiplies_by_delta(self):
        tref = closure(TwistMatrix(2, [(3,)]))
        tref_with_circle = closure(TwistMatrix(3, [(3, 0)]))
        assert tref_with_circle.free_loops == 1
        times_delta: dict[int, int] = {}  # the product by the loop value -A^2 - A^-2
        for e, c in kauffman_bracket(tref).coeffs.items():
            for d in (2, -2):
                times_delta[e + d] = times_delta.get(e + d, 0) - c
        assert kauffman_bracket(tref_with_circle) == LaurentPoly(times_delta)

    def test_cap_enforced(self):
        d = closure(TwistMatrix(2, [(23,)]))
        with pytest.raises(TooManyCrossings):
            kauffman_bracket(d)

    def test_bracket_pinned(self):
        # every closure style of seeded words on 2-8 strands, exponents
        # +-1..+-3, at most 14 crossings; kinks, free circles and 0-crossing
        # closures included
        rng = random.Random(1987)
        h = hashlib.sha256()
        kinks = free = 0
        for _ in range(240):
            strands, runs, crossings = rng.choice((2, 4, 6, 8)), [], 0
            target = rng.randint(0, 14)
            while True:
                e = rng.choice((-3, -2, -1, 1, 2, 3))
                if crossings + abs(e) > target:
                    break
                runs.append((rng.randint(1, strands - 1), e))
                crossings += abs(e)
            for style in PlatClosureStyle:
                d = braid_closure(BraidWord(strands, runs), style)
                free += d.free_loops > 0
                kinks += any(len(set(q)) < 4 for q in d.quadruples)
                h.update(repr(sorted(kauffman_bracket(d).coeffs.items())).encode() + b"\n")
        assert (kinks, free) == (548, 216)
        assert h.hexdigest() == (
            "b8c08134f3a9b772c8437552d7c7d884b5e3f4a10a67a119b04716a622b40002")

    @pytest.mark.parametrize("oracle", [kauffman_bracket, determinant])
    @pytest.mark.parametrize("quad", [(1, 2, 3, 4), (1, 2, 2, 7), (1, 1, 1, 1),
                                      (1, 1, 2, 2, 3, 3), (1, 2, 1)])
    def test_label_not_on_exactly_two_ends(self, quad, oracle):
        d = PlanarDiagram((quad,), (1,), (((0, False), (0, True)),))
        with pytest.raises(FormatError):
            oracle(d)

    @pytest.mark.parametrize("signs, visits", [
        ((1,), (((3, False), (3, True)),)),           # visits crossing 3 of 1
        ((1, 1, 1), (((0, False), (0, True)),)),       # three signs for one crossing
        ((2,), (((0, False), (0, True)),)),            # a sign other than +-1
        ((True,), (((0, False), (0, True)),)),         # a bool sign
        ((1,), (((0, False), (0, False)),)),           # no over pass
        ((1,), (((0, False),), ((0, True), (0, True)))),  # two over passes, split
        ((1,), (((0.0, False), (0, True)),)),          # a float crossing
        ((1,), (((0, 0.0), (0, 1.0)),)),               # float pass flags
        ((1,), (((0, 0), (0, 1)),)),                   # int pass flags
        ((1,), ((0, False, 0, True),)),                # not (crossing, over) pairs
        ((1,), None),
        # rows that a one-pass count would accept without its range and
        # exact-type tests
        ((1,), (((-1, True), (0, False)),)),           # index -1 wraps to a valid slot
        ((1,), (((True, False), (0, True)),)),         # a bool crossing
        ((1,), (((False, False), (0, True)),)),        # a bool crossing in range
        ((1.0,), (((0, False), (0, True)),)),          # a float sign
        ((1,), (([0, False], [0, True]),)),            # passes that are lists, not tuples
    ])
    def test_signs_and_visits_checked_when_built(self, signs, visits):
        with pytest.raises(FormatError):
            PlanarDiagram(((1, 2, 2, 1),), signs, visits)

    def test_visits_from_an_iterator_checked_when_built(self):
        with pytest.raises(FormatError):  # a bool crossing, read from a one-shot iterator
            PlanarDiagram(((1, 2, 2, 1),), (1,), iter([((False, False), (0, True))]))
        # the fields are stored as tuples: an iterator is not left exhausted,
        # and a diagram built from lists is hashable
        built = PlanarDiagram(((1, 2, 2, 1),), (1,), (((0, False), (0, True)),))
        for other in (PlanarDiagram(((1, 2, 2, 1),), (1,), iter([((0, False), (0, True))])),
                      PlanarDiagram([[1, 2, 2, 1]], [1], [[(0, False), (0, True)]])):
            assert other == built and hash(other) == hash(built)
            assert other.n_components == 1
            assert other.gauss_lines() == built.gauss_lines() == ["U1+ O1+"]

    @pytest.mark.parametrize("quadruples", [None, 1])
    def test_quadruples_without_a_length_refused_when_built(self, quadruples):
        with pytest.raises(FormatError):
            PlanarDiagram(quadruples, (1,), (((0, False), (0, True)),))

    def test_half_turned_crossings_change_neither_oracle(self):
        # (a, b, c, d) -> (c, d, a, b) reverses one under strand's PD
        # direction; smoothings and Fox colourings do not see orientation
        rng = random.Random(13)
        nontrivial = 0
        for _ in range(60):
            d = closure(random_small_matrix(rng, 12), rng.choice(list(PlatClosureStyle)))
            quads = tuple(q[2:] + q[:2] if rng.random() < 0.5 else q for q in d.quadruples)
            turned = PlanarDiagram(quads, d.signs, d.visits)
            assert kauffman_bracket(turned) == kauffman_bracket(d)
            assert determinant(turned) == determinant(d)
            nontrivial += quads != d.quadruples and determinant(d) > 1
        assert nontrivial > 12


class TestJones:
    def test_unknot(self):
        assert jones(unknot_diagram()) == LaurentPoly.one()

    def test_kink_invariance(self):
        # Reidemeister I at the diagram level: writhe normalization cancels
        assert jones(closure(TwistMatrix(2, [(1,)]))) == LaurentPoly.one()
        assert jones(closure(TwistMatrix(2, [(-1,)]))) == LaurentPoly.one()

    def test_trefoil_either_chirality(self):
        v = jones(closure(TwistMatrix(2, [(3,)])))
        left = LaurentPoly({-8: -1, -6: 1, -2: 1})   # -t^-4 + t^-3 + t^-1
        assert v in (left, left.reciprocal())

    def test_jones_canonical_matches_jones_on_max_writhe_diagram(self):
        d = closure(TwistMatrix(2, [(3,)]))
        assert max_writhe(d) == d.writhe
        assert jones_canonical(d) == jones(d)


class TestWrithe:
    def test_zero_crossings(self):
        assert unknot_diagram().writhe == 0

    @pytest.mark.parametrize("a", [1, -1])
    def test_kink_sign(self, a):
        assert abs(closure(TwistMatrix(2, [(a,)])).writhe) == 1

    @pytest.mark.parametrize("diagram, stored, best", [
        (lambda: closure(TwistMatrix(2, [(-2,)])), -2, 2),
        (lambda: closure(TwistMatrix(2, [(-4,)])), -4, 4),
        (lambda: braid_closure(BraidWord(6, [(2, 2), (4, -2)])), -4, 4),  # 3 components
    ])
    def test_max_writhe_on_links(self, diagram, stored, best):
        d = diagram()
        assert d.writhe == stored and max_writhe(d) == best

    def test_max_writhe_is_capped_before_it_enumerates_orientations(self):
        # a 13-wide chain of 2-twists: 24 crossings, 12 linked components
        d = closure(TwistMatrix(13, [(2,) * 12]))
        assert d.crossing_count == 24
        with pytest.raises(TooManyCrossings):
            max_writhe(d)

    def test_mirror_negates(self):
        rng = random.Random(23)
        for _ in range(20):
            mat = random_small_matrix(rng, 14)
            word = __import__("platknot").to_braid_word(mat)
            mirror = BraidWord(word.strands, tuple((i, -e) for i, e in word.runs))
            assert braid_closure(mirror).writhe == -braid_closure(word).writhe


class TestDeterminant:
    def test_unknot(self):
        assert determinant(unknot_diagram()) == 1

    @pytest.mark.parametrize("k", range(2, 9))
    def test_torus_two_k(self, k):
        assert determinant(closure(TwistMatrix(2, [(k,)]))) == k

    def test_split_product_convention(self):
        # trefoil plus a distant circle is a split link: determinant 0,
        # as |V(-1)| is, not the product 3 * 1 of its factors
        assert determinant(closure(TwistMatrix(3, [(3, 0)]))) == 0

    def test_full_size_plat_is_feasible(self, example_matrix):
        # far beyond the bracket cap, fine for Fox calculus
        d = closure(example_matrix)
        assert d.crossing_count == 44 and determinant(d) > 0


class TestOracleConsistency:
    def test_jones_at_minus_one_on_links(self):
        hopf = closure(TwistMatrix(2, [(2,)]))
        assert jones_at_minus_one(jones(hopf)) == 2
