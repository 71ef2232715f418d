import hashlib
import random

import pytest

from platknot import (
    PlatClosureStyle,
    TwistMatrix,
    braid_closure,
    closure,
    component_count,
    is_highly_twisted,
    to_braid_word,
    validate,
)
from platknot.braid import CROSSING_BUDGET, BraidWord
from platknot.errors import (
    EvenHeight,
    FormatError,
    TooManyCrossings,
    WidthTooSmall,
    WrongRowLength,
)
from platknot.invariants import BRACKET_CAP, max_writhe

from conftest import address_space_cap, random_small_matrix

STYLES = list(PlatClosureStyle)


def closure_digest(words) -> str:
    """sha256 over every field a closure reports, for each word in each style;
    the maximal writhe (None above its cap) as well."""
    h = hashlib.sha256()
    for word in words:
        for style in STYLES:
            d = braid_closure(word, style)
            best = max_writhe(d) if d.crossing_count <= BRACKET_CAP else None
            h.update(repr((d.pd_lines(), d.gauss_lines(), d.signs, d.n_components,
                           d.free_loops, best)).encode() + b"\n")
    return h.hexdigest()


class TestValidate:
    def test_example_matrix_ok(self, example_matrix):
        validate(example_matrix)

    def test_even_height(self):
        with pytest.raises(EvenHeight):
            validate(TwistMatrix(4, [(-4, -4, -4), (-4, -4, -4, -4)]))

    def test_wrong_row_length(self):
        bad = TwistMatrix(4, [(-4, -4, -4), (-4, -4, -4), (-4, -4, -4)])
        with pytest.raises(WrongRowLength) as exc:
            validate(bad)
        assert exc.value.row == 2

    def test_width_too_small(self):
        with pytest.raises(WidthTooSmall):
            validate(TwistMatrix(1, [()]))


class TestHighlyTwisted:
    def test_example_is_4_highly_twisted(self, example_matrix):
        assert is_highly_twisted(example_matrix, 4)

    def test_example_is_not_5_highly_twisted(self, example_matrix):
        assert not is_highly_twisted(example_matrix, 5)

    def test_any_matrix_is_0_highly_twisted(self, example_matrix):
        assert is_highly_twisted(example_matrix, 0)


class TestToBraidWord:
    def test_example_expansion(self, example_matrix):
        w = to_braid_word(example_matrix)
        assert w.strands == 8
        assert list(w.runs) == [(2, 4), (4, 4), (6, 4),
                                (1, 4), (3, -6), (5, 4), (7, 4),
                                (2, 4), (4, 4), (6, 6)]

    def test_all_zero_gives_identity(self):
        w = to_braid_word(TwistMatrix(4, [(0, 0, 0), (0, 0, 0, 0), (0, 0, 0)]))
        assert w.strands == 8 and len(w) == 0

    def test_single_region_sign_convention(self):
        # a_11 = 3 on width 2 becomes sigma_2^-3 on 4 strands
        w = to_braid_word(TwistMatrix(2, [(3,)]))
        assert w.strands == 4
        assert list(w.runs) == [(2, -3)]


class TestClosure:
    def test_crossing_budget_checked_before_expansion(self):
        # 10^9 crossings: the check must fire before anything per crossing exists
        mat = TwistMatrix(2, [(10 ** 9,)])
        assert len(to_braid_word(mat)) == 10 ** 9
        assert component_count(mat) == 2  # the (2, 10^9) torus link
        for style in STYLES:
            with address_space_cap(), pytest.raises(TooManyCrossings) as exc:
                closure(mat, style)
            assert exc.value.cap == CROSSING_BUDGET

    def test_crossing_count_is_total_twist(self, example_matrix):
        d = closure(example_matrix)
        assert d.crossing_count == sum(abs(a) for a in example_matrix.entries())

    def test_trefoil(self):
        d = closure(TwistMatrix(2, [(3,)]))
        assert d.crossing_count == 3 and d.n_components == 1

    def test_all_zero_standard_is_m_circles(self):
        d = closure(TwistMatrix(4, [(0, 0, 0), (0, 0, 0, 0), (0, 0, 0)]))
        assert d.crossing_count == 0 and d.n_components == 4 and d.free_loops == 4

    def test_all_zero_even_style_single_circle(self):
        mat = TwistMatrix(4, [(0, 0, 0), (0, 0, 0, 0), (0, 0, 0)])
        assert closure(mat, PlatClosureStyle.EVEN).n_components == 1

    def test_every_arc_appears_twice(self, example_matrix):
        d = closure(example_matrix)
        seen = {}
        for quad in d.quadruples:
            for a in quad:
                seen[a] = seen.get(a, 0) + 1
        assert set(seen) == set(range(1, 2 * d.crossing_count + 1))
        assert all(v == 2 for v in seen.values())

    def test_pd_golden_trefoil(self):
        d = closure(TwistMatrix(2, [(3,)]))
        assert d.pd_lines() == ["X[1,5,2,4]", "X[5,3,6,2]", "X[3,1,4,6]"]

    def test_pd_deterministic(self, example_matrix):
        a = closure(example_matrix)
        b = closure(example_matrix)
        assert a == b

    def test_gauss_code_trefoil(self):
        d = closure(TwistMatrix(2, [(3,)]))
        (line,) = d.gauss_lines()
        toks = line.split()
        assert len(toks) == 6
        assert sorted(toks) == sorted(["O1+", "U2+", "O3+", "U1+", "O2+", "U3+"])

    def test_twist_region_locality(self, example_matrix):
        # crossings come in twist-region runs; consecutive crossings of one
        # region share exactly two arcs (the strands stay inside the region)
        d = closure(example_matrix)
        k = 0
        for a in example_matrix.entries():
            run = range(k, k + abs(a))
            for s, t in zip(run, run[1:]):
                shared = set(d.quadruples[s]) & set(d.quadruples[t])
                assert len(shared) == 2
            k += abs(a)
        assert k == d.crossing_count


    def test_bridge_pairs_of_each_style(self):
        plain, shifted = [(1, 2), (3, 4), (5, 6)], [(2, 3), (4, 5), (6, 1)]
        assert PlatClosureStyle.STANDARD.bridges(6) == (plain, plain)
        assert PlatClosureStyle.EVEN.bridges(6) == (plain, shifted)
        assert PlatClosureStyle.DOUBLY_EVEN.bridges(6) == (shifted, shifted)

    def test_closure_conventions_pinned(self):
        # bridge pairs, traversal order, orientation and crossing signs of
        # all three styles, over seeded words on 2-10 strands
        rng = random.Random(9)
        words = []
        for _ in range(400):
            strands = rng.choice((2, 4, 6, 8, 10))
            words.append(BraidWord(strands, [(rng.randint(1, strands - 1), rng.choice((-2, -1, 1, 2)))
                                             for _ in range(rng.randint(0, 10))]))
        assert closure_digest(words) == (
            "010beac0e5b2cdb3d82b515e602d6cab9879353b1419ddcdc998f0ff6282e954")

    def test_plat_closure_conventions_pinned(self):
        # the same fields over the words of seeded plats: m 2-8, odd n 1-5,
        # entries -9..9 with zeros, so long twist regions and free circles
        rng = random.Random(11)
        words = []
        for _ in range(120):
            m, n = rng.randint(2, 8), rng.choice((1, 3, 5))
            words.append(to_braid_word(TwistMatrix(m, [
                [rng.randint(-9, 9) for _ in range(m - i % 2)] for i in range(1, n + 1)])))
        assert closure_digest(words) == (
            "5926d6d54139b2f0ac1c2d6115f5e79b2acf7d11834912cc8117b09653ba72a5")


class TestComponentCount:
    def test_example_has_four_components(self, example_matrix):
        assert component_count(example_matrix) == 4

    @pytest.mark.parametrize("a,expected", [(3, 1), (4, 2)])
    def test_torus_links(self, a, expected):
        assert component_count(TwistMatrix(2, [(a,)])) == expected

    @pytest.mark.parametrize("style", STYLES)
    def test_agrees_with_diagram_traversal(self, style):
        rng = random.Random(42)
        for _ in range(60):
            mat = random_small_matrix(rng, 18)
            walk = component_count(mat, style)
            diagram = closure(mat, style)
            assert walk == diagram.n_components, (mat, style)


class TestTextFormat:
    def test_round_trip(self, example_matrix):
        assert TwistMatrix.from_text(example_matrix.to_text()) == example_matrix

    def test_comments_and_blank_lines(self):
        text = "# width and height\n4 3\n\n-4 -4 -4  # row 1\n-4 6 -4 -4\n-4 -4 -6\n"
        assert TwistMatrix.from_text(text) == TwistMatrix(
            4, [(-4, -4, -4), (-4, 6, -4, -4), (-4, -4, -6)])

    def test_row_count_mismatch(self):
        with pytest.raises(FormatError):
            TwistMatrix.from_text("4 3\n-4 -4 -4\n")

    def test_json_round_trip(self, example_matrix):
        assert TwistMatrix.from_json_dict(example_matrix.to_json_dict()) == example_matrix

    @pytest.mark.parametrize("entry", [1.5, 2.0, True, "3", None])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(FormatError):
            TwistMatrix(2, [(entry,)])

    @pytest.mark.parametrize("m", [4.0, True, "4"])
    def test_non_integer_width_rejected(self, m):
        with pytest.raises(FormatError):
            TwistMatrix(m, [(-4, -4, -4), (-4, 6, -4, -4), (-4, -4, -6)])
