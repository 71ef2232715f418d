import random
import tracemalloc
from types import SimpleNamespace

import pytest

from platknot import TwistMatrix, braid_closure, hilden
from platknot.braid import BraidWord, compose
from platknot.errors import (DimensionsOutOfTheoremRange, FormatError, IndexParity, IndexRange,
                             NotHighlyTwisted, TooMuchWork)
from platknot.hilden import (
    HildenMove,
    apply_moves,
    coset_consistency,
    expand,
    hilden_generators,
    random_hilden_element,
)
from platknot.invariants import determinant

from conftest import random_matrix, ref_letters, ref_permutation

BRIDGE_PARTITION_8 = {frozenset({1, 2}), frozenset({3, 4}),
                      frozenset({5, 6}), frozenset({7, 8})}


def partition_image(word):
    perm = ref_permutation(word.strands, ref_letters(word.runs))
    return {frozenset({perm[0], perm[1]}), frozenset({perm[2], perm[3]}),
            frozenset({perm[4], perm[5]}), frozenset({perm[6], perm[7]})}


class TestExpand:
    def test_h1(self):
        assert list(expand(HildenMove("h1", 3), 8).runs) == [(3, 1)]

    def test_h2(self):
        assert list(expand(HildenMove("h2", 1), 8).runs) == [(2, 1), (3, 1), (1, 1), (2, 1)]

    def test_h3(self):
        assert list(expand(HildenMove("h3", 1), 8).runs) == [(2, 1), (1, 1), (3, -1), (2, -1)]

    def test_h4(self):
        assert list(expand(HildenMove("h4", 1), 8).runs) == [(2, -1), (1, -1), (3, 1), (2, 1)]

    def test_even_index_rejected(self):
        with pytest.raises(IndexParity):
            expand(HildenMove("h1", 2), 8)

    def test_h2_at_last_bridge_rejected(self):
        with pytest.raises(IndexRange):
            expand(HildenMove("h2", 7), 8)

    def test_h1_allowed_at_last_bridge(self):
        assert len(expand(HildenMove("h1", 7), 8)) == 1

    @pytest.mark.parametrize("index", ["1", 1.0, True, None])
    def test_index_must_be_exact_int(self, index):
        with pytest.raises(IndexRange):
            HildenMove("h2", index)

    @pytest.mark.parametrize("mv", hilden_generators(8))
    def test_generators_preserve_bridge_partition(self, mv):
        assert partition_image(expand(mv, 8)) == BRIDGE_PARTITION_8

    def test_h3_h4_are_not_freely_inverse(self):
        # as written they only cancel up to braid relations, which are
        # never applied here; the partition check above is the real contract
        from platknot.braid import free_reduce
        prod = compose(expand(HildenMove("h3", 1), 8), expand(HildenMove("h4", 1), 8))
        assert free_reduce(prod).runs != ()


class TestApplyMoves:
    def test_no_moves_is_identity(self):
        b = BraidWord(4, [(2, -3)])
        assert apply_moves(b) == b

    def test_left_h1_example(self):
        b = BraidWord(4, [(2, -3)])
        out = apply_moves(b, left=[HildenMove("h1", 1)])
        assert list(out.runs) == [(1, 1), (2, -3)]

    def test_left_moves_multiply_in_order(self):
        b = BraidWord(8)
        out = apply_moves(b, left=[HildenMove("h1", 1), HildenMove("h1", 3)])
        assert list(out.runs) == [(1, 1), (3, 1)]

    def test_matches_composing_one_move_at_a_time(self):
        rng = random.Random(31)
        gens = hilden_generators(8)
        base = BraidWord(8, [(2, -3), (4, 2), (6, 1), (3, 1)])
        for _ in range(20):
            left = [gens[rng.randrange(13)] for _ in range(rng.randint(0, 5))]
            right = [gens[rng.randrange(13)] for _ in range(rng.randint(0, 5))]
            want = base
            for mv in reversed(left):
                want = compose(expand(mv, 8), want)
            for mv in right:
                want = compose(want, expand(mv, 8))
            assert apply_moves(base, left, right) == want

    def test_component_count_preserved_even_for_split_closures(self):
        rng = random.Random(19)
        base = BraidWord(8, [(2, -3), (5, 2)])  # split diagram
        d0 = braid_closure(base)
        assert determinant(d0) == 0
        for _ in range(20):
            mv = hilden_generators(8)[rng.randrange(13)]
            d = braid_closure(apply_moves(base, left=[mv]))
            assert d.n_components == d0.n_components
            assert determinant(d) == 0


class TestRandomElement:
    def test_zero_length_is_identity(self):
        assert random_hilden_element(8, 0, random.Random(1)) == BraidWord(8)

    def test_deterministic_in_seed(self):
        a = random_hilden_element(8, 6, random.Random(123))
        b = random_hilden_element(8, 6, random.Random(123))
        assert a == b
        assert a != random_hilden_element(8, 6, random.Random(124))

    def test_golden_word(self):
        from platknot.braid import format_word
        w = random_hilden_element(8, 4, random.Random(2024))
        assert format_word(w) == "s2 s1 s3^-1 s2^-1 s4^-1 s5^-1 s3 s4 s7^-1 s6^-1 s7^-1 s5 s6"

    @pytest.mark.parametrize("strands", [*range(2, 17, 2), 256])
    def test_generator_table_holds_the_expanded_generators(self, strands):
        assert hilden._generator_words(strands) == tuple(
            expand(g, strands) for g in hilden_generators(strands))

    @pytest.mark.parametrize("strands", [0, 3, -2, 8.0, True])
    def test_bad_strand_count_rejected_before_table_or_draw(self, strands, monkeypatch):
        # 8.0 and True hash like 8 and 1, so the check must come before the table
        def unreachable(*args):
            raise AssertionError("got past the strand check")
        monkeypatch.setattr(hilden, "_generator_words", unreachable)
        with pytest.raises(IndexRange):
            random_hilden_element(strands, 3, None)  # a bad rng too: strands are named first

    @pytest.mark.parametrize("length", [2.5, 2.0, True, "2", -1])
    def test_length_must_be_a_nonnegative_int(self, length):
        with pytest.raises(FormatError):
            random_hilden_element(4, length, random.Random(0))

    @pytest.mark.parametrize("rng", [0, "0", 0.5, None, random],
                             ids=["int", "str", "float", "None", "module"])
    def test_rng_must_be_a_generator(self, rng):
        with pytest.raises(FormatError):
            random_hilden_element(4, 2, rng)

    def test_the_generator_is_advanced_unless_nothing_is_drawn(self):
        for seed in range(50):
            for length in range(9):
                rng = random.Random(seed)
                random_hilden_element(8, length, rng)
                assert (rng.getstate() == random.Random(seed).getstate()) == (length == 0)

    def test_samples_preserve_bridge_partition(self):
        # 1000 samples across seeds; the subgroup must fix {{1,2},...,{7,8}}
        for seed in range(250):
            w = random_hilden_element(8, 4, random.Random(seed))
            assert partition_image(w) == BRIDGE_PARTITION_8


def thick_matrix(rows):
    return TwistMatrix(4, rows)


M1 = thick_matrix([(-4, -4, -4), (-4, 6, -4, -4), (-4, -4, -6)])
M1_ROT = thick_matrix([(-4, -4, -6), (-4, 6, -4, -4), (-4, -4, -4)])  # H image
M2 = thick_matrix([(-4, -4, -4), (-4, 6, -4, -4), (-4, -4, -7)])      # a_33 changed
# outside the theorem's hypotheses: a width-2 plat, and M1 with one |a| = 3
FLYPE = TwistMatrix(2, [(5,), (-4, 0), (6,)])
M1_LOW = thick_matrix([(-4, -3, -4), (-4, 6, -4, -4), (-4, -4, -6)])


class TestCosetConsistency:
    def test_same_word_trivially_consistent(self):
        report = coset_consistency(M1, M1, samples=4, seed=2)
        assert report.verdict == "same_coset"
        assert report.consistent

    def test_rotation_image_is_same_coset(self):
        report = coset_consistency(M1, M1_ROT, samples=4, seed=2)
        assert report.verdict == "same_coset"
        assert report.consistent

    def test_different_determinants_separate(self):
        report = coset_consistency(M1, M2, samples=4, seed=2)
        assert report.verdict == "provably_distinct"
        assert report.consistent
        assert report.invariants1["determinant"] != report.invariants2["determinant"]

    def test_rotation_equal_width_2_pair_is_same_coset(self):
        report = coset_consistency(FLYPE, TwistMatrix(2, [(6,), (0, -4), (5,)]),  # HV image
                                   samples=4, seed=2)
        assert report.verdict == "same_coset" and report.rotation_related
        assert report.consistent and report.invariants1["determinant"] == 131

    @pytest.mark.parametrize("mat1, mat2, error", [
        (FLYPE, TwistMatrix(2, [(5,), (-2, -2), (6,)]), DimensionsOutOfTheoremRange),  # a flype
        (M1, M1_LOW, NotHighlyTwisted),
    ], ids=["flype", "low"])
    def test_outside_the_theorem_and_not_rotation_equal_raises(self, mat1, mat2, error):
        with pytest.raises(error):
            coset_consistency(mat1, mat2, samples=4, seed=2)

    # a negative seed would draw what its positive twin draws
    @pytest.mark.parametrize("samples,seed", [(2.5, 0), (2.0, 0), (False, 0), (2, 0.5), (2, "0"),
                                              (-1, 0), (2, -3)])
    def test_samples_and_seed_must_be_exact_ints(self, samples, seed):
        with pytest.raises(FormatError):
            coset_consistency(M1, M1, samples=samples, seed=seed)

    @pytest.mark.parametrize("samples", [0, 1, 6])
    def test_one_generator_per_call(self, samples, monkeypatch):
        built = []

        class Counting(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)
        monkeypatch.setattr(hilden, "random", SimpleNamespace(Random=Counting))
        coset_consistency(M1, M2, samples=samples, seed=5)
        assert built == [(5,)]

    def test_same_seed_same_translates_and_report(self, monkeypatch):
        words, invariants_of = [], hilden._closure_invariants

        def recording(word):
            words.append(word)
            return invariants_of(word)
        monkeypatch.setattr(hilden, "_closure_invariants", recording)
        runs = []
        for seed in (9, 9, 10):
            words.clear()
            runs.append((coset_consistency(M1, M1_ROT, samples=5, seed=seed), words[:]))
        assert runs[0] == runs[1]
        assert runs[0][1] != runs[2][1]

    def test_summary_mentions_verdict(self):
        report = coset_consistency(M1, M1, samples=2, seed=0)
        assert "verdict: same_coset" in report.summary()

    def test_mirror_image_is_consistent(self):
        # the harness cannot tell a plat from its mirror image: neither the
        # component count nor the determinant sees chirality
        mirror = thick_matrix([tuple(-a for a in row) for row in M1.rows])
        report = coset_consistency(M1, mirror, samples=4, seed=2)
        assert report.verdict == "consistent" and not report.rotation_related
        assert report.consistent
        assert report.invariants1 == report.invariants2 == {"components": 4,
                                                             "determinant": 1140352}


def test_coset_cost_does_not_grow_with_the_twist():
    # |a| around 10^5 is about 1.2M crossings; runs keep the harness at a
    # few hundred regions' worth of memory
    rng = random.Random(41)
    rows = [tuple(rng.choice([-1, 1]) * rng.randint(90_000, 110_000) for _ in range(w))
            for w in (3, 4, 3)]
    mat1, mat2 = thick_matrix(rows), thick_matrix(rows[:2] + [rows[2][:2] + (rows[2][2] + 1,)])
    tracemalloc.start()
    try:
        report = coset_consistency(mat1, mat2, samples=20, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.consistent and report.verdict == "provably_distinct"
    assert peak < 2_000_000


def test_coset_work_is_bounded_before_any_colouring(monkeypatch):
    # 120 colouring bits for M1, so 40,000 samples are far over the budget
    def unreachable(*args):
        raise AssertionError("coloured before the work bound")
    monkeypatch.setattr(hilden, "closure_sweep", unreachable)
    with pytest.raises(TooMuchWork):
        coset_consistency(M1, M1, samples=40_000)
    with pytest.raises(AssertionError, match="coloured"):  # within the budget it sweeps
        coset_consistency(M1, M1, samples=0)


def test_coset_budget_admits_a_12x13_plat_with_twists_up_to_2e5():
    mat = random_matrix(random.Random(12), 12, 13, 150_000, 200_000)
    report = coset_consistency(mat, mat, samples=20, seed=1)
    assert report.consistent and report.verdict == "same_coset"
