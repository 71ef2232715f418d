import hashlib
import random

import pytest
from hypothesis import given

from platknot.braid import (
    CROSSING_BUDGET,
    BraidWord,
    compose,
    format_word,
    free_reduce,
    inverse,
    word_json,
)
from platknot.errors import IndexRange, StrandMismatch, TooManyCrossings
from platknot.hilden import random_hilden_element

from conftest import address_space_cap, letter_words, ref_letters, run_words


def W(strands, *pairs):
    return BraidWord(strands, pairs)


words = letter_words | run_words


def test_random_hilden_element_words_are_pinned():
    # digest of the letter sequences drawn before words were stored as runs
    h = hashlib.sha256()
    for strands in range(2, 13, 2):
        for length in range(40):
            for seed in range(50):
                w = random_hilden_element(strands, length, random.Random(seed))
                h.update((",".join(f"{i}:{s}" for i, s in ref_letters(w.runs)) + "\n").encode())
    assert h.hexdigest() == "d6fc66e80f39f2f53a64eab4cdf386cb5e192b94a97e32dc8f4db934488c9502"


class TestConstruction:
    def test_runs_are_normalised(self):
        w = BraidWord(6, [(2, 1), (2, 2), (3, 0), (1, -1), (1, 1)])
        assert w.runs == ((2, 3), (1, -1), (1, 1))
        assert len(w) == 5

    @pytest.mark.parametrize("strands", [8.0, True, "8", 7, 0])
    def test_strand_count_must_be_even_int(self, strands):
        with pytest.raises(IndexRange):
            BraidWord(strands)

    @pytest.mark.parametrize("run", [(1.0, 1), (1, 1.0), (True, 1), (1, "2")])
    def test_non_int_run_entries_rejected(self, run):
        with pytest.raises(IndexRange):
            BraidWord(4, [run])

    # the last two: generator indices outside 1..3
    @pytest.mark.parametrize("runs", [[5], [(1, 2, 3)], [(1,)], None, 5, [(4, 1)], [(0, -1)]])
    def test_malformed_runs_rejected(self, runs):
        with pytest.raises(IndexRange):
            BraidWord(4, runs)

    def test_len_beyond_sys_maxsize_is_too_many_crossings(self):
        with pytest.raises(TooManyCrossings):
            len(BraidWord(4, [(1, 10 ** 19)]))

    def test_letter_view_is_bounded_before_expansion(self):
        w = BraidWord(4, [(1, 10 ** 9)])
        assert len(w) == 10 ** 9 > CROSSING_BUDGET
        with address_space_cap(), pytest.raises(TooManyCrossings):
            word_json(w)
        assert len(word_json(BraidWord(4, [(1, CROSSING_BUDGET)]))["word"]) == CROSSING_BUDGET
        with address_space_cap(), pytest.raises(TooManyCrossings):
            word_json(BraidWord(4, [(1, 10 ** 19)]))  # beyond sys.maxsize


class TestCompose:
    def test_concatenates_without_reduction(self):
        w = compose(W(4, (1, 1)), W(4, (1, -1)))
        assert len(w) == 2

    def test_merges_runs_at_the_seam(self):
        assert compose(W(4, (1, 2)), W(4, (1, 3), (2, 1))).runs == ((1, 5), (2, 1))

    def test_identity_element(self):
        w = BraidWord(4, [(2, 3)])
        assert compose(BraidWord(4), w) == w

    def test_h2_prefix_example(self):
        # h2_1 expansion composed with sigma_1
        h2 = W(8, (2, 1), (3, 1), (1, 1), (2, 1))
        assert compose(h2, W(8, (1, 1))) == W(8, (2, 1), (3, 1), (1, 1), (2, 1), (1, 1))

    def test_several_words_make_one_word(self):
        assert compose(W(4, (1, 2)), W(4, (1, 3), (2, 1)), W(4, (2, 4)), W(4)) == \
            W(4, (1, 5), (2, 5))
        assert compose(W(4, (3, -1))) == W(4, (3, -1))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            compose(BraidWord(4), BraidWord(6))

    @pytest.mark.parametrize("strands", [(4, 4, 6), (4, 6, 4)])
    def test_strand_mismatch_in_a_later_word(self, strands):
        with pytest.raises(StrandMismatch):
            compose(*(BraidWord(s) for s in strands))


class TestInverse:
    def test_reverse_and_negate(self):
        assert inverse(W(4, (1, 1), (2, -1))) == W(4, (2, 1), (1, -1))

    def test_empty(self):
        assert inverse(BraidWord(4)) == BraidWord(4)

    @given(words)
    def test_word_times_inverse_reduces_to_identity(self, w):
        assert free_reduce(compose(w, inverse(w))).runs == ()

    @given(words)
    def test_involution_up_to_reduction(self, w):
        assert free_reduce(inverse(inverse(w))) == free_reduce(w)


class TestFreeReduce:
    def test_cancels_adjacent_pair(self):
        assert free_reduce(W(4, (1, 1), (1, -1), (2, 1))) == W(4, (2, 1))

    def test_nested_cancellation(self):
        assert free_reduce(W(4, (1, 1), (2, 1), (2, -1), (1, -1))).runs == ()

    def test_partial_cancellation_of_runs(self):
        assert free_reduce(W(4, (1, 3), (2, 2), (2, -5), (1, 1))).runs == ((1, 3), (2, -3), (1, 1))

    def test_braid_relation_not_applied(self):
        w = W(4, (1, 1), (2, 1), (1, 1))
        assert free_reduce(w) == w

    @given(words)
    def test_idempotent_and_nonincreasing(self, w):
        r = free_reduce(w)
        assert len(r) <= len(w)
        assert free_reduce(r) == r

    @given(words)
    def test_keeps_exponent_sum_and_strand_count(self, w):
        # what lets the coset harness skip reducing a translate whose
        # exponent sum differs from word 2's
        r = free_reduce(w)
        assert (r.strands, sum(e for _, e in r.runs)) == (w.strands, sum(e for _, e in w.runs))


class TestTextSyntax:
    def test_empty_formats_as_marker(self):
        assert format_word(BraidWord(4)) == "(empty)"

    def test_syllables_merge_runs(self):
        w = W(4, (2, 1), (2, 1), (1, -1))
        assert list(w.runs) == [(2, 2), (1, -1)]
