from itertools import product

import pytest

from platknot.errors import (
    DimensionMismatch,
    DimensionsOutOfTheoremRange,
    FormatError,
    IncomparableSpheres,
)
from platknot.spheres import (
    VerticalSphere,
    disjointly_realizable,
    is_valid,
    maximal_collection,
    maximal_collection_size,
    regions_between,
)

S = lambda *c: VerticalSphere(c)


def all_valid_spheres(m, n):
    ranges = [range(1, (m - 2 if i % 2 == 1 else m - 1) + 1) for i in range(1, n + 1)]
    return [VerticalSphere(c) for c in product(*ranges)]


def arcs_must_cross(s, t):
    """Exhaustive arc-routing oracle on the grid.

    Place each arc at row i in the gap right of its c_i-th region, with a
    left/right offset inside the gap; monotone arcs are disjoint iff some
    offset assignment keeps their left-to-right order constant down the
    rows.  Forced crossing = no such assignment.
    """
    n = s.n
    for bits_s in range(1 << n):
        for bits_t in range(1 << n):
            keys_s = [(s.c[i], bits_s >> i & 1) for i in range(n)]
            keys_t = [(t.c[i], bits_t >> i & 1) for i in range(n)]
            order = [(-1 if ks < kt else 1) for ks, kt in zip(keys_s, keys_t)]
            if any(ks == kt for ks, kt in zip(keys_s, keys_t)):
                continue  # same gap slot: not a drawing
            if len(set(order)) == 1:
                return False
    return True


class TestValidity:
    def test_figure_examples(self):
        assert is_valid(S(1, 1, 1), 4, 3)
        assert is_valid(S(1, 2, 2), 4, 3)

    def test_odd_row_bound(self):
        assert not is_valid(S(3, 1, 1), 4, 3)  # odd rows allow at most m-2

    def test_even_row_bound(self):
        assert is_valid(S(1, 3, 1), 4, 3)
        assert not is_valid(S(1, 4, 1), 4, 3)

    def test_needs_width_three(self):
        assert not is_valid(S(1, 1, 1), 2, 3)

    @pytest.mark.parametrize("c", [(1.9, 2), (1, 2.0), (True, 2), ("1", 2), 5, None, 1.5])
    def test_counts_must_be_exact_ints(self, c):
        with pytest.raises(FormatError):
            VerticalSphere(c)

    @pytest.mark.parametrize("call", [
        lambda: is_valid((1, 1, 1), 4, 3),
        lambda: disjointly_realizable(S(1), (1,)),
        lambda: regions_between(S(1), None),
    ], ids=["is_valid", "disjointly_realizable", "regions_between"])
    def test_spheres_must_be_vertical_spheres(self, call):
        with pytest.raises(FormatError, match="VerticalSphere"):
            call()

    def test_wrong_length(self):
        assert not is_valid(S(1, 1), 4, 3)


class TestDisjointlyRealizable:
    def test_figure_pair(self):
        assert disjointly_realizable(S(1, 1, 1), S(1, 2, 2))

    def test_parallel_copies(self):
        assert disjointly_realizable(S(1, 2, 1), S(1, 2, 1))

    def test_incomparable_pair(self):
        assert not disjointly_realizable(S(1, 2, 1), S(2, 1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            disjointly_realizable(S(1, 1), S(1, 1, 1))

    def test_regions_between_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            regions_between(S(1, 1), S(1, 1, 1))

    @pytest.mark.parametrize("m,n", [(4, 3), (5, 3)])
    def test_matches_arc_routing_oracle(self, m, n):
        spheres = all_valid_spheres(m, n)
        for s, t in product(spheres, spheres):
            assert disjointly_realizable(s, t) == (not arcs_must_cross(s, t)), (s, t)

    def test_reflexive_symmetric(self):
        spheres = all_valid_spheres(4, 3)
        for s in spheres:
            assert disjointly_realizable(s, s)
        for s, t in product(spheres, spheres):
            assert disjointly_realizable(s, t) == disjointly_realizable(t, s)

    def test_lattice_closure(self):
        # componentwise min/max of valid spheres stay valid
        spheres = all_valid_spheres(4, 3)
        for s, t in product(spheres, spheres):
            meet = VerticalSphere(tuple(map(min, s.c, t.c)))
            join = VerticalSphere(tuple(map(max, s.c, t.c)))
            assert is_valid(meet, 4, 3) and is_valid(join, 4, 3)


class TestRegionsBetween:
    def test_figure_pair(self):
        assert regions_between(S(1, 1, 1), S(1, 2, 2)) == 2

    def test_zero_for_equal(self):
        assert regions_between(S(1, 2, 1), S(1, 2, 1)) == 0

    def test_total_region_count(self):
        # extremes cobound every region that is not first or last in its row
        m, n = 5, 5
        lo = S(*([1] * n))
        hi = VerticalSphere(tuple((m - 2 if i % 2 == 1 else m - 1)
                                  for i in range(1, n + 1)))
        assert regions_between(lo, hi) == maximal_collection_size(m, n) - 1

    def test_incomparable_rejected(self):
        with pytest.raises(IncomparableSpheres):
            regions_between(S(2, 1, 1), S(1, 2, 2))


class TestMaximalCollection:
    def test_m4_n3_size(self):
        assert len(maximal_collection(4, 3)) == 5

    def test_m4_n3_endpoints(self):
        chain = maximal_collection(4, 3)
        assert chain[0] == S(1, 1, 1)
        assert chain[-1] == S(2, 3, 2)

    def test_m5_n5_size(self):
        assert len(maximal_collection(5, 5)) == 13

    def test_unit_steps_and_disjointness(self):
        for m, n in [(4, 3), (5, 3), (6, 5)]:
            chain = maximal_collection(m, n)
            assert all(is_valid(s, m, n) for s in chain)
            for s, t in zip(chain, chain[1:]):
                assert regions_between(s, t) == 1
                assert disjointly_realizable(s, t)

    @pytest.mark.parametrize("fn", [maximal_collection, maximal_collection_size])
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (4, 1), (2, 3), (1, 1), (-5, 3)])
    def test_out_of_range(self, fn, m, n):
        with pytest.raises(DimensionsOutOfTheoremRange):
            fn(m, n)

    @pytest.mark.parametrize("fn", [maximal_collection, maximal_collection_size,
                                    lambda m, n: is_valid(S(1, 1, 1), m, n)])
    @pytest.mark.parametrize("m,n", [(4, 3.0), (4.0, 3), ("4", 3), (4, "3"), (True, 3), (4, None)])
    def test_dimensions_must_be_exact_ints(self, fn, m, n):
        with pytest.raises(FormatError):
            fn(m, n)
