"""Vertical-sphere combinatorics.

A vertical sphere of a width-m, height-n plat meets the projection plane
in a monotone top-to-bottom arc with c_i twist regions to its left at row
i, and at least one region on each side at every level.  Two spheres are
treated as disjointly realizable exactly when their count vectors are
componentwise comparable; this is a modeling choice (the monotone-arc
geometry forces a crossing whenever the order of two arcs swaps between
rows) validated by exhaustive arc routing in the tests.

A maximal collection is a componentwise chain from S(1,...,1) to
S(m-2, m-1, m-2, ..., m-2) in unit steps, so consecutive members cobound
exactly one twist region, and its size is
ceil(n/2)*(m-3) + floor(n/2)*(m-2) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FormatError,
    IncomparableSpheres,
    InternalError,
    require_ints,
    shown,
)
from .plat import check_theorem_range, row_width

__all__ = [
    "VerticalSphere",
    "is_valid",
    "disjointly_realizable",
    "regions_between",
    "maximal_collection",
    "maximal_collection_size",
]


@dataclass(frozen=True)
class VerticalSphere:
    """Counts of twist regions to the left of the arc, one per row."""

    c: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.c)
        require_ints(FormatError, "sphere counts", c)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.c)

    def __str__(self) -> str:
        return f"S({','.join(str(x) for x in self.c)})"


def is_valid(s: VerticalSphere, m: int, n: int) -> bool:
    """Bounds of the defining arc: 1 <= c_i <= m-2 (odd rows) or m-1 (even),
    with m >= 3 so that both sides are nonempty."""
    require_ints(FormatError, "plat width and height", (m, n))
    if m < 3 or s.n != n:
        return False
    return all(1 <= x <= row_width(m, i) - 1 for i, x in enumerate(s.c, start=1))


def disjointly_realizable(s: VerticalSphere, t: VerticalSphere) -> bool:
    """Can the two spheres be drawn with disjoint arcs?  True iff the count
    vectors are componentwise comparable (equal vectors run in parallel)."""
    if s.n != t.n:
        raise DimensionMismatch(f"heights differ: {s.n} vs {t.n}")
    return all(a <= b for a, b in zip(s.c, t.c)) or \
        all(b <= a for a, b in zip(s.c, t.c))


def regions_between(s: VerticalSphere, t: VerticalSphere) -> int:
    """Number of twist regions strictly between two nested spheres (s <= t)."""
    if s.n != t.n:
        raise DimensionMismatch(f"heights differ: {s.n} vs {t.n}")
    if not all(a <= b for a, b in zip(s.c, t.c)):
        raise IncomparableSpheres(f"{shown(s, str)} is not componentwise <= {shown(t, str)}")
    return sum(b - a for a, b in zip(s.c, t.c))


def maximal_collection_size(m: int, n: int) -> int:
    """ceil(n/2)*(m-3) + floor(n/2)*(m-2) + 1, for m >= 4 and odd n >= 3."""
    require_ints(FormatError, "plat width and height", (m, n))
    check_theorem_range(m, n)
    return -(-n // 2) * (m - 3) + (n // 2) * (m - 2) + 1


def maximal_collection(m: int, n: int) -> list[VerticalSphere]:
    """The canonical maximal chain of pairwise disjoint, pairwise
    non-isotopic vertical spheres, from S(1,...,1) to S(m-2,m-1,...,m-2).

    Steps raise one coordinate by one, top row first, so consecutive
    spheres cobound exactly one twist region.  Requires m >= 4 and odd
    n >= 3; width 3 would give rows with no room to move.
    """
    size = maximal_collection_size(m, n)  # checks m and n
    counts = [1] * n
    chain = [VerticalSphere(tuple(counts))]
    for i in range(1, n + 1):
        while counts[i - 1] < row_width(m, i) - 1:
            counts[i - 1] += 1
            chain.append(VerticalSphere(tuple(counts)))
    if len(chain) != size:
        raise InternalError(f"chain of {len(chain)} spheres misses the size formula")
    return chain
