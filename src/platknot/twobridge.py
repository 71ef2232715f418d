"""Continued fractions with all |a_i| >= 3 and 2-bridge classification.

Exact rationals only (``fractions.Fraction``): the uniqueness of these
expansions is an exact statement, proved by the bound
|[0; a_1, a_2, ...]| <= (3 - sqrt(5))/2 < 1/2, which makes each partial
quotient the unique nearest integer.  Reconstruction therefore never
backtracks: the first ambiguous or undersized coefficient is fatal.

A 2-bridge knot or link with twist coefficients a_1..a_n (n odd) is
classified by the unordered pair of rationals obtained by evaluating the
coefficient list with interior alternating signs, forwards and backwards;
list reversal (a rotation of the diagram) swaps the two expansions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    DivisionByZeroTail,
    InternalError,
    InvalidCoefficients,
    NotRepresentable,
)
from .plat import TwistMatrix, validate

__all__ = [
    "cf_evaluate",
    "cf_reconstruct",
    "schubert_pair",
    "twobridge_equivalent",
    "left_boundary_coeffs",
    "right_boundary_coeffs",
]


def cf_evaluate(coeffs: Sequence[int]) -> Fraction:
    """Value of the continued fraction [a_0; a_1, ..., a_k] of exact ints
    (InvalidCoefficients otherwise), exactly.

    Evaluated tail-first; raises DivisionByZeroTail if some tail is zero
    where a reciprocal is needed (e.g. [1; 1, -1]).
    """
    if not coeffs:
        raise InvalidCoefficients("empty continued fraction")
    if set(map(type, coeffs)) - {int}:  # exact type, as _check_coeffs: no bools, no floats
        raise InvalidCoefficients(f"coefficients must be integers, got {list(coeffs)}")
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        if value == 0:
            raise DivisionByZeroTail(f"tail of {list(coeffs)} evaluates to 0")
        value = a + 1 / value
    return value


def cf_reconstruct(r: Fraction | int) -> tuple[int, ...]:
    """The unique expansion of ``r`` with every |a_i| >= 3, if it exists.

    Each coefficient is the nearest integer to the current remainder
    (unique whenever the fractional distance is not exactly 1/2); the
    recursion continues on the reciprocal of the fractional part.  Raises
    NotRepresentable on an ambiguous rounding or a coefficient of modulus
    less than 3 -- uniqueness means backtracking could never help.
    """
    r = Fraction(r)
    coeffs: list[int] = []
    while True:
        q, rem = divmod(r.numerator, r.denominator)
        if 2 * rem == r.denominator:
            raise NotRepresentable(
                f"{r} is equidistant from {q} and {q + 1}; no nearest integer")
        a = q if 2 * rem < r.denominator else q + 1
        if abs(a) < 3:
            raise NotRepresentable(
                f"coefficient {a} of modulus < 3 at position {len(coeffs)}")
        coeffs.append(a)
        tail = r - a
        if tail == 0:
            return tuple(coeffs)
        if 2 * abs(tail.numerator) >= tail.denominator:
            raise InternalError(f"nearest-integer tail {tail} is not below 1/2")
        r = 1 / tail


def _check_coeffs(coeffs: Sequence[int]) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    if set(map(type, coeffs)) - {int}:  # exact type, as TwistMatrix: no bools, no floats
        raise InvalidCoefficients(f"coefficients must be integers, got {list(coeffs)}")
    if len(coeffs) % 2 == 0:
        raise InvalidCoefficients(f"need an odd number of coefficients, got {len(coeffs)}")
    if any(abs(a) < 3 for a in coeffs):
        raise InvalidCoefficients("every |a_i| >= 3 is required")
    return coeffs


def _alternate(coeffs: Sequence[int]) -> list[int]:
    # [a_1, -a_2, a_3, ..., -a_(n-1), a_n]
    return [a if i % 2 == 0 else -a for i, a in enumerate(coeffs)]


def schubert_pair(coeffs: Sequence[int]) -> frozenset[Fraction]:
    """Classifying pair {r, r'} of the 2-bridge link with these twist counts.

    r evaluates the interior-alternating signed list forwards, r' the same
    list backwards; the unordered pair is a complete invariant, and it is
    reversal-invariant by construction.
    """
    coeffs = _check_coeffs(coeffs)
    r = cf_evaluate(_alternate(coeffs))
    r_rev = cf_evaluate(_alternate(tuple(reversed(coeffs))))
    return frozenset((r, r_rev))


def twobridge_equivalent(c1: Sequence[int], c2: Sequence[int]) -> bool:
    """True iff the two coefficient lists give the same 2-bridge link,
    i.e. iff c2 equals c1 or its reversal."""
    return schubert_pair(c1) == schubert_pair(c2)


def left_boundary_coeffs(mat: TwistMatrix) -> tuple[int, ...]:
    """First entry of every row, top to bottom: the twist counts of the
    2-bridge completion of the leftmost part of the plat."""
    validate(mat)
    return tuple(row[0] for row in mat.rows)


def right_boundary_coeffs(mat: TwistMatrix) -> tuple[int, ...]:
    """Last entry of every row; the rightmost analogue."""
    validate(mat)
    return tuple(row[-1] for row in mat.rows)
