"""Continued fractions with all |a_i| >= 3 and 2-bridge classification.

Exact integer arithmetic: the uniqueness of these expansions is an exact
statement, proved by the bound |[0; a_1, a_2, ...]| <= (3 - sqrt(5))/2 < 1/2,
which makes each partial quotient the unique nearest integer.
Reconstruction therefore never backtracks: the first ambiguous or
undersized coefficient is fatal.

A 2-bridge knot or link with twist coefficients a_1..a_n (n odd) is
classified by the unordered pair of rationals obtained by evaluating the
coefficient list with interior alternating signs, forwards and backwards;
list reversal (a rotation of the diagram) swaps the two expansions.  Both
come from one pass of the convergent recurrence

    p_k = a_k p_(k-1) + p_(k-2),   q_k = a_k q_(k-1) + q_(k-2),

started at (p_0, q_0) = (1, 0) and (p_(-1), q_(-1)) = (0, 1):
[a_1; ..., a_n] = p_n/q_n, and, since (p_n, p_(n-1); q_n, q_(n-1)) is the
product of the matrices (a_k, 1; 1, 0) and transposing that product
reverses it, [a_n; ..., a_1] = p_n/p_(n-1).  The determinant of the product
is p_n q_(n-1) - p_(n-1) q_n = (-1)^n, so both pairs are coprime and the
convergents need no gcd along the way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import (
    DivisionByZeroTail,
    FormatError,
    InternalError,
    InvalidCoefficients,
    NotRepresentable,
    require_ints,
    shown,
)
from .plat import TwistMatrix

__all__ = [
    "cf_evaluate",
    "cf_reconstruct",
    "schubert_pair",
    "min_numerator_digits",
    "left_boundary_coeffs",
    "right_boundary_coeffs",
]


def _int_tuple(coeffs: Iterable[int]) -> tuple[int, ...]:
    """``coeffs`` read once into a tuple (iterators work too) of exact ints;
    InvalidCoefficients for a non-iterable, a bool, a float or anything else."""
    try:
        coeffs = tuple(coeffs)
    except TypeError:
        raise InvalidCoefficients(
            f"coefficients must be an iterable of integers, got {type(coeffs).__name__}") from None
    require_ints(InvalidCoefficients, "coefficients", coeffs)
    return coeffs


def cf_evaluate(coeffs: Iterable[int]) -> Fraction:
    """Value of the continued fraction [a_0; a_1, ..., a_k] of exact ints
    (InvalidCoefficients otherwise), exactly.

    Evaluated tail-first on an integer pair: the tail p/q becomes
    (a p + q)/p, so DivisionByZeroTail is raised exactly when some tail is
    zero where a reciprocal is needed (e.g. [1; 1, -1]).  The tests check
    this form against the plain tail-first ``Fraction`` evaluation.
    """
    coeffs = _int_tuple(coeffs)
    if not coeffs:
        raise InvalidCoefficients("empty continued fraction")
    p, q = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        if p == 0:
            raise DivisionByZeroTail(f"tail of {shown(list(coeffs))} evaluates to 0")
        p, q = a * p + q, p
    return Fraction(p, q)


def cf_reconstruct(r: Fraction | int) -> tuple[int, ...]:
    """The unique expansion of ``r`` (an exact int or Fraction, FormatError
    otherwise) with every |a_i| >= 3, if it exists.

    Each coefficient is the nearest integer to the current remainder
    num/den (unique whenever the fractional distance is not exactly 1/2);
    the recursion continues on the reciprocal of the tail.  Raises
    NotRepresentable on an ambiguous rounding or a coefficient of modulus
    less than 3 -- uniqueness means backtracking could never help.
    """
    if type(r) not in (int, Fraction):
        raise FormatError(f"expected an int or a Fraction, got {type(r).__name__}")
    num, den = r.numerator, r.denominator
    coeffs: list[int] = []
    while True:
        q, rem = divmod(num, den)
        if 2 * rem == den:
            raise NotRepresentable(f"{shown(Fraction(num, den), str)} is equidistant from "
                                   f"{shown(q)} and {shown(q + 1)}; no nearest integer")
        a = q if 2 * rem < den else q + 1
        if abs(a) < 3:
            raise NotRepresentable(
                f"coefficient {a} of modulus < 3 at position {len(coeffs)}")
        coeffs.append(a)
        tail = num - a * den  # r - a = tail/den
        if tail == 0:
            return tuple(coeffs)
        if 2 * abs(tail) >= den:
            raise InternalError(f"nearest-integer tail {Fraction(tail, den)} is not below 1/2")
        num, den = (den, tail) if tail > 0 else (-den, -tail)


def _check_coeffs(coeffs: Iterable[int]) -> tuple[int, ...]:
    coeffs = _int_tuple(coeffs)
    if len(coeffs) % 2 == 0:
        raise InvalidCoefficients(f"need an odd number of coefficients, got {len(coeffs)}")
    if min(map(abs, coeffs)) < 3:  # not empty: its length is odd
        raise InvalidCoefficients("every |a_i| >= 3 is required")
    return coeffs


def schubert_pair(coeffs: Iterable[int]) -> frozenset[Fraction]:
    """Classifying pair {r, r'} of the 2-bridge link with these twist counts.

    r evaluates the interior-alternating signed list forwards, r' the same
    list backwards; the unordered pair is a complete invariant, and it is
    reversal-invariant by construction.  One convergent pass gives both:
    r = p_n/q_n and r' = p_n/p_(n-1) (module docstring).
    """
    coeffs = _check_coeffs(coeffs)
    p0, p1, q0, q1 = coeffs[0], 1, 1, 0  # (p_k, p_(k-1), q_k, q_(k-1)) at k = 1
    for b, a in zip(coeffs[1::2], coeffs[2::2]):  # a_k enters negated at even k
        p0, p1, q0, q1 = p1 - b * p0, p0, q1 - b * q0, q0
        p0, p1, q0, q1 = a * p0 + p1, p0, a * q0 + q1, q0
    if p1 == 0 or q0 == 0:  # impossible while every |a_i| >= 3
        raise InternalError(f"zero convergent denominator for {list(coeffs)}")
    return frozenset((Fraction(p0, q0), Fraction(p0, p1)))


def min_numerator_digits(coeffs: Iterable[int]) -> int:
    """A lower bound on the decimal digits of |p_n|, the numerator of both
    Schubert fractions (coprime to q_n and to p_(n-1)), after the checks of
    :func:`schubert_pair`; linear time, no convergent pass.

    While |p_(k-1)| >= |p_(k-2)|, |p_k| >= |a_k| |p_(k-1)| - |p_(k-2)|
    >= (|a_k| - 1) |p_(k-1)| >= 2 |p_(k-1)|, so |p_n| >= prod (|a_i| - 1)
    >= 2^L with L = sum (bit_length(|a_i| - 1) - 1), and 2^L has
    floor(L log10 2) + 1 digits, where 0.30102 < log10 2.
    """
    bits = sum((abs(a) - 1).bit_length() - 1 for a in _check_coeffs(coeffs))
    return bits * 30102 // 100000 + 1


def left_boundary_coeffs(mat: TwistMatrix) -> tuple[int, ...]:
    """First entry of every row, top to bottom: the twist counts of the
    2-bridge completion of the leftmost part of the plat."""
    return tuple(row[0] for row in mat.rows)


def right_boundary_coeffs(mat: TwistMatrix) -> tuple[int, ...]:
    """Last entry of every row; the rightmost analogue."""
    return tuple(row[-1] for row in mat.rows)
