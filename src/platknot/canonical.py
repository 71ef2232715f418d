"""Rotation action on twist matrices, canonical form, equivalence.

A pi-rotation of the plat about an axis in the projection plane flips the
diagram (left-right for the vertical axis, top-bottom for the horizontal)
and swaps over/under at every crossing; the two effects cancel on each
twist coefficient, so entries keep their signs and only their positions
move.  That coefficient action is not spelled out anywhere authoritative,
which is why the invariant oracle re-checks it on every tested instance
(see tests): determinant, component count and Jones of a closure must not
change under any of the four rotations.

For 4-highly twisted plats of width >= 4 and odd height >= 3 the rotation
orbit is a complete isotopy invariant, so the orbit minimum is a canonical
form and equality of canonical forms decides equivalence.
"""

from __future__ import annotations

import enum

from .errors import DimensionsOutOfTheoremRange, NotHighlyTwisted
from .plat import TwistMatrix, is_highly_twisted, validate

__all__ = ["SymmetryElement", "apply", "canonical_form", "equivalent", "symmetry_group"]


class SymmetryElement(enum.Enum):
    """The Klein four-group of plat rotations."""

    ID = "id"
    H = "h"    # pi-rotation about the horizontal axis: reverses row order
    V = "v"    # pi-rotation about the vertical axis: reverses each row
    HV = "hv"  # both


ELEMENTS = (SymmetryElement.ID, SymmetryElement.H, SymmetryElement.V, SymmetryElement.HV)


def apply(g: SymmetryElement, mat: TwistMatrix) -> TwistMatrix:
    """Coefficient action of a rotation; entries keep their signs.

    H maps a_ij -> a_(n+1-i),j (row order reversed; the pattern of row
    lengths survives because n is odd), V maps a_ij -> a_i,(w_i+1-j).
    """
    validate(mat)
    rows = mat.rows
    if g in (SymmetryElement.H, SymmetryElement.HV):
        rows = tuple(reversed(rows))
    if g in (SymmetryElement.V, SymmetryElement.HV):
        rows = tuple(tuple(reversed(r)) for r in rows)
    return TwistMatrix(mat.m, rows)


def canonical_form(mat: TwistMatrix, force: bool = False) -> TwistMatrix:
    """Lexicographically least matrix in the rotation orbit of ``mat``.

    Refuses inputs outside the uniqueness theorem's hypotheses (width >= 4,
    odd height >= 3, 4-highly twisted) unless ``force`` is set, in which
    case the result is a normal form of the diagram only, with no
    knot-level guarantee.
    """
    validate(mat)
    if not force:
        if mat.m < 4 or mat.n < 3:
            raise DimensionsOutOfTheoremRange(
                f"need m >= 4 and n >= 3, got m={mat.m}, n={mat.n}")
        if not is_highly_twisted(mat, 4):
            raise NotHighlyTwisted("every |a_ij| >= 4 is required")
    return min((apply(g, mat) for g in ELEMENTS), key=lambda t: t.entries())


def equivalent(mat1: TwistMatrix, mat2: TwistMatrix, force: bool = False) -> bool:
    """Do the two plats close up to the same knot or link?

    True iff the canonical forms coincide; within the theorem's hypotheses
    this equals ambient-isotopy equivalence of the plat closures.
    """
    return canonical_form(mat1, force) == canonical_form(mat2, force)


def symmetry_group(mat: TwistMatrix) -> tuple[SymmetryElement, ...]:
    """Rotations fixing the coefficient matrix; always a subgroup."""
    validate(mat)
    return tuple(g for g in ELEMENTS if apply(g, mat) == mat)
