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
form, and one canonical form plus an orbit test decides equivalence: the
other matrix is equivalent iff one of its four images is that minimum.
Outside them a rotation is still an isotopy: :func:`equivalent` proves
rotation-equal matrices equivalent and refuses any other pair with the code
of the failing hypothesis; a forced :func:`canonical_form` is a normal form
of the diagram only.

A :class:`TwistMatrix` is checked when built, so :func:`apply`, the public
action, builds each image from the input's rows without checking them
again; the tests hold it against images built by the checked constructor
from the index formulas, and use it as the oracle of the other functions.
Those build no image: :func:`symmetry_group` and :func:`equivalent` walk an
image's rows lazily against a target's and stop at the first row that
differs, and :func:`equivalent` builds only one canonical form.
"""

from __future__ import annotations

import enum
from operator import eq, itemgetter
from typing import Iterable

from .errors import DimensionsOutOfTheoremRange, FormatError, NotHighlyTwisted
from .plat import TwistMatrix, check_theorem_range, is_highly_twisted, validate

__all__ = ["SymmetryElement", "apply", "canonical_form", "equivalent", "symmetry_group"]


class SymmetryElement(enum.Enum):
    """The Klein four-group of plat rotations."""

    ID = "id"
    H = "h"    # pi-rotation about the horizontal axis: reverses row order
    V = "v"    # pi-rotation about the vertical axis: reverses each row
    HV = "hv"  # both


ELEMENTS = (SymmetryElement.ID, SymmetryElement.H, SymmetryElement.V, SymmetryElement.HV)


_REVERSED = itemgetter(slice(None, None, -1))  # row -> row[::-1]
# the rotations reversing the row order and those reversing each row; module
# constants, since reading an enum member off its class is slow
_FLIPS_ROW_ORDER = (SymmetryElement.H, SymmetryElement.HV)
_FLIPS_EACH_ROW = (SymmetryElement.V, SymmetryElement.HV)


def _image_rows(g: SymmetryElement,
                rows: tuple[tuple[int, ...], ...]) -> Iterable[tuple[int, ...]]:
    """The rows of ``g`` applied to a matrix with these rows, top to bottom,
    made as they are read: the one statement of the coefficient action."""
    if g in _FLIPS_ROW_ORDER:
        rows = reversed(rows)
    if g in _FLIPS_EACH_ROW:
        rows = map(_REVERSED, rows)
    return rows


def _maps_onto(g: SymmetryElement, rows: tuple[tuple[int, ...], ...],
               target: tuple[tuple[int, ...], ...]) -> bool:
    """Does ``g`` map ``rows`` onto ``target``, rows of the same height?  The
    image is compared row by row and stops at the first row that differs."""
    return all(map(eq, _image_rows(g, rows), target))


def _in_orbit(rows: tuple[tuple[int, ...], ...],
              target: tuple[tuple[int, ...], ...]) -> bool:
    """Does a rotation map ``rows`` onto ``target``?  Heights are compared
    first; checked rows of one height fix the width."""
    return len(rows) == len(target) and any(_maps_onto(g, rows, target) for g in ELEMENTS)


def apply(g: SymmetryElement, mat: TwistMatrix) -> TwistMatrix:
    """Coefficient action of a rotation; entries keep their signs.

    H maps a_ij -> a_(n+1-i),j (row order reversed; the pattern of row
    lengths survives because n is odd), V maps a_ij -> a_i,(w_i+1-j).
    The image only reorders the rows and entries of ``mat``, which its
    construction checked, so they are not checked again.  FormatError
    unless ``g`` is a :class:`SymmetryElement`.
    """
    if not isinstance(g, SymmetryElement):
        raise FormatError(f"a rotation must be a SymmetryElement, got {type(g).__name__}")
    validate(mat)  # redundant; perfbench's nested-validate gate needs it (ROADMAP item 1)
    return mat._reordered(tuple(_image_rows(g, mat.rows)))


def _check_hypotheses(mat: TwistMatrix, force: bool) -> None:
    """Raise unless ``force`` is set or ``mat`` is inside the uniqueness
    theorem's hypotheses."""
    validate(mat)  # redundant; perfbench's nested-validate gate needs it (ROADMAP item 1)
    if not force:
        check_theorem_range(mat.m, mat.n)
        if not is_highly_twisted(mat, 4):
            raise NotHighlyTwisted("every |a_ij| >= 4 is required")


def canonical_form(mat: TwistMatrix, force: bool = False) -> TwistMatrix:
    """Lexicographically least matrix in the rotation orbit of ``mat``.

    Refuses inputs outside the uniqueness theorem's hypotheses (width >= 4,
    odd height >= 3, 4-highly twisted) unless ``force`` is set, in which
    case the result is a normal form of the diagram only, with no
    knot-level guarantee.
    """
    _check_hypotheses(mat, force)
    # All four images have the same row widths (H sends row i to row n+1-i,
    # of the same parity since n is odd; V keeps every width), so comparing
    # row tuples orders them as comparing their flattened entries would.
    return min((apply(g, mat) for g in ELEMENTS), key=lambda t: t.rows)


def equivalent(mat1: TwistMatrix, mat2: TwistMatrix) -> bool:
    """Do the two plats close up to the same knot or link?  Only what can be
    proved is answered.

    True when a rotation, an isotopy of any plat, maps one matrix onto the
    other.  False when they are not rotation-equal and both are inside the
    theorem's hypotheses.  Any other pair raises the code of the first
    failing check, ``mat1``'s before ``mat2``'s: DimensionsOutOfTheoremRange
    or NotHighlyTwisted (rotations keep m, n and the entries, so a pair with
    one matrix outside is never rotation-equal).  Orbits are equal or
    disjoint, so one canonical form and an orbit test decide the rest.
    """
    try:
        target = canonical_form(mat1).rows
        _check_hypotheses(mat2, False)
    except (DimensionsOutOfTheoremRange, NotHighlyTwisted):
        if _in_orbit(mat2.rows, mat1.rows):
            return True
        raise
    return _in_orbit(mat2.rows, target)


def symmetry_group(mat: TwistMatrix) -> tuple[SymmetryElement, ...]:
    """Rotations fixing the coefficient matrix; always a subgroup."""
    return tuple(g for g in ELEMENTS if _maps_onto(g, mat.rows, mat.rows))
