"""Exception types shared across the package, and the one exact-integer rule.

Every error carries a stable machine-readable ``code`` (the class name) so
the CLI can print uniform diagnostics and scripts can match on them.
:func:`require_ints` is the rule every integer input obeys: its type is
exactly ``int``, so a bool or a float is refused, never truncated.  Messages
render values through :func:`shown`, so an int too long for Python to print
never turns an error into a bare ``ValueError``.
"""

from typing import Callable, Iterable


class PlatError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class FormatError(PlatError):
    """Malformed text input (matrix file, braid word, CLI value)."""


class StrandMismatch(PlatError):
    """Braid words on different strand counts cannot be combined."""


class IndexRange(PlatError):
    """Generator or move index outside the legal range."""


class IndexParity(PlatError):
    """Hilden move index must be odd."""


class WrongRowLength(PlatError):
    """Row ``row`` of a twist matrix has the wrong number of entries."""

    def __init__(self, row: int, expected: int, got: int):
        self.row = row
        super().__init__(
            f"row {row} must have {shown(expected)} entries, got {got}")


class EvenHeight(PlatError):
    """Twist matrices must have an odd number of rows."""


class WidthTooSmall(PlatError):
    """Twist matrix width below the structural minimum."""


class NotHighlyTwisted(PlatError):
    """An operation required every |a_ij| >= c and the input fails it."""


class DimensionsOutOfTheoremRange(PlatError):
    """Width/height outside the range where uniqueness is guaranteed."""


class InvalidCoefficients(PlatError):
    """Coefficient sequence violates a two-bridge precondition."""


class DivisionByZeroTail(PlatError):
    """A continued-fraction tail evaluated to zero where 1/tail is needed."""


class NotRepresentable(PlatError):
    """No continued-fraction expansion with all |a_i| >= 3 exists."""


class TooManyCrossings(PlatError):
    """A word or diagram exceeds a crossing cap (state sum, or crossing budget)."""

    def __init__(self, crossings: int, cap: int):
        self.crossings = crossings
        self.cap = cap
        super().__init__(f"{shown(crossings)} crossings exceeds the cap of {cap}")


class TooMuchWork(PlatError):
    """An input-only estimate of a computation's work exceeds its budget."""


class DimensionMismatch(PlatError):
    """Vertical spheres of different heights cannot be compared."""


class IncomparableSpheres(PlatError):
    """regions_between needs componentwise comparable spheres."""


class TooManyDigits(PlatError):
    """An exact result has more decimal digits than Python converts to text."""


class InternalError(PlatError):
    """A mathematical invariant of the package's own construction failed."""


def shown(value, text: Callable[[object], str] = repr) -> str:
    """``text(value)``, or a placeholder naming the type of a value that holds
    an int too long for Python to print."""
    try:
        return text(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def require_ints(error: type[PlatError], what: str, values: Iterable) -> None:
    """Raise ``error`` unless the type of every one of ``values`` is exactly
    ``int``; the message starts with ``what`` and names the other types."""
    bad = set(map(type, values)) - {int}
    if bad:
        raise error(f"{what} must be of type int, got {', '.join(sorted(t.__name__ for t in bad))}")
