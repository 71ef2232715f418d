"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (the class name) so
the CLI can print uniform diagnostics and scripts can match on them.
"""


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
            f"row {row} must have {expected} entries, got {got}")


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
        super().__init__(f"{crossings} crossings exceeds the cap of {cap}")


class DimensionMismatch(PlatError):
    """Vertical spheres of different heights cannot be compared."""


class IncomparableSpheres(PlatError):
    """regions_between needs componentwise comparable spheres."""


class TooManyDigits(PlatError):
    """An exact result has more decimal digits than Python converts to text."""


class InternalError(PlatError):
    """A mathematical invariant of the package's own construction failed."""
