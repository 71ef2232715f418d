"""Exception types shared across the package, and the one exact-integer rule.

Every error carries a stable machine-readable ``code`` (the class name) so
the CLI can print uniform diagnostics and scripts can match on them.
:func:`require_ints` is the rule every integer input obeys: its type is
exactly ``int``, so a bool or a float is refused, never truncated.  Messages
render values through :func:`shown`, so an int too long for Python to print
never turns an error into a bare ``ValueError``; :func:`bounded` names a
long quoted string or digit run in a message by its length; and
:func:`refused_int` names an integer token that ``int`` refuses.
"""

import re
import sys
from typing import Callable, Iterable


class PlatError(Exception):
    """Base class for all domain errors raised by this package; its text is bounded."""

    def __str__(self) -> str:
        return bounded(super().__str__())

    @property
    def code(self) -> str:
        return type(self).__name__


class FormatError(PlatError):
    """Malformed text input (matrix file, CLI value)."""


class StrandMismatch(PlatError):
    """Braid words on different strand counts cannot be combined."""


class IndexRange(PlatError):
    """Generator or move index outside the legal range."""


class IndexParity(PlatError):
    """Hilden move index must be odd."""


class WrongRowLength(PlatError):
    """Row ``row`` of a twist matrix has ``got`` entries, not ``expected``."""

    def __init__(self, row: int, expected: int, got: int):
        self.row, self.expected, self.got = row, expected, got
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


# A quoted string as repr shows it (group 2: its body; a quote inside a word,
# as in "Python's", opens none), one character of such a body (each escape
# repr writes is one), and a run of digits with its sign.
_QUOTED = re.compile(r"""(?<!\w)(['"])((?:(?!\1)[^\\\n]|\\.)*)\1(?!\w)""")
_CHAR = re.compile(r"\\(?:x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8}|.)|.")
_DIGITS = re.compile(r"([-+]?)(\d{41,})")


def bounded(text: str) -> str:
    """``text`` with each quoted string of more than 40 characters between its
    quotes replaced by ``a string of N characters``, N counting each escape as
    one, and each run of more than 40 digits by ``an integer of N digits``,
    or ``a negative integer of N digits`` after a minus sign."""
    text = _QUOTED.sub(lambda m: m[0] if len(m[2]) <= 40 else
                       f"a string of {len(_CHAR.findall(m[2]))} characters", text)
    return _DIGITS.sub(lambda m: f"{'a negative' if m[1] == '-' else 'an'} integer of "
                                 f"{len(m[2])} digits", text)


def require_ints(error: type[PlatError], what: str, values: Iterable) -> None:
    """Raise ``error`` unless the type of every one of ``values`` is exactly
    ``int``; the message starts with ``what`` and names the other types."""
    bad = set(map(type, values)) - {int}
    if bad:
        raise error(f"{what} must be of type int, got {', '.join(sorted(t.__name__ for t in bad))}")


def refused_int(labelled: Iterable[tuple[str, str]]) -> PlatError:
    """The FormatError for the first ``(where, token)`` whose token ``int``
    refuses: an integer past Python's int-to-str digit limit by its digit
    count, anything else by its repr.  Never Python's message, which
    quotes up to 200 characters of the token."""
    for where, token in labelled:
        try:
            int(token)
        except ValueError:
            body = token[1:] if token[:1] in "+-" else token
            if body.isdecimal():
                return FormatError(f"{where}: an integer of {len(body)} digits is over "
                                   f"Python's limit of {sys.get_int_max_str_digits()}")
            return FormatError(f"{where}: {token!r} is not an integer")
    return InternalError("int refused none of the tokens")
