"""Words in the Artin generators of the braid group on 2m strands.

The alphabet for the group on ``2m`` strands is sigma_1 .. sigma_{2m-1},
each letter carrying an exponent of +1 or -1.  Words are stored as maximal
same-sign runs ``(index, exponent)``, so every operation here costs
O(runs) whatever the exponents; only the bounded ``letters`` view expands
crossings.  Letters act top to bottom as drawn in braid diagrams, and
``compose(a, b, ...)`` stacks ``a`` above ``b`` above the rest.

Only free reduction is performed here; braid relations are never applied.
Equivalence questions are decided at the twist-matrix level.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FormatError, IndexRange, StrandMismatch, TooManyCrossings, shown

__all__ = [
    "CROSSING_BUDGET",
    "BraidLetter",
    "BraidWord",
    "compose",
    "inverse",
    "free_reduce",
    "permutation",
    "parse_word",
    "format_word",
    "word_json",
]

CROSSING_BUDGET = 10_000  # most crossings a word may expand to (letters, diagrams)


class BraidLetter(NamedTuple):
    """A single signed generator sigma_index^sign, as the letter view yields it."""

    index: int
    sign: int


@dataclass(frozen=True)
class BraidWord:
    """A word on ``strands`` strands as ``(index, exponent)`` runs, checked
    and normalised on construction: zero exponents dropped, adjacent
    same-sign runs of one generator merged, nothing cancelled.  So words are
    equal exactly when their letters are, and ``len`` counts crossings."""

    strands: int
    runs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        strands = self.strands
        if type(strands) is not int or strands < 2 or strands % 2:
            raise IndexRange(f"strands must be an even int >= 2, got {shown(strands)}")
        out: list[tuple[int, int]] = []
        try:  # costs nothing per well-formed run, unlike a length check
            for index, exp in self.runs:
                # errors.require_ints' rule, inline: a call per run would show
                # in every word built (perfbench's cli_session builds ~68 an item)
                if type(index) is not int or type(exp) is not int or not 0 < index < strands:
                    raise IndexRange(f"run {shown((index, exp))} is not an int generator index "
                                     f"in 1..{shown(strands - 1)} with an int exponent")
                if not exp:
                    continue
                if out and out[-1][0] == index and (out[-1][1] > 0) == (exp > 0):
                    out[-1] = (index, out[-1][1] + exp)
                else:
                    out.append((index, exp))
        except (TypeError, ValueError):  # runs not iterable, or a run not a pair
            raise IndexRange("runs must be an iterable of (index, exponent) pairs") from None
        object.__setattr__(self, "runs", tuple(out))

    def __len__(self) -> int:
        """The crossing count; TooManyCrossings where ``len()`` cannot return it."""
        crossings = sum(abs(exp) for _, exp in self.runs)
        if crossings > sys.maxsize:
            raise TooManyCrossings(crossings, sys.maxsize)
        return crossings

    @property
    def letters(self) -> tuple[BraidLetter, ...]:
        """One letter per crossing; TooManyCrossings above CROSSING_BUDGET,
        checked before anything is expanded."""
        crossings = sum(abs(exp) for _, exp in self.runs)
        if crossings > CROSSING_BUDGET:
            raise TooManyCrossings(crossings, CROSSING_BUDGET)
        out: list[BraidLetter] = []
        for index, exp in self.runs:
            out.extend([BraidLetter(index, 1 if exp > 0 else -1)] * abs(exp))
        return tuple(out)


def compose(first: BraidWord, *rest: BraidWord) -> BraidWord:
    """Concatenate words, each stacked above the next, into one checked word;
    same-sign runs merge at the seams, nothing cancels."""
    runs = list(first.runs)
    for word in rest:
        if word.strands != first.strands:
            raise StrandMismatch(f"{first.strands} strands vs {word.strands} strands")
        runs += word.runs
    return BraidWord(first.strands, runs)


def inverse(a: BraidWord) -> BraidWord:
    """Reverse the run order and negate every exponent."""
    return BraidWord(a.strands, tuple((i, -e) for i, e in reversed(a.runs)))


def free_reduce(a: BraidWord) -> BraidWord:
    """Delete adjacent cancelling pairs sigma_i^+1 sigma_i^-1 until none remain.

    The result is independent of deletion order, so one left-to-right stack
    pass over the runs suffices: adjacent runs on the stack never share a
    generator, so a run only ever combines with the top one.
    """
    out: list[tuple[int, int]] = []
    for index, exp in a.runs:
        if out and out[-1][0] == index:
            exp += out.pop()[1]
            if not exp:
                continue
        out.append((index, exp))
    return BraidWord(a.strands, tuple(out))


def permutation(a: BraidWord) -> tuple[int, ...]:
    """Image of each top endpoint under the braid, as a tuple p with
    p[i-1] = bottom position of the strand starting at top position i.

    Every letter acts as the transposition (i, i+1) regardless of sign, so
    only runs of odd exponent swap.  Under this convention
    permutation(compose(a, b)) == perm(b) o perm(a).
    """
    cur = list(range(a.strands + 1))  # cur[pos] = origin of strand now at pos
    for i, exp in a.runs:
        if exp % 2:
            cur[i], cur[i + 1] = cur[i + 1], cur[i]
    out = [0] * a.strands
    for pos in range(1, a.strands + 1):
        out[cur[pos] - 1] = pos
    return tuple(out)


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``s<k>``, ``s<k>^-1``, ``s<k>^<e>``."""
    runs: list[tuple[int, int]] = []
    for tok in text.split():
        mt = _TOKEN.match(tok)
        if not mt:
            raise FormatError(f"bad braid token {tok!r}")
        try:  # an int past Python's digit limit raises ValueError
            runs.append((int(mt.group(1)), int(mt.group(2) or 1)))
        except ValueError:
            raise FormatError(f"braid token of {len(tok)} characters is too long") from None
    return BraidWord(strands, tuple(runs))


def format_word(a: BraidWord) -> str:
    """Inverse of :func:`parse_word`; empty word prints as ``(empty)``."""
    if not a.runs:
        return "(empty)"
    return " ".join(f"s{index}" if exp == 1 else f"s{index}^{exp}" for index, exp in a.runs)


def word_json(a: BraidWord) -> dict:
    """JSON form: the strand count and one ``[index, sign]`` per letter."""
    return {"strands": a.strands, "word": [list(lt) for lt in a.letters]}
