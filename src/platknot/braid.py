"""Words in the Artin generators of the braid group on 2m strands.

The alphabet for the group on ``2m`` strands is sigma_1 .. sigma_{2m-1},
each letter carrying an exponent of +1 or -1.  Words are stored fully
expanded (one letter per crossing); :func:`syllables` gives a run-length
view for display.  Letters act top to bottom as drawn in braid diagrams,
and ``compose(a, b)`` stacks ``a`` above ``b``.

Only free reduction is performed here; braid relations are never applied.
Equivalence questions are decided at the twist-matrix level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import FormatError, IndexRange, StrandMismatch

__all__ = [
    "BraidLetter",
    "BraidWord",
    "compose",
    "inverse",
    "free_reduce",
    "permutation",
    "word_from_syllables",
    "syllables",
    "parse_word",
    "format_word",
]


@dataclass(frozen=True)
class BraidLetter:
    """A single signed generator sigma_index^sign."""

    index: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise IndexRange(f"sign must be +1 or -1, got {self.sign}")
        if self.index < 1:
            raise IndexRange(f"generator index must be >= 1, got {self.index}")

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.index, -self.sign)


@dataclass(frozen=True)
class BraidWord:
    """An expanded word on ``strands`` strands; the empty word is identity."""

    strands: int
    letters: tuple[BraidLetter, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.strands < 2 or self.strands % 2 != 0:
            raise IndexRange(f"strands must be even and >= 2, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for lt in self.letters:
            if not 1 <= lt.index <= self.strands - 1:
                raise IndexRange(
                    f"generator s{lt.index} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate two words (``a`` stacked above ``b``); no reduction."""
    if a.strands != b.strands:
        raise StrandMismatch(f"{a.strands} strands vs {b.strands} strands")
    return BraidWord(a.strands, a.letters + b.letters)


def inverse(a: BraidWord) -> BraidWord:
    """Reverse the letter order and negate every sign."""
    return BraidWord(a.strands, tuple(lt.inverse() for lt in reversed(a.letters)))


def free_reduce(a: BraidWord) -> BraidWord:
    """Delete adjacent cancelling pairs sigma_i^+1 sigma_i^-1 until none remain.

    The result is independent of deletion order, so one left-to-right stack
    pass suffices.
    """
    out: list[BraidLetter] = []
    for lt in a.letters:
        if out and out[-1].index == lt.index and out[-1].sign == -lt.sign:
            out.pop()
        else:
            out.append(lt)
    return BraidWord(a.strands, tuple(out))


def permutation(a: BraidWord) -> tuple[int, ...]:
    """Image of each top endpoint under the braid, as a tuple p with
    p[i-1] = bottom position of the strand starting at top position i.

    Every letter acts as the transposition (i, i+1) regardless of sign.
    Under this convention permutation(compose(a, b)) == perm(b) o perm(a).
    """
    cur = list(range(a.strands + 1))  # cur[pos] = origin of strand now at pos
    for lt in a.letters:
        i = lt.index
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    out = [0] * a.strands
    for pos in range(1, a.strands + 1):
        out[cur[pos] - 1] = pos
    return tuple(out)


def word_from_syllables(strands: int, runs: Iterable[tuple[int, int]]) -> BraidWord:
    """Build an expanded word from (generator index, exponent) runs."""
    letters: list[BraidLetter] = []
    for index, exp in runs:
        sign = 1 if exp > 0 else -1
        letters.extend(BraidLetter(index, sign) for _ in range(abs(exp)))
    return BraidWord(strands, tuple(letters))


def syllables(a: BraidWord) -> list[tuple[int, int]]:
    """Run-length view: maximal runs of one generator as (index, exponent)."""
    runs: list[tuple[int, int]] = []
    for lt in a.letters:
        if runs and runs[-1][0] == lt.index and (runs[-1][1] > 0) == (lt.sign > 0):
            runs[-1] = (lt.index, runs[-1][1] + lt.sign)
        else:
            runs.append((lt.index, lt.sign))
    return runs


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``s<k>``, ``s<k>^-1``, ``s<k>^<e>``."""
    runs: list[tuple[int, int]] = []
    for tok in text.split():
        mt = _TOKEN.match(tok)
        if not mt:
            raise FormatError(f"bad braid token {tok!r}")
        index = int(mt.group(1))
        exp = int(mt.group(2)) if mt.group(2) is not None else 1
        if not 1 <= index <= strands - 1:
            raise IndexRange(
                f"generator s{index} out of range for {strands} strands")
        if exp != 0:
            runs.append((index, exp))
    return word_from_syllables(strands, runs)


def format_word(a: BraidWord) -> str:
    """Inverse of :func:`parse_word`; empty word prints as ``(empty)``."""
    if not a.letters:
        return "(empty)"
    parts = []
    for index, exp in syllables(a):
        parts.append(f"s{index}" if exp == 1 else f"s{index}^{exp}")
    return " ".join(parts)
