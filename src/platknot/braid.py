"""Words in the Artin generators of the braid group on 2m strands.

The alphabet for the group on ``2m`` strands is sigma_1 .. sigma_{2m-1},
each letter carrying an exponent of +1 or -1.  Words are stored as maximal
same-sign runs ``(index, exponent)``, so every operation here costs
O(runs) whatever the exponents; only the bounded JSON form
(:func:`word_json`) and :func:`platknot.plat.braid_closure` expand crossings.
Letters act top to bottom as drawn in braid diagrams, and
``compose(a, b, ...)`` stacks ``a`` above ``b`` above the rest.

Only free reduction is performed here; braid relations are never applied.
Equivalence questions are decided at the twist-matrix level.

The constructor is the one check of runs that come from outside.
:func:`inverse`, :func:`free_reduce` and :func:`compose` build their results
from words that are already normal and keep them normal (reversing and
negating every run, a stack that never leaves two adjacent runs on one
generator, a merge of same-sign runs at each seam), so they skip it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import IndexRange, StrandMismatch, TooManyCrossings, shown

__all__ = [
    "CROSSING_BUDGET",
    "BraidWord",
    "budgeted_crossings",
    "compose",
    "inverse",
    "free_reduce",
    "format_word",
    "word_json",
]

CROSSING_BUDGET = 10_000  # most crossings a word may expand to (word_json, diagrams)


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
                # errors.require_ints' rule, inline: one require_ints call per
                # word took 0.5 us more on an empty word, 1.2 us on a 10-run
                # one (timeit, 2-vCPU VM); perfbench's cli_session checks 19
                # words an item, 16 of them empty: about 11 us, under 1%
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

    def _with_runs(self, runs: tuple[tuple[int, int], ...]) -> "BraidWord":
        """A word on this word's strands whose ``runs``, a tuple of pairs, are
        already normal; built without checking them again."""
        word = object.__new__(BraidWord)
        object.__setattr__(word, "strands", self.strands)
        object.__setattr__(word, "runs", runs)
        return word

    def __len__(self) -> int:
        """The crossing count; TooManyCrossings where ``len()`` cannot return it."""
        crossings = sum(abs(exp) for _, exp in self.runs)
        if crossings > sys.maxsize:
            raise TooManyCrossings(crossings, sys.maxsize)
        return crossings


def budgeted_crossings(a: BraidWord) -> int:
    """The crossing count of ``a``; TooManyCrossings above CROSSING_BUDGET.
    Every reader that expands crossings calls it before allocating any."""
    crossings = sum(abs(exp) for _, exp in a.runs)
    if crossings > CROSSING_BUDGET:
        raise TooManyCrossings(crossings, CROSSING_BUDGET)
    return crossings


def compose(first: BraidWord, *rest: BraidWord) -> BraidWord:
    """Concatenate words, each stacked above the next, into one normal word;
    same-sign runs merge at the seams, nothing cancels."""
    runs = list(first.runs)
    for word in rest:
        if word.strands != first.strands:
            raise StrandMismatch(f"{first.strands} strands vs {word.strands} strands")
        if runs and word.runs:
            (i, e), (j, f) = runs[-1], word.runs[0]
            if i == j and (e > 0) == (f > 0):  # the only place two normal words can need a merge
                runs[-1] = (i, e + f)
                runs += word.runs[1:]
                continue
        runs += word.runs
    return first._with_runs(tuple(runs))


def inverse(a: BraidWord) -> BraidWord:
    """Reverse the run order and negate every exponent."""
    return a._with_runs(tuple((i, -e) for i, e in reversed(a.runs)))


def free_reduce(a: BraidWord) -> BraidWord:
    """Delete adjacent cancelling pairs sigma_i^+1 sigma_i^-1 until none remain.

    The result is independent of deletion order, so one left-to-right stack
    pass over the runs suffices: adjacent runs on the stack never share a
    generator, so a run only ever combines with the top one, and the stack
    is a normal word as it stands.
    """
    out: list[tuple[int, int]] = []
    for index, exp in a.runs:
        if out and out[-1][0] == index:
            exp += out.pop()[1]
            if not exp:
                continue
        out.append((index, exp))
    return a._with_runs(tuple(out))


def format_word(a: BraidWord) -> str:
    """The runs as the CLI prints them, ``s2^4 s4^-6 s1``; ``(empty)`` if none."""
    if not a.runs:
        return "(empty)"
    return " ".join(f"s{index}" if exp == 1 else f"s{index}^{exp}" for index, exp in a.runs)


def word_json(a: BraidWord) -> dict:
    """JSON form: the strand count and one ``[index, sign]`` per crossing;
    TooManyCrossings above CROSSING_BUDGET, checked before anything is expanded."""
    budgeted_crossings(a)
    return {"strands": a.strands, "word": [[index, 1 if exp > 0 else -1]
                                           for index, exp in a.runs for _ in range(abs(exp))]}
