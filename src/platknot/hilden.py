"""Hilden moves: generators of the bridge-pairing-preserving subgroup.

Multiplying a braid word on either side by elements of this subgroup does
not change the isotopy type of its plat closure, which makes the moves a
source of equivalent-but-different words for stress-testing the invariant
oracle.  There is no membership algorithm here: coset questions are only
probed by sampling translates and comparing closure invariants plus
canonical forms (a falsification harness, not a decision procedure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .braid import BraidWord, compose, free_reduce, inverse
from .canonical import equivalent
from .errors import FormatError, IndexParity, IndexRange, TooMuchWork, require_ints, shown
from .invariants import closure_determinant
from .plat import TwistMatrix, closure_components, to_braid_word

__all__ = [
    "HildenMove",
    "expand",
    "apply_moves",
    "random_hilden_element",
    "hilden_generators",
    "coset_consistency",
    "CosetReport",
    "COSET_WORK_BUDGET",
]

KINDS = ("h1", "h2", "h3", "h4")

# Most colouring bits (see _colouring_bits) one coset_consistency call may
# sweep: with no samples two determinants of at most 2M bits each, a few
# seconds apiece, and at the default 20 a 12x13 plat with |a| up to 2*10^5.
COSET_WORK_BUDGET = 4_000_000


@dataclass(frozen=True)
class HildenMove:
    """One generator: kind h1..h4 at an odd strand index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise IndexRange(f"unknown Hilden move kind {shown(self.kind)}")
        require_ints(IndexRange, "Hilden move index", (self.index,))


def expand(move: HildenMove, strands: int) -> BraidWord:
    """The defining 1- or 4-letter word of a Hilden generator.

    h1_i = s_i
    h2_i = s_(i+1) s_(i+2) s_i s_(i+1)
    h3_i = s_(i+1) s_i s_(i+2)^-1 s_(i+1)^-1
    h4_i = s_(i+1)^-1 s_i^-1 s_(i+2) s_(i+1)
    with i odd, and i != strands-1 for h2..h4.
    """
    i = move.index
    if i % 2 == 0:
        raise IndexParity(f"Hilden index must be odd, got {shown(i)}")
    if not 1 <= i <= strands - 1:
        raise IndexRange(f"index {shown(i)} out of range on {shown(strands)} strands")
    if move.kind == "h1":
        return BraidWord(strands, ((i, 1),))
    if i == strands - 1:
        raise IndexRange(f"{move.kind} needs i != {strands - 1} on {strands} strands")
    runs = {
        "h2": ((i + 1, 1), (i + 2, 1), (i, 1), (i + 1, 1)),
        "h3": ((i + 1, 1), (i, 1), (i + 2, -1), (i + 1, -1)),
        "h4": ((i + 1, -1), (i, -1), (i + 2, 1), (i + 1, 1)),
    }[move.kind]
    return BraidWord(strands, runs)


def apply_moves(b: BraidWord,
                left: Sequence[HildenMove] = (),
                right: Sequence[HildenMove] = ()) -> BraidWord:
    """Multiply ``b`` by Hilden generators: (product of left) b (product of
    right), composed once (linear in the number of moves)."""
    return compose(*(expand(mv, b.strands) for mv in left), b,
                   *(expand(mv, b.strands) for mv in right))


def hilden_generators(strands: int) -> list[HildenMove]:
    """All legal generators on the given strand count."""
    gens = [HildenMove("h1", i) for i in range(1, strands, 2)]
    for kind in ("h2", "h3", "h4"):
        gens.extend(HildenMove(kind, i) for i in range(1, strands - 1, 2))
    return gens


@lru_cache(maxsize=16)  # bounded: a library caller may try many strand counts
def _generator_words(strands: int) -> tuple[BraidWord, ...]:
    return tuple(expand(g, strands) for g in hilden_generators(strands))


def random_hilden_element(strands: int, length: int, seed: int) -> BraidWord:
    """Product of ``length`` uniformly chosen generators or their inverses,
    deterministic in ``seed``.  The generator words come from a table built
    once per strand count, in the order of :func:`hilden_generators`."""
    BraidWord(strands)  # rejects a bad strand count first: 8.0 and True hash like 8 and 1
    require_ints(FormatError, "length and seed", (length, seed))
    rng = random.Random(seed)
    gens = _generator_words(strands)
    runs: list[tuple[int, int]] = []
    for _ in range(length):
        g = gens[rng.randrange(len(gens))]
        if rng.randrange(2):
            g = inverse(g)
        runs.extend(g.runs)
    return BraidWord(strands, tuple(runs))


@dataclass(frozen=True)
class CosetReport:
    """Outcome of the double-coset falsification harness."""

    verdict: str                      # same_coset | provably_distinct | consistent
    rotation_related: bool
    invariants1: dict
    invariants2: dict
    samples_checked: int
    violations: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"verdict: {self.verdict}",
                 f"rotation-related: {self.rotation_related}",
                 f"word 1 invariants: {self.invariants1}",
                 f"word 2 invariants: {self.invariants2}",
                 f"sampled translates checked: {self.samples_checked}"]
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("no violations found")
        return "\n".join(lines)


def _closure_invariants(word: BraidWord) -> dict:
    return {"components": closure_components(word), "determinant": closure_determinant(word)}


def _colouring_bits(mat: TwistMatrix) -> int:
    """(m - 1) * sum of bit_length(2|a| + 1) over the entries: m - 1 colouring
    passes, each over values of at most prod(2|a| + 1), so it bounds the bit
    length that :func:`closure_determinant` and its Bareiss step work at."""
    return (mat.m - 1) * sum((2 * abs(a) + 1).bit_length() for a in mat.entries())


def _differences(inv1: dict, inv2: dict) -> dict:
    return {k: (v, inv2[k]) for k, v in inv1.items() if v != inv2[k]}


def coset_consistency(mat1: TwistMatrix, mat2: TwistMatrix,
                      samples: int = 20, seed: int = 0) -> CosetReport:
    """Probe whether the standard-form words of two highly twisted plats can lie
    in the same Hilden double coset.

    If the matrices are rotation-equal the words are in the same coset and
    every sampled translate h b1 h' must keep all closure invariants of b1
    (and b2).  If they are not rotation-equal, distinct cosets are expected:
    differing invariants certify that, and no sampled translate may reduce
    to b2 as a word.  Any violation recorded here falsifies the claimed
    uniqueness and indicates a bug somewhere.

    The closure determinant, of word 2 once and of word 1 and each translate,
    is nearly all the cost, so TooMuchWork is raised before the first one
    when their colouring bits, ``(1 + samples) * bits(mat1) + bits(mat2)``,
    exceed ``COSET_WORK_BUDGET``.  Per determinant, on a 2-vCPU Xeon VM
    with Python 3.11: 31k bits (12x13, |a| up to 2*10^5) 3 ms, 132k (20x21,
    5 digits) 0.06 s, 1.6M (12x13, 300 digits) 2.8 s, 3.8M (60x61,
    5 digits) 74 s.
    """
    require_ints(FormatError, "samples and seed", (samples, seed))
    # canonical_form preconditions are enforced by `equivalent`
    rotation_related = equivalent(mat1, mat2)
    work = (1 + samples) * _colouring_bits(mat1) + _colouring_bits(mat2)
    if work > COSET_WORK_BUDGET:
        raise TooMuchWork(f"the coset harness would sweep {shown(work)} colouring bits, "
                          f"more than its budget of {COSET_WORK_BUDGET}")
    b1, b2 = to_braid_word(mat1), to_braid_word(mat2)
    inv1 = _closure_invariants(b1)
    inv2 = _closure_invariants(b2)

    violations: list[str] = []
    separating = _differences(inv1, inv2)
    if rotation_related and separating:
        violations.append(f"rotation-equal matrices with unequal invariants: {separating}")

    rng = random.Random(seed)
    reduced_b2 = free_reduce(b2)
    for s in range(samples):
        h_left = random_hilden_element(b1.strands, rng.randrange(1, 5), rng.randrange(1 << 30))
        h_right = random_hilden_element(b1.strands, rng.randrange(1, 5), rng.randrange(1 << 30))
        translate = compose(h_left, b1, h_right)
        inv_t = _closure_invariants(translate)
        mismatch = _differences(inv1, inv_t)
        if mismatch:
            violations.append(
                f"sample {s}: Hilden translate changed closure invariants: {mismatch}")
        if not rotation_related and free_reduce(translate).runs == reduced_b2.runs:
            violations.append(
                f"sample {s}: translate reduces to word 2 although canonical forms differ")

    if rotation_related:
        verdict = "same_coset"
    elif separating:
        verdict = "provably_distinct"
    else:
        verdict = "consistent"
    return CosetReport(
        verdict=verdict,
        rotation_related=rotation_related,
        invariants1=inv1,
        invariants2=inv2,
        samples_checked=samples,
        violations=tuple(violations),
    )
