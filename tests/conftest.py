import contextlib
import operator
import random
import resource

import pytest
from hypothesis import strategies as st

from platknot import PlatClosureStyle, TwistMatrix
from platknot.braid import BraidWord
from platknot.canonical import ELEMENTS, apply
from platknot.plat import row_width


@pytest.fixture
def example_matrix() -> TwistMatrix:
    """The width-4, height-3 matrix with a_22 = 6, a_33 = -6, else -4."""
    return TwistMatrix(4, [(-4, -4, -4), (-4, 6, -4, -4), (-4, -4, -6)])


def random_matrix(rng: random.Random, m: int, n: int,
                  lo: int, hi: int, signed: bool = True) -> TwistMatrix:
    """Valid matrix with |entries| in [lo, hi] (random signs if ``signed``)."""
    rows = []
    for i in range(1, n + 1):
        row = []
        for _ in range(row_width(m, i)):
            a = rng.randint(lo, hi)
            if signed and rng.random() < 0.5:
                a = -a
            row.append(a)
        rows.append(tuple(row))
    return TwistMatrix(m, rows)


def random_small_matrix(rng: random.Random, max_total: int,
                        ms=(2, 3, 4), ns=(1, 3)) -> TwistMatrix:
    """Valid matrix with small entries and total crossings <= max_total."""
    while True:
        mat = random_matrix(rng, rng.choice(ms), rng.choice(ns), 0, 3)
        if sum(abs(a) for a in mat.entries()) <= max_total:
            return mat


@contextlib.contextmanager
def address_space_cap(extra_mb: int = 512):
    """Turn an allocation of more than ``extra_mb`` MB beyond what the process
    maps now into MemoryError, so a broken size check fails its test instead
    of exhausting the machine's memory (Linux; elsewhere no cap)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    cap = mapped + extra_mb * 2 ** 20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def diagram_is_connected(d):
    """Connectivity of the 4-valent graph (plus lone circles)."""
    if d.crossing_count == 0:
        return d.free_loops == 1
    if d.free_loops:
        return False
    root = list(range(d.crossing_count))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    home = {}
    for k, quad in enumerate(d.quadruples):
        for a in quad:
            if a in home:
                ra, rk = find(home[a]), find(k)
                if ra != rk:
                    root[rk] = ra
            else:
                home[a] = k
    return len({find(k) for k in range(d.crossing_count)}) == 1


# -- braid words letter by letter, as tuples of (index, sign) letters --

def ref_letters(runs):
    """One (index, sign) letter per crossing of ``runs``."""
    return tuple((i, 1 if e > 0 else -1) for i, e in runs for _ in range(abs(e)))


def ref_permutation(strands, letters):
    """p with p[i-1] the bottom position of the strand that starts at top
    position i; every letter swaps its two strands, whatever its sign."""
    cur = list(range(strands + 1))
    for i, _ in letters:
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    out = [0] * strands
    for pos in range(1, strands + 1):
        out[cur[pos] - 1] = pos
    return tuple(out)


# -- hypothesis strategies: braid words, closures, plats, coefficient lists --

STRANDS = range(2, 13, 2)
LETTERS = st.sampled_from([1, -1])
EXPONENTS = st.integers(-6, 6)  # zero included: the constructor drops such runs


def runs_on(strands: int, exponent=EXPONENTS, max_runs: int = 30):
    """Lists of (index, exponent) runs on ``strands`` strands."""
    return st.lists(st.tuples(st.integers(1, strands - 1), exponent), max_size=max_runs)


@st.composite
def braid_words(draw, exponent, max_runs: int):
    """Words on 2-12 strands of at most ``max_runs`` runs."""
    strands = draw(st.sampled_from(STRANDS))
    return BraidWord(strands, draw(runs_on(strands, exponent, max_runs)))


@st.composite
def run_pairs(draw):
    """(strands, runs, runs): two lists of runs on one strand count."""
    strands = draw(st.sampled_from(STRANDS))
    return strands, draw(runs_on(strands)), draw(runs_on(strands))


letter_words = braid_words(LETTERS, 40)
run_words = braid_words(EXPONENTS, 30)
styles = st.sampled_from(list(PlatClosureStyle))


@st.composite
def any_matrices(draw):
    """Well-formed matrices of width 2-9 and odd height 1-9, zero entries
    allowed: inside and outside the uniqueness theorem's range."""
    m = draw(st.integers(2, 9))
    n = draw(st.sampled_from(range(1, 10, 2)))
    widths = [row_width(m, i) for i in range(1, n + 1)]
    entries = iter(draw(st.lists(st.integers(-9, 9), min_size=sum(widths), max_size=sum(widths))))
    return TwistMatrix(m, [[next(entries) for _ in range(w)] for w in widths])


def twisted(mat):
    """``mat`` with each entry a moved 4 away from zero: every |a| >= 4.  The
    map is injective and acts entrywise, so it keeps a pair rotated, or
    differing in one entry."""
    return TwistMatrix(mat.m, [[a + 4 if a >= 0 else a - 4 for a in row] for row in mat.rows])


@st.composite
def matrix_pairs(draw):
    """A matrix with a rotation of it, with a copy differing in one entry, or
    with an independent draw of any shape; half of the pairs 4-highly
    twisted."""
    mat = draw(any_matrices())
    kind = draw(st.sampled_from(["rotated", "one entry changed", "independent"]))
    if kind == "rotated":
        other = apply(draw(st.sampled_from(ELEMENTS)), mat)
    elif kind == "one entry changed":
        rows = [list(r) for r in mat.rows]
        i = draw(st.integers(0, mat.n - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.integers(-9, 9).filter(lambda a: a != rows[i][j]))
        other = TwistMatrix(mat.m, rows)
    else:
        other = draw(any_matrices())
    return (twisted(mat), twisted(other)) if draw(st.booleans()) else (mat, other)


def coeff_lists(max_size: int, moduli=st.integers(3, 9)):
    """Continued-fraction coefficients of a modulus drawn from ``moduli`` and either sign."""
    return st.lists(st.builds(operator.mul, moduli, LETTERS), min_size=1, max_size=max_size)
