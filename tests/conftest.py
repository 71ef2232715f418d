import contextlib
import random
import resource

import pytest

from platknot import TwistMatrix
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
