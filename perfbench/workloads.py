"""The seeded workloads of the platknot benchmark.

Each workload turns a seed into one warm-up item and a fixed pool of items,
runs one item through platknot's public functions, and checks the answer.
The benchmark drives the items in a closed loop with a single caller: the
next item starts only when the previous one has returned, and the loop
passes over the pool several times (see worker.py).

Sizes and kinds are drawn in shuffled blocks that take every stratum once,
so every seed gets the same mix and only the entries differ, while each
marginal distribution stays uniform over its stated range.

The generators build matrices, rotations, perturbations and input files with
the benchmark's own code; platknot receives only the finished inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from platknot import canonical, cli, plat, twobridge
from platknot.plat import TwistMatrix

DEFAULT_SEED = 0


# -- generation helpers (independent of platknot) ----------------------------

def _row_width(m: int, i: int) -> int:
    return m - 1 if i % 2 == 1 else m


def _entry_count(m: int, n: int) -> int:
    return sum(_row_width(m, i) for i in range(1, n + 1))


def _blocks(rng: random.Random, values: Sequence) -> Iterator:
    """Endless shuffled passes over ``values``; each block takes every value once."""
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def _rows(rng: random.Random, m: int, n: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Random rows of an m x n twist matrix, every |a_ij| in [lo, hi], signs random."""
    mags = [rng.randrange(lo, hi + 1) for _ in range(_entry_count(m, n))]
    signed = [a if rng.randrange(2) else -a for a in mags]
    rows, at = [], 0
    for i in range(1, n + 1):
        width = _row_width(m, i)
        rows.append(tuple(signed[at:at + width]))
        at += width
    return tuple(rows)


def _rotate(rows: tuple[tuple[int, ...], ...], kind: str) -> tuple[tuple[int, ...], ...]:
    """The pi-rotations on coefficients: 'h' reverses row order, 'v' each row."""
    if "h" in kind:
        rows = tuple(reversed(rows))
    if "v" in kind:
        rows = tuple(tuple(reversed(r)) for r in rows)
    return rows


def _orbit_min(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Reference canonical form: the rotation whose flattened entries are least."""
    return min((_rotate(rows, k) for k in ("", "h", "v", "hv")),
               key=lambda rs: [a for r in rs for a in r])


def _perturb(rng: random.Random, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Push one random entry one step further from zero (criterion 9's control)."""
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    out = [list(r) for r in rows]
    out[i][j] += 1 if out[i][j] > 0 else -1
    return tuple(tuple(r) for r in out)


def _partner(rng: random.Random, rows, rotated: bool):
    return _rotate(rows, rng.choice(("h", "v", "hv"))) if rotated else _perturb(rng, rows)


def _text(m: int, rows) -> str:
    return f"{m} {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _json(m: int, rows) -> str:
    return json.dumps({"plat-format": 1, "m": m, "n": len(rows), "rows": [list(r) for r in rows]})


class Workload:
    """One workload: seeded inputs, the item, its output checks."""

    name = ""

    def inputs(self, seed: int, workdir: str) -> tuple[object, list]:
        """(warm-up item, pool) for ``seed``; the same seed gives the same inputs."""
        raise NotImplementedError

    def run(self, item):
        """One item: the work a user waits for."""
        raise NotImplementedError

    def check(self, item, answer) -> list[str]:
        """Problems with ``answer``; empty when it is right."""
        raise NotImplementedError

    def record(self, answer):
        """JSON-able form of ``answer`` for the golden digests."""
        raise NotImplementedError

    def digest(self, answer) -> str:
        """Short stable digest of ``answer``, as stored in the golden file."""
        text = json.dumps(self.record(answer), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- canon_catalogue: parse, canonical form, symmetries, Schubert pairs ------

@dataclass(frozen=True)
class CanonItem:
    data: str
    is_json: bool
    rows: tuple
    partner: TwistMatrix
    rotated: bool


class CanonCatalogue(Workload):
    name = "canon_catalogue"
    shapes = [(m, n) for m in range(4, 17) for n in range(3, 22, 2)]
    pool_size = 8 * len(shapes)

    def inputs(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        shapes = _blocks(rng, self.shapes)
        formats, kinds = _blocks(rng, (False, True)), _blocks(rng, (False, True))
        warm = self.make(rng, (10, 11), True, True)
        return warm, [self.make(rng, next(shapes), next(formats), next(kinds))
                      for _ in range(self.pool_size)]

    @staticmethod
    def make(rng, shape, is_json, rotated):
        m, n = shape
        rows = _rows(rng, m, n, 4, 9)
        data = _json(m, rows) if is_json else _text(m, rows)
        return CanonItem(data, is_json, rows, TwistMatrix(m, _partner(rng, rows, rotated)), rotated)

    def run(self, item):
        if item.is_json:
            mat = plat.TwistMatrix.from_json_dict(json.loads(item.data))
        else:
            mat = plat.TwistMatrix.from_text(item.data)
        return (canonical.canonical_form(mat),
                canonical.symmetry_group(mat),
                twobridge.schubert_pair(twobridge.left_boundary_coeffs(mat)),
                twobridge.schubert_pair(twobridge.right_boundary_coeffs(mat)),
                canonical.equivalent(mat, item.partner))

    def check(self, item, answer):
        canon, _, _, _, same = answer
        problems = []
        if canon.rows != _orbit_min(item.rows):
            problems.append("canonical form is not the rotation-orbit minimum")
        if (canonical.canonical_form(item.partner) == canon) != item.rotated:
            problems.append(f"partner canonical form disagrees with rotated={item.rotated}")
        if same != item.rotated:
            problems.append(f"equivalent returned {same} for rotated={item.rotated}")
        return problems

    def record(self, answer):
        canon, group, left, right, same = answer
        return {"canon": canon.rows, "group": [g.value for g in group],
                "left": sorted(map(str, left)), "right": sorted(map(str, right)),
                "same": same}


# -- cli_session: the plat command, in process, on files ---------------------

@dataclass(frozen=True)
class CliItem:
    text_path: str
    json_path: str
    rotated: bool
    seed: int


class CliSession(Workload):
    name = "cli_session"
    pool_size = 110

    def inputs(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        kinds = _blocks(rng, (False, True))
        warm = self.make(rng, workdir, "warm-up", True, 0)
        return warm, [self.make(rng, workdir, f"{k:04d}", next(kinds), k)
                      for k in range(self.pool_size)]

    @staticmethod
    def make(rng, workdir, tag, rotated, seed):
        rows = _rows(rng, 4, 3, 4, 5)
        text_path = os.path.join(workdir, f"pair-{tag}-a.plat")
        json_path = os.path.join(workdir, f"pair-{tag}-b.json")
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(_text(4, rows))
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(_json(4, _partner(rng, rows, rotated)))
        return CliItem(text_path, json_path, rotated, seed)

    def run(self, item):
        a, b = item.text_path, item.json_path
        out = []
        for argv in (["--json", "equiv", a, b],
                     ["--json", "invariants", a],
                     ["--json", "hilden", "coset", a, b, "--samples", "8", "--seed", str(item.seed)]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:   # argparse rejects a command line this way
                    status = exc.code
            out.append((status, stdout.getvalue()))
        return out

    def check(self, item, answer):
        (eq_status, eq_out), (inv_status, inv_out), (co_status, co_out) = answer
        problems = []
        if eq_status != (0 if item.rotated else 1) or json.loads(eq_out) != {"equivalent": item.rotated}:
            problems.append(f"equiv exited {eq_status} with {eq_out.strip()!r} for rotated={item.rotated}")
        if inv_status != 0:
            problems.append(f"invariants exited {inv_status}")
        else:
            inv = json.loads(inv_out)
            if (inv["determinant"] % 2 == 1) != (inv["components"] == 1):
                problems.append(f"invariants: determinant parity wrong: {inv_out.strip()}")
        coset = json.loads(co_out) if co_out else {}
        if (co_status != 0 or coset.get("violations") != [] or not coset.get("consistent")
                or coset.get("rotation_related") != item.rotated
                or (coset.get("verdict") == "same_coset") != item.rotated):
            problems.append(f"hilden coset exited {co_status} with {co_out.strip()!r} "
                            f"for rotated={item.rotated}")
        return problems

    def record(self, answer):
        return [list(pair) for pair in answer]


WORKLOADS = {w.name: w for w in (CanonCatalogue(), CliSession())}
