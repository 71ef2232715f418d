"""One benchmark process: set up one workload, then (unless --setup-only) run it.

run.py starts this script in a fresh interpreter and passes ``--launched``,
the monotonic clock reading taken just before the start, so set-up time
covers interpreter start-up, ``import platknot``, seeded input generation
(including writing input files) and one untimed warm-up item.

The timed loop is closed with one caller: one item at a time, the next one
only after the previous one returned and was checked.  Latency is the time
inside the item; the output checks run outside it.  The loop passes over the
pool again and again until the time is up (at least once), and an item's
latency is the least of its repeats.  A shared virtual machine (measured on
a 2-vCPU Xeon guest) can run 1.3-1.7x slower for tens of seconds at a time
because of its neighbours; the best of an item's repeats is its cost
whenever the run meets the fast state at least briefly.  Repeating inputs is
safe because platknot keeps no results between calls; a change that adds
such a cache cannot be judged by this loop.

With ``--trace 1`` the process first runs untraced for half the time, then
replays exactly the same items with the layer recorder installed, and
reports per-layer metrics.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
GOLDEN = HERE / "golden.json"


def import_platknot():
    """Import platknot from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import platknot
    if Path(platknot.__file__).resolve().parent != src / "platknot":
        raise ImportError(f"platknot imported from {platknot.__file__}, not from {src}")
    return platknot


def verify(workload, item, answer, golden, k) -> list[str]:
    """Output checks of one answer, plus the golden digest on the default seed."""
    try:
        problems = workload.check(item, answer)
        if golden is not None and workload.digest(answer) != golden[k % len(golden)]:
            problems.append("answer differs from the golden answer")
    except Exception as exc:     # a malformed answer is a failed check, not a crash
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


def drive(workload, pool, golden, *, seconds=None, items=None, recorder=None):
    """Closed loop over the pool from its start, for ``items`` items or until
    ``seconds`` have passed and every item ran at least once.

    Returns (latencies in seconds, [(item index, problems)]).  An item that
    raises counts as failed; it is never skipped.
    """
    latencies, failures = [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    k = 0
    while k < items if items is not None else (k < len(pool) or time.perf_counter() < deadline):
        item = pool[k % len(pool)]
        if recorder is not None:
            recorder.item, recorder.paused = k, False
        start = time.perf_counter()
        try:
            answer, problems = workload.run(item), None
        except Exception as exc:     # recorded as a failure of this item
            answer, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.paused = True
        if problems is None:
            problems = verify(workload, item, answer, golden, k)
        if problems:
            failures.append((k, problems))
        k += 1
    return latencies, failures


def best_of_repeats(latencies, pool_size: int) -> list[float]:
    """Each pool item's least latency over its repeats (item k is pool item k % pool_size)."""
    best = latencies[:pool_size]
    for k in range(pool_size, len(latencies)):
        best[k % pool_size] = min(best[k % pool_size], latencies[k])
    return best


def timed_metrics(latencies, pool_size: int) -> tuple[dict, dict]:
    """End-to-end metrics over the pool items' best latencies."""
    best = best_of_repeats(latencies, pool_size)
    p90 = statistics.quantiles(best, n=10)[-1]
    metrics = {
        "items_per_s": (len(best) / sum(best), "1/s"),
        "item_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "item_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"items": len(latencies), "distinct_items": len(best),
              "repeats": len(latencies) / len(best),
              "item_p90_samples_beyond": sum(x > p90 for x in best)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_platknot()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        warm, pool = workload.inputs(args.seed, workdir)
        setup_problems = drive(workload, [warm], None, items=1)[1]
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        golden = None
        if args.seed == workloads.DEFAULT_SEED:
            golden = json.loads(GOLDEN.read_text())[args.workload]
            if len(golden) != len(pool):
                setup_problems.append((-1, [f"{len(golden)} golden answers for {len(pool)} items"]))
        if args.trace:
            untraced, failures = drive(workload, pool, golden, seconds=args.seconds / 2)
            recorder = tracer.Recorder()
            with recorder.installed():
                traced, traced_failures = drive(workload, pool, golden, items=len(untraced),
                                                recorder=recorder)
            failures += traced_failures
            attempted = len(untraced) + len(traced)
            units = tracer.metric_units()
            overhead = (sum(best_of_repeats(traced, len(pool)))
                        / sum(best_of_repeats(untraced, len(pool))))
            values = recorder.metrics(len(traced), sum(traced), overhead)
            metrics = {name: (values[name], units[name]) for name in units}
            spans = WORK / f"{args.workload}-spans.json"
            recorder.write(spans)
            detail = {"items": len(traced), "spans": len(recorder.spans),
                      "spans_dropped": recorder.dropped, "spans_file": str(spans.relative_to(ROOT))}
        else:
            latencies, failures = drive(workload, pool, golden, seconds=args.seconds)
            attempted = len(latencies)
            metrics, detail = timed_metrics(latencies, len(pool))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, problems in (setup_problems + failures)[:10]:
        print(f"{args.workload} item {k}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "correct": not setup_problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "golden_checked": golden is not None,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
