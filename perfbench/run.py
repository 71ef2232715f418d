"""Benchmark of platknot through its public functions (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it measures the platknot under ``src/`` of the checkout
that holds this file.  The workloads and metrics are listed in
``BENCHMARK.json`` at the checkout root, the generators in
``perfbench/workloads.py``.

With ``--trace 0`` it starts five fresh processes one after the other.  Each
sets the workload up (interpreter start, ``import platknot``, seeded input
generation, one warm-up item); ``setup_s`` is the median of the five.  The
last process then runs the closed loop for S seconds and reports throughput,
latency percentiles (over each item's best repeat) and peak memory.  With ``--trace 1`` one process runs
the loop untraced and then traced on the same items, and reports per-layer
calls, self time and work counts per item.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it gives the context (interpreter, cores, commit, size of
``src/platknot``), the failure ratio and the sample counts.  The exit status
is 0 when a result was printed, non-zero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170          # every run must end well within 180 s


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_platknot_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                  for p in sorted((ROOT / "src" / "platknot").glob("*.py"))),
    }


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark of platknot.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "platknot" / "__init__.py").is_file():
        print(f"error: no platknot package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [spawn(args, deadline, True)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result = spawn(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "context": context(),
        "fail_ratio": result["failed"] / result["attempted"],
        "golden_checked": result["golden_checked"],
        "setup_s_samples": setups,
        **result["detail"],
    }))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
