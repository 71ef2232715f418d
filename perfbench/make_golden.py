"""Recompute perfbench/golden.json: the answer digest of every pool item on the default seed.

    python3 perfbench/make_golden.py

The benchmark compares every answer on the default seed with these digests.
Regenerate them only when an answer is meant to change (a generator or a
stated convention changed), and say so in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from worker import GOLDEN, WORK, import_platknot


def main() -> int:
    import_platknot()
    import workloads

    WORK.mkdir(exist_ok=True)
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        try:
            _, pool = workload.inputs(workloads.DEFAULT_SEED, workdir)
            digests = []
            for k, item in enumerate(pool):
                answer = workload.run(item)
                problems = workload.check(item, answer)
                if problems:
                    print(f"{name} item {k}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                digests.append(workload.digest(answer))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        golden[name] = digests
        print(f"{name}: {len(digests)} answers")
    GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
