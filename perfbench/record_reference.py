"""Record the reference outputs of every workload, size and input set.

    python3 perfbench/record_reference.py

Rewrites perfbench/reference.json from the program in this checkout. Run it
only when a change is meant to alter the answers, and say why where the
change is described; the benchmark's `answer_drift` compares against it.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins the thread pools before numpy loads


def main() -> int:
    run.load_program()
    from workloads import POOL_SIZE, SCALES, build, to_reference

    workdir = run.WORK / "record"
    reference: dict = {}
    try:
        for size, scale in SCALES.items():
            for workload in run.WORKLOAD_NAMES:
                indices = [0] if workload == "flow3d" else range(POOL_SIZE)
                for index in indices:
                    ops = build(workload, index, scale, workdir)
                    _, results = run.run_pass(ops)
                    entry = {}
                    for op, (value, error) in zip(ops, results):
                        outcome = op.check(value) if error is None else None
                        problems = [error] if outcome is None else outcome.problems
                        if problems:
                            sys.exit(f"{size}/{workload}/{index}/{op.name}: {problems}")
                        entry[op.name] = to_reference(outcome)
                    reference.setdefault(size, {}).setdefault(workload, {})[str(index)] = entry
                    print(f"recorded {size}/{workload}/{index}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
