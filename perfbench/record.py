"""Write reference.json, the answers every benchmark job is checked against.

    python3 perfbench/record.py

Run from the repository root, and only when a change is meant to alter the
program's output.  Typetable reports are still checked against the paper's
type table while recording, and the file-jobs answers are recorded with two
seeds, so a seed-dependent output is refused.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    ref = run.Reference({}, record=True)
    scale_work = os.path.join(run.WORK_DIR, "scale-p5")
    os.makedirs(scale_work, exist_ok=True)
    jobs = [run.typetable_job(e) for e in (1, 2)]
    jobs += [run.scale_job(q, scale_work) for q in (1, 2, 3, 4)]
    failed = run.run_pass(jobs, ref, None).outcomes
    for seed in (0, 1):
        jobs, _ = run.generate("file-jobs", seed, ref)
        failed += run.run_pass(jobs, ref, None).outcomes
    if any(o.error for o in failed):
        print("not recorded: some answers are wrong", file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref.answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ref.answers)} answers in {run.rel(run.REFERENCE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
