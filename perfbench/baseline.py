"""Run every workload on several seeds and write a baseline file.

    python3 perfbench/baseline.py [--out perfbench/BENCH_baseline.json]

Run from the repository root.  For each workload it makes one untraced run
per seed (seeds 1..SEEDS) with BENCHMARK.json's run_seconds, and one traced run
with seed 1.  For each end-to-end metric it records the values, their
median and quartiles, and the spread: the distance between the quartiles
as a share of the median, with `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = 10


def bench_run(command, workload, seed, seconds, trace):
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "BENCH_baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    command = [sys.executable if c == "python3" else c for c in spec["command"]]

    result = {"machine": {"python": platform.python_version(),
                          "cpus": os.cpu_count(), "platform": platform.platform()},
              "run_seconds": spec["run_seconds"], "seeds": SEEDS,
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench_run(command, name, s, spec["run_seconds"], 0)
                for s in range(1, SEEDS + 1)]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "values": values}
            print(f"{name:14s} {m['name']:12s} median {metrics[m['name']]['median']:10.4f} "
                  f"spread {metrics[m['name']]['spread']:.3f}", flush=True)
        traced = bench_run(command, name, 1, spec["run_seconds"], 1)
        result["workloads"][name] = {
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
