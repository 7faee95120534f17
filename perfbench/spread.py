#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread against its bounds.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--workload NAME ...]

Runs each workload (default: every workload in BENCHMARK.json) once on
each of the seeds 1 to 10, untraced, for the configured run_seconds.
For each end-to-end metric it prints the median, the interquartile range
as a share of the median (statistics.quantiles, n=4) and the metric's
bound; a spread above a third of the bound is flagged. It exits 1 if any
check failed or any spread but that of setup_s exceeds its bound.

setup_s is exempt because its bound limits something else: how far the
median of one set of runs may move from the next, so that work moved
into set-up shows. On paper_grid and trace_store, set-up takes 2 to 45
ms, and a shared host's bursts move so short a step by about its whole
bound from one run to the next.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().split("\n")[-1])
            print(f"{workload} seed {seed}: {json.dumps(result)}", flush=True)
            if not result["correct"] or result["failed"]:
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(SEEDS)} runs")
        for name, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            ok = ok and (spread <= bound or name == "setup_s")
            print(f"  {name:<14} median {q2:<14.6g} spread {spread:.4f} bound {bound}{flag}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
