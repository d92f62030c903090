"""Measure one point of the bench trajectory and append it to trajectory.json.

    python3 bench/trajectory.py LABEL

Runs every workload untraced once per seed 0..9.  The seeds go in the
outer loop, so host-speed drift hits all workloads alike.  Then the median
and quartiles (statistics.quantiles, n=4) of each end-to-end metric are
recorded per workload, with the spread (q3 - q1) / median.  A traced run of
each workload at seed 0 adds its per-layer metrics.  Run it from the
repository root.  It takes about 11.5 * 4 * (run_seconds + 5)
seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(BENCH, "trajectory.json")
SEEDS = range(10)


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    print(proc.stdout.splitlines()[0], flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> str:
    return (f"{os.cpu_count()} CPUs ({platform.machine()}), "
            f"Python {platform.python_version()}")


def summarize(runs: list[dict]) -> dict:
    summary = {"failed": sum(r["failed"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs)}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": metric["unit"], "median": median, "q1": q1,
                         "q3": q3, "spread": (q3 - q1) / median}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="what was measured, e.g. a commit id")
    args = parser.parse_args()
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    results = {workload: [] for workload in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            results[workload].append(run_once(workload, seed, 0))
    point = {"label": args.label, "host": host(),
             "seeds": list(SEEDS),
             "end_to_end": {w: summarize(runs) for w, runs in results.items()},
             "per_layer_seed0": {}}
    for workload, summary in point["end_to_end"].items():
        for name, m in summary.items():
            if isinstance(m, dict):
                print(f"{workload:<9} {name:<15} median {m['median']:.6g} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                      f"spread {m['spread']:.3f}")
    for workload in WORKLOADS:
        metrics = run_once(workload, 0, 1)["metrics"]
        point["per_layer_seed0"][workload] = {
            name: m["value"] for name, m in metrics.items() if m["value"]}
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            trajectory = json.load(f)
    trajectory.append(point)
    with open(TRAJECTORY, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
