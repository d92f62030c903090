"""cwlab benchmark: seeded closed-loop workloads, end-to-end and per-layer.

    python3 bench/run.py --workload {classify,single_k,census,cli,all}
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record     # re-record expected.json (default seed)

Run from the repository root.  One client process (this one) generates the
queries from the seed, measures set-up, starts one fresh child per workload
(bench/child.py, one at a time), gates every answer and prints a summary.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json, with --trace 1 the per-layer
ones; spans of a traced run are written to .bench_out/<run>/spans.jsonl.
Times are normalised to a reference host speed (pace.py); the summary
lines also give each pass's raw time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from pace import Pace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(BENCH, "expected.json")

DEFAULT_SEED = 0
SETUP_REPEATS = 25
#: Time a child may take beyond --seconds: its last (possibly traced) pass
#: may start just before the deadline.
CHILD_MARGIN_S = 120

SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import cwlab
moduli = [cwlab.Modulus(int(n)) for n in sys.argv[1:]]
print(time.perf_counter() - start)
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def measure_setup(workload: str, queries: list[dict]) -> list[float]:
    """Normalised set-up time, measured SETUP_REPEATS times in fresh
    interpreters after one warm-up that fills the bytecode cache, with
    reference samples between them."""
    if workload == "cli":
        command = [sys.executable, "-c", "import cwlab.cli"]
    else:
        moduli = sorted({str(q["N"]) for q in queries}, key=int)
        command = [sys.executable, "-c", SETUP_SNIPPET, *moduli]
    regions, pace = [], Pace()
    for repeat in range(SETUP_REPEATS + 1):
        pace.tick()
        start = time.perf_counter()
        proc = subprocess.run(command, env=child_env(), capture_output=True,
                              text=True, check=True, timeout=60)
        end = time.perf_counter()
        if repeat:
            # In-process set-up is timed by the child and placed at the
            # end of its process's run.
            regions.append((start, end) if workload == "cli"
                           else (end - float(proc.stdout), end))
    return pace.normalise(regions)


def run_child(workload: str, queries: list[dict], seconds: float,
              trace: bool, out_dir: str) -> tuple[dict, dict[int, object]]:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump({"workload": workload, "queries": queries,
                   "seconds": seconds, "trace": trace, "out": out_dir}, f)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"),
                           spec_path], env=child_env(), capture_output=True,
                          text=True, timeout=seconds + CHILD_MARGIN_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} child exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    answers = {}
    with open(os.path.join(out_dir, "answers.jsonl")) as f:
        for line in f:
            entry = json.loads(line)
            if "answer" in entry:
                answers[entry["i"]] = entry["answer"]
    return result, answers


def per_layer(names: list[str], result: dict, cli_summaries: list[dict]
              ) -> dict[str, float]:
    """Per-layer values from the traced pass: the child's own tracer
    summary, or, for cli, one summary per traced command.  Times are
    normalised by the traced pass's slowness factor."""
    slowness = result["traced_slowness"]
    stats, counts = {}, {}
    for summary in cli_summaries or [result["trace"]]:
        for name, (calls, self_s) in summary["stats"].items():
            total = stats.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s / slowness
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
    space = counts.get("bruteforce.word_space", 0)
    counts["bruteforce.solution_ratio"] = (
        counts.get("bruteforce.solutions", 0) / space if space else 0.0)
    counts["trace.overhead_frac"] = (
        result["traced_wall_s"] / statistics.median(result["walls"]) - 1)
    if cli_summaries:
        counts["cli.interpreter_s"] = statistics.median(
            result["interpreter_s"]) / slowness
        counts["cli.import_s"] = statistics.median(
            s["import_s"] for s in cli_summaries) / slowness
    values = {}
    for name in names:
        function, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and function in stats:
            values[name] = stats[function][0 if field == "calls" else 1]
        else:
            values[name] = counts.get(name, 0)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 benchmark: dict, recorded: dict, tiny: bool = False) -> dict:
    from gate import gate
    from workloads import GENERATORS

    queries = GENERATORS[workload](seed, tiny=tiny)
    setup = [] if trace else measure_setup(workload, queries)
    out_dir = os.path.join(
        OUT, f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' * tiny}")
    result, answers = run_child(workload, queries, seconds, trace, out_dir)
    wrong = gate(workload, queries, answers, recorded.get(workload, {}))
    for i, reason in sorted(wrong.items())[:5]:
        print(f"WRONG {workload} {json.dumps(queries[i])}: {reason}",
              file=sys.stderr)
    runs = result["attempted"] // len(queries)
    attempted = result["attempted"]
    failed = min(attempted, result["failed"] + len(wrong) * runs)
    latencies_ms = [1000 * t for t in result["latencies"]]
    report = {"workload": workload, "seed": seed, "queries": queries,
              "walls": result["walls"], "raw_walls": result["raw_walls"],
              "samples": len(latencies_ms), "answers": answers,
              "attempted": attempted, "failed": failed,
              "correct": failed == 0 and len(answers) == len(queries)}
    if trace:
        summaries = []
        summary_path = os.path.join(out_dir, "cli-summary.jsonl")
        if os.path.exists(summary_path):
            with open(summary_path) as f:
                summaries = [json.loads(line) for line in f]
        names = [m["name"] for m in benchmark["per_layer"]]
        report["metrics"] = per_layer(names, result, summaries)
        report["spans"] = os.path.join(out_dir, "spans.jsonl")
    else:
        report["metrics"] = {
            "wall_s": statistics.median(result["walls"]),
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": statistics.quantiles(
                latencies_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    return report


def print_report(report: dict, units: dict[str, str]) -> None:
    print(f"== {report['workload']} (seed {report['seed']}): "
          f"{report['samples']} timed queries, {report['failed']} of "
          f"{report['attempted']} failed; untraced passes took "
          + ", ".join(f"{w:.3f} s ({raw:.3f} s raw)" for w, raw
                      in zip(report["walls"], report["raw_walls"])))
    for name, value in report["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<48} {report['failed'] / report['attempted']:>14.6g}")
    if "spans" in report:
        print(f"  spans written to {os.path.relpath(report['spans'], ROOT)}")


def record(benchmark: dict) -> None:
    from gate import comparable
    from workloads import WORKLOADS, digest, query_key

    recorded = {}
    for workload in WORKLOADS:
        report = run_workload(workload, DEFAULT_SEED, 0, False, benchmark, {})
        if not report["correct"]:
            raise SystemExit(f"{workload}: answers fail the gate; not recorded")
        queries = report["queries"]
        recorded[workload] = {
            query_key(queries[i]): digest(comparable(workload, queries[i], a))
            for i, a in sorted(report["answers"].items())}
    with open(EXPECTED, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json from the default seed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cwlab", "__init__.py")):
        print(f"error: no cwlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    if args.record:
        record(benchmark)
        return 0
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    with open(EXPECTED) as f:
        recorded = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[kind]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for workload in workloads:
        report = run_workload(workload, args.seed, seconds, bool(args.trace),
                              benchmark, recorded)
        print_report(report, units)
        reports.append(report)
    metrics = {}
    for r in reports:
        prefix = f"{r['workload']}." if len(reports) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
