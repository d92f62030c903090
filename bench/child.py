"""Runs one workload's query set in a closed loop, in a fresh process.

    python3 bench/child.py SPEC.json
        Run the queries in SPEC.json pass after pass until the next pass
        would end after the deadline (at least one pass), and print a JSON
        result as the last line of stdout.  The answers of the first pass go
        to answers.jsonl in the spec's output directory; later passes must
        reproduce them, or the query counts as failed.  With tracing on, one
        traced pass runs first and its spans go to spans.jsonl.

    python3 bench/child.py cli-command OUT_DIR TAG ARGV...
        Run one `cwl ARGV...` under the tracer (the traced cli pass).

Only the library calls (for cli, the whole subprocess) are timed; turning
results into answers and sampling the reference unit (pace.py) happen
between timed regions.  Each query's time is normalised to the reference
host speed by the reference samples around it.  Library functions are
called through the cwlab package namespace so that the tracer sees them.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

from pace import Pace
from workloads import digest

CLI_TIMEOUT_S = 120


def _certificate(certificate) -> list:
    """Variant and summands; the Exhausted candidate list and summary text
    are left out on purpose."""
    if certificate.variant == "decomposition":
        return [certificate.variant, list(certificate.left.values),
                list(certificate.right.values)]
    return [certificate.variant, None, None]


def _moduli(queries, spec):
    import cwlab

    return {n: cwlab.Modulus(n) for n in sorted({q["N"] for q in queries})}


def run_classify(query, moduli):
    import cwlab

    return cwlab.classify_monomials(moduli[query["N"]])


def answer_classify(query, reports):
    return [[r.k, r.size, r.sign, r.irreducible, *_certificate(r.certificate)]
            for r in reports]


def run_single_k(query, moduli):
    import cwlab

    m, k = moduli[query["N"]], query["k"]
    return (cwlab.minimal_monomial_size(m, k), cwlab.quadratic_roots(m, k),
            cwlab.is_reducible_monomial(m, k))


def answer_single_k(query, result):
    (size, sign), roots, (reducible, certificate) = result
    return {"size": size, "sign": sign, "roots": list(roots.roots),
            "reducible": reducible, "certificate": _certificate(certificate)}


def run_census(query, moduli):
    import cwlab

    return cwlab.enumerate_solutions(cwlab.EnumerationQuery(
        moduli[query["N"]], query["n"], dedup=query["dedup"]))


def answer_census(query, census):
    return {"total": census.total,
            "words": [list(w.values) for w in census.words]}


def _cli_setup(queries, spec):
    return {"out": spec["out"], "traced": spec["trace"], "calls": 0}


def run_cli(query, ctx):
    if ctx["traced"]:
        command = [sys.executable, os.path.abspath(__file__), "cli-command",
                   ctx["out"], f"c{ctx['calls']}-"]
    else:
        command = [sys.executable, "-m", "cwlab"]
    ctx["calls"] += 1
    return subprocess.run(command + query["argv"], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)


def answer_cli(query, proc):
    return {"code": proc.returncode, "stdout": proc.stdout}


WORKLOADS = {
    "classify": (_moduli, run_classify, answer_classify),
    "single_k": (_moduli, run_single_k, answer_single_k),
    "census": (_moduli, run_census, answer_census),
    "cli": (_cli_setup, run_cli, answer_cli),
}


def run_pass(queries, run, answer, ctx, answers_out, digests, pace):
    """One closed-loop pass; returns (normalised latencies in s, failures,
    raw pass time in s)."""
    first = not digests
    regions = []
    failures = 0
    for i, query in enumerate(queries):
        pace.tick()
        start = time.perf_counter()
        try:
            result = run(query, ctx)
        except Exception as exc:  # a failing query is counted, not fatal
            regions.append((start, time.perf_counter()))
            failures += 1
            if first:
                digests.append(None)
                answers_out.write(json.dumps(
                    {"i": i, "error": f"{type(exc).__name__}: {exc}"}) + "\n")
            continue
        regions.append((start, time.perf_counter()))
        a = answer(query, result)
        del result
        d = digest(a)
        if first:
            digests.append(d)
            answers_out.write(json.dumps({"i": i, "answer": a}) + "\n")
        elif d != digests[i]:
            failures += 1
    raw = sum(end - start for start, end in regions)
    return pace.normalise(regions), failures, raw


def _interpreter_samples(count: int = 5) -> list[float]:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - start)
    return samples


def main(spec_path: str) -> None:
    started = time.perf_counter()
    with open(spec_path) as f:
        spec = json.load(f)
    workload, queries = spec["workload"], spec["queries"]
    setup, run, answer = WORKLOADS[workload]
    tracer = None
    if spec["trace"] and workload != "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = setup(queries, spec)
    digests = []
    pace = Pace()
    attempted = failed = 0
    out = {"workload": workload}
    with open(os.path.join(spec["out"], "answers.jsonl"), "w") as answers:
        if spec["trace"]:
            latencies, failures, raw = run_pass(
                queries, run, answer, ctx, answers, digests, pace)
            out["traced_wall_s"] = sum(latencies)
            out["traced_slowness"] = raw / sum(latencies)
            attempted += len(queries)
            failed += failures
            if workload == "cli":
                ctx["traced"] = False
                out["interpreter_s"] = _interpreter_samples()
            else:
                tracer.uninstall()
                out["trace"] = tracer.summary()
                tracer.write(os.path.join(spec["out"], "spans.jsonl"))
                # Live spans would slow the garbage collector in the
                # untraced passes that the overhead is measured against.
                tracer = None
        walls, raw_walls, all_latencies = [], [], []
        while True:
            latencies, failures, raw = run_pass(
                queries, run, answer, ctx, answers, digests, pace)
            walls.append(sum(latencies))
            raw_walls.append(raw)
            all_latencies += latencies
            attempted += len(queries)
            failed += failures
            if time.perf_counter() - started + raw > spec["seconds"]:
                break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    out.update(walls=walls, raw_walls=raw_walls, latencies=all_latencies,
               attempted=attempted, failed=failed,
               peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024)
    print(json.dumps(out))


def cli_command(out_dir: str, tag: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import cwlab.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cwlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.write(os.path.join(out_dir, "spans.jsonl"), prefix=tag)
        with open(os.path.join(out_dir, "cli-summary.jsonl"), "a") as f:
            f.write(json.dumps({"import_s": import_s, **tracer.summary()})
                    + "\n")


if __name__ == "__main__":
    if sys.argv[1] == "cli-command":
        raise SystemExit(cli_command(sys.argv[2], sys.argv[3], sys.argv[4:]))
    main(sys.argv[1])
