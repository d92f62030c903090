"""Self-test of the benchmark's correctness gate, at a tiny size of each
workload.

    python3 bench/selftest.py

For each workload the tiny query set runs once (one pass, no tracing) and
three things must hold:

1. the genuine answers pass, with digests recorded from those answers;
2. one deliberately wrong recorded digest raises the error rate above 0;
3. each deliberately corrupted answer fails the independent
   re-verification (with nothing recorded to compare against): a wrong
   size, census total or cli sum; on classify, a reducible k passed off as
   irreducible with an Exhausted certificate; on single_k, a root pair left
   out.

Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run
from workloads import WORKLOADS, digest, query_key

SEED = 1


def corruptions(workload: str, queries: list[dict], answers: dict
                ) -> list[tuple[str, dict]]:
    """(what, copy of the answers with one of them made wrong) pairs."""
    out = []

    def corrupted(what):
        bad = copy.deepcopy(answers)
        out.append((what, bad))
        return bad

    if workload == "classify":
        corrupted("wrong size")[0][-1][1] += 1  # size of the largest k
        bad = corrupted("forged irreducible verdict")
        row = next(row for rows in bad.values() for row in rows
                   if row[4] == "decomposition")
        row[3:] = [True, "exhausted", None, None]
    elif workload == "single_k":
        corrupted("wrong size")[0]["size"] += 1
        bad = corrupted("dropped root pair")
        i = next(i for i, a in bad.items() if len(a["roots"]) > 2)
        roots, n, k = bad[i]["roots"], queries[i]["N"], queries[i]["k"]
        x = roots[1]
        roots.remove(x)
        roots.remove((k - x) % n)
    elif workload == "census":
        corrupted("wrong total")[0]["total"] += 1
    else:
        bad = corrupted("wrong sum")
        i = next(i for i, q in enumerate(queries) if q["argv"][0] == "sum")
        data = json.loads(bad[i]["stdout"])
        data["sum"][0] = (data["sum"][0] + 1) % int(queries[i]["argv"][1])
        bad[i]["stdout"] = json.dumps(data)
    return out


def main() -> int:
    sys.path.insert(0, run.SRC)
    from gate import comparable, gate

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    results = []
    for workload in WORKLOADS:
        genuine = run.run_workload(workload, SEED, 0, False, benchmark, {},
                                   tiny=True)
        queries = genuine["queries"]
        recorded = {query_key(queries[i]): digest(comparable(workload,
                                                             queries[i], a))
                    for i, a in genuine["answers"].items()}
        clean = run.run_workload(workload, SEED, 0, False, benchmark,
                                 {workload: recorded}, tiny=True)
        results.append((f"{workload}: genuine answers pass the gate",
                        genuine["failed"] == 0 and clean["failed"] == 0))
        first = query_key(queries[0])
        tampered = dict(recorded, **{first: "0" * len(recorded[first])})
        wrong = run.run_workload(workload, SEED, 0, False, benchmark,
                                 {workload: tampered}, tiny=True)
        results.append((f"{workload}: a wrong recorded answer raises the "
                        f"error rate ({wrong['failed']}/{wrong['attempted']})",
                        wrong["failed"] > 0))
        for what, bad in corruptions(workload, queries, genuine["answers"]):
            caught = gate(workload, queries, bad, {})
            results.append((f"{workload}: a {what} fails re-verification "
                            f"({'; '.join(caught.values())})",
                            len(caught) == 1))
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
