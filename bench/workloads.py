"""Seeded query sets for the four benchmark workloads.

Everything here runs in the client process and never imports cwlab: the
program under test only ever sees the generated queries.  A query is a
small JSON-able dict; the same seed always yields the same list.

Why each workload draws its inputs the way it does (see METRICS.md):

- classify: one contiguous band of small moduli, so every seed does the
  same work; the seed only fixes the order.
- single_k: per-query cost is heavy-tailed in k (one reducible query with a
  long h costs O(h^2) in time and memory, most cost milliseconds), so a
  fresh uniform draw per seed gives totals that differ by 2x between seeds.
  The (N, k) population is therefore drawn once, uniformly in k and
  stratified over the three kinds of N; the seed orders it and replaces
  each k by N - k or not.  E(-k) = -J E(k) J with J = diag(1, -1), so that
  swap keeps h and the verdict while changing the input the program sees.
- census: the (N, n) pair nearest the centre of each of 64 equal-width
  strata of log N**n, each with and without dedup, so every seed does the
  same work; the seed only fixes the order.  A draw within each stratum
  swaps pairs such as N = 46, n = 3 (two solutions) and N = 2, n = 16
  (10923, a sixth of the words); over [200, 4*10**5] that moved dedup cost
  10x and peak RSS 2x between seeds.
- cli: fixed counts per command, seeded arguments.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("classify", "single_k", "census", "cli")

#: Band of single_k moduli.  A reducible query near N = 2*10**4 reached
#: 3.2 GB RSS through the O(h^2) self-check, so the band stops at 4000.
SINGLE_K_BAND = (1000, 4000)

#: single_k queries per kind of N.  Composites get most: most reducible k
#: with a long h, the tail this workload exists to measure, fall there.
SINGLE_K_PER_KIND = {"prime": 25, "prime-power": 25, "composite": 50}

CHEAP_COMMANDS = ("check", "sum", "canon", "roots", "monomial", "factor",
                  "phi")
PRESET_COUNTS = {"small": 8, "prime-powers": 8, "sizes": 4}


def query_key(query: dict) -> str:
    return json.dumps(query, sort_keys=True)


def digest(answer) -> str:
    """Short stable hash of a JSON-able answer."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prime_factors(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, independent of cwlab.numtheory."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def kind_of(n: int) -> str:
    factors = prime_factors(n)
    if len(factors) > 1:
        return "composite"
    return "prime" if factors[0][1] == 1 else "prime-power"


def classify_queries(seed: int, tiny: bool = False) -> list[dict]:
    top = 12 if tiny else 128
    moduli = list(range(2, top + 1))
    random.Random(seed).shuffle(moduli)
    return [{"N": n} for n in moduli]


def single_k_queries(seed: int, tiny: bool = False) -> list[dict]:
    lo, hi = (30, 130) if tiny else SINGLE_K_BAND
    members = {kind: [] for kind in SINGLE_K_PER_KIND}
    for n in range(lo, hi):
        members[kind_of(n)].append(n)
    population = random.Random(f"single_k {lo} {hi}")
    pairs = []
    for kind, count in SINGLE_K_PER_KIND.items():
        for _ in range(2 if tiny else count):
            n = population.choice(members[kind])
            pairs.append((n, population.randrange(n)))
    rng = random.Random(seed)
    queries = [{"N": n, "k": (n - k) % n if rng.random() < 0.5 else k}
               for n, k in pairs]
    rng.shuffle(queries)
    return queries


def census_queries(seed: int, tiny: bool = False) -> list[dict]:
    lo, hi, strata = (20, 3000, 6) if tiny else (200, 10**5, 64)
    pairs = sorted((N**n, N, n) for n in range(3, 20) for N in range(2, 80)
                   if lo <= N**n <= hi)
    logs = [math.log(w) for w, _, _ in pairs]
    width = (math.log(hi) - math.log(lo)) / strata
    chosen = set()
    for stratum in range(strata):
        center = math.log(lo) + (stratum + 0.5) * width
        j = min(range(len(pairs)), key=lambda j: abs(logs[j] - center))
        chosen.add(pairs[j][1:])
    queries = [{"N": N, "n": n, "dedup": dedup}
               for N, n in sorted(chosen) for dedup in (False, True)]
    random.Random(seed).shuffle(queries)
    return queries


def _word_arg(rng: random.Random, n: int, lo: int, hi: int) -> str:
    return ",".join(str(rng.randrange(n)) for _ in range(rng.randint(lo, hi)))


def _cheap_argv(command: str, rng: random.Random) -> list[str]:
    if command == "check":
        n = rng.randint(5, 60)
        args = [str(n), _word_arg(rng, n, 3, 8)]
    elif command == "sum":
        n = rng.randint(5, 60)
        args = [str(n), _word_arg(rng, n, 2, 6), _word_arg(rng, n, 2, 6)]
    elif command == "canon":
        n = rng.randint(5, 60)
        args = [str(n), _word_arg(rng, n, 3, 10)]
    elif command == "roots":
        n = rng.randint(100, 10**4)
        args = [str(n), str(rng.randrange(n))]
    elif command == "monomial":
        n = rng.randint(50, 300)
        args = [str(n), str(rng.randrange(n))]
    else:
        args = [str(rng.randint(2, 10**6))]
    return [command, *args, "--format", "json"]


def cli_queries(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(seed)
    per_cheap = 1 if tiny else 12
    argvs = [_cheap_argv(command, rng)
             for command in CHEAP_COMMANDS for _ in range(per_cheap)]
    for preset, count in PRESET_COUNTS.items():
        argvs += [["verify", "--preset", preset]] * (1 if tiny else count)
    rng.shuffle(argvs)
    return [{"argv": argv} for argv in argvs]


GENERATORS = {"classify": classify_queries, "single_k": single_k_queries,
              "census": census_queries, "cli": cli_queries}
