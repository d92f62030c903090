"""Correctness gate, run in the client process outside every timed region.

Each answer is re-verified independently of the code path that produced it:

- sizes: E(k)**h == sign * Id by square-and-multiply, and E(k)**(h/q) is
  not +/-Id for any prime q dividing h, so h is the least such exponent;
- decompositions: both summands have length >= 3, the right one is a
  solution, and left (+) right equals the all-k target (the target is
  constant, so its only arrangement is itself and equivalence to it is
  equality);
- irreducible verdicts: reducibility is decided again with plain integers
  (`reducible`), so an Exhausted certificate that missed a split fails;
- roots: the list equals every x in [0, N) with x(x - k) == 0, found by a
  scan;
- census: every word is a solution, the list is strictly increasing, and its
  length is the total; with dedup every word is its own least arrangement
  and the class sizes add up to the total;
- cli: each JSON answer is recomputed from the argv with plain integers;
  `verify` must exit 0 with no failed check.

Answers are also compared with the digests recorded for the default seed
(expected.json), wherever a query has one.  The Exhausted candidate list
and the certificate summary text are not compared, since a faster decider
may change them.
"""

from __future__ import annotations

import json

from cwlab import (Modulus, Word, elementary, is_pm_identity, is_solution,
                   mat_pow, oplus, word)
from workloads import digest, prime_factors, query_key


def size_error(m: Modulus, k: int, size: int, sign: int) -> str | None:
    e = elementary(k, m)
    if size < 1 or is_pm_identity(mat_pow(e, size)) != sign:
        return f"E({k})**{size} is not {sign:+d}Id mod {m.n}"
    for q, _ in prime_factors(size):
        if is_pm_identity(mat_pow(e, size // q)) is not None:
            return f"E({k})**{size // q} is already +/-Id mod {m.n}"
    return None


def all_roots(n: int, k: int) -> list[int]:
    return [x for x in range(n) if x * (x - k) % n == 0]


def _mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def reducible(n: int, k: int, size: int) -> bool:
    """Decide reducibility of the all-k solution of length `size` again.

    A split pairs a right summand (x, k, ..., k, x) of length l in
    [3, size) with a left summand (k-x, k, ..., k, k-x) of length
    size + 2 - l, x a root of X(X - k), both solutions.  E(x) P E(x) is
    s*Id exactly when P = s*E(x)**-2 = s*[[-1, x], [-x, x*x - 1]], so each
    power P = E(k)**j fixes the only x that can close it, and one pass over
    the powers decides every (l, x) candidate.
    """
    closing = {}
    for x in all_roots(n, k):
        for s in (1, -1):
            closing[(-s % n, s * x % n, -s * x % n, s * (x * x - 1) % n)] = x
    ek = (k % n, -1 % n, 1 % n, 0)
    powers = [(1 % n, 0, 0, 1 % n)]
    for _ in range(size - 3):
        powers.append(_mul(ek, powers[-1], n))
    for right_len in range(3, size):
        x = closing.get(powers[right_len - 2])
        if x is not None and closing.get(powers[size - right_len]) == (k - x) % n:
            return True
    return False


def certificate_error(m: Modulus, k: int, size: int, irreducible: bool,
                      certificate: list) -> str | None:
    variant, left, right = certificate
    if k == 0:
        if variant == "zero-excluded" and not irreducible:
            return None
        return "k = 0 must be zero-excluded and not irreducible"
    if variant == "exhausted" and irreducible:
        if reducible(m.n, k, size):
            return "exhausted, but a split exists"
        return None
    if variant != "decomposition" or irreducible:
        return f"certificate {variant} with irreducible={irreducible}"
    if len(left) < 3 or len(right) < 3:
        return "decomposition summand shorter than 3"
    if is_solution(word(right, m)) is None:
        return "right summand is not a solution"
    if oplus(word(left, m), word(right, m)).values != (k,) * size:
        return "left (+) right is not the all-k target"
    return None


def roots_error(n: int, k: int, roots: list[int]) -> str | None:
    if roots != all_roots(n, k):
        return "roots are not every solution of x(x-k) = 0, in order"
    return None


def arrangements(values: tuple[int, ...]) -> set[tuple[int, ...]]:
    rev = values[::-1]
    return {seq[r:] + seq[:r] for seq in (values, rev)
            for r in range(len(values))}


def product_sign(n: int, values) -> tuple[list[list[int]], int | None]:
    """E(a_n)...E(a_1) mod n with plain integers, and its +/-Id sign."""
    a, b, c, d = 1 % n, 0, 0, 1 % n
    for k in values:
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    sign = None
    if b == c == 0 and a == d == 1 % n:
        sign = 1
    elif b == c == 0 and a == d == -1 % n:
        sign = -1
    return [[a, b], [c, d]], sign


def check_classify(query, answer) -> str | None:
    m = Modulus(query["N"])
    if [row[0] for row in answer] != list(range(m.n)):
        return "reports do not cover k = 0..N-1 in order"
    for k, size, sign, irreducible, *certificate in answer:
        error = (size_error(m, k, size, sign)
                 or certificate_error(m, k, size, irreducible, certificate))
        if error:
            return f"k={k}: {error}"
    return None


def check_single_k(query, answer) -> str | None:
    m, k = Modulus(query["N"]), query["k"]
    return (size_error(m, k, answer["size"], answer["sign"])
            or roots_error(m.n, k, answer["roots"])
            or certificate_error(m, k, answer["size"],
                                 not answer["reducible"],
                                 answer["certificate"]))


def check_census(query, answer) -> str | None:
    m, n = Modulus(query["N"]), query["n"]
    words = [tuple(w) for w in answer["words"]]
    if any(len(w) != n for w in words):
        return f"a word does not have length {n}"
    if words != sorted(set(words)):
        return "words are not strictly increasing"
    if any(is_solution(Word(w, m)) is None for w in words):
        return "a listed word is not a solution"
    if not query["dedup"]:
        return None if len(words) == answer["total"] else "count != total"
    if any(w != min(arrangements(w)) for w in words):
        return "a representative is not canonical"
    if sum(len(arrangements(w)) for w in words) != answer["total"]:
        return "class sizes do not add up to the total"
    return None


def _words_args(argv) -> tuple[int, list[tuple[int, ...]]]:
    n = int(argv[1])
    return n, [tuple(int(v) % n for v in arg.split(",")) for arg in argv[2:-2]]


def check_cli(query, answer) -> str | None:
    argv, code, out = query["argv"], answer["code"], answer["stdout"]
    command = argv[0]
    if command == "verify":
        ok = code == 0 and out.endswith(" 0 failed\n")
        return None if ok else f"verify exited {code}"
    if code != 0 and not (command == "check" and code == 1):
        return f"exit code {code}"
    data = json.loads(out)
    if command == "check":
        n, (values,) = _words_args(argv)
        matrix, sign = product_sign(n, values)
        ok = (data["matrix"] == matrix and data["sign"] == sign
              and data["solution"] == (sign is not None)
              and code == (0 if sign is not None else 1))
        return None if ok else "wrong check verdict"
    if command == "sum":
        n, (a, b) = _words_args(argv)
        expected = [(a[0] + b[-1]) % n, *a[1:-1], (a[-1] + b[0]) % n,
                    *b[1:-1]]
        return None if data["sum"] == expected else "wrong sum"
    if command == "canon":
        n, (values,) = _words_args(argv)
        expected = list(min(arrangements(values)))
        return None if data["canonical"] == expected else "wrong canonical form"
    if command == "roots":
        return roots_error(int(argv[1]), int(argv[2]), data["roots"])
    if command == "monomial":
        m, k = Modulus(int(argv[1])), int(argv[2])
        cert = data["certificate"]
        return (size_error(m, k, data["size"], data["sign"])
                or certificate_error(m, k, data["size"], data["irreducible"],
                                     [cert["variant"], cert.get("left"),
                                      cert.get("right")]))
    value = int(argv[1])
    factors = prime_factors(value)
    if command == "factor":
        return None if data["factors"] == [list(f) for f in factors] \
            else "wrong factorization"
    phi = value
    for p, _ in factors:
        phi = phi // p * (p - 1)
    return None if data["phi"] == phi else "wrong phi"


def comparable(workload: str, query, answer):
    """The part of an answer that is compared with the recorded digest."""
    if workload != "cli" or query["argv"][0] == "verify":
        return answer
    data = json.loads(answer["stdout"])
    if "certificate" in data:
        data["certificate"] = {key: value for key, value
                               in data["certificate"].items()
                               if key not in ("summary", "examined")}
    return {"code": answer["code"], "data": data}


CHECKS = {"classify": check_classify, "single_k": check_single_k,
          "census": check_census, "cli": check_cli}


def gate(workload: str, queries: list[dict], answers: dict[int, object],
         recorded: dict[str, str]) -> dict[int, str]:
    """Map each wrong answer's query index to the reason."""
    wrong = {}
    for i, answer in answers.items():
        query = queries[i]
        try:
            error = CHECKS[workload](query, answer)
            expected = recorded.get(query_key(query))
            if error is None and expected is not None \
                    and digest(comparable(workload, query, answer)) != expected:
                error = "differs from the answer recorded for the default seed"
        except Exception as exc:  # a malformed answer is a wrong answer
            error = f"gate raised {type(exc).__name__}: {exc}"
        if error:
            wrong[i] = error
    return wrong
