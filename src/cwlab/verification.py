"""Deterministic check suites behind the `verify` command.

Every check enumerates a finite statement exactly (no randomness, no
timing), reports one outcome line, and names a concrete counterexample on
failure.  Output is therefore byte-identical across runs.

Each statement is implemented once, here; the tests call these checks
instead of repeating their loops.  Where a constructor already refuses a
result that breaks the statement (`quadratic_roots`, the family builders,
`power_matrix_identity`), the check builds it and reports the refusal.
"""

from __future__ import annotations

import math
from itertools import product

from ._record import Record
from .bruteforce import EnumerationQuery, enumerate_solutions, is_reducible_oracle
from .errors import InternalCheckError, VerificationError
from .monomial import (
    ZeroExcluded,
    classify_monomials,
    closed_form_size,
    minimal_monomial_size,
    monomial_report,
    odd_boundary_word,
    power_matrix_identity,
    power_monomial_word,
    quadratic_roots,
    two_boundary_word,
)
from .numtheory import binomial_valuation, factorize
from .ring import Modulus, _closing_pairs, _fold, _mul, _pm_sign
from .words import _arrangements, _oplus, equivalent, is_solution, oplus, word

#: Moduli exercised by the prime-powers preset.
PRIME_POWER_MODULI = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81)

PRESETS = ("small", "prime-powers", "sizes")


class CheckOutcome(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _outcome(name: str, failures: list[str], ok_detail: str) -> CheckOutcome:
    if failures:
        extra = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
        return CheckOutcome(name, False, failures[0] + extra)
    return CheckOutcome(name, True, ok_detail)


def _census_set(n: int, size: int) -> set[tuple[int, ...]]:
    census = enumerate_solutions(EnumerationQuery(Modulus(n), size))
    return {w.values for w in census.words}


def check_catalog_size_2(n: int) -> CheckOutcome:
    got = _census_set(n, 2)
    failures = [] if got == {(0, 0)} else [f"N={n}: size-2 solutions {sorted(got)}"]
    return _outcome(f"catalog-size-2 N={n}", failures, "only (0,0)")


def check_catalog_size_3(n: int) -> CheckOutcome:
    expected = {(1 % n,) * 3, (-1 % n,) * 3}
    got = _census_set(n, 3)
    failures = [] if got == expected else [
        f"N={n}: size-3 solutions {sorted(got)} != {sorted(expected)}"]
    return _outcome(f"catalog-size-3 N={n}", failures,
                    f"{len(expected)} constant words")


def _size_4_families(n: int) -> set[tuple[int, ...]]:
    expected = set()
    for a in range(n):
        for b in range(n):
            if a * b % n == 0:
                expected.add((-a % n, b, a, -b % n))
            if a * b % n == 2 % n:
                expected.add((a, b, a, b))
    return expected


def check_catalog_size_4(n: int) -> CheckOutcome:
    return _catalog_size_4(n, _census_set(n, 4))


def _catalog_size_4(n: int, got: set[tuple[int, ...]]) -> CheckOutcome:
    expected = _size_4_families(n)
    failures = []
    if got != expected:
        missing = sorted(expected - got)
        surplus = sorted(got - expected)
        failures.append(f"N={n}: size-4 mismatch, missing={missing[:3]}, "
                        f"surplus={surplus[:3]}")
    return _outcome(f"catalog-size-4 N={n}", failures,
                    f"{len(expected)} words from the two families")


def check_census_symmetry(n: int) -> CheckOutcome:
    return _census_symmetry(n, _census_set(n, 4))


def _census_symmetry(n: int, got: set[tuple[int, ...]]) -> CheckOutcome:
    failures = [f"N={n}: {values} in census but arrangement {t} is not"
                for values in sorted(got) for t in _arrangements(values)
                if t not in got]
    return _outcome(f"census-symmetry N={n}", failures,
                    f"{len(got)} size-4 solutions closed under arrangement")


def _boundary_pairs(n: int, k: int, lengths) -> dict[int, list]:
    """For each length >= 2 in `lengths`, the boundary pairs (a, b) for which
    (a, k, ..., k, b) of that length is a solution, in row-major order: the
    `ring._closing_pairs` of E(k)**(length - 2), O(N) products each."""
    ek = (k, -1 % n, 1 % n, 0)
    mid = (1 % n, 0, 0, 1 % n)  # E(k)**(length - 2), from length 2 up
    pairs = {}
    for length in range(2, max(lengths, default=1) + 1):
        if length in lengths:
            pairs[length] = list(_closing_pairs(mid, n))
        mid = _mul(ek, mid, n)
    return pairs


def check_boundary_rigidity(n: int) -> CheckOutcome:
    """Solutions shaped (a, k, ..., k, b) force a = b and a(a-k) = 0."""
    failures = [f"N={n}, k={k}, length={length}: boundary pair a={a}, b={b}"
                for k in range(n)
                for length, pairs in _boundary_pairs(n, k, range(3, 9)).items()
                for a, b in pairs if a != b or a * (a - k) % n != 0]
    return _outcome(f"boundary-rigidity N={n}", failures,
                    "lengths 3..8, all boundary pairs scanned")


def check_monomial_run_triple(n: int) -> CheckOutcome:
    """Around each multiple of the minimal size h, boundary solutions
    (a, k, ..., k, b) are pinned: at length h*m they force a = b = k, at
    h*m + 1 they do not exist, at h*m + 2 they force a = b = 0."""
    m = Modulus(n)
    failures = []
    for k in range(n):
        h, _ = minimal_monomial_size(m, k)
        expected = [(base + offset, pair) for base in range(h, 13, h)
                    for offset, pair in ((0, (k, k)), (1, None), (2, (0, 0)))
                    if base + offset <= 12]
        pairs = _boundary_pairs(n, k, {length for length, _ in expected})
        failures.extend(f"N={n}, k={k}, length={length}: boundary pair "
                        f"a={a}, b={b}, expected {pair or 'none'}"
                        for length, pair in expected
                        for a, b in pairs[length] if (a, b) != pair)
    return _outcome(f"monomial-run-triple N={n}", failures,
                    "all k, lengths up to 12")


def check_root_symmetry(n: int) -> CheckOutcome:
    m = Modulus(n)
    failures = []
    for k in range(n):
        try:
            # raises unless 0 and k are roots and x -> k - x closes the set
            quadratic_roots(m, k)
        except InternalCheckError as exc:
            failures.append(f"N={n}, k={k}: {exc}")
    return _outcome(f"quadratic-root-symmetry N={n}", failures,
                    "root sets closed under x -> k - x")


def check_prime_power_roots(n: int) -> CheckOutcome:
    """Over a prime power, units k have exactly the roots {0, k}."""
    m = Modulus(n)
    p = m.factors[0][0]
    failures = []
    for k in range(n):
        if k % p == 0:
            continue
        roots = quadratic_roots(m, k).roots
        if set(roots) != {0, k}:
            failures.append(f"N={n}, k={k}: roots {roots}")
    return _outcome(f"unit-root-pair N={n}", failures,
                    "units have root set {0, k}")


def check_size_divisibility(n: int) -> CheckOutcome:
    """All-k solution lengths are exactly the multiples of the minimal h."""
    m = Modulus(n)
    failures = []
    for k in range(n):
        h, _ = minimal_monomial_size(m, k)
        a, b, c, d = 1 % n, 0, 0, 1 % n  # E(k)**j, left-multiplied as in _fold
        for j in range(1, 3 * h + 1):
            a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
            present = _pm_sign((a, b, c, d), n) is not None
            if present != (j % h == 0):
                failures.append(f"N={n}, k={k}: length {j} solution "
                                f"presence {present}, h={h}")
    return _outcome(f"size-divisibility N={n}", failures,
                    "solution lengths = multiples of h, scanned to 3h")


def check_prime_power_size_bound(n: int) -> CheckOutcome:
    m = Modulus(n)
    failures = []
    for k in range(n):
        h, _ = minimal_monomial_size(m, k)
        if h > 3 * n:
            failures.append(f"N={n}, k={k}: h={h} exceeds 3N={3 * n}")
    return _outcome(f"size-bound N={n}", failures, "h <= 3N for all k")


def check_monomial_classification(n: int) -> CheckOutcome:
    """Build every per-k report (certificates re-verify themselves); over a
    prime power this includes the closed-form irreducibility cross-check."""
    try:
        reports = classify_monomials(n)
    except (VerificationError, InternalCheckError) as exc:
        return CheckOutcome(f"monomial-classification N={n}", False, str(exc))
    count = sum(r.irreducible for r in reports)
    return CheckOutcome(f"monomial-classification N={n}", True,
                        f"{count} irreducible of {n}")


def check_oracle_agreement(n: int) -> CheckOutcome:
    """The literal search agrees with the structured decider for every k;
    witnesses are re-validated from scratch."""
    m = Modulus(n)
    failures = []
    for k in range(n):
        report = monomial_report(m, k)
        if k == 0:
            if not isinstance(report.certificate, ZeroExcluded):
                failures.append(f"N={n}, k=0: expected the zero sentinel")
            continue
        reducible = not report.irreducible
        target = word([k] * report.size, m)
        oracle_reducible, witness = is_reducible_oracle(target)
        if oracle_reducible != reducible:
            failures.append(f"N={n}, k={k}: oracle says {oracle_reducible}, "
                            f"structured decider says {reducible}")
        elif oracle_reducible:
            left, right, _arrangement = witness
            if (len(left) < 3 or len(right) < 3
                    or is_solution(right) is None
                    or is_solution(left) is None
                    or not equivalent(target, oplus(left, right))):
                failures.append(f"N={n}, k={k}: invalid oracle witness "
                                f"{left!r} (+) {right!r}")
    return _outcome(f"oracle-agreement N={n}", failures,
                    "structured decider matches the literal search")


def _all_values(n: int, length: int):
    """Every value tuple of the given length over Z/nZ, first letter varying
    fastest."""
    return (values[::-1] for values in product(range(n), repeat=length))


def check_sum_stability(n: int) -> CheckOutcome:
    """With b a solution, a (+) b is a solution exactly when a is.

    Decided on value tuples through the kernels behind `is_solution` and
    `oplus`."""
    m = Modulus(n)
    solutions = []
    for size in (2, 3, 4):
        census = enumerate_solutions(EnumerationQuery(m, size))
        solutions.extend(w.values for w in census.words)
    words = [(a, _pm_sign(_fold(a, n), n) is None) for length in (2, 3)
             for a in _all_values(n, length)]
    failures = []
    for b in solutions:
        for a, a_fails in words:
            if (_pm_sign(_fold(_oplus(a, b, n), n), n) is None) != a_fails:
                failures.append(f"N={n}: a={a}, b={b}")
    return _outcome(f"sum-stability N={n}", failures,
                    f"{len(solutions)} solutions against all words of "
                    f"length 2..3")


def check_arrangement_stability(n: int) -> CheckOutcome:
    """Rotations and reversals preserve solutionhood.

    Every word of the length is decided once; the arrangements of a word
    are compared with it by lookup (a missing one is decided directly), and
    a word already produced as an arrangement of an earlier word is not
    arranged again: its arrangements are the same orbit.  Words are value
    tuples, decided by the kernels behind `is_solution`."""
    failures = []
    for length in (3, 4):
        status = {v: _pm_sign(_fold(v, n), n) is not None
                  for v in _all_values(n, length)}
        arranged = set()
        for v, present in status.items():
            if v in arranged:
                continue
            for t in _arrangements(v):
                arranged.add(t)
                got = status.get(t)
                if got is None:
                    got = _pm_sign(_fold(t, n), n) is not None
                if got != present:
                    failures.append(f"N={n}: {v} vs arrangement {t}")
    return _outcome(f"arrangement-stability N={n}", failures,
                    "lengths 3..4, all words")


def check_noncommutativity() -> CheckOutcome:
    m = Modulus(7)
    a = word([3, 2, 1], m)
    b = word([1, 2, 3], m)
    left = oplus(a, b).values
    right = oplus(b, a).values
    failures = [] if left != right else [
        f"(3,2,1) (+) (1,2,3) == (1,2,3) (+) (3,2,1) == {left}"]
    return _outcome("sum-noncommutativity", failures,
                    f"{left} != {right} over N=7")


def check_size_table() -> CheckOutcome:
    """Minimal monomial sizes on the documented grid of moduli."""
    failures = []

    def expect(n: int, k: int, size: int):
        h, _ = minimal_monomial_size(Modulus(n), k)
        if h != size:
            failures.append(f"N={n}, k={k}: h={h}, expected {size}")

    for n, k, size in ((10, 3, 15), (30, 6, 12), (9, 3, 6), (8, 4, 4),
                       (6, 3, 6)):
        expect(n, k, size)
    for exponent in range(2, 7):  # N = 2**exponent, k = 2a with a odd
        n = 2 ** exponent
        for a in range(1, n // 2, 2):
            expect(n, 2 * a, n)
    for p in (3, 5, 7):  # N = p**exponent, k with p-adic valuation m
        for exponent in range(1, 4):
            n = p ** exponent
            expect(n, 0, 2)
            for m_val in range(1, exponent):
                for k in range(p ** m_val, n, p ** m_val):
                    if (k // p ** m_val) % p == 0:
                        continue
                    expect(n, k, 2 * p ** (exponent - m_val))
    for base in (2, 3, 4, 5):  # N = base**exponent, k = base
        for exponent in (2, 3):
            expect(base ** exponent, base, 2 * base ** (exponent - 1))
    return _outcome("size-table", failures, "all tabulated sizes match")


def check_closed_form_agreement(max_modulus: int = 200) -> CheckOutcome:
    failures = []
    checked = 0
    for n in range(2, max_modulus + 1):
        m = Modulus(n)
        for k in range(n):
            formula = closed_form_size(m, k)
            if formula is None:
                continue
            checked += 1
            h, _ = minimal_monomial_size(m, k)
            if formula != h:
                failures.append(f"N={n}, k={k}: formula {formula}, "
                                f"iterative {h}")
    return _outcome("closed-form-agreement", failures,
                    f"{checked} (N, k) pairs up to N={max_modulus}")


def _family_instances(max_modulus: int):
    """Every family instance (label, builder, params) with modulus
    <= max_modulus; the multiplier a runs over one period of distinct
    words, plus a = -1 as a spot check."""
    for base in range(2, max_modulus + 1):
        exponent = 2
        while base ** exponent <= max_modulus:
            for m_val in range(1, exponent):
                period = base ** (exponent - m_val)
                for a in list(range(period)) + [-1]:
                    yield ("power_monomial", power_monomial_word,
                           dict(l=base, n=exponent, m=m_val, a=a))
            if base > 2 and exponent >= 3:
                for m_val in range(1, exponent - 1):
                    period = base ** (exponent - m_val)
                    for a in list(range(period)) + [-1]:
                        yield ("odd_boundary", odd_boundary_word,
                               dict(l=base, n=exponent, m=m_val, a=a))
            if base == 2 and exponent >= 4:
                for m_val in range(2, exponent - 1):
                    period = 2 ** (exponent - m_val)
                    for a in list(range(period)) + [-1]:
                        yield ("two_boundary", two_boundary_word,
                               dict(n=exponent, m=m_val, a=a))
            exponent += 1


def check_family_soundness(max_modulus: int = 256) -> CheckOutcome:
    failures = []
    count = 0
    for label, builder, params in _family_instances(max_modulus):
        count += 1
        try:
            builder(**params)  # raises unless it built a solution
        except InternalCheckError as exc:
            failures.append(f"{label} {params}: {exc}")
    return _outcome("family-soundness", failures,
                    f"{count} family words, all solutions")


def check_power_matrix_identity() -> CheckOutcome:
    failures = []
    for exponent in (3, 4, 5):
        for a in (1, 3, 5, 7):
            try:
                power_matrix_identity(exponent, a)  # checks its closed form
            except InternalCheckError as exc:
                failures.append(str(exc))
    return _outcome("power-matrix-identity", failures,
                    "2**n-fold products match the closed form, n=3..5")


def check_binomial_lemmas() -> CheckOutcome:
    failures = []
    for l in range(2, 7):
        for n in range(2, 7):
            for j in range(1, n):
                if binomial_valuation(l ** (n - 1), j, l) < n - j:
                    failures.append(f"C({l}**{n - 1}, {j}) lacks {l}**{n - j}")
        for n in range(3, 7):
            for j in range(2, n):
                if binomial_valuation(2 * l ** (n - 2), j, l) < n - j:
                    failures.append(f"C(2*{l}**{n - 2}, {j}) lacks {l}**{n - j}")
    row = [1]  # C(n, 0..n), one Pascal row per n
    for n in range(1, 201):
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
        for k in range(1, n + 1):
            if row[k] % (n // math.gcd(n, k)) != 0:
                failures.append(f"n/gcd(n,k) does not divide C({n},{k})")
    for n in range(3, 13):
        for j in range(3, n + 1):
            if binomial_valuation(2 ** (n - 1), j, 2) < n + 1 - j:
                failures.append(f"C(2**{n - 1}, {j}) lacks 2**{n + 1 - j}")
    for top in range(0, 61):
        for j in range(top + 1):
            value = math.comb(top, j)
            for base in (2, 3, 4, 5, 6, 12):
                exact = 0
                rest = value
                while rest % base == 0:
                    rest //= base
                    exact += 1
                if binomial_valuation(top, j, base) != exact:
                    failures.append(f"valuation mismatch at C({top},{j}) "
                                    f"base {base}")
    return _outcome("binomial-divisibility", failures,
                    "all divisibility ranges and the exact oracle to 60")


def _per_modulus_checks(n: int) -> list[CheckOutcome]:
    size_4 = _census_set(n, 4)  # one census for both size-4 checks
    out = [
        check_catalog_size_2(n),
        check_catalog_size_3(n),
        _catalog_size_4(n, size_4),
        _census_symmetry(n, size_4),
        check_boundary_rigidity(n),
        check_monomial_run_triple(n),
        check_root_symmetry(n),
        check_size_divisibility(n),
        check_monomial_classification(n),
    ]
    if len(factorize(n).factors) == 1:
        out.append(check_prime_power_roots(n))
        out.append(check_prime_power_size_bound(n))
    if n <= 10:
        out.append(check_oracle_agreement(n))
    if n <= 6:
        out.append(check_sum_stability(n))
    if n <= 5:
        out.append(check_arrangement_stability(n))
    return out


def run_moduli(moduli) -> list[CheckOutcome]:
    outcomes = []
    for n in moduli:
        outcomes.extend(_per_modulus_checks(n))
    return outcomes


def run_preset(name: str) -> list[CheckOutcome]:
    if name == "small":
        outcomes = run_moduli(range(2, 11))
        outcomes.append(check_noncommutativity())
        return outcomes
    if name == "prime-powers":
        outcomes = []
        for n in PRIME_POWER_MODULI:
            outcomes.append(check_monomial_classification(n))
            outcomes.append(check_prime_power_roots(n))
            outcomes.append(check_prime_power_size_bound(n))
            outcomes.append(check_size_divisibility(n))
        outcomes.append(check_power_matrix_identity())
        outcomes.append(check_family_soundness())
        outcomes.append(check_binomial_lemmas())
        return outcomes
    if name == "sizes":
        return [check_size_table(), check_closed_form_agreement()]
    raise VerificationError(f"unknown preset {name!r}; expected one of "
                            f"{PRESETS}")


def render_report(outcomes: list[CheckOutcome]) -> tuple[bool, str]:
    lines = []
    for outcome in outcomes:
        tag = "ok  " if outcome.passed else "FAIL"
        lines.append(f"{tag} {outcome.name}: {outcome.detail}")
    passed = sum(outcome.passed for outcome in outcomes)
    failed = len(outcomes) - passed
    lines.append(f"verify: {len(outcomes)} checks, {passed} passed, "
                 f"{failed} failed")
    return failed == 0, "\n".join(lines) + "\n"
