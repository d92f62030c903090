"""The failure path of the checks: a broken dependency must make each check
fail with a counterexample, and `cwl verify` exit 1.  The checks that decide
on value tuples through private kernels are also redone here with the public
`Word` API as slow oracles."""

import re
from itertools import product

import pytest

from cwlab import monomial, verification
from cwlab.bruteforce import EnumerationQuery, enumerate_solutions
from cwlab.cli import main
from cwlab.errors import InternalCheckError, UsageError
from cwlab.monomial import (QuadraticRoots, classify_monomials,
                            minimal_monomial_size, monomial_report)
from cwlab.ring import Modulus, elementary, is_pm_identity, mat_pow
from cwlab.words import is_solution, oplus, word

from oracles import arrangements_oracle


MINIMAL_MONOMIAL_SIZE = verification.minimal_monomial_size
MONOMIAL_REPORT = verification.monomial_report
IS_REDUCIBLE_ORACLE = verification.is_reducible_oracle


def size_off_by_one(modulus, k):
    h, sign = MINIMAL_MONOMIAL_SIZE(modulus, k)
    return h + 1, sign


def refuse(*args, **params):
    raise InternalCheckError("forced refusal")


def stray_pair(middle, n):
    return 3, 3


def no_closing_pair(middle, n):
    return None


def roots_without_k(modulus, k):
    return QuadraticRoots(modulus, k, (0,))


def roots_zero_and_k(modulus, k):
    """Closed under x -> k - x and holding 0 and k, but not every root."""
    return QuadraticRoots(modulus, k, tuple(sorted({0, k % modulus.n})))


def roots_with_one(modulus, k):
    """{0, k, 1, k - 1}: closed under x -> k - x, but 1 is no root of a
    unit k other than 1."""
    n = modulus.n
    return QuadraticRoots(modulus, k,
                          tuple(sorted({0, k % n, 1 % n, (k - 1) % n})))


def size_past_the_bound(modulus, k):
    return 3 * modulus.n + 1, 1


def no_families(n):
    return set()


def zero_as_one(modulus, k):
    return MONOMIAL_REPORT(modulus, k or 1)


def right_summand_twice(target):
    reducible, witness = IS_REDUCIBLE_ORACLE(target)
    if witness is not None:
        _left, right, arrangement = witness
        witness = (right, right, arrangement)
    return reducible, witness


def gcd_one(a, b):
    return 1


def valuation_99(top, j, factors):
    return 99


def all_zero_arrangement(values):
    return [(0,) * len(values)]


def longer_arrangement(values):
    return [values + (0,)]


def no_arrangements(values):
    return []


CENSUS_6 = verification._census_set(6, 4)


class Only(str):
    """A counterexample that is the check's only failure: its detail is
    exactly this, with no "(+N more)" suffix."""


# (dependency, broken stand-in, check, its arguments, expected counterexample);
# the dependency is a dotted name under cwlab.verification
BROKEN = [
    ("minimal_monomial_size", size_off_by_one, "check_size_table", (),
     "N=10, k=3: h=16, expected 15"),
    ("minimal_monomial_size", size_off_by_one, "check_size_divisibility",
     (10,), "N=10, k=0: length 2"),
    ("minimal_monomial_size", size_off_by_one, "check_monomial_run_triple",
     (10,), "N=10, k=0, length=3: boundary pair none, expected (0, 0)"),
    ("_closing_pair", no_closing_pair, "check_monomial_run_triple", (10,),
     "N=10, k=0, length=2: boundary pair none, expected (0, 0)"),
    ("_closing_pair", stray_pair, "check_boundary_rigidity", (10,),
     "N=10, k=0, length=3: boundary pair a=3, b=3"),
    ("quadratic_roots", roots_without_k, "check_root_symmetry", (10,),
     "N=10, k=1: root set (0,) misses 0 or k"),
    ("quadratic_roots", roots_zero_and_k, "check_root_symmetry", (10,),
     "N=10, k=1: roots (0, 1), scan (0, 1, 5, 6)"),
    ("is_reducible_oracle", lambda target: (False, None),
     "check_oracle_agreement", (10,), "N=10, k=3: oracle says False"),
    # a self-check that fires is reported for its k, not raised
    ("is_reducible_oracle", refuse, "check_oracle_agreement", (10,),
     "N=10, k=1: forced refusal"),
    ("binomial_valuation", lambda top, j, base: 0, "check_binomial_lemmas",
     (), "C(2**1, 1) lacks 2**1"),
    ("power_monomial_word", refuse, "check_family_soundness", (),
     "power_monomial {'l': 2, 'n': 2, 'm': 1, 'a': 0}: forced refusal"),
    ("_oplus", lambda a, b, n: b, "check_sum_stability", (3,),
     "N=3: a=(1, 0), b=(0, 0)"),
    ("_arrangements", all_zero_arrangement, "check_arrangement_stability",
     (3,), "N=3: (1, 1, 1) vs arrangement"),
    # an arrangement missing from the status table is a mismatch
    ("_arrangements", longer_arrangement,
     "check_arrangement_stability", (3,),
     "N=3: (0, 0, 0) vs arrangement (0, 0, 0, 0)"),
    # every word is its own rotation by 0, so an empty orbit fails
    ("_arrangements", no_arrangements, "check_arrangement_stability",
     (3,), "N=3: (0, 0, 0) is not among its arrangements"),
    ("_arrangements", no_arrangements, "check_census_symmetry",
     (6, CENSUS_6),
     "N=6: (0, 0, 0, 0) is not among its arrangements"),
    ("_size_4_families", no_families, "check_catalog_size_4",
     (6, CENSUS_6),
     Only("N=6: size-4 mismatch, missing=[], "
          "surplus=[(0, 0, 0, 0), (0, 1, 0, 5), (0, 2, 0, 4)]")),
    ("quadratic_roots", roots_with_one, "check_prime_power_roots", (9,),
     "N=9, k=2: roots (0, 1, 2)"),
    ("minimal_monomial_size", size_past_the_bound,
     "check_prime_power_size_bound", (9,), "N=9, k=0: h=28 exceeds 3N=27"),
    ("classify_monomials", refuse, "check_monomial_classification", (9,),
     Only("forced refusal")),
    ("monomial_report", zero_as_one, "check_oracle_agreement", (5,),
     Only("N=5, k=0: expected the zero sentinel")),
    ("is_reducible_oracle", right_summand_twice, "check_oracle_agreement",
     (10,), "N=10, k=3: invalid oracle witness Word(8,3,3,3,8 mod 10) (+) "
            "Word(8,3,3,3,8 mod 10)"),
    ("power_matrix_identity", refuse, "check_power_matrix_identity", (),
     "forced refusal"),
    ("math.gcd", gcd_one, "check_binomial_lemmas", (),
     "n/gcd(n,k) does not divide C(2,2)"),
    ("_binomial_valuation", valuation_99, "check_binomial_lemmas", (),
     "valuation mismatch at C(0,0) base 2"),
]


def _case_ids(cases):
    """The check's name, suffixed with the stand-in's when it repeats."""
    ids = []
    for _, broken, check, _, _ in cases:
        ids.append(check if check not in ids else f"{check}-{broken.__name__}")
    return ids


@pytest.mark.parametrize("name, broken, check, args, counterexample", BROKEN,
                         ids=_case_ids(BROKEN))
def test_check_fails_with_a_counterexample(monkeypatch, name, broken, check,
                                           args, counterexample):
    monkeypatch.setattr(f"cwlab.verification.{name}", broken)
    outcome = getattr(verification, check)(*args)
    assert outcome.passed is False
    if isinstance(counterexample, Only):
        assert outcome.detail == counterexample
    else:
        assert counterexample in outcome.detail
        assert re.search(r" \(\+\d+ more\)$", outcome.detail)


def test_boundary_rigidity_fails_on_an_empty_scan(monkeypatch):
    # k = N-1 closes at length 3 for every N, so no pair at all is a fault
    monkeypatch.setattr(verification, "_closing_pair", no_closing_pair)
    outcome = verification.check_boundary_rigidity(10)
    assert outcome.passed is False
    assert outcome.detail == "N=10: no boundary pair at lengths 3..8"


def test_unknown_preset_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown preset 'tiny'"):
        verification.run_preset("tiny")


def test_verify_exits_one_on_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(verification, "closed_form_size", lambda m, k: 2)
    code = main(["verify", "--preset", "sizes"])
    out = capsys.readouterr().out
    assert code == 1
    assert "ok   size-table" in out
    assert "FAIL closed-form-agreement: N=2, k=1: formula 2" in out
    assert out.endswith("2 checks, 1 passed, 1 failed\n")


def test_verify_reports_a_raising_oracle(monkeypatch, capsys):
    monkeypatch.setattr(verification, "is_reducible_oracle", refuse)
    code = main(["verify", "--N", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert ("FAIL oracle-agreement N=5: N=5, k=1: forced refusal (+3 more)\n"
            in out)
    assert out.endswith(" passed, 1 failed\n")


def test_a_flipped_prime_power_rule_fires_on_every_report(monkeypatch,
                                                         capsys):
    """The theorem check sits in the report builder, so the single-k report
    checks itself as the table does, `verify` reports the mismatch as FAIL,
    and the CLI lets it propagate as the bug it is."""
    rule = monomial._prime_power_irreducible
    monkeypatch.setattr(monomial, "_prime_power_irreducible",
                        lambda p, exponent, k: not rule(p, exponent, k))
    at_0 = ("N=9, k=0: computed irreducible=False but the prime-power rule "
            "says True")
    at_1 = ("N=9, k=1: computed irreducible=True but the prime-power rule "
            "says False")
    with pytest.raises(InternalCheckError, match=re.escape(at_0)):
        classify_monomials(9)
    with pytest.raises(InternalCheckError, match=re.escape(at_1)):
        monomial_report(9, 1)
    outcome = verification.check_monomial_classification(9)
    assert (outcome.passed, outcome.detail) == (False, at_0)
    with pytest.raises(InternalCheckError, match=re.escape(at_1)):
        main(["monomial", "9", "1"])
    assert capsys.readouterr().out == ""


def _words(m, length):
    return [word(values, m) for values in product(range(m.n), repeat=length)]


@pytest.mark.parametrize("n", range(2, 7))
def test_sum_stability_matches_the_word_oracle(n):
    m = Modulus(n)
    solutions = [b for size in (2, 3, 4)
                 for b in enumerate_solutions(EnumerationQuery(m, size)).words]
    words = _words(m, 2) + _words(m, 3)
    holds = all((is_solution(oplus(a, b)) is None) == (is_solution(a) is None)
                for b in solutions for a in words)
    outcome = verification.check_sum_stability(n)
    assert outcome.passed is holds is True
    assert outcome.detail == (f"{len(solutions)} solutions against all words "
                              f"of length 2..3")


@pytest.mark.parametrize("n", range(2, 6))
def test_arrangement_stability_matches_the_word_oracle(n):
    m = Modulus(n)
    holds = all((is_solution(word(t, m)) is None) == (is_solution(w) is None)
                for length in (3, 4) for w in _words(m, length)
                for t in arrangements_oracle(w.values))
    outcome = verification.check_arrangement_stability(n)
    assert outcome.passed is holds is True
    assert outcome.detail == "lengths 3..4, all words"


def test_size_divisibility_matches_the_mat_pow_oracle():
    for n in range(2, 31):
        m = Modulus(n)
        holds = True
        for k in range(n):
            h, _ = minimal_monomial_size(m, k)
            e = elementary(k, m)
            holds &= all((is_pm_identity(mat_pow(e, j)) is not None)
                         == (j % h == 0) for j in range(1, 3 * h + 1))
        outcome = verification.check_size_divisibility(n)
        assert outcome.passed is holds is True, n
        assert outcome.detail == ("solution lengths = multiples of h, "
                                  "scanned to 3h")
