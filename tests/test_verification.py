"""The failure path of the checks: a broken dependency must make each check
fail with a counterexample, and `cwl verify` exit 1.  The checks that decide
on value tuples through private kernels are also redone here with the public
`Word` API as slow oracles."""

import re
from itertools import product

import pytest

from cwlab import verification
from cwlab.bruteforce import EnumerationQuery, enumerate_solutions
from cwlab.cli import main
from cwlab.errors import InternalCheckError
from cwlab.monomial import QuadraticRoots, minimal_monomial_size
from cwlab.ring import Modulus, elementary, is_pm_identity, mat_pow
from cwlab.words import is_solution, oplus, rotations_and_reversals, word


MINIMAL_MONOMIAL_SIZE = verification.minimal_monomial_size
BOUNDARY_PAIRS = verification._boundary_pairs


def size_off_by_one(modulus, k):
    h, sign = MINIMAL_MONOMIAL_SIZE(modulus, k)
    return h + 1, sign


def refuse_family(**params):
    raise InternalCheckError("forced refusal")


def with_stray_pair(n, k, lengths):
    return {length: pairs + [(3, 3)]
            for length, pairs in BOUNDARY_PAIRS(n, k, lengths).items()}


def roots_without_k(modulus, k):
    return QuadraticRoots(modulus, k, (0,))


def all_zero_arrangement(values):
    return [(0,) * len(values)]


def longer_arrangement(values):
    return [values + (0,)]


# (dependency, broken stand-in, check, its arguments, expected counterexample)
BROKEN = [
    ("minimal_monomial_size", size_off_by_one, "check_size_table", (),
     "N=10, k=3: h=16, expected 15"),
    ("minimal_monomial_size", size_off_by_one, "check_size_divisibility",
     (10,), "N=10, k=0: length 2"),
    ("minimal_monomial_size", size_off_by_one, "check_monomial_run_triple",
     (10,), "N=10, k=0, length=4: boundary pair a=0, b=0"),
    ("_boundary_pairs", with_stray_pair, "check_boundary_rigidity", (10,),
     "N=10, k=0, length=3: boundary pair a=3, b=3"),
    ("quadratic_roots", roots_without_k, "check_root_symmetry", (10,),
     "N=10, k=1: root set (0,) misses 0 or k"),
    ("is_reducible_oracle", lambda target: (False, None),
     "check_oracle_agreement", (10,), "N=10, k=3: oracle says False"),
    ("binomial_valuation", lambda top, j, base: 0, "check_binomial_lemmas",
     (), "C(2**1, 1) lacks 2**1"),
    ("power_monomial_word", refuse_family, "check_family_soundness", (),
     "power_monomial {'l': 2, 'n': 2, 'm': 1, 'a': 0}: forced refusal"),
    ("_oplus", lambda a, b, n: b, "check_sum_stability", (3,),
     "N=3: a=(1, 0), b=(0, 0)"),
    ("_arrangements", all_zero_arrangement, "check_arrangement_stability",
     (3,), "N=3: (1, 1, 1) vs arrangement"),
    # an arrangement missing from the status table is decided directly
    ("_arrangements", longer_arrangement,
     "check_arrangement_stability", (3,),
     "N=3: (0, 0, 0) vs arrangement (0, 0, 0, 0)"),
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
    monkeypatch.setattr(verification, name, broken)
    outcome = getattr(verification, check)(*args)
    assert outcome.passed is False
    assert counterexample in outcome.detail
    assert re.search(r" \(\+\d+ more\)$", outcome.detail)


def test_verify_exits_one_on_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(verification, "closed_form_size", lambda m, k: 2)
    code = main(["verify", "--preset", "sizes"])
    out = capsys.readouterr().out
    assert code == 1
    assert "ok   size-table" in out
    assert "FAIL closed-form-agreement: N=2, k=1: formula 2" in out
    assert out.endswith("2 checks, 1 passed, 1 failed\n")


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
    holds = all((is_solution(t) is None) == (is_solution(w) is None)
                for length in (3, 4) for w in _words(m, length)
                for t in rotations_and_reversals(w))
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
