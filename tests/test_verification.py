"""The failure path of the checks: a broken dependency must make each check
fail with a counterexample, and `cwl verify` exit 1."""

import re

import pytest

from cwlab import verification
from cwlab.cli import main
from cwlab.errors import InternalCheckError
from cwlab.monomial import QuadraticRoots
from cwlab.words import Word


MINIMAL_MONOMIAL_SIZE = verification.minimal_monomial_size
BOUNDARY_PAIRS = verification._boundary_pairs


def size_off_by_one(modulus, k):
    h, sign = MINIMAL_MONOMIAL_SIZE(modulus, k)
    return h + 1, sign


def refuse_family(kind, **params):
    raise InternalCheckError("forced refusal")


def with_stray_pair(n, k, lengths):
    return {length: pairs + [(3, 3)]
            for length, pairs in BOUNDARY_PAIRS(n, k, lengths).items()}


def roots_without_k(modulus, k):
    return QuadraticRoots(modulus, k, (0,))


def longer_arrangement(w):
    return [Word(w.values + (0,), w.modulus)]


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
    ("family_word", refuse_family, "check_family_soundness", (),
     "power_monomial {'l': 2, 'n': 2, 'm': 1, 'a': 0}: forced refusal"),
    ("oplus", lambda a, b: b, "check_sum_stability", (3,),
     "N=3: a=(1, 0), b=(0, 0)"),
    ("rotations_and_reversals", lambda w: [Word((0,) * len(w), w.modulus)],
     "check_arrangement_stability", (3,), "N=3: (1, 1, 1) vs arrangement"),
    # an arrangement missing from the status table is decided directly
    ("rotations_and_reversals", longer_arrangement,
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
