"""Acceptance suite: ten exact criteria, one test each.

Every test prints one `criterion NN <label>: PASS/FAIL (elapsed)` line and
enforces its time budget; run with `pytest -s tests/test_acceptance.py` to
see the lines.  All comparisons are exact; nothing here is tolerance-based.
Criteria 02-09 call the `check_*` functions of `cwlab.verification`, the one
implementation of each statement that `cwl verify` also runs.
"""

import json
import subprocess
import sys
import time

from cwlab.cli import main
from cwlab.monomial import is_reducible_monomial
from cwlab.numtheory import euler_phi
from cwlab.ring import _closing_pair, _fold
from cwlab.verification import (
    _census_set,
    check_binomial_lemmas,
    check_boundary_rigidity,
    check_catalog_size_2,
    check_catalog_size_3,
    check_catalog_size_4,
    check_census_symmetry,
    check_closed_form_agreement,
    check_family_soundness,
    check_monomial_run_triple,
    check_oracle_agreement,
    check_power_matrix_identity,
    check_size_table,
)


def assert_passes(*outcomes):
    for outcome in outcomes:
        assert outcome.passed, f"{outcome.name}: {outcome.detail}"


def run_criterion(number, label, seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:02d} {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < seconds
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {seconds}s)")
    assert ok, f"criterion {number} exceeded its {seconds}s budget"


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_01_classification_counts(capsys):
    def body():
        for n in (9, 25, 27, 49, 81):
            payload = cli_json(capsys, "monomial", str(n), "--all",
                               "--format", "json")
            assert payload["irreducible_count"] == euler_phi(n), n
        for n, exponent in ((8, 3), (16, 4), (32, 5), (64, 6)):
            payload = cli_json(capsys, "monomial", str(n), "--all",
                               "--format", "json")
            assert payload["irreducible_count"] == 3 * 2 ** (exponent - 2) + 1
        for n, count in ((4, 3), (2, 1)):
            payload = cli_json(capsys, "monomial", str(n), "--all",
                               "--format", "json")
            assert payload["irreducible_count"] == count

    run_criterion(1, "classification-counts", 5, body)


def test_criterion_02_size_table():
    run_criterion(2, "size-table", 5,
                  lambda: assert_passes(check_size_table()))


def test_criterion_03_closed_form_agreement():
    run_criterion(3, "closed-form-iterative-agreement", 30,
                  lambda: assert_passes(check_closed_form_agreement(200)))


def test_criterion_04_small_size_catalogs():
    def body():
        for n in range(2, 11):
            size_4 = _census_set(n, 4)
            assert_passes(check_catalog_size_2(n), check_catalog_size_3(n),
                          check_catalog_size_4(n, size_4),
                          check_census_symmetry(n, size_4))

    run_criterion(4, "small-size-catalogs", 10, body)


def test_criterion_05_oracle_equivalence():
    def body():
        for n in range(2, 11):
            assert_passes(check_oracle_agreement(n))
        assert is_reducible_monomial(10, 3)[0] is True
        assert is_reducible_monomial(8, 2)[0] is False

    run_criterion(5, "oracle-equivalence", 60, body)


def test_criterion_06_power_matrix_identity():
    run_criterion(6, "two-power-product-identity", 1,
                  lambda: assert_passes(check_power_matrix_identity()))


def test_criterion_07_family_soundness():
    run_criterion(7, "family-soundness", 5,
                  lambda: assert_passes(check_family_soundness(256)))


def test_criterion_08_divisibility_suite():
    run_criterion(8, "binomial-divisibility-suite", 5,
                  lambda: assert_passes(check_binomial_lemmas()))


def test_criterion_09_boundary_rigidity_suites():
    def body():
        for n in range(2, 11):
            assert_passes(check_boundary_rigidity(n),
                          check_monomial_run_triple(n))
            # rigidity past the check's lengths 3..8
            for k in range(n):
                for length in range(9, 13):
                    pair = _closing_pair(_fold((k,) * (length - 2), n), n)
                    if pair is not None:
                        a, b = pair
                        assert a == b and a * (a - k) % n == 0, \
                            (n, k, length, a, b)

    run_criterion(9, "boundary-rigidity-suites", 60, body)


def test_criterion_10_verify_determinism():
    def body():
        argv = [sys.executable, "-m", "cwlab", "verify", "--preset", "small"]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr == b""

    run_criterion(10, "verify-determinism", 60, body)
