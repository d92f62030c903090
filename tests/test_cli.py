import hashlib
import json

import pytest

from cwlab.cli import dump_json, main
from cwlab.verification import PRESETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_solution_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "10", "8,3,3,3,8")
    assert code == 0
    assert "solution with sign -1" in out


def test_check_non_solution_exits_one(capsys):
    code, out, _ = run_cli(capsys, "check", "5", "1,2")
    assert code == 1
    assert "not a solution" in out


def test_check_size_three_solution(capsys):
    code, out, _ = run_cli(capsys, "check", "5", "1,1,1")
    assert code == 0
    assert "sign -1" in out


def test_check_parse_failure_exits_two(capsys):
    code, _, err = run_cli(capsys, "check", "10", "8;3")
    assert code == 2
    assert "error" in err


def test_check_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "check", "10", "8,3,3,3,8",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert dump_json(payload) == out
    assert payload["solution"] is True and payload["sign"] == -1
    assert payload["matrix"] == [[9, 0], [0, 9]]


def test_check_negative_entries_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, "check", "7", "--", "-1,-1,-1")
    assert code == 0
    assert "solution with sign +1" in out


def test_monomial_single(capsys):
    code, out, _ = run_cli(capsys, "monomial", "9", "3")
    assert code == 0
    assert "minimal size 6" in out
    assert "not irreducible" in out

    code, out, _ = run_cli(capsys, "monomial", "7", "2")
    assert code == 0
    assert "minimal size 7" in out
    assert "not irreducible" not in out
    assert "irreducible" in out


def test_monomial_all_count(capsys):
    code, out, _ = run_cli(capsys, "monomial", "16", "--all")
    assert code == 0
    assert "irreducible: 13 of 16" in out


def test_monomial_all_json(capsys):
    code, out, _ = run_cli(capsys, "monomial", "16", "--all",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible_count"] == 13
    assert len(payload["reports"]) == 16
    assert dump_json(payload) == out


def test_monomial_single_json_certificates_are_pinned(capsys):
    code, out, _ = run_cli(capsys, "monomial", "10", "3", "--format", "json")
    assert code == 0
    assert out == dump_json({
        "N": 10, "k": 3, "size": 15, "sign": -1, "irreducible": False,
        "certificate": {
            "variant": "decomposition",
            "summary": "splits as 12+5 with boundaries 5/8",
            "target": [3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
            "left": [5, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 5],
            "right": [8, 3, 3, 3, 8],
            "rotation_note":
                "left (+) right reproduces the all-k target exactly"}})

    code, out, _ = run_cli(capsys, "monomial", "7", "2", "--format", "json")
    assert code == 0
    assert out == dump_json({
        "N": 7, "k": 2, "size": 7, "sign": 1, "irreducible": True,
        "certificate": {
            "variant": "exhausted",
            "summary": "exhausted 8 split candidates",
            "examined": {"lengths": [3, 6], "roots": [0, 2]}}})


def test_monomial_exhausted_json_is_its_claim_not_its_candidates(capsys):
    # two million candidates, but the certificate is their grid's bounds
    code, out, _ = run_cli(capsys, "monomial", "1000003", "2",
                           "--format", "json")
    assert code == 0
    assert len(out.encode()) < 1024
    assert json.loads(out)["certificate"] == {
        "variant": "exhausted",
        "summary": "exhausted 2000000 split candidates",
        "examined": {"lengths": [3, 1000002], "roots": [0, 2]}}


MONOMIAL_16 = [  # (size, sign, summary) for k = 0..15
    (2, -1, "minimal solution is (0, 0); excluded from irreducibility"),
    (3, -1, "exhausted 0 split candidates"),
    (16, 1, "exhausted 52 split candidates"),
    (12, 1, "exhausted 18 split candidates"),
    (8, 1, "splits as 6+4 with boundaries 8/12"),
    (12, 1, "exhausted 18 split candidates"),
    (16, 1, "exhausted 52 split candidates"),
    (6, 1, "exhausted 6 split candidates"),
    (4, 1, "exhausted 4 split candidates"),
    (6, 1, "exhausted 6 split candidates"),
    (16, 1, "exhausted 52 split candidates"),
    (12, 1, "exhausted 18 split candidates"),
    (8, 1, "splits as 6+4 with boundaries 8/4"),
    (12, 1, "exhausted 18 split candidates"),
    (16, 1, "exhausted 52 split candidates"),
    (3, 1, "exhausted 0 split candidates"),
]

MONOMIAL_30 = [  # (size, sign, summary) for k = 0..29
    (2, -1, "minimal solution is (0, 0); excluded from irreducibility"),
    (3, -1, "exhausted 0 split candidates"),
    (30, 1, "exhausted 108 split candidates"),
    (60, 1, "splits as 42+20 with boundaries 15/18"),
    (6, 1, "exhausted 12 split candidates"),
    (12, 1, "exhausted 36 split candidates"),
    (12, 1, "exhausted 18 split candidates"),
    (30, 1, "splits as 27+5 with boundaries 25/12"),
    (30, 1, "exhausted 108 split candidates"),
    (12, 1, "exhausted 36 split candidates"),
    (12, 1, "exhausted 18 split candidates"),
    (6, 1, "exhausted 24 split candidates"),
    (20, 1, "exhausted 34 split candidates"),
    (15, -1, "exhausted 96 split candidates"),
    (6, 1, "exhausted 12 split candidates"),
    (6, -1, "exhausted 6 split candidates"),
    (6, 1, "exhausted 12 split candidates"),
    (15, 1, "exhausted 96 split candidates"),
    (20, 1, "exhausted 34 split candidates"),
    (6, 1, "exhausted 24 split candidates"),
    (12, 1, "exhausted 18 split candidates"),
    (12, 1, "exhausted 36 split candidates"),
    (30, 1, "exhausted 108 split candidates"),
    (30, 1, "splits as 27+5 with boundaries 5/18"),
    (12, 1, "exhausted 18 split candidates"),
    (12, 1, "exhausted 36 split candidates"),
    (6, 1, "exhausted 12 split candidates"),
    (60, 1, "splits as 42+20 with boundaries 15/12"),
    (30, 1, "exhausted 108 split candidates"),
    (3, 1, "exhausted 0 split candidates"),
]


def test_monomial_all_json_is_pinned(capsys):
    for n, rows in ((16, MONOMIAL_16), (30, MONOMIAL_30)):
        reports = []
        for k, (size, sign, summary) in enumerate(rows):
            irreducible = summary.startswith("exhausted")
            variant = ("zero-excluded" if k == 0 else
                       "exhausted" if irreducible else "decomposition")
            reports.append({"k": k, "size": size, "sign": sign,
                            "irreducible": irreducible,
                            "certificate": {"variant": variant,
                                            "summary": summary}})
        code, out, _ = run_cli(capsys, "monomial", str(n), "--all",
                               "--format", "json")
        assert code == 0
        assert out == dump_json({
            "N": n, "irreducible_count": sum(r["irreducible"]
                                             for r in reports),
            "reports": reports})


def test_monomial_k_out_of_range(capsys):
    code, _, err = run_cli(capsys, "monomial", "9", "9")
    assert code == 2
    assert "must lie in" in err


def test_monomial_requires_k_or_all(capsys):
    code, _, _ = run_cli(capsys, "monomial", "9")
    assert code == 2
    code, _, _ = run_cli(capsys, "monomial", "9", "3", "--all")
    assert code == 2


def test_sum_and_canon(capsys):
    code, out, _ = run_cli(capsys, "sum", "11", "3,2,1", "1,2,3")
    assert code == 0
    assert "(6,2,2,2)" in out
    code, out, _ = run_cli(capsys, "canon", "5", "3,1,2")
    assert code == 0
    assert "(1,2,3)" in out


def test_sum_rejects_short_operand(capsys):
    code, _, err = run_cli(capsys, "sum", "11", "3", "1,2,3")
    assert code == 2
    assert "length >= 2" in err


def test_enumerate_text_json_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "5", "3")
    assert code == 0
    assert "2 solutions" in out

    code, out, _ = run_cli(capsys, "enumerate", "5", "3", "--format", "json")
    payload = json.loads(out)
    assert payload == {"N": 5, "n": 3, "total": 2, "dedup": False,
                       "representatives": [[1, 1, 1], [4, 4, 4]]}
    assert dump_json(payload) == out

    code, out, _ = run_cli(capsys, "enumerate", "5", "3", "--format", "csv")
    assert out.splitlines()[0] == "a1,a2,a3"
    assert out.splitlines()[1:] == ["1,1,1", "4,4,4"]


def test_enumerate_count_only_and_dedup(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "6", "4", "--count-only",
                           "--format", "json")
    assert code == 0
    counted = json.loads(out)
    assert counted["representatives"] == []

    code, out, _ = run_cli(capsys, "enumerate", "6", "4", "--dedup",
                           "--format", "json")
    deduped = json.loads(out)
    assert counted["total"] == deduped["total"]
    assert 0 < len(deduped["representatives"]) < deduped["total"]


def test_enumerate_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CWL_BUDGET", "100")
    code, _, err = run_cli(capsys, "enumerate", "5", "6")
    assert code == 2
    assert "budget is 100" in err
    monkeypatch.setenv("CWL_BUDGET", "not-a-number")
    code, _, err = run_cli(capsys, "enumerate", "5", "2")
    assert code == 2
    assert "CWL_BUDGET" in err


def test_enumerate_refuses_huge_sizes_without_building_the_power(capsys):
    # N**n here has thousands (or millions) of digits
    for argv in (("10", "5000"), ("2147483647", "1000000")):
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert code == 2
        assert "budget is" in err
        assert out == ""


def test_roots_phi_factor_binom_val(capsys):
    code, out, _ = run_cli(capsys, "roots", "10", "3")
    assert code == 0 and "0,3,5,8" in out

    code, out, _ = run_cli(capsys, "phi", "9")
    assert code == 0 and "= 6" in out

    code, out, _ = run_cli(capsys, "factor", "30", "--format", "json")
    assert json.loads(out)["factors"] == [[2, 1], [3, 1], [5, 1]]

    code, out, _ = run_cli(capsys, "binom-val", "8", "3", "2")
    assert code == 0 and ": 3" in out


def roots_by_crt(n, k):
    """Oracle: scan each prime power q of n, then combine the residues with
    the explicit CRT sum of r_q * (n/q) * ((n/q)**-1 mod q)."""
    components = []
    rest, p = n, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1:
            components.append(
                (q, [x for x in range(q) if x * (x - k) % q == 0]))
        p += 1
    roots = [0]
    for q, local in components:
        cofactor = n // q
        lift = cofactor * pow(cofactor, -1, q)
        roots = [r + x * lift for r in roots for x in local]
    return sorted(r % n for r in roots)


def test_roots_at_the_top_of_the_domain(capsys):
    cases = [(2147483647, 5, [0, 5]),
             (2 ** 30, 0, [i * 2 ** 15 for i in range(2 ** 15)]),
             (2147483646, 6, roots_by_crt(2147483646, 6))]
    for n, k, expected in cases:
        code, out, _ = run_cli(capsys, "roots", str(n), str(k),
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {"N": n, "k": k, "roots": expected}
    # 2147483646 = 2 * 3**2 * 7 * 11 * 31 * 151 * 331 and 6 = 0 mod 2 and
    # mod 3: 1 root mod 2, 3 mod 9 and 2 mod each other prime
    assert len(cases[2][2]) == 3 * 2 ** 5


def test_argparse_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["check"])
    assert exc_info.value.code == 2


def test_verify_small_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "2..6")
    assert code == 0
    assert out.endswith("0 failed\n")


def test_verify_single_modulus_includes_reducibility(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "10")
    assert code == 0
    assert "oracle-agreement N=10" in out
    assert "monomial-classification N=10" in out


def test_verify_requires_exactly_one_selector(capsys):
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--N", "4", "--preset", "sizes")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--N", "6..2")
    assert code == 2


# sha256 of each preset's stdout: `cwl verify` output is pinned byte for byte
PRESET_DIGESTS = {
    "small":
        "3bbad7b786dc339bce11f2cd94b5194b01fec5cfa1e6c461db00fbfd246be12a",
    "prime-powers":
        "8118a875ff8212eadadb16fdbd580b1358ff01157884209aac217a3f5ca211c1",
    "sizes":
        "5baab1b5d3455cf8c15046076141ee51d87dbdd90a582fcf142b91b3ec8b598b",
}


@pytest.mark.parametrize("preset", PRESETS)
def test_verify_presets_are_pinned(capsys, preset):
    code, out, _ = run_cli(capsys, "verify", "--preset", preset)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRESET_DIGESTS[preset]


#: `verify --N 2..12` reaches `run_moduli` at N = 11 and 12, which no preset
#: covers.
MODULI_DIGEST = \
    "84b8359e9b7190fc757f94ce861ace1f8a6bd283fe5e3cca5db538fc2c3ac706"


def test_verify_moduli_range_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "2..12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODULI_DIGEST
