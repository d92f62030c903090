import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cwlab import cli
from cwlab.cli import build_parser, console_main, dump_json, main
from cwlab.monomial import Decomposition
from cwlab.numtheory import factorize
from cwlab.ring import elementary, is_pm_identity, mat_pow
from cwlab.verification import PRESETS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse(*args, **kwargs):
    raise AssertionError("built output that the chosen format never prints")


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

    code, out, _ = run_cli(capsys, "monomial", "10", "0", "--format", "json")
    assert code == 0
    assert out == dump_json({
        "N": 10, "k": 0, "size": 2, "sign": -1, "irreducible": False,
        "certificate": {
            "variant": "zero-excluded",
            "summary":
                "minimal solution is (0, 0); excluded from irreducibility",
            "note":
                "minimal solution is (0, 0); excluded from irreducibility"}})

    # irreducible with nontrivial roots, which the certificate derives
    code, out, _ = run_cli(capsys, "monomial", "16", "8", "--format", "json")
    assert code == 0
    assert out == dump_json({
        "N": 16, "k": 8, "size": 4, "sign": 1, "irreducible": True,
        "certificate": {
            "variant": "exhausted",
            "summary": "exhausted 4 split candidates",
            "examined": {"lengths": [3, 3], "roots": [0, 4, 8, 12]}}})


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_monomial_single_builds_certificate_words_only_for_json(
        capsys, monkeypatch, fmt):
    expected = run_cli(capsys, "monomial", "10", "3", "--format", fmt)
    for name in ("target", "left", "right"):
        monkeypatch.setattr(Decomposition, name, property(refuse))
    assert run_cli(capsys, "monomial", "10", "3", "--format", fmt) == expected


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


def run_cwl_process(*argv):
    """`python -m cwlab argv` in a fresh interpreter, killed after 20 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else SRC
    return subprocess.run([sys.executable, "-m", "cwlab", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=20)


def assert_is_minimal_size(n, k, h, sign):
    # pinned by public powers alone: E**h = sign Id, and no E**(h/l) for a
    # prime l of h is +/-Id, so h is the least such exponent
    e = elementary(k, n)
    assert is_pm_identity(mat_pow(e, h)) == sign
    for l, _ in factorize(h):
        assert is_pm_identity(mat_pow(e, h // l)) is None, (n, k, h, l)


@pytest.mark.parametrize("n, k, h, sign", [
    (2147483647, 5, 1073741823, -1),
    (1073741824, 7, 402653184, 1),
])
def test_monomial_answers_at_the_top_of_the_domain(n, k, h, sign):
    # both k have only the roots 0 and k, so no walk of ~10**9 steps runs
    result = run_cwl_process("monomial", str(n), str(k))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == (
        f"N={n} k={k}: minimal size {h}, sign {sign:+d}, irreducible")
    assert_is_minimal_size(n, k, h, sign)


def test_monomial_top_of_the_domain_json_is_its_claim():
    result = run_cwl_process("monomial", "2147483647", "5", "--format",
                             "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["certificate"]["examined"] == {
        "lengths": [3, 1073741822], "roots": [0, 5]}


@pytest.mark.parametrize("n, k, h, sign, certificate", [
    (2147483578, 3, 805306341, -1,
     "splits as 536870894+268435449 with boundaries 1073741792/1073741789"),
    (2 ** 30, 6, 2 ** 30, 1, "exhausted 4294967284 split candidates"),
    # B = 3 * 2**30 and h = 4, the longest division chain of the order
    (2 ** 30, 2 ** 29, 4, 1, "exhausted 32768 split candidates"),
    (2147483646, 6, 24900, 1,
     "splits as 17100+7802 with boundaries 2115044322/32439330"),
    (2147482394, 3, 1610611797, -1,
     "splits as 1073741198+536870601 with boundaries 1073741200/1073741197"),
])
def test_monomial_splits_at_the_top_of_the_domain(n, k, h, sign,
                                                  certificate):
    # every k here has roots besides 0 and k, so the split comes from the
    # discrete log, never from a walk of ~10**9 steps
    result = run_cwl_process("monomial", str(n), str(k))
    assert result.returncode == 0, result.stderr
    verdict = "not irreducible" if "splits" in certificate else "irreducible"
    assert result.stdout == (
        f"N={n} k={k}: minimal size {h}, sign {sign:+d}, {verdict}\n"
        f"certificate: {certificate}\n")
    assert_is_minimal_size(n, k, h, sign)
    if "splits" in certificate:
        # right summand (x, k, ..., k, x) with j letters k is a solution
        sizes, boundaries = certificate.split()[2], certificate.split()[-1]
        j = int(sizes.split("+")[1]) - 2
        x = int(boundaries.split("/")[1])
        e, ex = elementary(k, n), elementary(x, n)
        assert is_pm_identity(ex @ mat_pow(e, j) @ ex) is not None


def test_monomial_json_refuses_a_certificate_past_the_budget(monkeypatch):
    # 2h + 2 = 1,610,612,684 letters of target, left and right, against
    # the default budget, which CWL_BUDGET does not move
    monkeypatch.setenv("CWL_BUDGET", str(10**10))
    result = run_cwl_process("monomial", "2147483578", "3", "--format",
                             "json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: the certificate JSON needs 1610612684 "
                             "letters, budget is 100000000\n")


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


def test_roots_k_out_of_range(capsys):
    code, _, err = run_cli(capsys, "roots", "10", "10")
    assert code == 2
    assert "must lie in" in err


def usage_error(capsys, *argv):
    """argparse's refusal: SystemExit(2), nothing on stdout, the stderr."""
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc_info.value.code == 2
    assert captured.out == ""
    return captured.err


def test_monomial_requires_k_or_all(capsys):
    assert "one of the arguments k --all is required" in \
        usage_error(capsys, "monomial", "9")
    assert "argument --all: not allowed with argument k" in \
        usage_error(capsys, "monomial", "9", "3", "--all")


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


#: sha256 of `cwl enumerate N n` stdout, plain and with --dedup; the rows are
#: the census's value tuples in lexicographic order, and these pin them byte
#: for byte.
ENUMERATE_DIGESTS = {
    (5, 5, False, "text"):
        "fe39b34ae56c041b3e881350d8acc3ef27004c6a78d715f40231067aae034f8c",
    (5, 5, False, "json"):
        "c4844f8b5ffb5e230f239153c07fc67ecb5eb40900b591ac51662a331aaeaf30",
    (5, 5, False, "csv"):
        "81c6f34f865ad1d1fa96d3f19782630b7af7ae4e064ab9b7c53d42cfe431ed10",
    (5, 5, True, "text"):
        "06ba956ab6fb5612b1c6c108ff14787c6bedc29ef053f15b8d4adb37701f3c7b",
    (5, 5, True, "json"):
        "0e8e059950a332aa864817ac67e6556264fdf90e4c996ef4fae451fd691f4f56",
    (5, 5, True, "csv"):
        "c6c370a0dc4f49900bb054e80a42835d8c90d39da06bbfd7e23ce48899ca8c74",
    (6, 4, False, "text"):
        "624ca2785cf73648243131123e6e6c8d218d460ac45c15a5c2fcb5a065c8ce68",
    (6, 4, False, "json"):
        "e87b8012b924689c64c0bb8b71f8ccc6b3c697e00abfb19b68f964db9aeeff33",
    (6, 4, False, "csv"):
        "3c79eb60f60b7ece8abb521c3e623381ab790bf8656e0ceb4ce7c7b439390fd3",
    (6, 4, True, "text"):
        "13fc52e32ed7f9cf8736a4c4c0ab92104aba8c491be6cdb931fd5cdadab03e25",
    (6, 4, True, "json"):
        "e78ae12da3b65bb2e7b00c43fa6e103ca5af406184c3c6a06d5b14b2d36bf199",
    (6, 4, True, "csv"):
        "3b7f8b3c47b51c476e6f4a7729dc5ea92fce31d2255a1fa9cd0c62de5a721d69",
    (7, 5, False, "text"):
        "f0cb4398f59c75a4d27a2949c14373e19bf0be03a3cb68bc80830e4afe7303e5",
    (7, 5, False, "json"):
        "d7043ecd410e6ae504de0ca78f8f3272dd24030929b5f98136f3beb885682cbd",
    (7, 5, False, "csv"):
        "12f447408fe11ea28b73d58b1e373a3d8e07272931e611b8de0cfdd0451fcef5",
    (7, 5, True, "text"):
        "44a55a08f63f5bd12525f11a94a756902e60f7a47e79f44bd89be49eb4607778",
    (7, 5, True, "json"):
        "715992f2a70b00367c21c1956238c440c8044d995b234abacb25cfde8a6e391f",
    (7, 5, True, "csv"):
        "048e7771c4715d12bd32edcade5c26302777593cd0bcb213bd40ef8d82ac5624",
    # --dedup on long words, short-orbit and reversal-symmetric classes,
    # N = 2 and a wide alphabet
    (7, 9, True, "text"):
        "4e340e3c434eb817c6747398fdfc660070d9b0c7bbcebb72ad7ed8cd1427e441",
    (7, 9, True, "json"):
        "705c42c85295b3b97e3a5e8ce8c6ae3b36080bc9dad6a29f6b51671f701b6f2f",
    (7, 9, True, "csv"):
        "f8bb485c51320cb06ff28343116d8c063539dcc9a4d0fb6a2995ed953edd78c1",
    (2, 15, True, "text"):
        "54f81947217eeef9641005e3acc6820a6bd2df675f31f34c0004e2de23d0131c",
    (2, 15, True, "json"):
        "213f816d9103be4943c096ed4c2c5c73d1c0fb1565b7fa8dc478f7c73ee5a5dc",
    (2, 15, True, "csv"):
        "ae2acddf1cb469abd1dcb3b5b9e46414bb16e4e9d34ff28362639512f64e99b3",
    (3, 10, True, "text"):
        "283cc0a86ae157bb934818971f0310a8bcfbf323dbeac977b7c45cb5d7cf4dc2",
    (3, 10, True, "json"):
        "8056e822ecaa0cc2fd5acd20216cba1afaeb1d51c7cada0cb5dd55bbdf45e447",
    (3, 10, True, "csv"):
        "f5ae58428b8b5e85e6dba750017eb64641fcec8a1d8e831e8b7d34b55d7d82f9",
    (6, 6, True, "text"):
        "70625667106c58c323af6fef10c1cfb646ba03978726bebc0dd16fea8d012884",
    (6, 6, True, "json"):
        "a4acecb51e0fa575f477812a6cd74e1d4e201f23800be54f984ce627ce933b5d",
    (6, 6, True, "csv"):
        "4508d85a33d7233eaab5d75db1d82cf02eeed79c0e68ea591209cde706d33db3",
    (46, 3, True, "text"):
        "64f5a3fcf090c2bf2d3510a2ad7fb4f1b37a43291ae5414d44dbc8b081ee55cc",
    (46, 3, True, "json"):
        "b7d359a90e0c4ef40fcc371b8f4de595ae80ae263433865e164c1a56bec3bd21",
    (46, 3, True, "csv"):
        "e1aaa0ef908a9e1f9de7505ad872170074c0b912a9d026c5a3cc2423c2278b37",
    # plain long words, which the join gives in the scan's order; recorded
    # from the scan
    (2, 15, False, "text"):
        "ed7a22fe441e80385e906a3688ca2b6d70feb0dba79b75ccbcecfaa027d45272",
    (2, 15, False, "json"):
        "f7919f2151fc7fbafed37e441409196f8e0bd99672fb88792bc94d773cd18689",
    (2, 15, False, "csv"):
        "4e6655c8eae6ff31e01db24e7553f21525f49b4e5a99bd63b061df2741a7a703",
    (3, 10, False, "text"):
        "8ad7e9c0e0fa6e1292cdbd5f25c456a931e04ec73ed83098cd804c82468595e9",
    (3, 10, False, "json"):
        "acbe05acfff248ff0ecf38cea2b1a30167664f805da59d0b6663724db0fd5d51",
    (3, 10, False, "csv"):
        "a4f0b4a99bcb58c1f8bdae449cec5ce737f508ce4922153e3edee4aad12f3b10",
    (7, 9, False, "json"):
        "f657012d54edeecf314561f6df8aec939832acbfc66183854a248926fcbbf291",
}


@pytest.mark.parametrize("n, size, dedup, fmt", ENUMERATE_DIGESTS)
def test_enumerate_is_pinned(capsys, n, size, dedup, fmt):
    argv = ["enumerate", str(n), str(size), "--format", fmt]
    code, out, _ = run_cli(capsys, *argv, *(["--dedup"] if dedup else []))
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ENUMERATE_DIGESTS[n, size, dedup, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_formats_word_lines_only_for_text(capsys, monkeypatch, fmt):
    expected = run_cli(capsys, "enumerate", "6", "5", "--format", fmt)
    monkeypatch.setattr(cli, "_word_str", refuse)
    assert run_cli(capsys, "enumerate", "6", "5", "--format", fmt) == expected


@pytest.mark.parametrize("argv", [
    ("enumerate", "6", "5"), ("monomial", "10", "3"),
    ("monomial", "12", "--all"), ("check", "10", "8,3,3,3,8")])
def test_json_streams_without_building_the_document_string(
        capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv, "--format", "json")
    monkeypatch.setattr(json, "dumps", refuse)
    assert run_cli(capsys, *argv, "--format", "json") == expected


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


def test_enumerate_count_only_past_the_scan(capsys):
    # 2**26 prefix letters, inside the default budget; the join counts them
    code, out, _ = run_cli(capsys, "enumerate", "2", "28", "--count-only")
    assert code == 0
    assert out == "N=2 size=28: 44739243 solutions\n"


def test_enumerate_count_only_has_no_csv_form(capsys):
    # a bare header would be byte-identical to `cwl enumerate 3 1 --format csv`
    code, out, err = run_cli(capsys, "enumerate", "6", "4", "--count-only",
                             "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--format text" in err and "--format json" in err


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

    # C(2000000, 3) = 2**7 * odd; top has no cap
    code, out, _ = run_cli(capsys, "binom-val", "2000000", "3", "2")
    assert code == 0 and ": 7" in out


@pytest.mark.parametrize("argv, message", [
    (("phi", "0"),
     "euler_phi expects an integer value in [1, 2147483647], got 0"),
    (("phi", "2147483648"),
     "euler_phi expects an integer value in [1, 2147483647], got 2147483648"),
    (("binom-val", "10", "3", "1000000000000"),
     "binomial_valuation expects base <= 2147483647, got 1000000000000"),
])
def test_phi_and_binom_val_refuse_in_their_own_words(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    assert "one of the arguments --N --preset is required" in \
        usage_error(capsys, "verify")
    assert "argument --preset: not allowed with argument --N" in \
        usage_error(capsys, "verify", "--N", "4", "--preset", "sizes")
    for raw, message in (("6..2", "bad modulus range '6..2'"),
                         ("1..3", "bad modulus range '1..3'"),
                         ("2..", "cannot parse modulus range '2..'"),
                         ("2..x", "cannot parse modulus range '2..x'")):
        assert f"argument --N: {message}" in \
            usage_error(capsys, "verify", "--N", raw)


def test_verify_refuses_moduli_past_the_domain(capsys):
    # refused while parsing, before any census budget is reached
    for raw in ("2147483647..2147483648", "2..4000000000"):
        err = usage_error(capsys, "verify", "--N", raw)
        assert "2147483647" in err
        assert "budget" not in err


def test_verify_refuses_a_modulus_past_the_size_4_census_budget(capsys):
    # the size-4 census runs first and needs 10001**2 > 10**8 prefix letters
    code, out, err = run_cli(capsys, "verify", "--N", "10001")
    assert code == 2
    assert out == ""
    assert err == ("error: enumeration needs 10001**2 prefix letters, "
                   "budget is 100000000\n")


def test_verify_range_is_lazy():
    args = build_parser().parse_args(["verify", "--N", "2..2147483647"])
    assert args.moduli == range(2, 2 ** 31)
    assert build_parser().parse_args(["verify", "--N", "10"]).moduli == \
        range(10, 11)


@pytest.mark.parametrize("command", [
    "check", "monomial", "sum", "canon", "enumerate", "roots", "phi",
    "factor", "binom-val", "verify"])
def test_every_subcommand_has_help(capsys, command):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cwl {command} ")


def test_monomial_help_shows_that_k_or_all_is_required(capsys):
    with pytest.raises(SystemExit):
        main(["monomial", "--help"])
    assert "(k | --all)" in capsys.readouterr().out.splitlines()[0]


def test_console_main_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cwl", "check", "5", "1,2"])
    with pytest.raises(SystemExit) as exc_info:
        console_main()
    assert exc_info.value.code == 1
    assert "not a solution" in capsys.readouterr().out


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


#: sha256 of `cwl monomial N --all` stdout; the N - k half of each table comes
#: from k's walk by the mirror map, and these pin it byte for byte.
ALL_DIGESTS = {
    (2, "text"):
        "16a833fb9aabb82ce11e0c870beeda443e7a730c7edd2e2e9cff60e432f9b72d",
    (2, "json"):
        "2c77bd487f27ed6a1dfe72b8f471316b5d5a058100b6bd4c44c038f20186ed8a",
    (2, "csv"):
        "093e85e984c252da36a745c85b734cb7467149540997f8bfa5b3c39bbe31aadf",
    (4, "text"):
        "f544ed384b516293f7f32cc859e44f1fd1da2c12424b9e750010506c0d0b3da1",
    (4, "json"):
        "e88aaa4e2879e7f19b3eda02da82614138e45f0f631bd783b3ee812db0b1e5d1",
    (4, "csv"):
        "608123bc459f583c415e21f851193ff0129f9736a96e0f280b53b1b63edfb516",
    (243, "text"):
        "483ddad0d8df69a87ca22a2d26746b94dad501551ba2c3a9501de7b9f89473cd",
    (243, "json"):
        "5cd157f51463553f3212725882832eac12c6e631be4f27fe55de7f3df6628530",
    (243, "csv"):
        "4a97635d0a6c96eaa32c0acd4f630e93c880cea9513f84a768a596f4de5e98cd",
    (360, "text"):
        "dc43e0e95f43c6edf43f1fa32d2e422b81bd65c09427b2cbb328459527859963",
    (360, "json"):
        "19fe9dc461712dcc1aff5740ef71c3d2d29459a676c45ba8d168d6eb5d3a979b",
    (360, "csv"):
        "6a73f9317ea12bd9aa378f49ddafa5369afdaa30806f7faa6a0b6db356ddb9a0",
    (1024, "text"):
        "cbc64597f45c9d25e5ffba7ca7153780a747108cd7b269be37d4289008ace6c1",
    (1024, "json"):
        "eea189d619adb8356ff44cd45310aec2d4d11c7ab5b42f66aef994e11de30b10",
    (1024, "csv"):
        "6f8a91c859ff8383dd155846bc023a9feef804542180c019e2ed27b4a6b86d26",
}


@pytest.mark.parametrize("n, fmt", ALL_DIGESTS)
def test_monomial_all_is_pinned(capsys, n, fmt):
    code, out, _ = run_cli(capsys, "monomial", str(n), "--all",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_DIGESTS[n, fmt]
