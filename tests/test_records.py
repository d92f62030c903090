"""The value records: equality, hashing, immutability, pickling, reprs."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cwlab import (
    EnumerationQuery,
    Exhausted,
    Modulus,
    ZeroExcluded,
    elementary,
    enumerate_solutions,
    monomial_report,
    quadratic_roots,
    word,
)
from cwlab import verification
from cwlab.verification import CheckOutcome

ROOT = Path(__file__).resolve().parent.parent

#: One builder per record class, with its repr pinned byte for byte.
RECORDS = {
    "Mat2": (
        lambda: elementary(3, 10),
        "Mat2([[3, 9], [1, 0]] mod 10)"),
    "Word": (
        lambda: word([8, 3, 3, 3, 8], 10),
        "Word(8,3,3,3,8 mod 10)"),
    "Modulus": (
        lambda: Modulus(10),
        "Modulus(10)"),
    "EnumerationQuery": (
        lambda: EnumerationQuery(Modulus(5), 3),
        "EnumerationQuery(modulus=Modulus(5), size=3, dedup=False, "
        "count_only=False, budget=100000000)"),
    "Census": (
        lambda: enumerate_solutions(EnumerationQuery(Modulus(3), 3)),
        "Census(modulus=Modulus(3), size=3, total=2, dedup=False, "
        "values=((1, 1, 1), (2, 2, 2)))"),
    "QuadraticRoots": (
        lambda: quadratic_roots(12, 4),
        "QuadraticRoots(modulus=Modulus(12), k=4, roots=(0, 4, 6, 10))"),
    "Decomposition": (
        lambda: monomial_report(9, 3).certificate,
        "Decomposition(modulus=Modulus(9), k=3, size=6, j=2, x=6)"),
    "Exhausted": (
        lambda: monomial_report(5, 2).certificate,
        "Exhausted(modulus=Modulus(5), k=2, size=5)"),
    "ZeroExcluded": (
        lambda: ZeroExcluded(),
        "ZeroExcluded()"),
    "MonomialReport": (
        lambda: monomial_report(4, 2),
        "MonomialReport(modulus=Modulus(4), k=2, size=4, sign=1, "
        "irreducible=True, certificate=Exhausted(modulus=Modulus(4), k=2, "
        "size=4))"),
    "CheckOutcome": (
        lambda: CheckOutcome("a", True, "b"),
        "CheckOutcome(name='a', passed=True, detail='b')"),
}

params = pytest.mark.parametrize("name", sorted(RECORDS))


@params
def test_repr_is_pinned(name):
    build, expected = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == expected


@params
def test_equal_fields_give_equal_records_and_hashes(name):
    build, _ = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    fields = tuple(getattr(first, field) for field in type(first).__slots__)
    assert hash(first) == hash(fields)
    assert first != fields
    assert len({first, second}) == 1


@params
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _ = RECORDS[name]
    record = build()
    for field in type(record).__slots__:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == build()


@params
def test_pickle_and_copies_round_trip(name):
    build, expected = RECORDS[name]
    record = build()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == expected


def test_records_differ_by_any_field_and_by_class():
    query = EnumerationQuery(Modulus(5), 3)
    assert query != EnumerationQuery(Modulus(5), 3, dedup=True)
    assert query != EnumerationQuery(Modulus(5), 3, budget=7)
    assert query != EnumerationQuery(Modulus(7), 3)
    # equal field values under two classes: Twin inherits Exhausted's
    # __slots__, so only the class check can tell the two apart

    class Twin(Exhausted):
        pass

    five = Modulus(5)
    assert Twin(five, 2, 5)._values() == Exhausted(five, 2, 5)._values()
    assert Twin(five, 2, 5) != Exhausted(five, 2, 5)


def _fresh_python(code: str) -> str:
    """stdout of `code` in a fresh `python -S` process with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, env=env,
                            cwd=ROOT)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _modules_after_importing_the_cli() -> set[str]:
    """sys.modules of a fresh process after `import cwlab.cli`."""
    return set(_fresh_python(
        "import sys, cwlab.cli; print('\\n'.join(sys.modules))").split())


def test_importing_the_cli_skips_dataclasses_inspect_and_typing():
    loaded = _modules_after_importing_the_cli()
    assert {"dataclasses", "inspect", "typing"} & loaded == set()


def test_importing_the_cli_loads_every_traced_layer():
    # bench/tracer.py reads these from sys.modules right after importing the
    # cli, so each must be there by then; a lazily registered module counts,
    # since the tracer's vars() call runs it before anything is patched
    layers = {f"cwlab.{name}" for name in ("numtheory", "words", "monomial",
                                            "bruteforce", "verification")}
    assert layers <= _modules_after_importing_the_cli()


#: A command other than `verify`, run in a fresh process; the facts about
#: cwlab.verification follow as one JSON line.
AFTER_PHI = """
import json, sys, types
import cwlab, cwlab.cli
cwlab.cli.main(["phi", "10"])
suite = sys.modules["cwlab.verification"]
facts = {"plain": type(suite) is types.ModuleType,
         "bound": cwlab.verification is suite}
"""


def _suite_facts(then: str) -> dict:
    return json.loads(_fresh_python(
        AFTER_PHI + then + "\nprint(json.dumps(facts))").splitlines()[-1])


def test_the_cli_registers_the_verify_suite_without_running_it():
    facts = _suite_facts(
        'facts["names"] = list(vars(suite))')  # what bench/tracer.py reads
    assert not facts["plain"]
    assert facts["bound"]  # as an import binds it, for cwlab.verification.X
    functions = {name for name in vars(verification)
                 if name == "run_preset" or name.startswith("check_")}
    assert len(functions) == 21
    assert functions <= set(facts["names"])


def test_the_cli_runs_the_verify_suite_for_verify():
    facts = _suite_facts('cwlab.cli.main(["verify", "--preset", "sizes"])\n'
                         'facts["plain"] = type(suite) is types.ModuleType')
    assert facts["plain"]
