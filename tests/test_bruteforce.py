import json

import pytest

from cwlab import bruteforce
from cwlab.bruteforce import (
    EnumerationQuery,
    _check_budget,
    enumerate_solutions,
    is_reducible_oracle,
)
from cwlab.cli import main
from cwlab.errors import BudgetExceededError, UsageError
from cwlab.monomial import minimal_monomial_size
from cwlab.ring import Modulus, _closing_pair, _fold, _mul, _pm_sign
from cwlab.verification import (
    _census_set,
    check_catalog_size_2,
    check_catalog_size_3,
    check_catalog_size_4,
    check_census_symmetry,
    check_oracle_agreement,
)
from cwlab.words import (
    Word,
    _arrangements,
    canonical_form,
    equivalent,
    is_solution,
    oplus,
    word,
)

from oracles import arrangements_oracle


def test_census_examples():
    census = enumerate_solutions(EnumerationQuery(Modulus(5), 3))
    assert census.total == 2
    assert {w.values for w in census.words} == {(1, 1, 1), (4, 4, 4)}

    census = enumerate_solutions(EnumerationQuery(Modulus(4), 2))
    assert census.total == 1
    assert [w.values for w in census.words] == [(0, 0)]


def test_census_matches_parametric_families_mod_six():
    outcome = check_catalog_size_4(6, _census_set(6, 4))
    assert outcome.passed, outcome.detail


def test_census_scan_order_is_lexicographic():
    census = enumerate_solutions(EnumerationQuery(Modulus(6), 4))
    values = [w.values for w in census.words]
    assert values == sorted(values)


def test_census_dedup():
    census = enumerate_solutions(EnumerationQuery(Modulus(6), 4, dedup=True))
    reps = list(census.words)
    for w in reps:
        assert canonical_form(w).values == w.values
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            assert not equivalent(u, v)
    # dedup keeps the raw total
    raw = enumerate_solutions(EnumerationQuery(Modulus(6), 4))
    assert census.total == raw.total
    assert len(reps) < raw.total


def test_census_builds_no_word(monkeypatch):
    built = []

    def counting_word(*args):
        built.append(args)
        return Word(*args)

    monkeypatch.setattr(bruteforce, "Word", counting_word)
    # the scan's shapes, then three that take the join
    shapes = [(n, size) for n in range(2, 8) for size in range(2, 7)]
    for n, size in shapes + [(2, 12), (3, 9), (7, 7)]:
        for dedup in (False, True):
            query = EnumerationQuery(n, size, dedup=dedup)
            census = enumerate_solutions(query)
            assert built == [], (n, size, dedup)
            assert census.words == tuple(word(v, n) for v in census.values)
            built.clear()


def test_census_count_only():
    census = enumerate_solutions(EnumerationQuery(Modulus(6), 4,
                                                  count_only=True))
    full = enumerate_solutions(EnumerationQuery(Modulus(6), 4))
    assert census.total == full.total == len(full.words)
    assert census.words == ()


def test_census_symmetry():
    # criterion 04 covers N = 2..10
    outcomes = [check_census_symmetry(n, _census_set(n, 4))
                for n in range(11, 17)]
    assert [o.detail for o in outcomes if not o.passed] == []


def _enumerate_output(capsys, *argv):
    assert main(["enumerate", *argv]) == 0
    return capsys.readouterr().out


def test_census_determinism(capsys):
    query = EnumerationQuery(Modulus(7), 4, dedup=True)
    first = enumerate_solutions(query)
    second = enumerate_solutions(query)
    assert first == second
    assert json.loads(_enumerate_output(capsys, "7", "4", "--dedup",
                                        "--format", "json")) == \
        json.loads(_enumerate_output(capsys, "7", "4", "--dedup",
                                     "--format", "json"))


def test_budget_enforced():
    with pytest.raises(BudgetExceededError) as exc_info:
        enumerate_solutions(EnumerationQuery(Modulus(10), 11))
    assert "100000000" in str(exc_info.value)
    with pytest.raises(BudgetExceededError):
        enumerate_solutions(EnumerationQuery(Modulus(5), 5, budget=100))


def test_budget_boundary_counts_prefix_multiplications():
    # size 5 scans 5**3 = 125 prefixes
    census = enumerate_solutions(EnumerationQuery(Modulus(5), 5, budget=125))
    assert census.total == len(census.words) > 0
    with pytest.raises(BudgetExceededError) as exc_info:
        enumerate_solutions(EnumerationQuery(Modulus(5), 5, budget=124))
    assert "5**3" in str(exc_info.value)
    assert "budget is 124" in str(exc_info.value)


def test_check_budget_refuses_exactly_when_the_power_exceeds_it():
    # the bit-length cut must agree with the literal power at its boundary
    for n in (2, 3, 10):
        for exponent in range(12):
            for budget in (1, 2, 3, 4, 7, 8, 9, 1000, 1024, 1025):
                if n ** exponent > budget:
                    with pytest.raises(BudgetExceededError):
                        _check_budget(n, exponent, budget)
                else:
                    _check_budget(n, exponent, budget)


def enumerate_oracle(query):
    """The literal scan over all N**size words, checking each full product;
    dedup takes the least arrangement from arrangements_oracle."""
    m = query.modulus
    n = m.n
    size = query.size
    one = 1 % n
    prefix = [(one, 0, 0, one)] * (size + 1)
    digits = [0] * size
    total = 0
    raw = []
    pos = 0
    while True:
        while pos < size:
            k = digits[pos]
            a, b, c, d = prefix[pos]
            # E(k) . [[a, b], [c, d]]
            prefix[pos + 1] = ((k * a - c) % n, (k * b - d) % n, a, b)
            pos += 1
        if _pm_sign(prefix[size], n) is not None:
            total += 1
            if not query.count_only:
                raw.append(tuple(digits))
        pos = size - 1
        while pos >= 0 and digits[pos] == n - 1:
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            break
        digits[pos] += 1

    if query.count_only:
        words = []
    elif query.dedup:
        words = sorted({min(arrangements_oracle(v)) for v in raw})
    else:
        words = raw
    return total, words


def test_census_agrees_with_full_scan_oracle():
    for n in range(2, 14):
        m = Modulus(n)
        for size in range(1, 7):
            if n**size > 10**5:
                continue
            for flags in ({}, {"dedup": True}, {"count_only": True}):
                query = EnumerationQuery(m, size, **flags)
                census = enumerate_solutions(query)
                got = (census.total, [w.values for w in census.words])
                assert got == enumerate_oracle(query), (n, size, flags)


# word lengths up to the census workload's, with short-orbit classes such
# as constant words and (a, b, a, b), reversal-symmetric classes, size 2 and
# N = 2
LONG_WORD_SHAPES = ([(2, size) for size in range(1, 17)]
                    + [(3, size) for size in range(1, 11)]
                    + [(5, size) for size in range(1, 8)]
                    + [(6, size) for size in range(1, 7)]
                    + [(n, 3) for n in range(2, 47)]
                    + [(n, 4) for n in range(2, 12)]
                    + [(n, size) for n in range(2, 12)
                       for size in range(2, 11)
                       if n ** (size - 2) <= 2 * 10**5])


def test_dedup_is_least_arrangement_on_long_words():
    # the dedup scan's prenecklace cut, tail test and class sizes are
    # checked against the plain scan
    for n, size in LONG_WORD_SHAPES:
        m = Modulus(n)
        plain = enumerate_solutions(EnumerationQuery(m, size))
        dedup = enumerate_solutions(EnumerationQuery(m, size, dedup=True))
        assert dedup.total == plain.total, (n, size)
        assert [w.values for w in dedup.words] == \
            sorted({min(_arrangements(w.values)) for w in plain.words}), \
            (n, size)


def test_dedup_class_size_is_the_number_of_arrangements():
    # the bracelet test's early exits decide each class size on its own,
    # not only through the totals
    for n, size in LONG_WORD_SHAPES:
        if size < 2:
            continue
        for v, orbit in bruteforce._least_solutions(n, size):
            assert orbit == len(set(_arrangements(v))), (n, size, v)


# every N <= 12 and 2 <= n <= 10 within 2 * 10**5 prefix letters, and the
# long shapes above
JOIN_SHAPES = sorted(
    {(n, size) for n in range(2, 13) for size in range(2, 11)
     if n ** (size - 2) <= 2 * 10**5}
    | {(n, size) for n, size in LONG_WORD_SHAPES if size >= 2})


def test_join_gives_the_scan_word_for_word():
    for n, size in JOIN_SHAPES:
        assert tuple(bruteforce._joined_solutions(n, size)) == \
            tuple(bruteforce._solutions(n, size)), (n, size)


def test_joined_count_is_the_number_of_scanned_words():
    for n, size in JOIN_SHAPES:
        assert bruteforce._joined_count(n, size) == \
            sum(1 for _ in bruteforce._solutions(n, size)), (n, size)


def test_joined_count_at_n_2_is_the_order_of_s3_closed_form():
    # SL2(F_2) is S3 with E(0) a transposition and E(1) a 3-cycle, so the
    # words with product Id number (2**n + 2 (-1)**n) / 6
    for size in range(2, 29):
        assert bruteforce._joined_count(2, size) == \
            (2**size + 2 * (-1)**size) // 6, size
    assert enumerate_solutions(EnumerationQuery(2, 28, count_only=True)) \
        .total == 44739243


def test_census_path_follows_the_cost_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"the other census path ran on {args}")

    for refused, shapes in ((("_joined_solutions", "_joined_count"),
                             [(46, 3), (10, 5), (1000, 4)]),
                            (("_solutions",), [(2, 15), (3, 10), (7, 9)])):
        with monkeypatch.context() as patch:
            for name in refused:
                patch.setattr(bruteforce, name, refuse)
            for n, size in shapes:
                for count_only in (False, True):
                    census = enumerate_solutions(
                        EnumerationQuery(n, size, count_only=count_only))
                    assert census.total > 0, (n, size, count_only)


def test_census_progression_matches_the_catalogs_beyond_the_oracle():
    # the stepped last prefix letter against the closed-form size-2, -3 and
    # -4 catalogs, at moduli the full-scan oracle cannot reach
    for n in [*range(2, 61), 97, 128, 210, 1000]:
        for outcome in (check_catalog_size_2(n), check_catalog_size_3(n),
                        check_catalog_size_4(n, _census_set(n, 4))):
            assert outcome.passed, outcome.detail


def test_query_validation():
    with pytest.raises(UsageError):
        EnumerationQuery(Modulus(5), 0)
    with pytest.raises(UsageError):
        EnumerationQuery(Modulus(5), 3, budget=0)


@pytest.mark.parametrize("size, budget", [
    (3.0, 100), (True, 100), (3, 2.5), (3, True), (3, 1e8)])
def test_query_refuses_non_integer_arguments(size, budget):
    with pytest.raises(UsageError):
        EnumerationQuery(Modulus(5), size, budget=budget)


@pytest.mark.parametrize("flag", ["dedup", "count_only"])
@pytest.mark.parametrize("value", ["no", 1, None, 0])
def test_query_refuses_non_bool_flags(flag, value):
    with pytest.raises(UsageError):
        EnumerationQuery(Modulus(5), 3, **{flag: value})


def test_query_accepts_an_int_modulus():
    query = EnumerationQuery(5, 3)
    assert query == EnumerationQuery(Modulus(5), 3)
    assert enumerate_solutions(query).total == 2
    for bad in (5.0, "5", True):
        with pytest.raises(UsageError):
            EnumerationQuery(bad, 3)


def test_census_serialization(capsys):
    census = enumerate_solutions(EnumerationQuery(Modulus(5), 3))
    payload = json.loads(_enumerate_output(capsys, "5", "3",
                                           "--format", "json"))
    assert payload == {"N": 5, "n": 3, "total": 2, "dedup": False,
                       "representatives": [[1, 1, 1], [4, 4, 4]]}
    assert payload["total"] == census.total
    assert payload["representatives"] == [list(w.values)
                                          for w in census.words]
    text = _enumerate_output(capsys, "5", "3", "--format", "csv")
    assert text.splitlines()[0] == "a1,a2,a3"
    assert text.splitlines()[1:] == ["1,1,1", "4,4,4"]


def test_oracle_reducible_monomial_mod_ten():
    target = word([3] * 15, 10)
    reducible, witness = is_reducible_oracle(target)
    assert reducible
    left, right, arrangement = witness
    assert len(left) >= 3 and len(right) >= 3
    assert is_solution(right) is not None
    assert is_solution(left) is not None
    assert equivalent(target, oplus(left, right))
    assert arrangement.values in arrangements_oracle(target.values)


def test_oracle_at_the_top_of_the_domain():
    """A split costs O(n) products whatever N is; an O(N) scan of the
    boundary letters would run for about 25 minutes at this N."""
    n = 2**31 - 1
    reducible, witness = is_reducible_oracle(word([-1, -2, -1, -2], n))
    assert reducible
    assert tuple(part.values for part in witness) == (
        (n - 1, n - 1, n - 1), (n - 1, n - 1, n - 1),
        (n - 2, n - 1, n - 2, n - 1))


def test_oracle_irreducible_cases():
    assert is_reducible_oracle(word([2] * 8, 8)) == (False, None)
    assert is_reducible_oracle(word([1, 1, 1], 5)) == (False, None)


def test_oracle_preconditions():
    with pytest.raises(UsageError):
        is_reducible_oracle(word([1, 2], 5))  # not a solution
    with pytest.raises(UsageError):
        is_reducible_oracle(word([0, 0], 5))  # solution but too short


def test_oracle_on_general_solution_words():
    # the oracle accepts any solution, not only constant ones
    target = word([8, 3, 3, 3, 8], 10)
    reducible, witness = is_reducible_oracle(target)
    if reducible:
        left, right, _ = witness
        assert equivalent(target, oplus(left, right))
        assert is_solution(right) is not None


def test_oracle_agrees_with_structured_decider():
    # criterion 05 covers N = 2..10
    assert [o.detail for o in map(check_oracle_agreement, range(11, 14))
            if not o.passed] == []


def every_arrangement_oracle(w):
    """The oracle's search without skipping repeated arrangements: every one
    of the 2n arrangements, every split, every boundary pair."""
    n = len(w)
    big = w.modulus.n
    letters = [(v, -1 % big, 1 % big, 0) for v in range(big)]
    for tv in arrangements_oracle(w.values):
        for right_len in range(3, n):
            left_len = n + 2 - right_len
            interior = tv[left_len:]
            prod = (1 % big, 0, 0, 1 % big)
            for v in interior:
                prod = _mul(letters[v], prod, big)
            for b_first in range(big):
                base = _mul(prod, letters[b_first], big)
                for b_last in range(big):
                    if _pm_sign(_mul(letters[b_last], base, big), big) is None:
                        continue
                    left = ((tv[0] - b_last) % big,) + tv[1:left_len - 1] \
                        + ((tv[left_len - 1] - b_first) % big,)
                    right = (b_first,) + interior + (b_last,)
                    return True, (left, right, tv)
    return False, None


def oracle_values(w):
    reducible, witness = is_reducible_oracle(w)
    if witness is not None:
        witness = tuple(part.values for part in witness)
    return reducible, witness


def test_oracle_matches_the_every_arrangement_search():
    targets = [w for n in range(2, 7) for size in range(3, 7)
               for w in enumerate_solutions(
                   EnumerationQuery(Modulus(n), size)).words]
    assert len(targets) == 1474
    for n in range(2, 13):
        m = Modulus(n)
        targets.extend(Word((k,) * minimal_monomial_size(m, k)[0], m)
                       for k in range(1, n))
    for w in targets:
        assert oracle_values(w) == every_arrangement_oracle(w), w


def boundary_pair(n, k, length):
    """The closing pair of (a, k, ..., k, b), as the verify checks name it."""
    return _closing_pair(_fold((k,) * (length - 2), n), n)


def every_pair_scan(n, k, lengths):
    """All N**2 boundary pairs (a, b) tested against E(k)**(length - 2)."""
    letters = [(x, -1 % n, 1 % n, 0) for x in range(n)]
    pairs = {}
    for length in lengths:
        mid = (1 % n, 0, 0, 1 % n)
        for _ in range(length - 2):
            mid = _mul(letters[k], mid, n)
        pairs[length] = [
            (a, b) for a in range(n) for b in range(n)
            if _pm_sign(_mul(letters[b], _mul(mid, letters[a], n), n), n)
            is not None]
    return pairs


def test_boundary_pairs_match_the_every_pair_scan():
    lengths = range(2, 13)
    for n in range(2, 17):
        found = 0
        for k in range(n):
            pairs = {length: boundary_pair(n, k, length)
                     for length in lengths}
            assert {length: [] if pair is None else [pair]
                    for length, pair in pairs.items()} \
                == every_pair_scan(n, k, lengths), (n, k)
            found += sum(pairs[length] is not None for length in lengths
                         if length >= 3)
        # a scan that finds nothing must not pass
        assert found > 0, n


def test_boundary_pairs_at_the_top_of_the_domain():
    # k = -1 has h = 3: pairs (k, k) at lengths 3 and 6, (0, 0) at 5 and 8
    n = 2**31 - 1
    assert {length: boundary_pair(n, n - 1, length)
            for length in range(3, 9)} == {
        3: (n - 1, n - 1), 4: None, 5: (0, 0),
        6: (n - 1, n - 1), 7: None, 8: (0, 0)}
