import random
import time
from itertools import product

import pytest

from cwlab import monomial
from cwlab.errors import InternalCheckError, UsageError
from cwlab.monomial import (
    _checked_solution_word,
    _walk,
    Decomposition,
    Exhausted,
    QuadraticRoots,
    ZeroExcluded,
    classify_monomials,
    closed_form_size,
    is_reducible_monomial,
    minimal_monomial_size,
    monomial_report,
    odd_boundary_word,
    power_matrix_identity,
    power_monomial_word,
    quadratic_roots,
    two_boundary_word,
)
from cwlab.numtheory import factorize
from cwlab.ring import (Modulus, elementary, identity, is_pm_identity, mat_mul,
                        mat_pow, _continuants, _mul, _pm_sign, _pow)
from cwlab.verification import (
    _family_instances,
    check_boundary_rigidity,
    check_closed_form_agreement,
    check_family_soundness,
    check_monomial_run_triple,
    check_prime_power_roots,
    check_prime_power_size_bound,
    check_root_symmetry,
    check_size_divisibility,
)
from cwlab.words import equivalent, is_solution, oplus, word

from oracles import walk_oracle


def minimal_size_oracle(n, k):
    """Oracle: the 2x2 matrix search, E(k)**h = E(k) E(k)**(h-1)."""
    ek = (k % n, -1 % n, 1 % n, 0)
    power = ek
    for h in range(1, 6 * n + 1):
        sign = _pm_sign(power, n)
        if sign is not None:
            return h, sign
        power = _mul(ek, power, n)
    raise AssertionError("no size found")


def roots_oracle(n, k):
    """Oracle: the literal scan of x in [0, n) for x(x - k) = 0 mod n."""
    return tuple(x for x in range(n) if x * (x - k) % n == 0)


def reducibility_oracle(n, k):
    """Oracle: the literal scan over every (right length, root) candidate.

    Returns (reducible, left, right, rotation_note, examined, summary) with
    the summands and note None when irreducible; examined holds
    (length, root, reason) triples and is empty when reducible.
    """
    h, _ = minimal_size_oracle(n, k)
    roots = [x for x in range(n) if x * (x - k) % n == 0]
    powers = [identity(n)]
    for _ in range(h - 2):
        powers.append(mat_mul(elementary(k, n), powers[-1]))
    examined = []
    for length in range(3, h):
        for x in roots:
            ex = elementary(x, n)
            if is_pm_identity(ex @ powers[length - 2] @ ex) is None:
                examined.append((length, x, "right-not-solution"))
                continue
            y = (k - x) % n
            ey = elementary(y, n)
            if is_pm_identity(ey @ powers[h - length] @ ey) is None:
                examined.append((length, x, "left-not-solution"))
                continue
            left = (y,) + (k,) * (h - length) + (y,)
            right = (x,) + (k,) * (length - 2) + (x,)
            total = oplus(word(left, n), word(right, n)).values
            note = ("left (+) right reproduces the all-k target exactly"
                    if total == (k,) * h
                    else "left (+) right is an arrangement of the target")
            summary = (f"splits as {len(left)}+{len(right)} with "
                       f"boundaries {y}/{x}")
            return True, left, right, note, (), summary
    summary = f"exhausted {len(examined)} split candidates"
    return False, None, None, None, tuple(examined), summary


def test_minimal_size_examples():
    cases = [(10, 3, 15), (9, 3, 6), (8, 4, 4), (6, 3, 6), (7, 2, 7),
             (16, 6, 16)]
    for n, k, expected in cases:
        h, _sign = minimal_monomial_size(n, k)
        assert h == expected, (n, k)
    for n in (2, 5, 9, 14):
        assert minimal_monomial_size(n, 0) == (2, 1 if n == 2 else -1)
        assert minimal_monomial_size(n, 1)[0] == 3


def test_minimal_size_agrees_with_matrix_power_oracle():
    for n in range(2, 201):
        for k in range(n):
            assert minimal_monomial_size(n, k) == minimal_size_oracle(n, k)


def test_minimal_size_two_is_only_zero():
    for n in range(2, 20):
        for k in range(n):
            h, _ = minimal_monomial_size(n, k)
            assert (h == 2) == (k == 0)


def walked_reports(n):
    """Every k's report over Z/nZ built from the literal continuant walk:
    the oracle for the order path."""
    m = Modulus(n)
    for k in range(n):
        yield monomial._report(m, k, *walk_oracle(n, k))


def test_minimal_size_by_order_agrees_with_the_walk():
    for n in range(2, 301):
        for k in range(n):
            assert minimal_monomial_size(n, k) == walk_oracle(n, k)[:2], \
                (n, k)


def test_report_by_order_agrees_with_the_walk():
    for n in range(2, 301):
        for walked in walked_reports(n):
            # size, sign, verdict and certificate, field by field
            assert monomial_report(n, walked.k) == walked, (n, walked.k)


def test_no_split_when_the_only_roots_are_zero_and_k():
    trivial = 0
    for n in range(2, 301):
        for k in range(1, n):
            if quadratic_roots(n, k).roots == (0, k):
                trivial += 1
                assert walk_oracle(n, k)[2] is None, (n, k)
    assert trivial > 10000


def refuse_walk(*args):
    raise AssertionError("walked a k whose only roots are 0 and k")


def test_order_needs_no_walk(monkeypatch):
    monkeypatch.setattr(monomial, "_walk", refuse_walk)
    assert minimal_monomial_size(2147483647, 5) == (1073741823, -1)
    assert minimal_monomial_size(2 ** 30, 7) == (402653184, 1)
    for n, k in ((7, 2), (6, 3), (2147483647, 2), (2 ** 30, 7)):
        assert monomial_report(n, k).irreducible


def test_order_refuses_a_wrong_bound(monkeypatch):
    # E(3) mod 7 has order 4: no prime divides out of 5, nor of 10 (both
    # divisions fail), and neither power of E(3) is +/-Id
    for bound in ((5, {5}), (10, {2, 5})):
        monkeypatch.setattr(monomial, "_order_bound", lambda m, kv: bound)
        with pytest.raises(InternalCheckError, match="order bound"):
            minimal_monomial_size(7, 3)


def test_order_powers_to_the_bound_only_when_no_prime_divides_out(
        monkeypatch):
    exponents = []

    def recording(k, e, n):
        exponents.append(e)
        return _continuants(k, e, n)

    monkeypatch.setattr(monomial, "_continuants", recording)
    # B = 3 * 2**30 and h = 4: a division succeeds, so E**B is never taken
    m = Modulus(2 ** 30)
    bound = monomial._order_bound(m, 2 ** 29)[0]
    assert bound == 3 * 2 ** 30
    assert minimal_monomial_size(m, 2 ** 29) == (4, 1)
    assert bound not in exponents
    n, k = next((n, k) for n in range(2, 301) for k in range(n)
                if walk_oracle(n, k)[0] ==
                monomial._order_bound(Modulus(n), k)[0])
    exponents.clear()
    h, sign = minimal_monomial_size(n, k)
    assert (h, sign) == walk_oracle(n, k)[:2]
    assert exponents[-1] == h


def test_order_is_minimal_at_the_top_of_the_domain():
    # pinned by `mat_pow` alone where no walk can go: E**h = sign Id, h is
    # a product of the bound's primes, and E**(h/l) is not +/-Id for each
    # such prime l of h
    rng = random.Random(20261020)
    for _ in range(40):
        n = rng.randrange(2 ** 30, 2 ** 31)
        k = rng.randrange(n)
        m = Modulus(n)
        h, sign = minimal_monomial_size(m, k)
        e = elementary(k, n)
        assert is_pm_identity(mat_pow(e, h)) == sign, (n, k)
        rest = h
        for l in monomial._order_bound(m, k)[1]:
            if h % l == 0:
                assert is_pm_identity(mat_pow(e, h // l)) is None, (n, k, l)
            while rest % l == 0:
                rest //= l
        assert rest == 1, (n, k, h)


def test_order_bound_is_a_multiple_of_every_size():
    for n in range(2, 40):
        m = Modulus(n)
        for k in range(n):
            bound, primes = monomial._order_bound(m, k)
            assert {p for p, _ in factorize(bound)} <= primes, (n, k)
            assert bound % minimal_monomial_size(n, k)[0] == 0, (n, k)


def test_order_bound_factors_half_of_p_plus_one_at_the_top_of_the_domain():
    # 3**2 - 4 = 5 is a non-residue mod the prime 2**31 - 1, so
    # t = p + 1 = 2**31, one past `factorize`'s domain; t / 2 is factored
    p = 2 ** 31 - 1
    assert monomial._order_bound(Modulus(p), 3) == (2 ** 31, {2, 3, p})
    assert minimal_monomial_size(p, 3) == (2 ** 30, -1)
    e = elementary(3, p)
    assert is_pm_identity(mat_pow(e, 2 ** 30)) == -1
    assert is_pm_identity(mat_pow(e, 2 ** 29)) is None


def nontrivial_pairs(n):
    """(k, h, targets) for every k over Z/nZ with a root besides 0 and k;
    targets holds one root of each pair {x, k - x} of them."""
    m = Modulus(n)
    for k in range(1, n):
        targets = [x for x in roots_oracle(n, k)
                   if x not in (0, k) and x <= (k - x) % n]
        if targets:
            yield k, minimal_monomial_size(m, k)[0], targets


def test_log_split_agrees_with_the_walk():
    checked = 0
    for n in range(2, 301):
        for k, h, targets in nontrivial_pairs(n):
            assert monomial._log_split(n, k, h, targets) == \
                walk_oracle(n, k)[2], (n, k)
            checked += 1
    assert checked > 10000


def test_continuants_are_the_first_column_of_the_power():
    for n in range(2, 41):
        for k in range(n):
            e = (k, -1 % n, 1 % n, 0)
            for exponent in range(65):
                power = _pow(e, exponent, n)
                assert _continuants(k, exponent, n) == (power[0], power[2]), \
                    (n, k, exponent)


def test_continuants_are_a_palindrome_over_the_order():
    # E(k)**h = s Id gives c_{h-2-j} = -s c_j, so splits pair up as
    # j <-> h - 2 - j with boundaries x <-> k - x
    for n in range(2, 61):
        for k in range(n):
            h, s = minimal_monomial_size(n, k)
            for j in range(h - 1):
                c, prev = _continuants(k, j, n)
                mirror, mirror_prev = _continuants(k, h - 2 - j, n)
                assert mirror == -s * c % n, (n, k, j)
                if j >= 1 and c in (1, n - 1):
                    assert mirror * mirror_prev % n == \
                        (k - c * prev) % n, (n, k, j)


def test_closed_form_examples():
    assert closed_form_size(36, 6) == 12
    assert minimal_monomial_size(36, 6)[0] == 12
    assert closed_form_size(30, 6) is None  # 5 does not divide 6
    assert minimal_monomial_size(30, 6)[0] == 12
    assert closed_form_size(9, 3) == 6
    assert closed_form_size(32, 8) == 2 * 2 ** (5 - 3)
    assert closed_form_size(7, 0) == 2


def test_closed_form_caps_excess_valuation():
    # 12 = 2**2 * 3 has a larger 2-valuation than 18 = 2 * 3**2 allows;
    # the class of 12 mod 18 also contains 30 = 2 * 3 * 5, which fits the
    # formula's shape, so the capped exponents are the right ones.
    assert closed_form_size(18, 12) == 6
    assert minimal_monomial_size(18, 12)[0] == 6


def test_closed_form_agreement_small():
    outcome = check_closed_form_agreement(300)
    assert outcome.passed, outcome.detail


def test_quadratic_roots_examples():
    assert quadratic_roots(27, 5).roots == (0, 5)
    # oracle: direct scan mod 10
    assert tuple(x for x in range(10) if x * (x - 3) % 10 == 0) == \
        (0, 3, 5, 8)
    assert quadratic_roots(10, 3).roots == (0, 3, 5, 8)
    assert quadratic_roots(4, 0).roots == (0, 2)
    with pytest.raises(InternalCheckError,
                       match="not closed under x -> k - x"):
        QuadraticRoots(Modulus(10), 3, (0, 3, 4))


def test_quadratic_roots_agree_with_scan():
    for n in range(2, 401):
        m = Modulus(n)
        for k in range(n):
            assert quadratic_roots(m, k).roots == roots_oracle(n, k), (n, k)
    # prime powers 2**17, 3**11, 7**6 and composites with square factors;
    # 42336 = 2**5 * 3**3 * 7**2 has a partial valuation at each small prime
    for n in (2 ** 17, 3 ** 11, 7 ** 6, 2 ** 6 * 3 ** 4 * 5 ** 2,
              2 ** 3 * 3 ** 2 * 5 * 7 * 11 * 13):
        m = Modulus(n)
        for k in (0, 42336, n // 2, n - 1):
            assert quadratic_roots(m, k).roots == roots_oracle(n, k), (n, k)


def test_quadratic_roots_symmetry():
    assert [o.detail for o in map(check_root_symmetry, range(2, 31))
            if not o.passed] == []


def prime_powers_up_to(limit):
    return [n for n in range(2, limit + 1)
            if len(Modulus(n).factors) == 1]


def test_prime_power_unit_roots():
    moduli = prime_powers_up_to(128)
    assert [o.detail for o in map(check_prime_power_roots, moduli)
            if not o.passed] == []


def test_power_monomial_word_example():
    w = power_monomial_word(l=3, n=2, m=1, a=1)
    assert w.modulus.n == 9
    assert w.values == (3,) * 6
    assert is_solution(w) is not None


def test_odd_boundary_word_example():
    w = odd_boundary_word(l=3, n=3, m=1, a=1)
    assert w.modulus.n == 27
    assert w.values == (18, 3, 3, 3, 3, 3, 3, 18)
    assert is_solution(w) is not None


def test_two_boundary_word_example():
    w = two_boundary_word(n=4, m=2, a=1)
    assert w.modulus.n == 16
    assert w.values == (8, 4, 4, 4, 4, 8)
    assert is_solution(w) is not None


def test_family_builders_validate_parameters():
    with pytest.raises(UsageError):
        power_monomial_word(l=1, n=3, m=1, a=1)  # needs l >= 2
    with pytest.raises(UsageError):
        odd_boundary_word(l=2, n=3, m=1, a=1)  # needs l > 2
    with pytest.raises(UsageError):
        two_boundary_word(n=3, m=2, a=1)  # needs n >= 4
    with pytest.raises(UsageError):
        two_boundary_word(n=5, m=4, a=1)  # needs m <= n - 2


def test_family_guard_agrees_with_the_literal_fold():
    # the builders check their (b, k, ..., k, b) word by `_closes` in
    # O(log length); the fold of every letter must agree, and b + 1, which
    # cannot close the same power as b, must be refused by both
    count = 0
    for _, builder, params in _family_instances(256):
        w = builder(**params)
        assert is_solution(w) is not None, (builder.__name__, params)
        n, length = w.modulus.n, len(w)
        b, k = (w.values[0] + 1) % n, w.values[1]
        with pytest.raises(InternalCheckError):
            _checked_solution_word(b, k, length, w.modulus, "shifted")
        assert is_solution(word((b,) + (k,) * (length - 2) + (b,), n)) is None
        count += 1
    assert count > 1000


def test_family_soundness_sweep():
    outcome = check_family_soundness(512)
    assert outcome.passed, outcome.detail


def test_power_matrix_identity_values():
    assert power_matrix_identity(3, 1).rows() == [[9, 8], [8, 9]]
    # oracle: reduce 1 + 8*9 = 73 and 8*3 = 24 mod 16 by hand
    assert (1 + 8 * 9) % 16 == 9 and (8 * 3) % 16 == 8
    assert power_matrix_identity(3, 3).rows() == [[9, 8], [8, 9]]
    assert power_matrix_identity(4, 1).rows() == [[17, 16], [16, 17]]


def test_power_matrix_identity_against_direct_product():
    # oracle: the literal product of 2**n copies of E(2a)
    for exponent in (3, 4, 5):
        for a in (1, 3, 5, 7, -1, -3):
            n = 2 ** (exponent + 1)
            direct = identity(n)
            for _ in range(2 ** exponent):
                direct = mat_mul(elementary(2 * a, n), direct)
            assert power_matrix_identity(exponent, a) == direct
            assert is_pm_identity(direct) is None


def test_power_matrix_identity_top_of_range():
    # n = 29 is the largest n with 2**(n+1) <= 2**31 - 1
    big = 2 ** 30
    assert power_matrix_identity(29, 1).entries == \
        (1 + 2 ** 29, 2 ** 29, big - 2 ** 29, 1 + 2 ** 29)


def test_power_matrix_identity_validation():
    with pytest.raises(UsageError):
        power_matrix_identity(2, 1)
    with pytest.raises(UsageError):
        power_matrix_identity(3, 2)
    # 2**31 exceeds the modulus cap
    with pytest.raises(UsageError):
        power_matrix_identity(30, 1)


def test_reducibility_examples():
    for n, k, expected in ((9, 3, True), (16, 4, True), (8, 2, False),
                           (10, 3, True), (7, 5, False)):
        reducible, certificate = is_reducible_monomial(n, k)
        assert reducible == expected, (n, k)
        if expected:
            assert isinstance(certificate, Decomposition)
        else:
            assert isinstance(certificate, Exhausted)
    assert minimal_monomial_size(9, 3)[0] == 6
    assert minimal_monomial_size(16, 4)[0] == 8


def test_reducibility_witness_for_ten_three():
    reducible, certificate = is_reducible_monomial(10, 3)
    assert reducible
    assert equivalent(certificate.right, word([8, 3, 3, 3, 8], 10))
    total = oplus(certificate.left, certificate.right)
    assert equivalent(total, word([3] * 15, 10))


NON_INTEGER_ENTRY_POINTS = {
    "word": lambda k: word([k, 2], 5),
    "elementary": lambda k: elementary(k, 7),
    "monomial_report": lambda k: monomial_report(10, k),
    "minimal_monomial_size": lambda k: minimal_monomial_size(10, k),
    "quadratic_roots": lambda k: quadratic_roots(10, k),
    "closed_form_size": lambda k: closed_form_size(10, k),
    "mat_pow": lambda e: mat_pow(elementary(3, 10), e),
}


@pytest.mark.parametrize("k", [2.5, "3", True])
@pytest.mark.parametrize("name", sorted(NON_INTEGER_ENTRY_POINTS))
def test_non_integer_residue_is_a_usage_error(name, k):
    what = "exponent" if name == "mat_pow" else "residue"
    with pytest.raises(UsageError, match=f"{what} must be an integer"):
        NON_INTEGER_ENTRY_POINTS[name](k)


def test_zero_monomial_is_not_irreducible():
    for n in (2, 5, 12):
        reducible, certificate = is_reducible_monomial(n, 0)
        assert reducible
        assert isinstance(certificate, ZeroExcluded)


def test_decomposition_certificate_rejects_bad_data():
    m = Modulus(9)
    # (j, x) = (0, 0) and (4, 3) close E(3)**j, but leave a summand of
    # length 2; x = 1 does not close E(3)**2
    for j, x in ((0, 0), (4, 3), (2, 1)):
        with pytest.raises(InternalCheckError):
            Decomposition(m, 3, 6, j, x)
    certificate = Decomposition(m, 3, 6, 2, 6)
    assert certificate.target == word([3] * 6, m)
    assert certificate.left == certificate.right == word([6, 3, 3, 6], m)


def test_decomposition_check_is_logarithmic_in_j():
    # N = 2**31 - 70, k = 3: c_j = -1 at j = 268435447 of h = 805306341,
    # a split whose summands no word can hold
    m = Modulus(2147483578)
    start = time.perf_counter()
    certificate = Decomposition(m, 3, 805306341, 268435447, 1073741789)
    assert time.perf_counter() - start < 1
    assert certificate.summary() == \
        "splits as 536870894+268435449 with boundaries 1073741792/1073741789"
    with pytest.raises(InternalCheckError):
        Decomposition(m, 3, 805306341, 268435447, 1073741790)


def _assert_decomposition_holds(report):
    """Oracle for the check the constructor leaves out: the derived words
    are solutions of length >= 3 that sum to the all-k target."""
    certificate = report.certificate
    left, right = certificate.left, certificate.right
    assert len(left) >= 3 and len(right) >= 3
    assert is_solution(left) is not None and is_solution(right) is not None
    assert oplus(left, right) == certificate.target == \
        word([report.k] * report.size, report.modulus.n)
    # the record holds its claim (k, size, j, x) as plain ints, never a word
    assert (certificate.k, certificate.size) == (report.k, report.size)
    assert [type(v) for v in certificate._values()] == [Modulus] + [int] * 4


def test_decompositions_sum_to_their_target():
    for n in range(2, 201):
        reducible = [r for r in classify_monomials(n)
                     if isinstance(r.certificate, Decomposition)]
        for report in reducible:
            _assert_decomposition_holds(report)
            _assert_decomposition_holds(monomial_report(n, report.k))


def test_reducibility_agrees_with_candidate_scan_oracle():
    for n in range(2, 61):
        for k in range(1, n):
            reducible, certificate = is_reducible_monomial(n, k)
            if reducible:
                got = (True, certificate.left.values,
                       certificate.right.values, certificate.rotation_note, ())
            else:
                claim = tuple(product(range(3, certificate.size),
                                      certificate.roots))
                assert certificate.examined == claim
                got = (False, None, None, None,
                       tuple((length, x, "right-not-solution")
                             for length, x in claim))
            assert got + (certificate.summary(),) == \
                reducibility_oracle(n, k), (n, k)


def test_classify_monomials_counts():
    by_k = {r.k: r for r in classify_monomials(9)}
    assert sorted(k for k, r in by_k.items() if r.irreducible) == \
        [1, 2, 4, 5, 7, 8]
    by_k = {r.k: r for r in classify_monomials(16)}
    assert sorted(k for k, r in by_k.items() if r.irreducible) == \
        sorted([1, 3, 5, 7, 9, 11, 13, 15] + [8] + [2, 6, 10, 14])
    by_k = {r.k: r for r in classify_monomials(8)}
    assert sorted(k for k, r in by_k.items() if r.irreducible) == \
        [1, 2, 3, 4, 5, 6, 7]


def test_classify_reports_are_consistent():
    for n in (6, 10, 12):
        for report in classify_monomials(n):
            h, sign = minimal_monomial_size(n, report.k)
            assert (report.size, report.sign) == (h, sign)
            assert is_solution(word([report.k] * report.size, n)) == sign
            if report.k == 0:
                assert isinstance(report.certificate, ZeroExcluded)
                assert not report.irreducible
            elif report.irreducible:
                assert isinstance(report.certificate, Exhausted)
            else:
                assert isinstance(report.certificate, Decomposition)


def test_classify_agrees_with_single_k_functions():
    # the longer walks exercise the mirrored half of the table
    for n in [*range(2, 151), 243, 256, 360, 1024]:
        for report in classify_monomials(n):
            k, certificate = report.k, report.certificate
            reducible, single = is_reducible_monomial(n, k)
            assert (report.size, report.sign) == minimal_monomial_size(n, k)
            assert report.irreducible == (not reducible)
            # equal claims: (N, k, size, j, x) or (N, k, size)
            assert certificate == single, (n, k)
            assert certificate.summary() == single.summary()


def test_negated_residue_has_same_verdict_and_size():
    for n in range(2, 17):
        for k in range(n):
            h_pos, _ = minimal_monomial_size(n, k)
            h_neg, _ = minimal_monomial_size(n, -k % n)
            assert h_pos == h_neg
            assert is_reducible_monomial(n, k)[0] == \
                is_reducible_monomial(n, -k % n)[0]


def test_walk_of_negated_residue_is_the_mirror():
    # E(-k) = -J E(k) J gives c_j(-k) = (-1)**j c_j(k); N = 2 is left out,
    # since 1 = -1 there and every sign reads +1
    for n in range(3, 201):
        for k in range(n):
            h, sign, split = _walk(n, k)
            mirror = split and (split[0], -split[1] % n)
            assert _walk(n, -k % n) == (h, (-1) ** h * sign, mirror), \
                (n, k)


def test_walk_to_the_first_centre_agrees_with_the_literal_walk():
    for n in range(2, 401):
        for k in range(n):
            assert _walk(n, k) == walk_oracle(n, k), (n, k)


def test_walk_pins_each_kind_of_centre():
    # k = 0: m = 0 with c_1 = c_{-1} = 0; k = 1 and N - 1: m = 1/2 with
    # c_1 = +/-c_0; at N = 2, where 1 = -1, every sign reads +1
    assert _walk(2, 0) == (2, 1, None)
    assert _walk(2, 1) == (3, 1, None)
    for n in range(3, 100):
        assert _walk(n, 0) == (2, -1, None), n
        assert _walk(n, 1) == (3, -1, None), n
        assert _walk(n, n - 1) == (3, 1, None), n
    # the first (N, k) by scan whose centre m = h/2 - 1 is an integer with
    # c_{m+1} = -c_{m-1}, sign +1: the only kind that needs 2 c_m = 0;
    # c_j of E(2) mod 4 reads 1, 2, 3, 0, 1, so m = 1 and 2 c_1 = 0
    n, k = next((n, k) for n in range(3, 100) for k in range(n)
                if walk_oracle(n, k)[0] % 2 == 0 and walk_oracle(n, k)[1] == 1)
    assert (n, k) == (4, 2)
    assert _walk(4, 2) == walk_oracle(4, 2) == (4, 1, None)


@pytest.mark.parametrize("n", [2, 3, 10, 11, 16])
def test_classify_walks_each_pair_once(monkeypatch, n):
    calls = []

    def counting_walk(*args):
        calls.append(args)
        return _walk(*args)

    monkeypatch.setattr(monomial, "_walk", counting_walk)
    classify_monomials(n)
    assert len(calls) == n // 2 + 1


@pytest.mark.parametrize("n", [2, 3, 10, 11, 16, 360])
def test_classify_computes_no_roots(monkeypatch, n):
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append((name, args))
            return original(*args)
        return wrapper

    for name in ("quadratic_roots", "QuadraticRoots"):
        monkeypatch.setattr(monomial, name,
                            counting(name, getattr(monomial, name)))
    classify_monomials(n)
    assert calls == []


def test_classify_roots_match_both_root_finders():
    for n in [*range(2, 401), 1024, 2310, 4096]:
        for report in classify_monomials(n):
            if report.irreducible:
                roots = report.certificate.roots
                assert roots == roots_oracle(n, report.k), (n, report.k)
    # the single-k certificates derive their roots the same way; their
    # candidate grid and summary follow from the literal scan
    for n in range(2, 301):
        for k in range(n):
            certificate = monomial_report(n, k).certificate
            if isinstance(certificate, Exhausted):
                roots = roots_oracle(n, k)
                assert certificate.roots == roots, (n, k)
                assert certificate.examined == \
                    tuple(product(range(3, certificate.size), roots))
                assert certificate.summary() == (
                    f"exhausted {(certificate.size - 3) * len(roots)} "
                    f"split candidates")


def test_unreduced_integers_act_as_their_residue():
    for n in (2, 10, 16, 97):
        for k in (-1, -n - 2, n, n + 3, 2**40):
            r = k % n
            assert monomial_report(n, k) == monomial_report(n, r), (n, k)
            assert minimal_monomial_size(n, k) == minimal_monomial_size(n, r)
            # the whole record: its roots and its reduced k
            assert quadratic_roots(n, k) == quadratic_roots(n, r)
            assert is_reducible_monomial(n, k) == is_reducible_monomial(n, r)
            assert elementary(k, n) == elementary(r, n)
            assert word([k], n) == word([r], n)


def test_half_modulus_rule():
    # even N >= 4: the (N/2)-monomial minimal solution is irreducible, of
    # size 4 when 4 | N and size 6 otherwise
    for n in range(4, 40, 2):
        k = n // 2
        h, _ = minimal_monomial_size(n, k)
        assert h == (4 if n % 4 == 0 else 6)
        assert not is_reducible_monomial(n, k)[0]


def test_two_monomial_rule():
    # N >= 3: the 2-monomial (and -2-monomial) minimal solutions have size N
    for n in range(3, 40):
        assert minimal_monomial_size(n, 2)[0] == n
        assert minimal_monomial_size(n, n - 2)[0] == n


def test_size_divisibility():
    assert [o.detail for o in map(check_size_divisibility, range(2, 17))
            if not o.passed] == []


def test_prime_power_size_bound():
    moduli = prime_powers_up_to(64)
    assert [o.detail for o in map(check_prime_power_size_bound, moduli)
            if not o.passed] == []


def test_boundary_rigidity():
    # criterion 09 covers N = 2..10
    assert [o.detail for o in map(check_boundary_rigidity, range(11, 17))
            if not o.passed] == []


def test_monomial_run_triple():
    # criterion 09 covers N = 2..10
    assert [o.detail for o in map(check_monomial_run_triple, range(11, 17))
            if not o.passed] == []
