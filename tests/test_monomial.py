from itertools import product

import pytest

from cwlab.errors import InternalCheckError, UsageError
from cwlab.monomial import (
    Decomposition,
    Exhausted,
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
    size_cap,
    two_boundary_word,
)
from cwlab.ring import (Modulus, elementary, identity, is_pm_identity, mat_mul,
                        _mul, _pm_sign)
from cwlab.verification import (
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


def test_size_cap_is_generous():
    for n in range(2, 40):
        cap = size_cap(n)
        for k in range(n):
            assert minimal_monomial_size(n, k)[0] <= cap


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


def test_family_word_dispatch_and_validation():
    with pytest.raises(UsageError):
        power_monomial_word(l=1, n=3, m=1, a=1)  # needs l >= 2
    with pytest.raises(UsageError):
        odd_boundary_word(l=2, n=3, m=1, a=1)  # needs l > 2
    with pytest.raises(UsageError):
        two_boundary_word(n=3, m=2, a=1)  # needs n >= 4
    with pytest.raises(UsageError):
        two_boundary_word(n=5, m=4, a=1)  # needs m <= n - 2


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
    assert power_matrix_identity(29, 1).entries() == \
        (1 + 2 ** 29, 2 ** 29, big - 2 ** 29, 1 + 2 ** 29)


def test_power_matrix_identity_validation():
    with pytest.raises(UsageError):
        power_matrix_identity(2, 1)
    with pytest.raises(UsageError):
        power_matrix_identity(3, 2)


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


def test_zero_monomial_is_not_irreducible():
    for n in (2, 5, 12):
        reducible, certificate = is_reducible_monomial(n, 0)
        assert reducible
        assert isinstance(certificate, ZeroExcluded)


def test_decomposition_certificate_rejects_bad_data():
    m = Modulus(9)
    target = word([3] * 6, m)
    with pytest.raises(InternalCheckError):
        Decomposition(target, word([1, 2, 3], m), word([1, 2, 3], m))
    with pytest.raises(InternalCheckError):
        Decomposition(target, word([6, 3], m), word([6, 3, 3, 6], m))
    with pytest.raises(InternalCheckError):
        Decomposition(target, word([3, 3, 3, 3], m), word([6, 3, 3, 6], m))
    Decomposition(target, word([6, 3, 3, 6], m), word([6, 3, 3, 6], m))


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
    for n in range(2, 151):
        for report in classify_monomials(n):
            k, certificate = report.k, report.certificate
            reducible, single = is_reducible_monomial(n, k)
            assert (report.size, report.sign) == minimal_monomial_size(n, k)
            assert report.irreducible == (not reducible)
            # equal summands, or equal (size, roots), which fix `examined`
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
