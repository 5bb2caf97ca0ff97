import doctest
import random
import sys
import time
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abtqft.cyclotomic as cyclotomic
from abtqft.cyclotomic import (
    CycNum,
    approx_parts,
    cyclotomic_polynomial,
    eta_kappa,
    exponent_sum,
    field_order,
    from_rational,
    gauss_sum,
    make_root,
    one,
    p_prime,
    q_power,
    sqrt_p_prime,
    to_complex,
    zero,
)
from reference import decimal_trig_table, root_q


def _random_element(rng, M, size=3):
    phi = len(cyclotomic_polynomial(M)) - 1
    coeffs = [
        Fraction(rng.randint(-size, size), rng.randint(1, size))
        for _ in range(phi)
    ]
    return CycNum(M, coeffs)


def _poly_mul_reference(a, b):
    """The polynomial product ``cyclotomic_polynomial`` and
    ``euclid_inverse`` used before they shared ``_schoolbook``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def test_schoolbook_matches_the_reference_on_fraction_polynomials():
    rng = random.Random(41)
    for _ in range(200):
        a = [rng.choice((0, Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
             for _ in range(rng.randint(1, 8))]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(rng.randint(1, 8))]
        got = cyclotomic._schoolbook(a, b)
        ref = _poly_mul_reference(a, b)
        assert got == ref
        assert [type(c) for c in got] == [type(c) for c in ref]
        ints = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        assert cyclotomic._schoolbook(ints, b) == _poly_mul_reference(ints, b)


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    # Phi_40(x) = Phi_10(x^4) = x^16 - x^12 + x^8 - x^4 + 1
    assert cyclotomic_polynomial(40) == (
        1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1,
    )


def test_make_root_identity_and_minus_one():
    assert make_root(24, 0) == 1
    assert make_root(24, 12) == -1
    assert make_root(24, 8) + make_root(24, 16) == -1
    assert make_root(24, -1) == make_root(24, 23)


def test_make_root_requires_order_divisible_by_8():
    with pytest.raises(ValueError):
        make_root(12, 1)


def test_roots_multiply_by_adding_exponents():
    rng = random.Random(7)
    for M in (8, 24, 40):
        for _ in range(20):
            a = rng.randrange(M)
            b = rng.randrange(M)
            assert make_root(M, a) * make_root(M, b) == make_root(M, a + b)


def test_field_ops_examples():
    i = make_root(8, 2)
    assert (1 + i) * (1 - i) == 2
    assert make_root(8, 1).conjugate() == make_root(8, 7)
    for j in range(24):
        assert make_root(24, j).inverse() == make_root(24, 24 - j)


def test_inverse_of_random_elements():
    rng = random.Random(21)
    for M in (8, 24):
        for _ in range(10):
            x = _random_element(rng, M)
            if x.is_zero():
                continue
            assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        zero(24).inverse()


def test_root_inverse_matches_euclid_reference(monkeypatch):
    orders = {field_order(p)
              for p in (3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 20, 24)}
    roots = [(M, j) for M in sorted(orders) for j in range(M)]
    expected = {(M, j): make_root(M, j).euclid_inverse().coeffs
                for M, j in roots}

    def no_euclid(self):
        raise AssertionError("root of unity sent to the Euclid inverse")

    monkeypatch.setattr(CycNum, "euclid_inverse", no_euclid)
    for M, j in roots:
        inv = make_root(M, j).inverse()
        assert inv.coeffs == expected[(M, j)], (M, j)
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert inv == make_root(M, -j)


def test_inverse_of_non_roots_uses_euclid(monkeypatch):
    calls = []
    reference = CycNum.euclid_inverse

    def counting(self):
        calls.append(self)
        return reference(self)

    monkeypatch.setattr(CycNum, "euclid_inverse", counting)
    for p in (3, 4, 5, 8, 12, 13):
        M = field_order(p)
        for x in (sqrt_p_prime(p), 1 + make_root(M, 1)):
            calls.clear()
            assert x * x.inverse() == 1
            assert calls == [x]


# -- the Fraction reference for the integer Euclid -------------------------


def _frac_poly_divmod(a, b):
    """Division with remainder for Fraction polynomials, b nonzero."""
    r = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
        db -= 1
    inv_lead = 1 / b[-1]
    q = [Fraction(0)] * max(1, len(r) - db)
    while len(r) - 1 >= db and any(r):
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        c = r[-1] * inv_lead
        k = len(r) - 1 - db
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
        r.pop()
    if not r:
        r = [Fraction(0)]
    return q, r


def _fraction_euclid_inverse(x):
    """The extended Euclidean algorithm over Fraction polynomials that
    ``CycNum.euclid_inverse`` ran before it worked on integers."""
    if x.is_zero():
        raise ZeroDivisionError("inversion of zero cyclotomic element")
    M = x.order
    r0 = list(x.coeffs)
    r1 = [Fraction(c) for c in cyclotomic_polynomial(M)]
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while any(r1):
        q, r = _frac_poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs1 = _poly_mul_reference(q, s1)
        new_s = [
            (s0[i] if i < len(s0) else Fraction(0))
            - (qs1[i] if i < len(qs1) else Fraction(0))
            for i in range(max(len(s0), len(qs1)))
        ]
        s0, s1 = s1, new_s
    while len(r0) > 1 and r0[-1] == 0:
        r0.pop()
    if len(r0) != 1:
        raise ArithmeticError("gcd with cyclotomic polynomial not constant")
    scale = 1 / r0[0]
    return CycNum(M, _ref_reduce(M, [c * scale for c in s0]))


EUCLID_ORDERS = (8, 16, 24, 40, 56, 72, 88, 104)


@st.composite
def _euclid_elements(draw):
    """A nonzero element at one of ``EUCLID_ORDERS``: a sum of one to
    three roots of unity with small rational coefficients, or a dense
    element with every coordinate drawn, denominators included."""
    M = draw(st.sampled_from(EUCLID_ORDERS))
    phi = len(cyclotomic_polynomial(M)) - 1
    small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))
    if draw(st.booleans()):
        terms = draw(st.lists(st.tuples(st.integers(0, M - 1), small),
                              min_size=1, max_size=3))
        x = sum((c * make_root(M, j) for j, c in terms), zero(M))
    else:
        # small entries: the Fraction reference is slow on dense elements
        dense = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
        x = CycNum(M, draw(st.lists(dense, min_size=phi, max_size=phi)))
    if x.is_zero():
        x = x + 1
    return x


@settings(max_examples=100)
@given(_euclid_elements())
def test_integer_euclid_matches_fraction_euclid(x):
    got, want = x.euclid_inverse(), _fraction_euclid_inverse(x)
    assert (got.num, got.den) == (want.num, want.den)


def test_integer_euclid_matches_fraction_euclid_on_elimination_pivots(
        monkeypatch):
    # every distinct value that ``heisenberg._echelonize`` inverts while
    # the acceptance tests AC4 (oracle equivalence) and AC10
    # (Stone-von Neumann) run
    import test_acceptance

    pivots = set()
    inverse = CycNum.inverse

    def recording(self):
        if sys._getframe(1).f_code.co_name == "_echelonize":
            pivots.add(self)
        return inverse(self)

    monkeypatch.setattr(CycNum, "inverse", recording)
    test_acceptance.test_ac4_oracle_equivalence()
    test_acceptance.test_ac10_stone_von_neumann()
    monkeypatch.undo()
    assert len(pivots) >= 40
    assert {x.order for x in pivots} == {8, 24, 40}
    for x in pivots:
        got, want = x.euclid_inverse(), _fraction_euclid_inverse(x)
        assert (got.num, got.den) == (want.num, want.den), x


def test_dense_inverse_at_phi_112():
    # the Fraction Euclid ran for minutes on an element like this one,
    # so only x * x^(-1) = 1 is checked
    rng = random.Random(232)
    x = CycNum(232, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(112)])
    start = time.perf_counter()
    inv = x.inverse()
    assert time.perf_counter() - start < 5
    assert x * inv == 1
    assert sum(1 for c in inv.num if c) > 100


def test_floats_are_refused():
    with pytest.raises(TypeError, match="float"):
        CycNum(8, [0.5, 0, 0, 0])
    with pytest.raises(TypeError, match="float"):
        from_rational(8, 0.1)
    assert CycNum(8, ["1/2", 0, 0, 0]) == Fraction(1, 2)
    assert from_rational(8, "-3/4") == Fraction(-3, 4)


def test_division_and_pow():
    x = make_root(24, 5) + 2
    assert (x / x) == 1
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert 1 / make_root(24, 7) == make_root(24, 17)


def test_reduction_round_trip():
    # reduce(a * Phi_M + r) == reduce(r) for random integer polys a, r
    rng = random.Random(5)
    for M in (8, 24, 40):
        phi_poly = list(cyclotomic_polynomial(M))
        phi = len(phi_poly) - 1
        for _ in range(15):
            a = [rng.randint(-4, 4) for _ in range(rng.randint(1, M - phi))]
            r = [rng.randint(-4, 4) for _ in range(phi)]
            prod = [0] * (len(a) + phi)
            for ia, ca in enumerate(a):
                for ip, cp in enumerate(phi_poly):
                    prod[ia + ip] += ca * cp
            total = list(prod)
            for j, cr in enumerate(r):
                total[j] += cr
            assert exponent_sum(M, total) == exponent_sum(M, r)


def test_conjugation_is_involutive_automorphism():
    rng = random.Random(11)
    for _ in range(10):
        x = _random_element(rng, 24)
        y = _random_element(rng, 24)
        assert x.conjugate().conjugate() == x
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        make_root(8, 1) + make_root(24, 1)


def test_equality_and_hash_with_rationals():
    assert from_rational(24, Fraction(3, 2)) == Fraction(3, 2)
    assert hash(from_rational(24, 5)) == hash(5)
    assert make_root(24, 1) != 1
    # rational elements of different orders agree as values
    assert from_rational(8, 2) == from_rational(24, 2)
    assert from_rational(8, 2) != make_root(24, 8)


@given(st.sampled_from((8, 24, 40, 72)), st.integers(-10 ** 30, 10 ** 30),
       st.one_of(st.integers(1, 50), st.integers(1, 10 ** 30),
                 st.just(2 ** 61 - 1), st.just(3 * (2 ** 61 - 1))))
def test_rational_elements_act_as_their_fraction(M, n, d):
    r = Fraction(n, d)
    x = from_rational(M, (n, d))
    assert x == from_rational(M, r) == from_rational(M, str(r))
    assert hash(x) == hash(r)
    assert x == r and r == x
    assert (x + Fraction(1, 3)).coeffs == (r + Fraction(1, 3),) + (0,) * (
        len(x.num) - 1)
    assert Fraction(1, 3) + x == x + Fraction(1, 3)
    y = x * make_root(M, 1)
    assert hash(y) == _ref_hash(M, y.coeffs)


def test_field_order_and_p_prime():
    assert field_order(3) == 24
    assert field_order(4) == 8
    assert field_order(5) == 40
    assert field_order(12) == 24
    assert p_prime(7) == 7
    assert p_prime(12) == 6


def test_gauss_sum_zero_for_p_2_mod_4():
    G, _ = gauss_sum(6)
    assert G.is_zero()
    G10, _ = gauss_sum(10)
    assert G10.is_zero()


def test_gauss_sum_small_values():
    # p = 3: g = 1 + 2*zeta_3, computed by hand from three terms
    _, g3 = gauss_sum(3)
    assert g3 == 1 + 2 * make_root(24, 8)
    # p = 4: g = 1 + i
    _, g4 = gauss_sum(4)
    assert g4 == 1 + make_root(8, 2)
    assert g4 * g4.conjugate() == 2
    # p = 8: g = 2*zeta_8
    _, g8 = gauss_sum(8)
    assert g8 == 2 * make_root(8, 1)
    # p = 5: g = sqrt(5), real and positive
    _, g5 = gauss_sum(5)
    assert g5 == g5.conjugate()
    assert g5 * g5 == 5


def test_gauss_modulus_table():
    # |G|^2 = 2p, p, 0, p according to p mod 4 = 0, 1, 2, 3
    for p in range(3, 14):
        G, g = gauss_sum(p)
        norm = G * G.conjugate()
        if p % 4 == 0:
            assert norm == 2 * p
        elif p % 4 == 2:
            assert norm == 0
        else:
            assert norm == p
        if p % 4 != 2:
            assert g * g.conjugate() == p_prime(p)


def test_sqrt_p_prime_squares_to_p_prime():
    for p in (3, 4, 5, 7, 8, 9, 11, 12, 13):
        s = sqrt_p_prime(p)
        assert s * s == p_prime(p)
        # positivity via the numerical embedding
        approx = to_complex(s, 20)
        assert approx.real > 0
        assert abs(approx.imag) < 1e-18


def test_eta_kappa_known_values():
    eta5, kappa5 = eta_kappa(5)
    assert kappa5 == 1
    assert eta5 * eta5 * 5 == 1

    eta4, kappa4 = eta_kappa(4)
    assert kappa4 == make_root(8, 1)
    assert eta4 * eta4 * 2 == 1

    eta3, kappa3 = eta_kappa(3)
    assert eta3 * eta3 * 3 == 1
    assert kappa3 == make_root(24, 6)  # g(3) = i*sqrt(3), so kappa = i

    _, kappa12 = eta_kappa(12)
    assert kappa12 == make_root(24, 3)  # zeta_8 inside Q(zeta_24)


def test_eta_kappa_rejects_p_2_mod_4():
    with pytest.raises(ValueError):
        eta_kappa(6)
    with pytest.raises(ValueError):
        eta_kappa(2)


def test_kappa_is_eighth_root_for_supported_p():
    for p in (3, 4, 5, 7, 8, 9, 11, 12, 13):
        _, kappa = eta_kappa(p)
        assert kappa ** 8 == 1
        if p % 2:
            assert kappa ** 4 == 1


def test_eta_kappa_memo_matches_direct_computation():
    for p in (3, 4, 5, 7, 8, 12, 13, 16):
        memo = eta_kappa(p)
        assert eta_kappa(p) is memo
        direct = eta_kappa.__wrapped__(p)
        assert [x.coeffs for x in memo] == [x.coeffs for x in direct]


def test_eta_equals_the_euclid_inverse_of_sqrt_p_prime():
    # eta = sqrt(p') / p' replaces the field inversion of sqrt(p')
    admissible = [p for p in range(3, 65) if p % 4 != 2]
    assert len(admissible) == 47
    for p in admissible:
        eta = eta_kappa(p)[0]
        reference = sqrt_p_prime(p).euclid_inverse()
        assert (eta.num, eta.den) == (reference.num, reference.den), p


def test_eta_kappa_guard_raises_without_assert(monkeypatch):
    # a Gauss sum off by a factor 2 makes kappa no root of unity; the
    # guard is an exception, so ``python -O`` keeps it
    real = cyclotomic.gauss_sum
    monkeypatch.setattr(cyclotomic, "gauss_sum",
                        lambda p: tuple(2 * x for x in real(p)))
    for p in (5, 8):
        with pytest.raises(ArithmeticError, match="root of unity"):
            eta_kappa.__wrapped__(p)


def test_root_q_and_q_power():
    for p in (3, 4, 5, 12):
        q = root_q(p)
        assert q ** p == 1
        for e in range(-3, 2 * p):
            assert q_power(p, e) == q ** (e % p)


def test_to_complex_examples():
    val = to_complex(make_root(8, 1), 10)
    assert abs(complex(val) - complex(0.7071067811865476, 0.7071067811865476)) < 1e-10
    _, g5 = gauss_sum(5)
    approx = to_complex(g5, 6)
    assert abs(complex(approx) - complex(2.2360679, 0)) < 1e-6
    assert complex(to_complex(zero(24), 3)) == 0j


def test_exponent_sum_matches_naive_sum():
    rng = random.Random(3)
    M = 24
    for _ in range(10):
        counts = {rng.randrange(3 * M): rng.randint(-5, 5) for _ in range(6)}
        naive = zero(M)
        for e, c in counts.items():
            naive = naive + c * make_root(M, e)
        assert exponent_sum(M, counts) == naive


def _from_json(doc):
    """The inverse of ``CycNum.to_json`` on the exact part."""
    return CycNum(int(doc["order"]), [Fraction(s) for s in doc["coeffs"]])


def test_json_round_trip():
    rng = random.Random(13)
    for _ in range(5):
        x = _random_element(rng, 40)
        doc = x.to_json()
        assert _from_json(doc) == x
    doc = eta_kappa(3)[0].to_json()
    assert sorted(doc) == ["coeffs", "order"]
    assert _from_json(doc) == eta_kappa(3)[0]


# -- the Fraction reference for the integer arithmetic --------------------

REFERENCE_ORDERS = sorted({field_order(p) for p in
                           (3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 20, 24)})


def _ref_reduce(M, vec):
    """The earlier Fraction fold of a coefficient vector indexed by
    exponent into the power basis."""
    field = cyclotomic._field(M)
    phi = field.phi
    out = list(vec[:phi])
    if len(out) < phi:
        out.extend([0] * (phi - len(out)))
    for j in range(phi, len(vec)):
        c = vec[j]
        if c:
            row = field.reduction_rows[j - phi]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in out)


def _ref_mul(M, a, b):
    """The earlier Fraction schoolbook product of coefficient tuples."""
    out = [Fraction(0)] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _ref_reduce(M, out)


def _ref_conjugate(M, a):
    vec = [Fraction(0)] * M
    vec[0] = a[0]
    for j, c in enumerate(a[1:], start=1):
        if c:
            vec[M - j] += c
    return _ref_reduce(M, vec)


def _ref_hash(M, coeffs):
    if not any(coeffs[1:]):
        return hash(coeffs[0])
    return hash((M, coeffs))


def _reference_elements(rng, M):
    """Sparse and dense elements with small and with 30-digit numerators
    and denominators, as (CycNum, Fraction coefficient tuple) pairs."""
    phi = len(cyclotomic_polynomial(M)) - 1
    out = []
    for bound in (5, 10 ** 30):
        for terms in (1, 2, phi, phi - 1):
            coeffs = [Fraction(0)] * phi
            for i in rng.sample(range(phi), terms):
                coeffs[i] = Fraction(rng.randint(-bound, bound) or 1,
                                     rng.randint(1, bound))
            out.append((CycNum(M, coeffs), tuple(coeffs)))
    return out


def test_integer_arithmetic_matches_fraction_reference():
    rng = random.Random(2024)
    for M in REFERENCE_ORDERS:
        elements = _reference_elements(rng, M)
        roots = [(make_root(M, j), make_root(M, j).coeffs) for j in range(M)]
        for x, a in elements + roots:
            assert x.coeffs == a and hash(x) == _ref_hash(M, a)
            negated = tuple(-c for c in a)
            assert (-x).coeffs == negated and hash(-x) == _ref_hash(M, negated)
            conj = x.conjugate()
            assert conj.coeffs == _ref_conjugate(M, a)
            assert hash(conj) == _ref_hash(M, conj.coeffs)
        pairs = [(x, y) for x, _ in elements for y, _ in elements]
        pairs += [(r, rng.choice(elements)[0]) for r, _ in roots]
        for x, y in pairs:
            a, b = x.coeffs, y.coeffs
            for got, want in (
                (x + y, tuple(u + v for u, v in zip(a, b))),
                (x - y, tuple(u - v for u, v in zip(a, b))),
            ):
                assert got.coeffs == want and hash(got) == _ref_hash(M, want)
            got = x * y
            want = _ref_mul(M, a, b)
            assert got.coeffs == want, (M, x, y)
            assert hash(got) == _ref_hash(M, want)


def test_inverse_and_exponent_sum_match_fraction_reference():
    rng = random.Random(77)
    for M in REFERENCE_ORDERS:
        phi = len(cyclotomic_polynomial(M)) - 1
        elements = _reference_elements(rng, M)
        # the Fraction check of x * x^(-1) takes minutes on the dense
        # 30-digit elements, whose inverses have thousands of digits
        for x, a in [elements[i] for i in (0, 1, 2, 4, 5)] + [
            (make_root(M, j), make_root(M, j).coeffs) for j in range(M)
        ]:
            inv = x.inverse()
            assert _ref_mul(M, a, inv.coeffs) == (1,) + (0,) * (phi - 1)
            assert hash(inv) == _ref_hash(M, inv.coeffs)
        for _ in range(10):
            counts = {rng.randrange(2 * M): rng.randint(-10 ** 30, 10 ** 30)
                      for _ in range(rng.randint(1, M))}
            vec = [0] * M
            for e, c in counts.items():
                vec[e % M] += c
            want = _ref_reduce(M, vec)
            got = exponent_sum(M, counts)
            assert got.coeffs == want and hash(got) == _ref_hash(M, want)
            assert got.den == 1


def test_storage_is_canonical():
    x = CycNum(24, [Fraction(2, 6), Fraction(4, 3)] + [0] * 6)
    assert (x.num, x.den) == ((1, 4) + (0,) * 6, 3)
    y = x * 3 - make_root(24, 1) * 4
    assert (y.num, y.den) == ((1,) + (0,) * 7, 1)
    assert (zero(24) * x).den == 1


# -- approximate display, with the earlier mpmath route as reference -----

DISPLAY_ORDERS = sorted({field_order(p) for p in
                         (3, 4, 5, 7, 8, 9, 11, 12, 13, 16)})
DISPLAY_COEFFS = (1, -1, 2, Fraction(1, 5), Fraction(3, 7), Fraction(-1, 8),
                  Fraction(5, 2))


def _mpmath_parts(x, digits):
    """The earlier display route: to_complex, then mpmath.nstr."""
    z = to_complex(x, digits)
    with mpmath.workdps(digits):
        return mpmath.nstr(z.real, digits), mpmath.nstr(z.imag, digits)


def _true_parts(x):
    """[Re x, Im x] as Fractions where rational, else None (exact; the
    test orders all contain i = zeta^(M/4))."""
    M = x.order
    conj = x.conjugate()
    twice = (x + conj, (x - conj) * make_root(M, 3 * M // 4))
    return [v.coeffs[0] / 2 if v.is_rational() else None for v in twice]


def _is_decimal_tie(v, digits):
    """Whether |v| lies half-way between two numbers of ``digits``
    significant digits."""
    v = abs(v)
    e = 0
    while v >= Fraction(10) ** (e + 1):
        e += 1
    while v < Fraction(10) ** e:
        e -= 1
    t = v * Fraction(10) ** (digits - 1 - e)
    return t - t.numerator // t.denominator == Fraction(1, 2)


def _half_up(v, digits):
    """v rounded half away from zero to ``digits`` significant digits."""
    exact = Context(prec=200).divide(Decimal(v.numerator),
                                     Decimal(v.denominator))
    return Context(prec=digits, rounding=ROUND_HALF_UP).plus(exact)


def _display_corpus():
    rng = random.Random(2024)
    roots = [make_root(M, j) for M in DISPLAY_ORDERS for j in range(M)]
    sparse = []
    for _ in range(150):
        M = rng.choice(DISPLAY_ORDERS)
        x = zero(M)
        for _ in range(rng.randint(1, 4)):
            x = x + rng.choice(DISPLAY_COEFFS) * make_root(M, rng.randrange(M))
        sparse.append(x)
    scaled = [x * Fraction(10) ** rng.choice((-30, -13, -8, -4, -2, 3, 5, 9,
                                              14))
              for x in rng.sample(sparse, 60)]
    i40 = make_root(40, 10)
    near_ten = [from_rational(40, Fraction(9999, 1000)),
                from_rational(40, Fraction(-99995, 10000)),
                10 - (make_root(40, 1) + make_root(40, 39)) / 10 ** 5,
                1 - make_root(40, 1) / 10 ** 7,
                (make_root(24, 1) + make_root(24, 23)) * 99999 / 100000]
    ties = [from_rational(M, r) for M in (8, 40) for r in (
        Fraction(1, 8), Fraction(3, 8), Fraction(-1, 8), Fraction(5, 2),
        Fraction(-5, 2), Fraction(5, 32), Fraction(3, 40), Fraction(-3, 40),
        Fraction(1, 400000000), Fraction(7, 2000))]
    ties += [Fraction(1, 8) * i40, Fraction(3, 40) * i40 - Fraction(5, 2)]
    zeros = [zero(M) for M in DISPLAY_ORDERS]
    zeros += [2 - 4 * make_root(40, 4) + 2 * make_root(40, 8)
              - 2 * make_root(40, 12),
              -make_root(72, 17) - make_root(72, 19)]
    return roots + sparse + scaled + near_ten + ties + zeros


def test_approx_parts_match_mpmath_route():
    """Byte-identical to the mpmath route except in two classes, listed
    and counted: exactly zero parts print 0.0 (mpmath prints its
    cancellation noise), and at exact decimal ties that are not dyadic
    mpmath rounds its binary value, so these are checked against the
    exact half-up rule instead."""
    same, zero_parts, ties, wrong = 0, [], [], []
    for x in _display_corpus():
        exact = _true_parts(x)
        for digits in range(1, 13):
            got = approx_parts(x, digits)
            want = _mpmath_parts(x, digits)
            for part in (0, 1):
                v = exact[part]
                case = (x, digits, part, got[part], want[part])
                if v == 0:
                    assert got[part] == "0.0", case
                elif v is not None and _is_decimal_tie(v, digits):
                    assert Decimal(got[part]) == _half_up(v, digits), case
                if got[part] == want[part]:
                    same += 1
                elif v == 0:
                    zero_parts.append(case)
                elif v is not None and _is_decimal_tie(v, digits):
                    ties.append(case)
                else:
                    wrong.append(case)
    assert wrong == []
    assert zero_parts and ties
    assert same > 20 * (len(zero_parts) + len(ties))


def test_approx_parts_pinned_examples():
    def real(r, digits):
        return approx_parts(from_rational(40, r), digits)[0]

    # dyadic ties agree with mpmath; 3/40 = 0.075 does not
    assert real(Fraction(1, 8), 2) == "0.13" == _mpmath_parts(
        from_rational(40, Fraction(1, 8)), 2)[0]
    assert real(Fraction(5, 2), 1) == "3.0"
    assert real(Fraction(-5, 2), 1) == "-3.0"
    assert real(Fraction(3, 40), 1) == "0.08"
    assert _mpmath_parts(from_rational(40, Fraction(3, 40)), 1)[0] == "0.07"
    # carries, fixed and exponent layout
    assert real(Fraction(9999, 1000), 2) == "10.0"
    assert real(Fraction(1, 10 ** 5), 3) == "1.0e-5"
    assert real(Fraction(1, 10 ** 4), 3) == "0.0001"
    assert real(Fraction(1, 10 ** 6), 21) == "0.000001"
    assert real(Fraction(123456), 3) == "1.23e+5"
    assert real(Fraction(123), 3) == "123.0"
    assert approx_parts(zero(8), 1) == ("0.0", "0.0")
    # far below the first table's resolution: the scale doubles
    tiny = make_root(40, 1) / 10 ** 30
    assert approx_parts(tiny, 12) == _mpmath_parts(tiny, 12)
    with pytest.raises(ValueError):
        approx_parts(one(8), 0)


def test_trig_table_is_within_one_unit():
    # odd orders reach the third and fourth quarter turns
    with mpmath.workdps(80):
        for M in DISPLAY_ORDERS + [9, 15]:
            for scale in (24, 48):
                cos_t, sin_t = cyclotomic._trig_table(M, scale)
                for j, (c, s) in enumerate(zip(cos_t, sin_t)):
                    turn = mpmath.mpf(2 * j) / M
                    assert abs(c - mpmath.cospi(turn) * 10 ** scale) < 1
                    assert abs(s - mpmath.sinpi(turn) * 10 ** scale) < 1


def test_trig_table_is_within_one_unit_of_the_decimal_reference():
    orders = sorted({field_order(p) for p in range(3, 65) if p % 4 != 2})
    for M in orders:
        for scale in (24, 48, 96):
            table = cyclotomic._trig_table(M, scale)
            for got, want in zip(table, decimal_trig_table(M, scale)):
                assert all(abs(g - w) < 1 for g, w in zip(got, want)), (
                    M, scale)


def test_certified_sum_refuses_an_interval_across_a_boundary():
    # 1 * 250/10^3 with table error 1: [0.249, 0.251] spans the 1-digit
    # boundary 0.25 but rounds to 0.25 at 2 digits
    table = (250, 0, 0, 0)
    assert cyclotomic._certified(one(8), table, 3, 1) is None
    assert cyclotomic._certified(one(8), table, 3, 2) == "0.25"
    # [-0.002, 0] meets zero, so not even the sign is certain
    assert cyclotomic._certified(-one(8), (1, 0, 0, 0), 3, 3) is None


def test_doctests():
    failures, _ = doctest.testmod(cyclotomic)
    assert failures == 0
