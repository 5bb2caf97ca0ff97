import doctest
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtqft import surgery
from abtqft.cyclotomic import (
    eta_kappa,
    exponent_sum,
    field_order,
    make_root,
    one,
    p_prime,
    q_power,
    to_complex,
)
from abtqft.surgery import (
    blow_up,
    chain_matrix,
    continued_fraction,
    matrix_element,
    refined_invariant,
    refinement_classes,
    refinement_kind,
    signature,
    slide,
    z_invariant,
    z_lens,
)
from reference import bracket, fraction_signature


def _random_symmetric(rng, n, span=4):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = rng.randint(-span, span)
    return tuple(tuple(row) for row in B)


def test_signature_frozen():
    assert signature(()) == 0
    assert signature(((1,),)) == 1
    assert signature(((-1,),)) == -1
    assert signature(((0,),)) == 0
    assert signature(((2, 1), (1, 2))) == 2
    assert signature(((0, 1), (1, 0))) == 0
    assert signature(((0, 2), (2, 0))) == 0
    assert signature(((0, 1), (1, -1))) == 0
    assert signature(((0, 1, 0), (1, 0, 0), (0, 0, 5))) == 1
    assert signature(chain_matrix((2, 2, 2))) == 3


@st.composite
def _symmetric_matrices(draw, max_n, bound):
    """Symmetric integer matrices of size at most max_n with entries in
    [-bound, bound], drawn with zeros on the diagonal and singular
    matrices (a repeated row and column) often."""
    n = draw(st.integers(0, max_n))
    entries = st.one_of(st.just(0), st.integers(-bound, bound))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = draw(entries)
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else ():
        B[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            B[b][k] = B[k][b] = B[a][k]
        B[a][b] = B[b][a] = B[b][b] = B[a][a]
    return tuple(tuple(row) for row in B)


@given(_symmetric_matrices(8, 4))
def test_signature_matches_the_fraction_reference(B):
    assert signature(B) == fraction_signature(B)


def test_signature_matches_floating_point():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        B = _random_symmetric(rng, n)
        eigs = numpy.linalg.eigvalsh(numpy.array(B, dtype=float))
        expected = sum(1 for e in eigs if e > 1e-9) - sum(
            1 for e in eigs if e < -1e-9
        )
        assert signature(B) == expected


def test_signature_congruence_invariance():
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 4)
        B = _random_symmetric(rng, n)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            assert signature(slide(B, i, j, rng.choice((1, -1)))) == signature(B)


def test_bracket():
    q = q_power(3, 1)
    assert bracket(3, ((2,),), (1,)) == q * q
    assert bracket(3, ((0, 1), (1, 0)), (1, 1)) == q * q
    assert bracket(5, (), ()) == one(40)


def test_continued_fraction_frozen():
    assert continued_fraction(2, 1) == (2,)
    assert continued_fraction(3, 1) == (3,)
    assert continued_fraction(3, 2) == (2, 2)
    assert continued_fraction(5, 2) == (3, 2)
    assert continued_fraction(7, 4) == (2, 4)
    assert continued_fraction(1, 0) == ()


def test_continued_fraction_reconstructs():
    rng = random.Random(33)
    from math import gcd

    for _ in range(50):
        beta = rng.randint(1, 40)
        alpha = rng.randint(1, beta - 1) if beta > 1 else 0
        if alpha == 0 or gcd(alpha, beta) != 1:
            continue
        ms = continued_fraction(beta, alpha)
        assert all(m >= 2 for m in ms)
        value = Fraction(ms[-1])
        for m in reversed(ms[:-1]):
            value = m - 1 / value
        assert value == Fraction(beta, alpha)


def test_chain_matrix():
    assert chain_matrix(()) == ()
    assert chain_matrix((5,)) == ((5,),)
    assert chain_matrix((3, 2)) == ((3, 1), (1, 2))
    assert chain_matrix((2, 2, 2)) == ((2, 1, 0), (1, 2, 1), (0, 1, 2))


def test_z_normalizations():
    for p in (3, 4, 5, 8, 12):
        eta, _ = eta_kappa(p)
        assert z_invariant(p, ()) == eta            # S^3
        assert z_invariant(p, ((0,),)) == one(eta.order)  # S^2 x S^1
        assert z_invariant(p, ((1,),)) == eta       # blown-up S^3
        assert z_invariant(p, ((-1,),)) == eta


def test_normalisation_matches_inline_formula():
    for p in (3, 4, 5, 7, 8, 12, 13, 16):
        eta, kappa = eta_kappa(p)
        for s in range(-9, 10):
            for k in range(9):
                inline = kappa ** (-s) * eta ** k
                assert surgery._normalisation(p, s % 8, k).coeffs \
                    == inline.coeffs, (p, s, k)
                assert surgery._normalisation(p, s, k) == inline


def test_blow_up_neutrality():
    rng = random.Random(34)
    for p in (3, 4, 5, 8):
        for _ in range(6):
            B = _random_symmetric(rng, rng.randint(1, 3), span=3)
            for s in (1, -1):
                assert z_invariant(p, blow_up(B, s)) == z_invariant(p, B)


def test_slide_invariance():
    rng = random.Random(35)
    for p in (3, 4):
        for _ in range(8):
            n = rng.randint(2, 3)
            B = _random_symmetric(rng, n, span=3)
            i, j = rng.sample(range(n), 2)
            moved = slide(B, i, j, rng.choice((1, -1)))
            assert z_invariant(p, moved) == z_invariant(p, B)


def test_lens_edge_cases():
    for p in (3, 4, 5):
        assert z_lens(p, 1, 0) == z_invariant(p, ())
        assert z_lens(p, 0, 1) == z_invariant(p, ((0,),))
    with pytest.raises(ValueError):
        z_lens(3, 4, 2)
    with pytest.raises(ValueError):
        z_lens(3, -2, 1)


def test_lens_homeomorphism_invariance():
    # L(beta, alpha) = L(beta, alpha') orientedly iff alpha' = alpha
    # or alpha * alpha' = 1 (mod beta)
    assert z_lens(7, 5, 2) == z_lens(7, 5, 3)
    assert z_lens(3, 5, 2) == z_lens(3, 5, 3)
    assert z_lens(4, 7, 3) == z_lens(4, 7, 5)
    assert z_lens(8, 7, 3) == z_lens(8, 7, 5)


def test_lens_mirror_conjugates():
    for p in (3, 5, 8):
        for beta, alpha in ((5, 2), (7, 3), (3, 1)):
            mirror = z_lens(p, beta, (-alpha) % beta)
            assert mirror == z_lens(p, beta, alpha).conjugate()


def test_matrix_element_strand_ratio():
    # a chain with one uncolored strand on the first vertex: coloring it
    # k multiplies the fully surgered value by q^(-alpha k^2 / beta)
    for p, beta, alpha in ((3, 2, 1), (5, 3, 1), (3, 5, 2)):
        ms = continued_fraction(beta, alpha)
        B = chain_matrix(ms)
        n = len(B)
        full = ((0,) + tuple(1 if j == 0 else 0 for j in range(n)),) + tuple(
            (1 if i == 0 else 0,) + B[i] for i in range(n)
        )
        base = matrix_element(p, full, {0: 0}, 1)
        assert base == z_lens(p, beta, alpha)
        beta_inv = pow(beta, -1, p)
        for k in range(p_prime(p)):
            got = matrix_element(p, full, {0: k}, 1)
            assert got == base * q_power(p, -alpha * k * k * beta_inv)


def test_refinement_kind():
    assert refinement_kind(12) == "spin"
    assert refinement_kind(4) == "spin"
    assert refinement_kind(8) == "cohomology"
    assert refinement_kind(16) == "cohomology"
    with pytest.raises(ValueError):
        refinement_kind(5)
    with pytest.raises(ValueError):
        refinement_kind(6)


def test_refinement_classes():
    # homogeneous kernel at 0 mod 8
    assert refinement_classes(8, ((1,),)) == [(0,)]
    assert refinement_classes(8, ((0,),)) == [(0,), (1,)]
    assert refinement_classes(8, ((2,),)) == [(0,), (1,)]
    assert refinement_classes(8, ((2, 1), (1, 2))) == [(0, 0)]
    # characteristic solutions at 4 mod 8
    assert refinement_classes(12, ((1,),)) == [(1,)]
    assert refinement_classes(12, ((0,),)) == [(0,), (1,)]
    assert refinement_classes(12, ((2,),)) == [(0,), (1,)]
    assert refinement_classes(12, ((2, 1), (1, 2))) == [(0, 0)]


def test_refined_invariant_rejects_non_classes():
    with pytest.raises(ValueError):
        refined_invariant(8, ((1,),), (1,))
    with pytest.raises(ValueError):
        refined_invariant(12, ((1,),), (0,))


def test_refined_sum_is_total_at_0_mod_8():
    rng = random.Random(36)
    cases = [((1,),), ((0,),), ((2,),), ((2, 1), (1, 2))]
    for _ in range(4):
        cases.append(_random_symmetric(rng, rng.randint(1, 2), span=3))
    for p in (8, 16, 24):
        for B in cases:
            total = z_invariant(p, B)
            acc = None
            for cls in refinement_classes(p, B):
                r = refined_invariant(p, B, cls)
                acc = r if acc is None else acc + r
            assert acc == total, (p, B)


def test_refined_values_at_4_mod_8():
    # the partition identity holds when the classes exhaust all
    # parities...
    for B in (((0,),), ((2,),)):
        total = z_invariant(12, B)
        acc = None
        for cls in refinement_classes(12, B):
            r = refined_invariant(12, B, cls)
            acc = r if acc is None else acc + r
        assert acc == total
    # ...but a lone characteristic class keeps only its own parity
    # sector, which differs from the full sum here
    eta, kappa = eta_kappa(12)
    odd_sector = sum(
        (q_power(12, c * c) for c in (1, 3, 5)), q_power(12, 0) * 0
    )
    expected = kappa ** (-1) * eta ** 2 * odd_sector
    assert refined_invariant(12, ((1,),), (1,)) == expected
    assert expected != z_invariant(12, ((1,),))


def test_refined_invariant_frozen_p8():
    # surgery on a +1 unknot: single class, refined equals total eta
    eta, _ = eta_kappa(8)
    assert refined_invariant(8, ((1,),), (0,)) == eta
    assert z_invariant(8, ((1,),)) == eta


# -- the colour sums before they shared one enumerator, kept as reference


def _color_sum_reference(p, B, fixed=None):
    n = len(B)
    fixed = dict(fixed or {})
    free = [i for i in range(n) if i not in fixed]
    pp = p_prime(p)
    M = field_order(p)
    step = M // p
    counts = {}
    base = [0] * n
    for i, v in fixed.items():
        base[i] = int(v)
    for assign in itertools.product(range(pp), repeat=len(free)):
        for idx, v in zip(free, assign):
            base[idx] = v
        e = 0
        for i in range(n):
            bi = base[i]
            if bi:
                row = B[i]
                e += bi * sum(row[j] * base[j] for j in range(n))
        key = (e % p) * step
        counts[key] = counts.get(key, 0) + 1
    return exponent_sum(M, counts)


def _refined_sector_reference(p, B, parities):
    n = len(B)
    pp = p_prime(p)
    M = field_order(p)
    step = M // p
    counts = {}
    ranges = [range(par, pp, 2) for par in parities]
    for colors in itertools.product(*ranges):
        e = 0
        for i in range(n):
            ci = colors[i]
            if ci:
                row = B[i]
                e += ci * sum(row[j] * colors[j] for j in range(n))
        key = (e % p) * step
        counts[key] = counts.get(key, 0) + 1
    return exponent_sum(M, counts)


def _bracket_reference(p, B, colors):
    e = 0
    for i, ci in enumerate(colors):
        for j, cj in enumerate(colors):
            e += ci * B[i][j] * cj
    return q_power(p, e)


def _same_storage(x, y):
    return x.order == y.order and x.num == y.num and x.den == y.den


ADMISSIBLE_P = [p for p in range(3, 17) if p % 4 != 2]


@pytest.mark.parametrize("p", ADMISSIBLE_P)
def test_colour_sums_match_reference(p):
    rng = random.Random(800 + p)
    pp = p_prime(p)
    for n in range(5):
        # fewer matrices at n = 4 and large p' (15^4 = 50,625 colourings)
        for _ in range(3 if n < 4 else (2 if pp < 11 else 1)):
            B = _random_symmetric(rng, n, span=3)
            sig = signature(B)
            norm = surgery._normalisation(p, sig % 8, n + 1)
            want = norm * _color_sum_reference(p, B)
            assert _same_storage(z_invariant(p, B), want), (p, B)
            colors = tuple(rng.randrange(-pp, 2 * pp) for _ in range(n))
            assert _same_storage(bracket(p, B, colors),
                                 _bracket_reference(p, B, colors))
            if n:
                fixed = {i: rng.randrange(pp)
                         for i in rng.sample(range(n), rng.randint(1, n))}
                free = [i for i in range(n) if i not in fixed]
                sub = tuple(tuple(B[i][j] for j in free) for i in free)
                norm = surgery._normalisation(
                    p, signature(sub) % 8, len(fixed) + len(free))
                want = norm * _color_sum_reference(p, B, fixed)
                got = matrix_element(p, B, fixed, len(fixed))
                assert _same_storage(got, want), (p, B, fixed)
            if p % 4 == 0:
                kind = refinement_kind(p)
                for cls in refinement_classes(p, B):
                    if kind == "spin" or p % 16 == 0:
                        parities = [v % 2 for v in cls]
                    else:
                        shift = surgery._characteristic_shift(B)
                        parities = [(v + s) % 2 for v, s in zip(cls, shift)]
                    norm = surgery._normalisation(p, sig % 8, n + 1)
                    want = norm * _refined_sector_reference(p, B, parities)
                    assert _same_storage(refined_invariant(p, B, cls),
                                         want), (p, B, cls)


ODD_P = list(range(3, 46, 2))
# the enumerator's share of one example; above it the extra components
# are fixed, so n = 4 is reached at every p, with all four free at p <= 9
REFERENCE_COLORINGS = 7000


@st.composite
def _odd_order_sums(draw, p):
    """(B, fixed): a symmetric matrix of size at most 4 whose entries are
    drawn as units and as multiples of l and l^2 for the primes l of p,
    so singular forms and pivots of positive valuation occur, and 0..n
    fixed colors, negative ones and ones at least p among them."""
    primes = [l for l, _ in surgery._prime_powers(p)]
    unit = st.sampled_from([v for v in range(-2 * p, 2 * p + 1)
                            if all(v % l for l in primes)])
    multiple = st.builds(lambda l, j, v: l ** j * v, st.sampled_from(primes),
                         st.integers(1, 2), st.integers(-p, p))
    entries = st.one_of(unit, multiple, st.just(0))
    n = draw(st.integers(0, 4))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = draw(entries)
    most_free = 0
    while p ** (most_free + 1) <= REFERENCE_COLORINGS:
        most_free += 1
    order = draw(st.permutations(range(n)))
    count = draw(st.integers(max(0, n - most_free), n))
    fixed = {i: draw(st.integers(-2 * p, 3 * p)) for i in order[:count]}
    return tuple(tuple(row) for row in B), fixed


@pytest.mark.parametrize("p", ODD_P)
@settings(max_examples=30)
@given(data=st.data())
def test_odd_order_sums_match_the_enumerator(p, data):
    B, fixed = data.draw(_odd_order_sums(p))
    want = surgery._phase_sum(p, B, [
        (fixed[i],) if i in fixed else range(p) for i in range(len(B))])
    got = surgery._colour_sum(p, B, fixed)
    assert (got.num, got.den) == (want.num, want.den)


def test_odd_order_sum_of_twenty_components_is_fast():
    B = _random_symmetric(random.Random(20), 20)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        z_invariant(13, B)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.05, times


def test_bracket_and_matrix_element_reject_bad_components():
    with pytest.raises(ValueError):
        bracket(3, ((1, 0), (0, 1)), (1,))
    with pytest.raises(ValueError):
        matrix_element(3, ((1, 0), (0, 1)), {2: 1}, 1)


def _direct_sum(A, B):
    n, m = len(A), len(B)
    return tuple(tuple(A[i]) + (0,) * m for i in range(n)) + tuple(
        (0,) * n + tuple(B[i]) for i in range(m))


@given(st.sampled_from((3, 4, 5, 7, 8, 12)), st.data())
def test_connected_sum_multiplies_invariants(p, data):
    # Z(A + B) Z(S^3) = Z(A) Z(B): the signature of a direct sum adds,
    # so kappa^(-sig) and eta split between the two summands
    A = data.draw(_symmetric_matrices(4, 3))
    B = data.draw(_symmetric_matrices(4 - len(A), 3))
    assert z_invariant(p, _direct_sum(A, B)) * z_invariant(p, ()) == (
        z_invariant(p, A) * z_invariant(p, B))


def test_kirby_move_shapes():
    B = ((2, 1), (1, 0))
    up = blow_up(B, -1)
    assert up == ((2, 1, 0), (1, 0, 0), (0, 0, -1))
    moved = slide(B, 0, 1)
    assert moved == ((2 + 2 * 1 + 0, 1 + 0), (1 + 0, 0))
    with pytest.raises(ValueError):
        blow_up(B, 2)
    with pytest.raises(ValueError):
        slide(B, 0, 0)


def test_doctests():
    failures, _ = doctest.testmod(surgery)
    assert failures == 0
