"""Acceptance gate: ten criteria, one printed verdict line each.

Each test prints ``ACn: PASS/FAIL (elapsed)`` before asserting, so a
``pytest -s`` run shows every verdict; without ``-s`` the verdicts of
failing criteria appear in the captured-output section.  One more test
checks the odd-order AC3 and AC5 presentations against the colouring
enumerator directly.
"""

import itertools
import random
import time
from math import gcd

from abtqft.cobordism import (
    CobObject,
    CobordismProgram,
    F_program,
    Index1,
    Index2,
    MappingCylinder,
    canonical_context,
    context_transfer,
    identity_map,
)
from abtqft.cobordism import _context, _surgery_map
from abtqft.cyclotomic import (
    eta_kappa,
    field_order,
    from_rational,
    gauss_sum,
    make_root,
    one,
    p_prime,
    q_power,
    zero,
)
from abtqft.heisenberg import (
    closed_context,
    commutant_dim,
    induced_map_oracle,
    monomial_of,
    to_finite,
)
from abtqft.homology import (
    cylinder_correspondence,
    cylinder_frame,
    identity_matrix,
    index1_frame,
    index2_correspondence,
    intersection,
    mat_mul,
)
from abtqft.mcg import (
    MappingClass,
    cocycle_c,
    projective_defect,
    t_dual,
    theta,
    twist_generators,
    weil_H,
    weil_intertwiner,
)
from abtqft import surgery
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
import reference


def _report(name, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    line = "%s: %s (%.2fs)" % (name, status, elapsed)
    if failures:
        line += " - " + failures[0]
        if len(failures) > 1:
            line += " (and %d more)" % (len(failures) - 1)
    print(line)
    assert not failures, "%s: %s" % (name, failures)
    assert elapsed < budget, "%s: %.2fs exceeds %ds" % (name, elapsed, budget)


def _conjugate(x):
    M = x.order
    acc = zero(M)
    for j, c in enumerate(x.coeffs):
        if c:
            acc = acc + make_root(M, (-j) % M) * c
    return acc


def test_ac1_gauss_table():
    t0 = time.perf_counter()
    failures = []
    for p in range(3, 14):
        G = gauss_sum(p)[0]
        M = field_order(p)
        if p % 4 == 2:
            if G != 0:
                failures.append("G(%d) should vanish" % p)
            continue
        if G == 0:
            failures.append("G(%d) vanished" % p)
            continue
        norm = G * _conjugate(G)
        want = 2 * p if p % 4 == 0 else p
        if norm != from_rational(M, want):
            failures.append("|G(%d)|^2 != %d" % (p, want))
        kappa = eta_kappa(p)[1]
        if kappa ** 8 != one(M):
            failures.append("kappa(%d)^8 != 1" % p)
        if p % 2 and kappa ** 4 != one(M):
            failures.append("kappa(%d)^4 != 1" % p)
    _report("AC1", failures, time.perf_counter() - t0, 1)


def test_ac2_normalizations():
    t0 = time.perf_counter()
    failures = []
    for p in (3, 4, 5, 7, 8, 12):
        eta = eta_kappa(p)[0]
        if z_invariant(p, ()) != eta:
            failures.append("Z(S^3) != eta at p=%d" % p)
        if z_invariant(p, ((0,),)) != one(field_order(p)):
            failures.append("Z(S^2 x S^1) != 1 at p=%d" % p)
    _report("AC2", failures, time.perf_counter() - t0, 1)


def _random_symmetric(rng, n, span=3):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = rng.randint(-span, span)
    return tuple(tuple(row) for row in B)


def _ac3_cases():
    """The AC3 instances: (p, B, move, moved B), six presentations with
    both blow-ups and 200 with one slide at each p."""
    rng = random.Random(97)
    cases = []
    for p in (3, 4, 5):
        for _ in range(6):
            B = _random_symmetric(rng, rng.randint(1, 4))
            for sign in (1, -1):
                cases.append((p, B, "blow-up %+d" % sign, blow_up(B, sign)))
        for _ in range(200):
            B = _random_symmetric(rng, rng.randint(2, 4))
            i, j = rng.sample(range(len(B)), 2)
            cases.append((p, B, "slide (%d,%d)" % (i, j),
                          slide(B, i, j, rng.choice((1, -1)))))
    return cases


def test_ac3_kirby_invariance():
    t0 = time.perf_counter()
    failures = []
    for p, B, move, moved in _ac3_cases():
        if z_invariant(p, moved) != z_invariant(p, B):
            failures.append("%s changed Z at p=%d B=%r" % (move, p, B))
    _report("AC3", failures, time.perf_counter() - t0, 30)


def _random_symplectic(rng, g, factors=3):
    n = 2 * g
    M = identity_matrix(n)
    for _ in range(factors):
        i = rng.randrange(g)
        k = rng.randrange(-2, 3)
        E = [list(r) for r in identity_matrix(n)]
        if rng.random() < 0.5:
            E[i][g + i] = k
        else:
            E[g + i][i] = k
        M = mat_mul(M, tuple(tuple(r) for r in E))
    return M


def test_ac4_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(41)
    torus = CobObject(1, ((1, 0),))
    for p in (3, 5):
        pp = p_prime(p)
        ctx = canonical_context(p, torus)
        for al, be in itertools.product(range(-3, 4), repeat=2):
            if gcd(al, be) != 1:
                continue
            mc = _surgery_map(p, ctx, 0, al, be, "closed")
            mo = _surgery_map(p, ctx, 0, al, be, "oracle")
            if mc != mo:
                failures.append("index-2 (%d,%d) p=%d: closed != oracle"
                                % (al, be, p))
            corr = index2_correspondence(1, 0, al, be, ctx.L, ctx.Ldual)
            if reference.bimodule_quotient_dim(p, corr) != 1:
                failures.append("index-2 (%d,%d) p=%d: quotient dim != 1"
                                % (al, be, p))
        for trial in range(20):
            F = _random_symplectic(rng, 1)
            # between carried frames a cylinder's map is the identity
            m_closed = identity_map(ctx)
            corr = cylinder_correspondence(F, ctx.L, ctx.Ldual)
            if induced_map_oracle(p, corr) != m_closed:
                failures.append("cylinder %r p=%d: closed != oracle"
                                % (F, p))
            if reference.bimodule_quotient_dim(p, corr) != pp:
                failures.append("cylinder %r p=%d: quotient dim != p'"
                                % (F, p))
    _report("AC4", failures, time.perf_counter() - t0, 120)


def _ac5_frame(beta, alpha):
    """The chain of L(beta, alpha) with a boundary strand linking its
    first unknot once, the strand first."""
    B = chain_matrix(continued_fraction(beta, alpha))
    n = len(B)
    return ((0,) + tuple(1 if j == 0 else 0 for j in range(n)),) \
        + tuple((1 if i == 0 else 0,) + B[i] for i in range(n))


AC5_LENSES = ((2, 1), (3, 1), (3, 2), (5, 2))


def test_ac5_lens_matrix_elements():
    t0 = time.perf_counter()
    failures = []
    for p in (3, 5):
        pp = p_prime(p)
        for beta, alpha in AC5_LENSES:
            full = _ac5_frame(beta, alpha)
            base = z_lens(p, beta, alpha)
            d = gcd(beta, pp)
            for k in range(pp):
                got = matrix_element(p, full, {0: k}, 1)
                if k % d:
                    if got != 0:
                        failures.append(
                            "L(%d,%d) p=%d k=%d: no vanishing at d | k"
                            % (beta, alpha, p, k))
                    continue
                kp = next(x for x in range(pp)
                          if (beta * x - k) % pp == 0)
                if got != base * q_power(p, -alpha * k * kp):
                    failures.append("L(%d,%d) p=%d k=%d: wrong phase"
                                    % (beta, alpha, p, k))
    _report("AC5", failures, time.perf_counter() - t0, 60)


def test_ac3_ac5_odd_sums_match_the_enumerator():
    # at odd p the colour sums are Gauss sums; on the odd-order AC3 and
    # AC5 presentations they equal the enumerator to the last coefficient
    cases = [(p, M, {}) for p, B, _, moved in _ac3_cases() if p % 2
             for M in (B, moved)]
    for p in (3, 5):
        for beta, alpha in AC5_LENSES:
            cases.append((p, chain_matrix(continued_fraction(beta, alpha)),
                          {}))
            cases += [(p, _ac5_frame(beta, alpha), {0: k})
                      for k in range(-p, 2 * p)]
    for p, B, fixed in cases:
        want = surgery._phase_sum(p, B, [
            (fixed[i],) if i in fixed else range(p) for i in range(len(B))])
        got = surgery._colour_sum(p, B, fixed)
        assert (got.num, got.den) == (want.num, want.den), (p, B, fixed)


def _parity_sector(p, B, parities):
    """kappa^(-sig) eta^(n+1) times the colored sum over colors of the
    given parities, by direct enumeration."""
    n = len(B)
    pp = p_prime(p)
    acc = zero(field_order(p))
    for c in itertools.product(*(range(s, pp, 2) for s in parities)):
        acc = acc + q_power(p, sum(c[i] * B[i][j] * c[j]
                                   for i in range(n) for j in range(n)))
    eta, kappa = eta_kappa(p)
    return kappa ** (-signature(B)) * eta ** (n + 1) * acc


def test_ac6_refinements():
    # At p = 0 (mod 8) the refined values add up to the invariant.  At
    # p = 4 (mod 8) each refined value is its own (characteristic)
    # parity sector, and the non-characteristic sectors, which need not
    # vanish there, make up the rest of the invariant.
    t0 = time.perf_counter()
    failures = []
    cases = (((0,),), ((1,),), ((2,),), ((2, 1), (1, 2)))
    for p in (12, 8, 16):
        kind = refinement_kind(p)
        for B in cases:
            n = len(B)
            want = [B[i][i] % 2 for i in range(n)] if kind == "spin" \
                else [0] * n
            classes = refinement_classes(p, B)
            for cls in classes:
                got = [sum(B[i][j] * cls[j] for j in range(n)) % 2
                       for i in range(n)]
                if got != want:
                    failures.append("p=%d B=%r class %r fails its mod-2 "
                                    "system" % (p, B, cls))
            total = z_invariant(p, B)
            acc = zero(field_order(p))
            for cls in classes:
                value = refined_invariant(p, B, cls)
                if kind == "spin" and value != _parity_sector(p, B, cls):
                    failures.append("p=%d B=%r class %r != its parity "
                                    "sector" % (p, B, cls))
                acc = acc + value
            if kind == "spin":
                for s in itertools.product((0, 1), repeat=n):
                    if s not in classes:
                        acc = acc + _parity_sector(p, B, s)
                if acc != total:
                    failures.append("p=%d B=%r: class-sum + other sectors "
                                    "!= unrefined invariant" % (p, B))
            elif acc != total:
                failures.append("p=%d B=%r: class-sum != unrefined "
                                "invariant" % (p, B))
    _report("AC6", failures, time.perf_counter() - t0, 5)


def _random_word(rng, lib, g, length):
    names = sorted(lib)
    f = MappingClass.identity(g)
    for _ in range(length):
        f = f * lib[rng.choice(names)]
    return f


def test_ac7_morita_layer():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(61)
    for g in (1, 2):
        lib = twist_generators(g)
        words = [_random_word(rng, lib, g, rng.randint(1, 5))
                 for _ in range(100)]
        for idx in range(100):
            f = words[idx]
            h = words[(idx + 1) % 100]
            th = theta(h * f)
            thf, thh = theta(f), theta(h)
            F = f.matrix
            expect = tuple(
                thf[i] + sum(F[i][j] * thh[j] for j in range(2 * g))
                for i in range(2 * g))
            if th != expect:
                failures.append("theta identity fails at g=%d pair %d"
                                % (g, idx))
                continue
            for p in (3, 5, 7):
                lhs = t_dual(theta(f * h), p)
                tf = t_dual(thf, p)
                thp = t_dual(thh, p)
                hinv = _symplectic_inverse(h.matrix)
                moved = _push_mod(tf, hinv, p)
                if lhs != tuple((a + b) % p for a, b in zip(thp, moved)):
                    failures.append("t identity fails at g=%d p=%d pair %d"
                                    % (g, p, idx))
    _report("AC7", failures, time.perf_counter() - t0, 30)


def _symplectic_inverse(F):
    n = len(F)
    g = n // 2
    J = tuple(
        tuple(1 if j == i + g else (-1 if j == i - g else 0)
              for j in range(n))
        for i in range(n))
    Jneg = tuple(tuple(-x for x in row) for row in J)
    Ft = tuple(tuple(F[j][i] for j in range(n)) for i in range(n))
    return mat_mul(mat_mul(J, Ft), Jneg)


def _push_mod(vec, F, p):
    return tuple(
        sum(v * F[j][k] for j, v in enumerate(vec)) % p
        for k in range(len(F)))


def test_ac8_cocycle_measurement():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(83)
    lib = twist_generators(1)
    for p in (3, 5):
        ctx = closed_context(p, 1)
        for trial in range(50):
            f = _random_word(rng, lib, 1, rng.randint(1, 5))
            h = _random_word(rng, lib, 1, rng.randint(1, 5))
            c = cocycle_c(f, h, p)
            # the three closed forms, computed independently
            tf = t_dual(theta(f), p)
            th = t_dual(theta(h), p)
            hmat = h.matrix
            c1 = intersection(_push_mod(tf, _symplectic_inverse(hmat), p),
                              th) % p
            c2 = intersection(tf, _push_mod(th, hmat, p)) % p
            t_hinv = tuple(-x % p for x in _push_mod(th, hmat, p))
            c3 = -intersection(tf, t_hinv) % p
            if not (c == c1 == c2 == c3):
                failures.append("closed forms disagree p=%d trial %d"
                                % (p, trial))
                continue
            lam_H = projective_defect(
                weil_H(f, ctx), weil_H(h, ctx), weil_H(f * h, ctx))
            lam_S = projective_defect(
                weil_intertwiner(f.matrix, ctx),
                weil_intertwiner(hmat, ctx),
                weil_intertwiner((f * h).matrix, ctx))
            if lam_H != lam_S * q_power(p, c):
                failures.append("defect ratio != q^c at p=%d trial %d"
                                % (p, trial))
    _report("AC8", failures, time.perf_counter() - t0, 120)


def test_ac9_cerf_relations():
    t0 = time.perf_counter()
    failures = []
    torus = CobObject(1, ((1, 0),))
    genus2 = CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    point = CobObject(0, ())
    twist = ((1, 0), (1, 1))
    swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    for p in (3, 5):
        # R(1): identity cylinders drop out of composites
        for obj in (torus, genus2):
            ctx = canonical_context(p, obj)
            ident = identity_matrix(2 * obj.g)
            prog_id = CobordismProgram(obj, (MappingCylinder(ident),), obj)
            if F_program(p, prog_id) != identity_map(ctx):
                failures.append("R(1) identity cylinder fails at p=%d g=%d"
                                % (p, obj.g))
            tgt = CobObject(obj.g + 1, index1_frame(ctx.L, ctx.Ldual)[0])
            bare = CobordismProgram(obj, (Index1(None),), tgt)
            padded = CobordismProgram(
                obj, (MappingCylinder(ident), Index1(None),
                      MappingCylinder(identity_matrix(2 * obj.g + 2))),
                tgt)
            if F_program(p, bare) != F_program(p, padded):
                failures.append("R(1) padding fails at p=%d g=%d"
                                % (p, obj.g))
        # R(2): conjugating a surgery by a diffeomorphism
        A = CobordismProgram(
            torus, (MappingCylinder(twist), Index2(0, 1, 1)), point)
        Bp = CobordismProgram(torus, (Index2(0, 0, 1),), point)
        if F_program(p, A) != F_program(p, Bp):
            failures.append("R(2) fails at p=%d genus 1" % p)
        A2 = CobordismProgram(
            genus2, (MappingCylinder(swap), Index2(1, 1, 0)), torus)
        B2 = CobordismProgram(genus2, (Index2(0, 1, 0),), torus)
        if F_program(p, A2) != F_program(p, B2):
            failures.append("R(2) fails at p=%d genus 2" % p)
        # R(3): disjoint surgeries commute
        A3 = CobordismProgram(
            genus2, (Index2(0, 1, 2), Index2(0, 2, 3)), point)
        B3 = CobordismProgram(
            genus2, (Index2(1, 2, 3), Index2(0, 1, 2)), point)
        if F_program(p, A3) != F_program(p, B3):
            failures.append("R(3) fails at p=%d" % p)
        P1 = CobordismProgram(torus, (Index1(0), Index2(1, 1, 2)), torus)
        P2 = CobordismProgram(torus, (Index2(0, 1, 2), Index1(0)), torus)
        if F_program(p, P1) != F_program(p, P2):
            failures.append("R(3) mixed index fails at p=%d" % p)
        # R(4): cancelling pair reproduces the cylinder of the induced
        # diffeomorphism, the identity in these slot-local instances
        for obj in (torus, CobObject(1, ((1, 1),)), genus2):
            ctx = canonical_context(p, obj)
            for alpha in (0, 1, -2):
                prog = CobordismProgram(
                    obj, (Index1(None), Index2(obj.g, alpha, 1)), obj)
                cyl = context_transfer(_context(p, *cylinder_frame(
                    identity_matrix(2 * obj.g), ctx.L, ctx.Ldual)), ctx)
                if F_program(p, prog) != cyl:
                    failures.append("R(4) fails at p=%d g=%d alpha=%d"
                                    % (p, obj.g, alpha))
        # R(5): orientation reversal of the framed sphere
        for obj, handle in ((torus, 0), (genus2, 1)):
            ctx = canonical_context(p, obj)
            for al, be in ((1, 0), (0, 1), (1, 1), (2, 1), (1, -2)):
                m1 = _surgery_map(p, ctx, handle, al, be, "auto")
                m2 = _surgery_map(p, ctx, handle, -al, -be, "auto")
                if m1 != m2:
                    failures.append("R(5) fails at p=%d g=%d (%d,%d)"
                                    % (p, obj.g, al, be))
    _report("AC9", failures, time.perf_counter() - t0, 60)


def test_ac10_stone_von_neumann():
    t0 = time.perf_counter()
    failures = []
    for g in (1, 2):
        for p in (3, 4, 5):
            ctx = closed_context(p, g)
            gens = []
            for i in range(2 * g):
                e = tuple(1 if j == i else 0 for j in range(2 * g))
                gens.append(monomial_of(ctx, to_finite(ctx, 0, e)))
            dim = commutant_dim(gens, ctx.labels())
            if dim != 1:
                failures.append("commutant dim %d at g=%d p=%d"
                                % (dim, g, p))
    _report("AC10", failures, time.perf_counter() - t0, 30)
