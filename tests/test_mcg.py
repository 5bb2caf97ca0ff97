import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from abtqft import mcg
from abtqft.cobordism import F_cylinder, compose_maps
from abtqft.cyclotomic import CycNum, field_order, one, q_power
from abtqft.heisenberg import closed_context, monomial_of, to_finite
from abtqft.homology import (
    combine,
    identity_matrix,
    intersection,
    is_symplectic,
    mat_mul,
)
from abtqft.mcg import (
    BraidWord,
    FreeWord,
    MappingClass,
    boundary_word,
    braid_phi,
    cocycle_c,
    morita_d,
    projective_defect,
    t_dual,
    theta,
    twist_generators,
    weil_H,
    weil_intertwiner,
)


def test_doctests():
    assert doctest.testmod(mcg).failed == 0


# -- words and substitutions ----------------------------------------------


def test_free_word_reduction_and_algebra():
    w = FreeWord((1, 2, -2, -1, 3))
    assert w.letters == (3,)
    assert (w * w.inverse()).letters == ()
    assert FreeWord((1, 2)) ** 2 == FreeWord((1, 2, 1, 2))
    assert FreeWord((1, 2)) ** -1 == FreeWord((-2, -1))
    assert FreeWord.alpha(2).letters == (3,)
    assert FreeWord.beta(2).letters == (4,)
    with pytest.raises(ValueError):
        FreeWord((1, 0))


def test_free_word_homology_and_restriction():
    w = FreeWord((1, 2, 3, -1, 4, 2))
    assert w.homology(2) == (0, 1, 2, 1)
    assert reference.restricted(w, 1) == FreeWord((1, 2, -1, 2))
    assert reference.restricted(w, 2) == FreeWord((3, 4))
    with pytest.raises(ValueError):
        FreeWord((5,)).homology(2)


def test_boundary_word_is_commutator_product():
    assert boundary_word(2).letters == (1, 2, -1, -2, 3, 4, -3, -4)
    d = boundary_word(1)
    assert d.homology(1) == (0, 0)


def test_mapping_class_rejects_broken_substitutions():
    # exchanging the two loops of a handle reverses the boundary word
    with pytest.raises(ValueError):
        MappingClass(1, (FreeWord((2,)), FreeWord((1,))))
    # dropping a conjugating letter from a valid twist breaks it too
    good = twist_generators(2)["chain"].images
    bad = good[:1] + (FreeWord(good[1].letters[1:]),) + good[2:]
    with pytest.raises(ValueError):
        MappingClass(2, bad)
    with pytest.raises(ValueError):
        MappingClass(1, (FreeWord((1,)),))


@given(st.sampled_from((1, 2)), st.data())
def test_products_equal_the_checked_constructor(g, data):
    # a product of valid classes skips the boundary-word and symplectic
    # checks; built again through MappingClass(g, images) it passes them
    # and gives the same images and matrix, at every step of the word
    gens = twist_generators(g)
    word = data.draw(st.lists(st.sampled_from(sorted(gens)), max_size=8))
    f = MappingClass.identity(g)
    for name in word:
        h = gens[name]
        product = f * h
        checked = MappingClass(g, tuple(f.apply(w) for w in h.images))
        assert product == checked
        assert product.matrix == mat_mul(h.matrix, f.matrix)
        assert all(type(w) is FreeWord for w in product.images)
        f = product


def test_product_keeps_the_genus_check():
    with pytest.raises(ValueError):
        twist_generators(1)["ta"] * twist_generators(2)["ta1"]


def test_twist_library_inverse_pairs():
    for g in (1, 2):
        lib = twist_generators(g)
        for name, f in lib.items():
            partner = lib[name[:-1]] if name.endswith("'") else lib[name + "'"]
            assert f * partner == MappingClass.identity(g)
    with pytest.raises(ValueError):
        twist_generators(3)


def test_twist_matrices():
    lib = twist_generators(1)
    assert lib["ta"].matrix == ((1, 0), (1, 1))
    assert lib["tb"].matrix == ((1, -1), (0, 1))
    lib2 = twist_generators(2)
    # transvection along a1 - a2
    assert lib2["chain"].matrix == (
        (1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 1, 0), (-1, 1, 0, 1))
    assert lib2["swap"].matrix == (
        (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def test_braid_relations_in_the_library():
    lib = twist_generators(1)
    assert lib["ta"] * lib["tb"] * lib["ta"] == lib["tb"] * lib["ta"] * lib["tb"]
    lib2 = twist_generators(2)
    chain = ["ta1", "tb1", "chain", "tb2", "ta2"]
    for x, y in zip(chain, chain[1:]):
        a, b = lib2[x], lib2[y]
        assert a * b * a == b * a * b, (x, y)
    for i, x in enumerate(chain):
        for y in chain[i + 2:]:
            a, b = lib2[x], lib2[y]
            assert a * b == b * a, (x, y)


def test_torus_chain_relation_is_boundary_conjugation():
    lib = twist_generators(1)
    word = lib["ta"] * lib["tb"]
    power = MappingClass.identity(1)
    for _ in range(6):
        power = power * word
    d = boundary_word(1)
    conj = MappingClass(
        1, tuple(d.inverse() * FreeWord((k,)) * d for k in (1, 2)))
    assert power == conj
    # and with the other ordering of the two twists
    word = lib["tb"] * lib["ta"]
    power = MappingClass.identity(1)
    for _ in range(6):
        power = power * word
    assert power == conj


# -- the braid-group image in the Heisenberg group ------------------------


def test_braid_phi_examples():
    assert braid_phi(("s1",), 1) == (1, (0, 0))
    assert braid_phi(("-s3",), 2) == (-1, (0, 0, 0, 0))
    assert braid_phi(("a1",), 2) == (0, (1, 0, 0, 0))
    assert braid_phi(("b2",), 2) == (0, (0, 0, 0, 1))
    # a commutator of surface letters is central with charge 2
    assert braid_phi(("a1", "b1", "-a1", "-b1"), 1) == (2, (0, 0))
    # the mixed braid relation merges three half-twists into one
    lhs = braid_phi(("s1", "b1", "s1", "a1", "s1"), 1)
    rhs = braid_phi(("a1", "s1", "b1"), 1)
    assert lhs == rhs == (2, (1, 1))


def test_braid_phi_rejects_bad_letters():
    with pytest.raises(ValueError):
        BraidWord(("c1",))
    with pytest.raises(ValueError):
        BraidWord(("s0",))
    with pytest.raises(ValueError):
        BraidWord(("a",))
    with pytest.raises(ValueError):
        braid_phi(("a3",), 2)


def test_braid_phi_is_a_homomorphism():
    rng = random.Random(11)
    alphabet = ["s1", "s2", "a1", "b1", "a2", "b2"]
    alphabet += ["-" + t for t in alphabet]
    for _ in range(50):
        u = tuple(rng.choice(alphabet) for _ in range(rng.randrange(6)))
        v = tuple(rng.choice(alphabet) for _ in range(rng.randrange(6)))
        ku, xu = braid_phi(u, 2)
        kv, xv = braid_phi(v, 2)
        expect = (ku + kv + intersection(xu, xv),
                  tuple(a + b for a, b in zip(xu, xv)))
        assert braid_phi(u + v, 2) == expect


# -- winding counts and the crossed homomorphism --------------------------


def test_morita_d_small_words():
    assert morita_d(FreeWord((1, 2)), 1) == 1
    assert morita_d(FreeWord((2, 1)), 1) == -1
    assert morita_d(FreeWord((1,)), 1) == 0
    assert morita_d(FreeWord((2,)), 1) == 0
    assert morita_d(FreeWord((1, -2)), 1) == -1
    assert morita_d(FreeWord((1, 2, 1, 2)), 1) == 2
    assert morita_d(FreeWord((1, 2, -1, -2)), 1) == 2
    # projection kills the other handle entirely
    assert morita_d(FreeWord((3, 4)), 1) == 0
    assert morita_d(FreeWord((3, 4)), 2) == 1
    # a handle beyond the word's letters, and no handle at all
    assert morita_d(FreeWord((1, 2)), 3) == 0
    with pytest.raises(ValueError):
        morita_d(FreeWord((1, 2)), 0)


def test_theta_on_generating_twists():
    lib = twist_generators(1)
    assert theta(MappingClass.identity(1)) == (0, 0)
    assert theta(lib["ta"]) == (0, -1)
    assert theta(lib["tb"]) == (-1, 0)
    assert theta(MappingClass.identity(2)) == (0, 0, 0, 0)


def _random_word(rng, lib, g, length):
    names = sorted(lib)
    f = MappingClass.identity(g)
    for _ in range(length):
        f = f * lib[rng.choice(names)]
    return f


def test_crossed_homomorphism_identity():
    # theta_{h o f}(x) = theta_f(x) + theta_h(f_* x), exactly over Z
    rng = random.Random(23)
    for g in (1, 2):
        lib = twist_generators(g)
        for _ in range(30):
            f = _random_word(rng, lib, g, rng.randrange(1, 13))
            h = _random_word(rng, lib, g, rng.randrange(1, 13))
            th = theta(h * f)
            thf, thh = theta(f), theta(h)
            F = f.matrix
            assert th == tuple(
                thf[i] + sum(F[i][j] * thh[j] for j in range(2 * g))
                for i in range(2 * g))


# -- the one-pass kernel against the word-based reference ----------------


_LIBS = {g: twist_generators(g) for g in (1, 2)}


def _letter_tuples(g, max_size):
    # a small alphabet, so that cancelling pairs are frequent
    return st.lists(st.integers(-2 * g, 2 * g).filter(bool),
                    max_size=max_size).map(tuple)


def _class_of(g, names, budget=None):
    """The class of a twist word, stopping before the first twist that
    takes its image words over ``budget`` letters."""
    f = MappingClass.identity(g)
    for name in names:
        h = f * _LIBS[g][name]
        if budget is not None and sum(
                len(w.letters) for w in h.images) > budget:
            break
        f = h
    return f


def _words(g, max_size):
    # the length first, so that long words are drawn as often as short
    return st.integers(0, max_size).flatmap(lambda n: st.lists(
        st.sampled_from(sorted(_LIBS[g])), min_size=n, max_size=n))


@given(st.integers(1, 3).flatmap(
    lambda g: st.tuples(st.just(g), _letter_tuples(g, 400))))
def test_morita_d_matches_the_word_based_reference(case):
    g, letters = case
    w = FreeWord(letters)
    expected = [reference.morita_d(w, i) for i in range(1, g + 1)]
    assert [morita_d(w, i) for i in range(1, g + 1)] == expected
    # the kernel reads the letters unreduced
    assert mcg._morita_sums(letters, g) == expected


@settings(max_examples=100)
@given(st.integers(1, 2).flatmap(
    lambda g: st.tuples(st.just(g), _words(g, 40))))
def test_theta_matches_the_word_based_reference(case):
    g, names = case
    f = _class_of(g, names, budget=3000)
    assert theta(f) == reference.theta(f)


@st.composite
def _symplectic_matrices(draw):
    """Products of integer transvections x -> x + lam (x . v) v."""
    g = draw(st.integers(1, 4))
    n = 2 * g
    F = identity_matrix(n)
    for _ in range(draw(st.integers(0, 6))):
        lam = draw(st.integers(-2, 2))
        v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        T = tuple(tuple(e[j] + lam * intersection(e, v) * v[j]
                        for j in range(n)) for e in identity_matrix(n))
        F = mat_mul(F, T)
    return F


@given(_symplectic_matrices())
def test_block_inverse_matches_the_reference(F):
    assert is_symplectic(F)
    inv = mcg._symplectic_inverse(F)
    assert inv == reference.symplectic_inverse(F)
    unit = identity_matrix(len(F))
    assert mat_mul(F, inv) == unit and mat_mul(inv, F) == unit


@settings(max_examples=60)
@given(st.data())
def test_cocycle_identity(data):
    # c(f,h) + c(fh,k) = c(h,k) + c(f,hk) mod p
    g = data.draw(st.integers(1, 2))
    p = data.draw(st.sampled_from((3, 5, 7, 9, 11)))
    f, h, k = (_class_of(g, data.draw(_words(g, 6))) for _ in range(3))
    lhs = cocycle_c(f, h, p) + cocycle_c(f * h, k, p)
    rhs = cocycle_c(h, k, p) + cocycle_c(f, h * k, p)
    assert (lhs - rhs) % p == 0


def _push_mod(vec, F, p):
    n = len(F)
    return tuple(
        sum(v * F[j][k] for j, v in enumerate(vec)) % p for k in range(n))


def test_t_dual_values_and_pairing():
    assert t_dual((0, -1), 3) == (1, 0)
    assert t_dual((-1, 0), 3) == (0, 2)
    with pytest.raises(ValueError):
        t_dual((0, 0), 4)
    with pytest.raises(ValueError):
        t_dual((1, 0, 0), 5)
    # theta(x) = 2 t.x on the basis, for random twist words
    rng = random.Random(5)
    for p in (3, 5, 7):
        for g in (1, 2):
            lib = twist_generators(g)
            for _ in range(10):
                f = _random_word(rng, lib, g, rng.randrange(1, 5))
                th = theta(f)
                t = t_dual(th, p)
                basis = identity_matrix(2 * g)
                for i in range(2 * g):
                    assert th[i] % p == 2 * intersection(t, basis[i]) % p


def test_t_dual_composition_rule():
    # t_{f o h} = t_h + t_f h_*^{-1}, with the inverse taken symplectically
    rng = random.Random(29)
    for p in (3, 5, 7):
        for g in (1, 2):
            lib = twist_generators(g)
            for _ in range(10):
                f = _random_word(rng, lib, g, rng.randrange(1, 5))
                h = _random_word(rng, lib, g, rng.randrange(1, 5))
                lhs = t_dual(theta(f * h), p)
                tf = t_dual(theta(f), p)
                th = t_dual(theta(h), p)
                hinv = mcg._symplectic_inverse(h.matrix)
                moved = _push_mod(tf, hinv, p)
                assert lhs == tuple(
                    (a + b) % p for a, b in zip(th, moved))


def test_inverse_class_via_reversed_primed_word():
    # t of an inverse, computed from its own word, matches -t_g g_*
    rng = random.Random(41)
    for p in (3, 5):
        lib = twist_generators(1)
        names = sorted(lib)
        for _ in range(10):
            picks = [rng.choice(names) for _ in range(rng.randrange(1, 6))]
            f = MappingClass.identity(1)
            for n in picks:
                f = f * lib[n]
            finv = MappingClass.identity(1)
            for n in reversed(picks):
                finv = finv * lib[n[:-1] if n.endswith("'") else n + "'"]
            assert f * finv == MappingClass.identity(1)
            t_f = t_dual(theta(f), p)
            t_fi = t_dual(theta(finv), p)
            assert t_fi == tuple(
                -x % p for x in _push_mod(t_f, f.matrix, p))


# -- Weil intertwiners ----------------------------------------------------


def _rho(ctx, h):
    md = monomial_of(ctx, h).as_dict()
    return {(t, z): q_power(ctx.p, e) for z, (t, e) in md.items()}


def _group_elements(ctx):
    labs = ctx.labels()
    for k in range(ctx.p):
        for a in labs:
            for b in labs:
                yield (k, a, b)


def _intertwines(ctx, F, S):
    for h in _group_elements(ctx):
        k, a, b = h
        x = [0] * (2 * ctx.g)
        for c, row in zip(a, ctx.L):
            for j, r in enumerate(row):
                x[j] += c * r
        for c, row in zip(b, ctx.Ldual):
            for j, r in enumerate(row):
                x[j] += c * r
        kint = k - sum(u * v for u, v in zip(a, b))
        moved = tuple(
            sum(v * F[j][i] for j, v in enumerate(x)) for i in range(len(F)))
        left = compose_maps(_rho(ctx, to_finite(ctx, kint, moved)), S)
        right = compose_maps(S, _rho(ctx, h))
        if left != right:
            return False
    return True


def test_weil_of_identity_is_identity():
    for p in (3, 4, 5, 8):
        ctx = closed_context(p, 1)
        S = weil_intertwiner(identity_matrix(2), ctx)
        unit = one(field_order(p))
        assert S == {(c, c): unit for c in ctx.labels()}


def test_weil_twist_is_quadratic_phase():
    lib = twist_generators(1)
    for p in (3, 4, 5, 7, 8):
        ctx = closed_context(p, 1)
        S = weil_intertwiner(lib["ta"].matrix, ctx)
        assert S == {((k,), (k,)): q_power(p, k * k)
                     for k in range(ctx.p_prime)}


def test_weil_fourier_matrix():
    for p in (3, 5):
        ctx = closed_context(p, 1)
        S = weil_intertwiner(((0, -1), (1, 0)), ctx)
        assert S == {((j,), (k,)): q_power(p, 2 * j * k)
                     for j in range(p) for k in range(p)}
        back = weil_intertwiner(((0, 1), (-1, 0)), ctx)
        assert back == {((j,), (k,)): q_power(p, -2 * j * k)
                        for j in range(p) for k in range(p)}


def test_weil_intertwines_every_group_element():
    rng = random.Random(17)
    lib = twist_generators(1)
    for p in (3, 5):
        ctx = closed_context(p, 1)
        mats = [lib["ta"].matrix, lib["tb"].matrix, ((0, -1), (1, 0)),
                _random_word(rng, lib, 1, 4).matrix]
        for F in mats:
            S = weil_intertwiner(F, ctx)
            assert _intertwines(ctx, F, S), (p, F)


def test_weil_intertwines_genus_two():
    ctx = closed_context(3, 2)
    F = twist_generators(2)["chain"].matrix
    S = weil_intertwiner(F, ctx)
    assert _intertwines(ctx, F, S)


def test_weil_intertwiner_inverts_once(monkeypatch):
    calls = []
    original = CycNum.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CycNum, "inverse", counting)
    lib = twist_generators(1)
    for p in (3, 5):
        ctx = closed_context(p, 1)
        for F in (lib["ta"].matrix, lib["tb"].matrix, ((0, -1), (1, 0))):
            calls.clear()
            S = weil_intertwiner(F, ctx)
            assert len(calls) <= 1, (p, F, len(calls))
            assert len(S) > 1


def test_weil_rejects_non_symplectic():
    ctx = closed_context(3, 1)
    with pytest.raises(ValueError):
        weil_intertwiner(((1, 0), (0, 2)), ctx)
    with pytest.raises(ValueError):
        weil_intertwiner(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ctx)


def test_weil_matches_cylinder_functor():
    # twists preserving the reference Lagrangian give literally the same
    # matrix as the mapping-cylinder functor in the same frame
    lib = twist_generators(1)
    for p in (3, 4, 5, 8):
        ctx = closed_context(p, 1)
        for name in ("ta", "ta'"):
            f = lib[name]
            w = MappingClass.identity(1)
            for _ in range(3):
                w = w * f
                m, _ = F_cylinder(p, ctx, w.matrix, ctx)
                S = weil_intertwiner(w.matrix, ctx)
                assert {k: v for k, v in m.items() if v != 0} == S


def test_weil_H_reduces_to_weil_when_theta_vanishes():
    ctx = closed_context(3, 1)
    f = MappingClass.identity(1)
    assert weil_H(f, ctx) == weil_intertwiner(f.matrix, ctx)
    with pytest.raises(ValueError):
        weil_H(f, closed_context(4, 1))


def test_defect_ratio_is_the_cocycle():
    rng = random.Random(59)
    lib = twist_generators(1)
    for p in (3, 5):
        ctx = closed_context(p, 1)
        for _ in range(8):
            f = _random_word(rng, lib, 1, rng.randrange(1, 5))
            h = _random_word(rng, lib, 1, rng.randrange(1, 5))
            lam_H = projective_defect(
                weil_H(f, ctx), weil_H(h, ctx), weil_H(f * h, ctx))
            lam_S = projective_defect(
                weil_intertwiner(f.matrix, ctx),
                weil_intertwiner(h.matrix, ctx),
                weil_intertwiner((f * h).matrix, ctx))
            assert lam_H == lam_S * q_power(p, cocycle_c(f, h, p))


def test_cocycle_values():
    lib = twist_generators(1)
    assert cocycle_c(lib["ta"], lib["tb"], 3) == 2
    assert cocycle_c(lib["tb"], lib["ta"], 3) == 1
    assert cocycle_c(MappingClass.identity(1), lib["ta"], 5) == 0
    assert cocycle_c(lib["ta"], MappingClass.identity(1), 5) == 0
    with pytest.raises(ValueError):
        cocycle_c(lib["ta"], lib["tb"], 4)
    # not identically zero: the two projective actions genuinely differ
    rng = random.Random(71)
    seen = set()
    for _ in range(20):
        f = _random_word(rng, lib, 1, rng.randrange(1, 5))
        h = _random_word(rng, lib, 1, rng.randrange(1, 5))
        seen.add(cocycle_c(f, h, 5))
    assert seen - {0}


# -- the sparse products before they went through compose_maps, kept as
# -- reference


def _product_reference(A, B):
    rows = {}
    for (y, w), v in B.items():
        rows.setdefault(y, []).append((w, v))
    prod = {}
    for (z, y), u in A.items():
        for w, v in rows.get(y, ()):
            key = (z, w)
            acc = prod.get(key)
            prod[key] = u * v if acc is None else acc + u * v
    return {k: v for k, v in prod.items() if v != 0}


def _monomial_after_reference(mono, m):
    md = mono.as_dict()
    out = {}
    for (z, w), v in m.items():
        t, e = md[z]
        out[(t, w)] = v * q_power(mono.p, e)
    return out


def _same_map(x, y):
    return list(x) == list(y) and all(
        (x[k].order, x[k].num, x[k].den) == (y[k].order, y[k].num, y[k].den)
        for k in x)


@pytest.mark.parametrize("g, p", [(1, 3), (1, 5), (1, 7), (1, 9), (2, 3)])
def test_weil_H_and_defect_match_reference_products(g, p):
    rng = random.Random(90 + 10 * g + p)
    lib = twist_generators(g)
    ctx = closed_context(p, g)
    for _ in range(4 if g == 1 else 2):
        f = _random_word(rng, lib, g, rng.randrange(1, 4))
        h = _random_word(rng, lib, g, rng.randrange(1, 4))
        maps = []
        for x in (f, h, f * h):
            S = weil_intertwiner(x.matrix, ctx)
            t = t_dual(theta(x), p)
            ft = tuple(c % p for c in combine(t, x.matrix))
            mono = monomial_of(ctx, to_finite(ctx, 0, ft))
            got = weil_H(x, ctx)
            assert _same_map(got, _monomial_after_reference(mono, S))
            maps.append(got)
        A, B, C = maps
        prod = _product_reference(A, B)
        k0 = min(C)
        lam = prod[k0] / C[k0]
        assert all(prod[k] == lam * C[k] for k in C) and set(prod) == set(C)
        got = projective_defect(A, B, C)
        assert (got.num, got.den) == (lam.num, lam.den)


def _push_reference(vec, F, mod=None):
    """``mcg._push`` as it was before ``homology.combine`` replaced it."""
    out = tuple(
        sum(v * F[j][k] for j, v in enumerate(vec)) for k in range(len(F))
    )
    if mod is None:
        return out
    return tuple(x % mod for x in out)


@pytest.mark.parametrize("g", [1, 2])
def test_twist_and_cocycle_match_the_push_reference(g):
    rng = random.Random(110 + g)
    lib = twist_generators(g)
    for p in (3, 5, 7, 9, 11, 13):
        ctx = closed_context(p, g)
        for _ in range(5):
            f = _random_word(rng, lib, g, rng.randrange(1, 5))
            h = _random_word(rng, lib, g, rng.randrange(1, 5))
            t_f = t_dual(theta(f), p)
            t_h = t_dual(theta(h), p)
            ft = _push_reference(t_f, f.matrix, p)
            assert combine(t_f, f.matrix) == _push_reference(t_f, f.matrix)
            assert mcg.heisenberg_twist(f, ctx) == monomial_of(
                ctx, to_finite(ctx, 0, ft))
            hinv = mcg._symplectic_inverse(h.matrix)
            c1 = intersection(_push_reference(t_f, hinv, p), t_h) % p
            c2 = intersection(t_f, _push_reference(t_h, h.matrix, p)) % p
            assert c1 == c2 == cocycle_c(f, h, p)


def test_projective_defect_errors():
    unit = one(24)
    I = {((0,), (0,)): unit}
    with pytest.raises(ValueError):
        projective_defect(I, I, {})
    with pytest.raises(ValueError):
        projective_defect(I, I, {((1,), (1,)): unit})
    other = {((0,), (0,)): unit, ((1,), (1,)): unit}
    with pytest.raises(ValueError):
        projective_defect(other, other, I)
