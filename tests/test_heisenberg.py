import doctest
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from abtqft import heisenberg
from abtqft.cobordism import (
    CobObject,
    canonical_context,
    compose_maps,
    identity_map,
)
from abtqft.cobordism import _surgery_map
from abtqft.cyclotomic import CycNum, field_order, one, p_prime, q_power
from abtqft.heisenberg import (
    HeisContext,
    MonomialOp,
    closed_context,
    commutant_dim,
    correspondence_context,
    finite_inverse,
    finite_mul,
    induced_map_oracle,
    labels,
    monomial_of,
    right_act_boundary,
    schrodinger_act,
    split_coords,
    to_finite,
)
from abtqft.homology import (
    cylinder_correspondence,
    identity_matrix,
    index1_correspondence,
    index2_correspondence,
    intersection,
    mat_mul,
    standard_dual,
    standard_lagrangian,
)
from reference import integral_mul


def _random_symplectic(rng, g, factors=3):
    n = 2 * g
    F = identity_matrix(n)
    for _ in range(factors):
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                break
        T = tuple(
            tuple(
                (1 if i == j else 0) + intersection(
                    tuple(1 if k == i else 0 for k in range(n)), v
                ) * v[j]
                for j in range(n)
            )
            for i in range(n)
        )
        F = mat_mul(F, T)
    return F


def _random_integral(rng, g):
    return (
        rng.randint(-6, 6),
        tuple(rng.randint(-4, 4) for _ in range(2 * g)),
    )


def test_context_validation():
    ctx = closed_context(3, 2)
    assert ctx.g == 2 and ctx.p_prime == 3
    assert closed_context(4, 1).p_prime == 2
    with pytest.raises(ValueError):
        closed_context(6, 1)
    with pytest.raises(ValueError):
        closed_context(2, 1)


# (g_plus, L, Ldual) frames that break one HeisContext condition each
BAD_FRAMES = [
    (1, ((1, 0),), ()),                              # row counts
    (1, ((1, 0),), ((0, 2),)),                       # pairs to 2
    (1, ((1, 0),), ((1, 0),)),                       # pairs to 0
    (2, ((1, 0, 0, 0), (0, 1, 1, 0)),                # L not isotropic
     ((0, 0, 1, 0), (0, 0, 0, 1))),
    (2, ((1, 0, 0, 0), (0, 1, 0, 0)),                # Ldual not isotropic
     ((0, 0, 1, 0), (1, 1, 0, 1))),
]


@pytest.mark.parametrize("g_plus, L, Ldual", BAD_FRAMES)
def test_bad_frames_raise_value_error(g_plus, L, Ldual):
    with pytest.raises(ValueError):
        HeisContext(p=3, g_minus=0, g_plus=g_plus, L=L, Ldual=Ldual)


def test_frame_guards_survive_optimised_mode():
    code = (
        "from abtqft.heisenberg import HeisContext\n"
        "rejected = 0\n"
        "for g, L, W in %r:\n"
        "    try:\n"
        "        HeisContext(p=3, g_minus=0, g_plus=g, L=L, Ldual=W)\n"
        "    except ValueError:\n"
        "        rejected += 1\n"
        "print(__debug__, rejected)\n" % (BAD_FRAMES,)
    )
    src = str(Path(heisenberg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", str(len(BAD_FRAMES))]


def test_split_coords():
    ctx = closed_context(3, 2)
    alpha, beta = split_coords(ctx, (1, 2, 3, 4))
    assert alpha == (1, 2) and beta == (3, 4)
    rng = random.Random(21)
    for _ in range(20):
        g = rng.randint(1, 2)
        ctx = closed_context(5, g)
        x = tuple(rng.randint(-5, 5) for _ in range(2 * g))
        a, b = split_coords(ctx, x)
        assert len(a) == g and len(b) == g


def test_to_finite_is_homomorphism():
    rng = random.Random(22)
    for p in (3, 4, 5):
        for g in (1, 2):
            ctx = closed_context(p, g)
            for _ in range(25):
                e1 = _random_integral(rng, g)
                e2 = _random_integral(rng, g)
                lhs = to_finite(ctx, *integral_mul(ctx, e1, e2))
                rhs = finite_mul(ctx, to_finite(ctx, *e1), to_finite(ctx, *e2))
                assert lhs == rhs


def test_congruence_subgroup_dies():
    for p in (3, 4, 8, 5):
        pp = p_prime(p)
        for g in (1, 2):
            ctx = closed_context(p, g)
            ident = (0, (0,) * g, (0,) * g)
            assert to_finite(ctx, p, (0,) * (2 * g)) == ident
            rng = random.Random(p + g)
            for _ in range(10):
                x = tuple(pp * rng.randint(-3, 3) for _ in range(2 * g))
                assert to_finite(ctx, p * rng.randint(-2, 2), x) == ident


def test_finite_group_structure():
    rng = random.Random(23)
    for p in (3, 4):
        ctx = closed_context(p, 1)
        pp = ctx.p_prime
        elems = [
            (k, (a,), (b,))
            for k in range(p) for a in range(pp) for b in range(pp)
        ]
        ident = (0, (0,), (0,))
        for e in elems:
            assert finite_mul(ctx, e, finite_inverse(ctx, e)) == ident
            assert finite_mul(ctx, ident, e) == e
        for _ in range(40):
            e1, e2, e3 = (rng.choice(elems) for _ in range(3))
            assert finite_mul(ctx, finite_mul(ctx, e1, e2), e3) == \
                finite_mul(ctx, e1, finite_mul(ctx, e2, e3))


def _compose(left, right):
    """The monomial operator left after right (the matrix product
    left @ right), composed on labels and exponents."""
    mine = left.as_dict()
    out = {}
    for c, t, e in right.entries:
        t2, e2 = mine[t]
        out[c] = (t2, (e + e2) % left.p)
    return MonomialOp.from_dict(left.p, out)


def test_schrodinger_is_a_representation():
    # exhaustive at p=3, genus 1
    ctx = closed_context(3, 1)
    elems = [
        (k, (a,), (b,)) for k in range(3) for a in range(3) for b in range(3)
    ]
    for e1 in elems:
        for e2 in elems:
            lhs = monomial_of(ctx, finite_mul(ctx, e1, e2))
            rhs = _compose(monomial_of(ctx, e1), monomial_of(ctx, e2))
            assert lhs == rhs
    rng = random.Random(24)
    for p in (4, 5):
        for g in (1, 2):
            ctx = closed_context(p, g)
            pp = ctx.p_prime
            for _ in range(20):
                e1 = to_finite(ctx, *_random_integral(rng, g))
                e2 = to_finite(ctx, *_random_integral(rng, g))
                lhs = monomial_of(ctx, finite_mul(ctx, e1, e2))
                rhs = _compose(monomial_of(ctx, e1), monomial_of(ctx, e2))
                assert lhs == rhs


def test_monomial_as_map_multiplies_like_compose():
    for p, g in ((3, 1), (4, 2), (5, 1)):
        ctx = closed_context(p, g)
        rng = random.Random(p + g)
        for _ in range(5):
            a = monomial_of(ctx, to_finite(ctx, *_random_integral(rng, g)))
            b = monomial_of(ctx, to_finite(ctx, *_random_integral(rng, g)))
            m = a.as_map()
            assert m == {(t, c): q_power(p, e)
                         for c, (t, e) in a.as_dict().items()}
            assert compose_maps(m, b.as_map()) == _compose(a, b).as_map()


def test_central_scalar_and_action():
    for p in (3, 4):
        ctx = closed_context(p, 1)
        q = q_power(p, 1)
        vec = {c: one(field_order(p)) for c in ctx.labels()}
        out = schrodinger_act(ctx, (1, (0,), (0,)), vec)
        assert out == {c: q for c in ctx.labels()}
        # translation permutes the basis with no phase
        out = schrodinger_act(ctx, (0, (0,), (1,)), {(0,): one(field_order(p))})
        assert out == {(1 % ctx.p_prime,): one(field_order(p))}
        # modulation phases the basis with no permutation
        out = schrodinger_act(ctx, (0, (1,), (0,)), {(1,): one(field_order(p))})
        assert out == {(1,): q_power(p, 2)}


def _apply_reference(op, vec):
    """``MonomialOp.apply`` as it was before ``schrodinger_act`` went
    through ``apply_map``."""
    out = {}
    for c, t, e in op.entries:
        coeff = vec.get(c)
        if coeff is None:
            continue
        term = coeff * q_power(op.p, e)
        if t in out:
            out[t] = out[t] + term
        else:
            out[t] = term
    return {c: v for c, v in out.items() if v != 0}


def test_schrodinger_act_matches_the_reference():
    rng = random.Random(25)
    for p in (3, 4, 5, 8, 12, 13):
        M = field_order(p)
        for g in (1, 2):
            ctx = closed_context(p, g)
            labs = ctx.labels()
            for _ in range(6):
                fin = to_finite(ctx, *_random_integral(rng, g))
                vec = {c: q_power(p, rng.randrange(p)) * rng.randint(-2, 2)
                       + CycNum(M, [rng.randint(-1, 1) for _ in range(
                           len(one(M).num))])
                       for c in rng.sample(labs, min(5, len(labs)))}
                got = schrodinger_act(ctx, fin, vec)
                ref = _apply_reference(monomial_of(ctx, fin), vec)
                assert list(got) == list(ref)
                assert all((got[c].num, got[c].den) == (ref[c].num, ref[c].den)
                           for c in got)


def test_right_action_is_antihomomorphism():
    rng = random.Random(25)
    for p in (3, 4):
        corr = cylinder_correspondence(
            _random_symplectic(rng, 1), standard_lagrangian(1), standard_dual(1)
        )
        ctx_c = correspondence_context(p, corr)
        ctx_m = closed_context(p, 1)
        for _ in range(25):
            h1 = _random_integral(rng, 1)
            h2 = _random_integral(rng, 1)
            lhs = right_act_boundary(ctx_c, integral_mul(ctx_m, h1, h2))
            rhs = finite_mul(
                ctx_c,
                right_act_boundary(ctx_c, h2),
                right_act_boundary(ctx_c, h1),
            )
            assert lhs == rhs


def _as_dense(matrix, pp, g_out, g_in):
    out = {}
    for z in itertools.product(range(pp), repeat=g_out):
        for w in itertools.product(range(pp), repeat=g_in):
            v = matrix.get((z, w), 0)
            if v:
                out[(z, w)] = v
    return out


def test_oracle_identity_cylinder():
    for p in (3, 4):
        corr = cylinder_correspondence(
            identity_matrix(2), standard_lagrangian(1), standard_dual(1)
        )
        M = induced_map_oracle(p, corr)
        pp = p_prime(p)
        unit = one(field_order(p))
        for k in range(pp):
            assert M[((k,), (k,))] == unit
        assert all(v == 0 for (z, w), v in M.items() if z != w)


def test_oracle_cylinder_is_identity_in_pushed_frame():
    rng = random.Random(26)
    for p in (3, 4):
        for g in (1, 2):
            corr = cylinder_correspondence(
                _random_symplectic(rng, g),
                standard_lagrangian(g),
                standard_dual(g),
            )
            M = induced_map_oracle(p, corr)
            pp = p_prime(p)
            unit = one(field_order(p))
            for c in itertools.product(range(pp), repeat=g):
                assert M[(c, c)] == unit
            assert all(v == 0 for (z, w), v in M.items() if z != w)


def test_oracle_index1_appends_zero_label():
    for p in (3, 4):
        corr = index1_correspondence(standard_lagrangian(1), standard_dual(1))
        M = induced_map_oracle(p, corr)
        pp = p_prime(p)
        unit = one(field_order(p))
        for x in range(pp):
            assert M[((x, 0), (x,))] == unit
        assert all(v == 0 for (z, w), v in M.items() if z != (w[0], 0))


def test_oracle_index2_frozen_values():
    # gamma = a + b at p = 3: b_k -> q^(-k^2)
    M = induced_map_oracle(3, index2_correspondence(1, 0, 1, 1))
    assert M[((), (0,))] == one(24)
    assert M[((), (1,))] == q_power(3, 2)
    assert M[((), (2,))] == q_power(3, 2)
    # gamma = 2a + 3b at p = 5: b_k -> q^(k^2)
    M = induced_map_oracle(5, index2_correspondence(1, 0, 2, 3))
    for k in range(5):
        assert M[((), (k,))] == q_power(5, k * k)
    # gamma = meridian: the label-0 delta
    M = induced_map_oracle(3, index2_correspondence(1, 0, 1, 0))
    assert M[((), (0,))] == one(24)
    assert M.get(((), (1,)), 0) == 0 and M.get(((), (2,)), 0) == 0


def test_oracle_index2_higher_genus_acts_per_handle():
    for p in (3, 4):
        pp = p_prime(p)
        unit = one(field_order(p))
        M = induced_map_oracle(p, index2_correspondence(2, 0, 1, 0))
        for x in range(pp):
            assert M[((x,), (0, x))] == unit
        for (z, w), v in M.items():
            if v:
                assert w[0] % pp == 0 and z == (w[1],)


def test_oracle_cancellation_is_identity():
    for p in (3, 4):
        pp = p_prime(p)
        M1 = induced_map_oracle(
            p, index1_correspondence(standard_lagrangian(1), standard_dual(1))
        )
        M2 = induced_map_oracle(p, index2_correspondence(2, 1, 1, 0))
        unit = one(field_order(p))
        for y in range(pp):
            for z in range(pp):
                total = 0
                for mid in itertools.product(range(pp), repeat=2):
                    a = M1.get((mid, (y,)), 0)
                    b = M2.get(((z,), mid), 0)
                    if a and b:
                        total = total + a * b if total else a * b
                expected = unit if y == z else 0
                assert total == expected


def test_elimination_inverts_each_distinct_pivot_once(monkeypatch):
    # every pivot value reaches CycNum.inverse unless it was inverted
    # before in the same elimination, so the calls are the distinct pivot
    # values exactly when no value is inverted twice
    inverted = []
    reference = CycNum.inverse

    def counting(self):
        inverted.append(self)
        return reference(self)

    rng = random.Random(26)
    genus2 = CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    torus = CobObject(1, ((1, 0),))
    ctx4 = canonical_context(4, genus2)
    ctx5 = canonical_context(5, torus)
    F = _random_symplectic(rng, 2)
    cases = (
        (4, index2_correspondence(2, 0, 1, 2, ctx4.L, ctx4.Ldual)),
        (4, cylinder_correspondence(F, ctx4.L, ctx4.Ldual)),
        (5, index2_correspondence(1, 0, 1, 1, ctx5.L, ctx5.Ldual)),
    )
    monkeypatch.setattr(CycNum, "inverse", counting)
    for p, corr in cases:
        inverted.clear()
        dim = heisenberg.bimodule_quotient_dim(p, corr)
        pairs = p_prime(p) ** (2 * corr.g_minus + corr.g_plus)
        assert dim == p_prime(p) ** corr.g_plus
        assert len(inverted) == len(set(inverted)), (p, corr)
        # the pivots repeat their values, so the memo saves inversions
        assert len(inverted) < pairs - dim
    monkeypatch.undo()
    # the elimination still gives the closed route's maps
    # (between carried frames a cylinder's map is the identity)
    assert induced_map_oracle(4, cases[1][1]) == identity_map(ctx4)
    assert (_surgery_map(5, ctx5, 0, 1, 1, "oracle")
            == _surgery_map(5, ctx5, 0, 1, 1, "closed"))


def test_commutant_dimensions():
    for p in (3, 4):
        ctx = closed_context(p, 1)
        pp = ctx.p_prime
        gens = [
            monomial_of(ctx, to_finite(ctx, 0, (1, 0))),
            monomial_of(ctx, to_finite(ctx, 0, (0, 1))),
        ]
        assert commutant_dim(gens, ctx.labels()) == 1
    # a lone translation commutes with every circulant
    ctx = closed_context(3, 1)
    shift = monomial_of(ctx, to_finite(ctx, 0, (0, 1)))
    assert commutant_dim([shift], ctx.labels()) == 3


def test_labels_order():
    assert labels(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert labels(3, 0) == [()]


def test_doctests():
    failures, _ = doctest.testmod(heisenberg)
    assert failures == 0
