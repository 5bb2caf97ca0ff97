import doctest
import random
from math import gcd

from abtqft import homology
from abtqft.homology import (
    Correspondence,
    _check_adapted,
    _freeze,
    _pad,
    boundary_intersection,
    combine,
    cylinder_correspondence,
    cylinder_frame,
    hnf,
    identity_matrix,
    index1_correspondence,
    index1_frame,
    index2_correspondence,
    intersection,
    is_lagrangian,
    is_symplectic,
    lagrangian_compose,
    lattice_intersect,
    left_kernel,
    mat_mul,
    saturate,
    solve_left,
    standard_dual,
    standard_lagrangian,
    symplectic_complete,
    symplectic_dual_basis,
)
from reference import row_span_equal


def _random_transvection(rng, g):
    # x -> x + (x.v) v is symplectic for every integer v
    n = 2 * g
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(v):
            break
    basis = identity_matrix(n)
    return tuple(
        tuple(basis[i][j] + intersection(basis[i], v) * v[j] for j in range(n))
        for i in range(n)
    )


def _random_symplectic(rng, g, factors=4):
    F = identity_matrix(2 * g)
    for _ in range(factors):
        F = mat_mul(F, _random_transvection(rng, g))
    return F


def _random_lagrangian(rng, g):
    F = _random_symplectic(rng, g)
    return hnf(mat_mul(standard_lagrangian(g), F))


def test_intersection_form():
    assert intersection((1, 0), (0, 1)) == 1
    assert intersection((0, 1), (1, 0)) == -1
    rng = random.Random(11)
    for _ in range(50):
        g = rng.randint(1, 3)
        x = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        y = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        z = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        assert intersection(x, y) == -intersection(y, x)
        s = tuple(a + b for a, b in zip(y, z))
        assert intersection(x, s) == intersection(x, y) + intersection(x, z)


def test_hnf_canonical():
    assert hnf(((2, 4), (1, 1))) == ((1, 1), (0, 2))
    assert hnf(((0, 0), (0, 0))) == ()
    assert hnf(((6, 0), (0, 0), (4, 2))) == ((2, 4), (0, 6))
    rng = random.Random(5)
    for _ in range(40):
        rows = [
            tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(3)
        ]
        H = hnf(rows)
        # canonicality: recomputing from a reshuffled generating set agrees
        rng.shuffle(rows)
        rows.append(tuple(a + b for a, b in zip(rows[0], rows[-1])))
        assert hnf(rows) == H


def test_left_kernel_annihilates():
    rng = random.Random(6)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = tuple(
            tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)
        )
        K = left_kernel(A)
        for row in K:
            assert all(v == 0 for v in mat_mul((row,), A)[0])
        assert len(K) + len(hnf(A)) == n


def test_solve_left():
    A = ((2, 0), (0, 3))
    assert solve_left(A, (4, 9)) == (2, 3)
    assert solve_left(A, (1, 0)) is None
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = tuple(
            tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)
        )
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        b = mat_mul((x,), A)[0]
        sol = solve_left(A, b)
        assert sol is not None
        assert mat_mul((sol,), A)[0] == tuple(b)


def test_lattice_intersect():
    assert lattice_intersect(((2, 0),), ((3, 0),)) == ((6, 0),)
    got = lattice_intersect(((1, 0), (0, 2)), ((2, 0), (0, 1)))
    assert got == ((2, 0), (0, 2))
    rng = random.Random(8)
    for _ in range(20):
        A = tuple(
            tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)
        )
        B = tuple(
            tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)
        )
        M = lattice_intersect(A, B)
        for row in M:
            assert solve_left(A, row) is not None
            assert solve_left(B, row) is not None


def test_saturate():
    assert saturate(((2, 4),)) == ((1, 2),)
    assert saturate(((2, 0), (0, 3))) == ((1, 0), (0, 1))
    rng = random.Random(9)
    for _ in range(30):
        A = tuple(
            tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2)
        )
        S = saturate(A)
        assert saturate(S) == S
        for row in hnf(A):
            assert solve_left(S, row) is not None


def test_is_lagrangian():
    assert is_lagrangian(standard_lagrangian(2), 2)
    assert is_lagrangian(standard_dual(3), 3)
    assert is_lagrangian(((1, 2),), 1)
    assert not is_lagrangian(((2, 4),), 1)          # not primitive
    assert not is_lagrangian(((1, 0), (0, 1)), 1)   # wrong rank
    assert is_lagrangian(((1, 0, 0, 0), (0, 0, 0, 1)), 2)  # a_1, b_2
    assert not is_lagrangian(
        ((1, 0, 0, 0), (0, 0, 1, 0)), 2
    )  # a_1 . b_1 = 1
    rng = random.Random(10)
    for _ in range(25):
        g = rng.randint(1, 3)
        assert is_lagrangian(_random_lagrangian(rng, g), g)


def test_symplectic_matrices():
    assert is_symplectic(identity_matrix(4))
    assert not is_symplectic(((1, 0), (0, 2)))
    # exact and mod-p checks share one Gram-matrix test
    assert not is_symplectic(((1, 0), (0, 4)))
    assert homology._is_symplectic_basis(((1, 0), (0, 4)), 3)
    assert not homology._is_symplectic_basis(((1, 0), (0, 4)), 5)
    assert not homology._is_symplectic_basis(((1, 0, 0), (0, 1, 0)), 3)
    rng = random.Random(12)
    for _ in range(20):
        g = rng.randint(1, 3)
        assert is_symplectic(_random_symplectic(rng, g))


def test_symplectic_dual_basis():
    U, W = symplectic_dual_basis(((1, 2),), 1)
    assert U == ((1, 2),)
    assert intersection(U[0], W[0]) == 1
    rng = random.Random(13)
    for _ in range(25):
        g = rng.randint(1, 3)
        L = _random_lagrangian(rng, g)
        U, W = symplectic_dual_basis(L, g)
        assert hnf(U) == L
        assert is_lagrangian(W, g)
        for i in range(g):
            for j in range(g):
                assert intersection(U[i], W[j]) == (1 if i == j else 0)
    try:
        symplectic_dual_basis(((2, 4),), 1)
    except ValueError:
        pass
    else:
        raise AssertionError("non-primitive input must be rejected")


def test_symplectic_complete():
    delta, change = symplectic_complete((2, 3))
    assert delta == (1, 2)
    assert change == ((2, 1), (3, 2))
    assert symplectic_complete((1, 0))[0] == (0, 1)
    rng = random.Random(14)
    for _ in range(60):
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        if gcd(a, b) != 1:
            continue
        (u, v), _ = symplectic_complete((a, b))
        assert a * v - b * u == 1
        if a:
            assert 0 <= u < abs(a)
        else:
            assert 0 <= v < abs(b)


def test_cylinder_correspondence_identity():
    corr = cylinder_correspondence(
        identity_matrix(2), standard_lagrangian(1), standard_dual(1)
    )
    assert row_span_equal(hnf(corr.adapted), ((-1, 0, 1, 0), (0, -1, 0, 1)))
    assert corr.plus_block == (1,)
    assert corr.target_L == standard_lagrangian(1)


def test_index1_from_empty():
    corr = index1_correspondence((), ())
    assert hnf(corr.adapted) == ((1, 0),)
    assert corr.adapted_dual == ((0, 1),)
    assert corr.g_minus == 0 and corr.g_plus == 1


def test_index2_genus_one():
    corr = index2_correspondence(1, 0, 2, 3)
    assert hnf(corr.adapted) == ((2, 3),)
    assert corr.adapted_dual == ((-1, -2),)
    assert corr.g_plus == 0
    assert lagrangian_compose(corr, standard_lagrangian(1)) == ()


def test_lagrangian_compose_properties():
    rng = random.Random(16)
    for _ in range(20):
        g = rng.randint(1, 2)
        F = _random_symplectic(rng, g)
        L = _random_lagrangian(rng, g)
        corr = cylinder_correspondence(F, standard_lagrangian(g), standard_dual(g))
        out = lagrangian_compose(corr, L)
        assert is_lagrangian(out, g)
        assert out == hnf(mat_mul(L, F))  # cylinders push forward
        i1 = index1_correspondence(standard_lagrangian(g), standard_dual(g))
        grown = lagrangian_compose(i1, L)
        assert is_lagrangian(grown, g + 1)


def test_adapted_bases_pair_to_identity():
    rng = random.Random(18)
    for _ in range(10):
        g = rng.randint(1, 2)
        L = _random_lagrangian(rng, g)
        U, W = symplectic_dual_basis(L, g)
        corr = cylinder_correspondence(_random_symplectic(rng, g), U, W)
        n = corr.g_minus + corr.g_plus
        for i in range(n):
            for j in range(n):
                got = boundary_intersection(
                    corr.adapted[i], corr.adapted_dual[j],
                    corr.g_minus, corr.g_plus,
                )
                assert got == (1 if i == j else 0)


# -- references: the row combinations and the three constructors as they
# -- were written before they shared ``combine`` and one builder


def _combine_reference(coeffs, rows, width):
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows))
                 for j in range(width))


def test_combine_matches_the_reference():
    rng = random.Random(19)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(0, 5)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(m))
                     for _ in range(n))
        coeffs = tuple(rng.choice((0, 0, rng.randint(-5, 5)))
                       for _ in range(n))
        got = combine(coeffs, rows)
        assert got == _combine_reference(coeffs, rows, m)
        assert all(type(c) is int for c in got)
        assert got == mat_mul((coeffs,), rows)[0]
    assert combine((0, 0), ((1, 2), (3, 4))) == (0, 0)
    assert combine((), ()) == ()


def test_solve_left_of_rank_zero():
    assert solve_left(((0, 0, 0), (0, 0, 0)), (0, 0, 0)) == (0, 0)
    assert solve_left(((0, 0),), (0, 1)) is None


def _cylinder_reference(F, L_rows, Ldual_rows):
    F = _freeze(F)
    g = len(F) // 2
    U, W = _freeze(L_rows), _freeze(Ldual_rows)
    apply = lambda v: tuple(mat_mul((v,), F)[0])
    rows = [
        _pad(W[i], tuple(-c for c in apply(W[i])), g, g) for i in range(g)
    ] + [
        _pad(tuple(-c for c in U[i]), apply(U[i]), g, g) for i in range(g)
    ]
    dual = [
        _pad(U[i], None, g, g) for i in range(g)
    ] + [
        _pad(None, apply(W[i]), g, g) for i in range(g)
    ]
    corr = Correspondence(
        g_minus=g, g_plus=g, adapted=_freeze(rows),
        adapted_dual=_freeze(dual), plus_block=tuple(range(g, 2 * g)),
        source_L=U, source_Ldual=W,
        target_L=tuple(apply(U[i]) for i in range(g)),
        target_Ldual=tuple(apply(W[i]) for i in range(g)),
    )
    _check_adapted(corr)
    return corr


def _embed_reference(v, g, pos):
    a, b = tuple(v[:g]), tuple(v[g:])
    return a[:pos] + (0,) + a[pos:] + b[:pos] + (0,) + b[pos:]


def _index1_reference(L_rows, Ldual_rows, position=None):
    U, W = _freeze(L_rows), _freeze(Ldual_rows)
    g = len(U)
    gp = g + 1
    pos = g if position is None else position
    mu = tuple(1 if k == pos else 0 for k in range(2 * gp))
    lam = tuple(1 if k == gp + pos else 0 for k in range(2 * gp))
    emb = lambda v: _embed_reference(v, g, pos)
    rows = [
        _pad(W[i], tuple(-c for c in emb(W[i])), g, gp) for i in range(g)
    ] + [
        _pad(tuple(-c for c in U[i]), emb(U[i]), g, gp) for i in range(g)
    ] + [_pad(None, mu, g, gp)]
    dual = [
        _pad(U[i], None, g, gp) for i in range(g)
    ] + [
        _pad(None, emb(W[i]), g, gp) for i in range(g)
    ] + [_pad(None, lam, g, gp)]
    slot_rows = [g + j for j in range(pos)] + [2 * g] + [
        g + j for j in range(pos, g)
    ]
    slot_L = [emb(U[j]) for j in range(pos)] + [mu] + [
        emb(U[j]) for j in range(pos, g)
    ]
    slot_W = [emb(W[j]) for j in range(pos)] + [lam] + [
        emb(W[j]) for j in range(pos, g)
    ]
    corr = Correspondence(
        g_minus=g, g_plus=gp, adapted=_freeze(rows),
        adapted_dual=_freeze(dual), plus_block=tuple(slot_rows),
        source_L=U, source_Ldual=W, target_L=tuple(slot_L),
        target_Ldual=tuple(slot_W),
    )
    _check_adapted(corr)
    return corr


def _index2_reference(g, k, alpha, beta, L_rows=None, Ldual_rows=None):
    if L_rows is None:
        L_rows = standard_lagrangian(g)
        Ldual_rows = standard_dual(g)
    U, W = _freeze(L_rows), _freeze(Ldual_rows)
    delta2, _ = symplectic_complete((alpha, beta))
    gp = g - 1
    comb = lambda ca, cb: tuple(
        ca * x + cb * y for x, y in zip(U[k], W[k])
    )
    gamma = comb(alpha, beta)
    delta = comb(delta2[0], delta2[1])
    keep = [i for i in range(g) if i != k]
    ta = lambda j: tuple(1 if c == j else 0 for c in range(2 * gp))
    tb = lambda j: tuple(1 if c == gp + j else 0 for c in range(2 * gp))
    rows = [
        _pad(W[i], tuple(-c for c in tb(j)), g, gp)
        for j, i in enumerate(keep)
    ] + [
        _pad(tuple(-c for c in U[i]), ta(j), g, gp)
        for j, i in enumerate(keep)
    ] + [_pad(gamma, None, g, gp)]
    dual = [
        _pad(U[i], None, g, gp) for i in keep
    ] + [
        _pad(None, tb(j), g, gp) for j in range(gp)
    ] + [_pad(tuple(-c for c in delta), None, g, gp)]
    corr = Correspondence(
        g_minus=g, g_plus=gp, adapted=_freeze(rows),
        adapted_dual=_freeze(dual), plus_block=tuple(range(gp, 2 * gp)),
        source_L=U, source_Ldual=W,
        target_L=tuple(ta(j) for j in range(gp)),
        target_Ldual=tuple(tb(j) for j in range(gp)),
    )
    _check_adapted(corr)
    return corr


GAMMAS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (-2, 5))


def _same_fields(got, ref):
    for name in Correspondence.__slots__:
        assert getattr(got, name) == getattr(ref, name), name
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name


def _same_frame(frame, corr):
    # the frame a program's walk carries is the correspondence's target
    target = (corr.target_L, corr.target_Ldual)
    assert frame == target and repr(frame) == repr(target)


def test_constructors_match_the_references_field_by_field():
    rng = random.Random(20)
    count = 0
    for g in range(4):
        frames = [(standard_lagrangian(g), standard_dual(g))]
        for _ in range(6 if g else 0):
            F = _random_symplectic(rng, g)
            frames.append((mat_mul(standard_lagrangian(g), F),
                           mat_mul(standard_dual(g), F)))
        twists = [identity_matrix(2 * g)] + [
            _random_symplectic(rng, g, factors)
            for factors in ((1, 2, 4) if g else ())]
        for U, W in frames:
            for F in twists if g else ():
                corr = cylinder_correspondence(F, U, W)
                _same_fields(corr, _cylinder_reference(F, U, W))
                _same_frame(cylinder_frame(F, U, W), corr)
                count += 1
            for pos in list(range(g + 1)) + [None]:
                corr = index1_correspondence(U, W, pos)
                _same_fields(corr, _index1_reference(U, W, pos))
                _same_frame(index1_frame(U, W, pos), corr)
                count += 1
            for k in range(g):
                for alpha, beta in GAMMAS:
                    _same_fields(
                        index2_correspondence(g, k, alpha, beta, U, W),
                        _index2_reference(g, k, alpha, beta, U, W))
                    count += 1
            if g:
                _same_fields(index2_correspondence(g, 0, 1, 0),
                             _index2_reference(g, 0, 1, 0))
                count += 1
    assert count > 300


def test_doctests():
    failures, _ = doctest.testmod(homology)
    assert failures == 0
