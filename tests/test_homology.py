import doctest
import random
from math import gcd

from abtqft import homology
from abtqft.homology import (
    Correspondence,
    boundary_intersection,
    compose_correspondences,
    cylinder_correspondence,
    hnf,
    identity_matrix,
    index1_correspondence,
    index2_correspondence,
    intersection,
    is_lagrangian,
    is_symplectic,
    lagrangian_compose,
    lattice_intersect,
    left_kernel,
    mat_mul,
    row_span_equal,
    saturate,
    solve_left,
    standard_dual,
    standard_lagrangian,
    symplectic_complete,
    symplectic_dual_basis,
)


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
    assert row_span_equal(corr.basis, ((-1, 0, 1, 0), (0, -1, 0, 1)))
    assert corr.plus_block == (1,)
    assert corr.target_L == standard_lagrangian(1)


def test_cylinder_composition_is_functorial():
    rng = random.Random(15)
    for _ in range(15):
        g = rng.randint(1, 2)
        F = _random_symplectic(rng, g)
        G = _random_symplectic(rng, g)
        L, W = standard_lagrangian(g), standard_dual(g)
        cf = cylinder_correspondence(F, L, W)
        # the middle context is the pushed one
        cg = cylinder_correspondence(G, cf.target_L, cf.target_Ldual)
        direct = cylinder_correspondence(mat_mul(F, G), L, W)
        comp = compose_correspondences(cg, cf)
        assert comp.basis == direct.basis


def test_index1_from_empty():
    corr = index1_correspondence((), ())
    assert corr.basis == ((1, 0),)
    assert corr.adapted_dual == ((0, 1),)
    assert corr.g_minus == 0 and corr.g_plus == 1


def test_index2_genus_one():
    corr = index2_correspondence(1, 0, 2, 3)
    assert corr.basis == ((2, 3),)
    assert corr.adapted_dual == ((-1, -2),)
    assert corr.g_plus == 0
    assert lagrangian_compose(corr, standard_lagrangian(1)) == ()


def test_index1_index2_cancellation():
    # adding a handle and immediately surgering its meridian is a cylinder
    for g in (0, 1, 2):
        L, W = standard_lagrangian(g), standard_dual(g)
        i1 = index1_correspondence(L, W)
        i2 = index2_correspondence(g + 1, g, 1, 0)
        comp = compose_correspondences(i2, i1)
        if g:
            ident = cylinder_correspondence(identity_matrix(2 * g), L, W)
            assert comp.basis == ident.basis
        else:
            assert comp.basis == ()


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


def test_compose_associativity():
    rng = random.Random(17)
    for _ in range(10):
        g = rng.randint(1, 2)
        L, W = standard_lagrangian(g), standard_dual(g)
        c1 = cylinder_correspondence(_random_symplectic(rng, g), L, W)
        c2 = index1_correspondence(L, W)
        c3 = index2_correspondence(g + 1, rng.randint(0, g), 1, 0)
        lhs = compose_correspondences(c3, compose_correspondences(c2, c1))
        rhs = compose_correspondences(compose_correspondences(c3, c2), c1)
        assert lhs.basis == rhs.basis
        assert isinstance(lhs, Correspondence)


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


def test_doctests():
    failures, _ = doctest.testmod(homology)
    assert failures == 0
