"""Integer symplectic lattices, Lagrangian sublattices, and Lagrangian
correspondences between surface homology groups.

Homology classes are integer row vectors in coordinates
``(a_1, ..., a_g, b_1, ..., b_g)`` with the intersection form
``a_i . b_i = 1``.  Sublattices are stored as Hermite-normal-form row
bases, which gives decidable equality.  A Lagrangian is primitive when
its transposed Hermite basis has the identity as Hermite form, and its
dual basis is read off the transform of one more Hermite form; the
double-kernel saturation (primitive hull) serves only
``lagrangian_compose``, so no Smith-form machinery is needed.
Maps act on row vectors from the right: the matrix of ``g o f`` is
``F @ G``.

A boundary ``-Sigma_- + Sigma_+`` carries the difference form; the
correspondence constructors of the three simple cobordisms return bases
of ``L_C`` together with a complementary basis in *pairing-identity
order* (the i-th basis vector of the complement pairs to 1 with the
i-th vector of ``L_C`` and to 0 with the others), which is exactly what
a Heisenberg context needs.  Correspondences are never composed: a
program carries its frame through ``cylinder_frame``, ``index1_frame``
and the surgery projection of ``cobordism``.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .value import Value, set_field

__all__ = [
    "intersection",
    "boundary_intersection",
    "standard_lagrangian",
    "standard_dual",
    "mat_mul",
    "mat_transpose",
    "combine",
    "identity_matrix",
    "hnf",
    "left_kernel",
    "lattice_intersect",
    "saturate",
    "is_lagrangian",
    "is_symplectic",
    "symplectic_dual_basis",
    "symplectic_complete",
    "Correspondence",
    "cylinder_correspondence",
    "cylinder_frame",
    "index1_correspondence",
    "index1_frame",
    "index2_correspondence",
    "lagrangian_compose",
]


# -- basic integer matrix helpers -----------------------------------------


def _freeze(rows):
    return tuple(tuple(index(c) for c in row) for row in rows)


def mat_transpose(A):
    A = _freeze(A)
    if not A:
        return ()
    return tuple(zip(*A))


def mat_mul(A, B):
    B_t = mat_transpose(B)
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in B_t) for row in A
    )


def combine(coeffs, rows):
    """The integer row sum_i coeffs[i] * rows[i]; a row vector times a
    matrix is ``combine(v, F)``.

    >>> combine((2, -1), ((1, 0, 3), (0, 1, 1)))
    (2, -1, 5)
    >>> combine((), ())
    ()
    """
    out = [0] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return tuple(out)


def identity_matrix(n):
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


# -- symplectic form ------------------------------------------------------


def intersection(x, y):
    """Intersection number x.y in (a_1..a_g, b_1..b_g) coordinates.

    >>> intersection((1, 0), (0, 1))   # a_1 . b_1
    1
    >>> intersection((0, 1), (1, 0))
    -1
    >>> intersection((1, 0, 0, 0), (0, 1, 0, 0))   # a_1 . a_2
    0
    """
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("vectors must have equal even length")
    g = len(x) // 2
    return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def boundary_intersection(x, y, g_minus, g_plus):
    """The difference form on -Sigma_- + Sigma_+ applied to two vectors
    of length 2*g_minus + 2*g_plus (minus block first)."""
    n = 2 * g_minus
    first = intersection(x[:n], y[:n]) if g_minus else 0
    second = intersection(x[n:], y[n:]) if g_plus else 0
    return -first + second


def standard_lagrangian(g):
    """Meridian rows (a_1, ..., a_g)."""
    return tuple(
        tuple(1 if j == i else 0 for j in range(2 * g)) for i in range(g)
    )


def standard_dual(g):
    """Longitude rows (b_1, ..., b_g)."""
    return tuple(
        tuple(1 if j == g + i else 0 for j in range(2 * g)) for i in range(g)
    )


# -- Hermite normal form and friends --------------------------------------


def hnf(rows, with_transform=False):
    """Row Hermite normal form with positive pivots and reduced entries
    above each pivot; zero rows are dropped from the basis.

    With ``with_transform`` also returns the unimodular U with
    ``U @ rows == stacked(H, zero rows)``, and the rank: the row
    operations then run over [rows | I], and over the rows alone
    otherwise.  Rows of different lengths raise ``ValueError``.

    >>> hnf(((2, 4), (1, 1)))
    ((1, 1), (0, 2))
    >>> hnf(((2, 4), (1, 1)), with_transform=True)
    (((1, 1), (0, 2)), ((0, 1), (1, -2)), 2)
    """
    A = [list(r) for r in _freeze(rows)]
    n = len(A)
    m = len(A[0]) if n else 0
    if any(len(row) != m for row in A):
        raise ValueError("rows must have equal length")
    if with_transform:
        for i, row in enumerate(A):
            row.extend(int(i == j) for j in range(n))
    r = 0
    for c in range(m):
        while True:
            nz = [i for i in range(r, n) if A[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
            pivot = A[r]
            done = True
            for i in range(r + 1, n):
                if A[i][c]:
                    qd = A[i][c] // pivot[c]
                    if qd:
                        A[i] = [a - qd * b for a, b in zip(A[i], pivot)]
                    if A[i][c]:
                        done = False
            if done:
                break
        if r < n and A[r][c]:
            if A[r][c] < 0:
                A[r] = [-v for v in A[r]]
            pivot = A[r]
            for i in range(r):
                qd = A[i][c] // pivot[c]
                if qd:
                    A[i] = [a - qd * b for a, b in zip(A[i], pivot)]
            r += 1
    basis = tuple(tuple(row[:m]) for row in A[:r])
    if with_transform:
        return basis, tuple(tuple(row[m:]) for row in A), r
    return basis


def left_kernel(A):
    """Canonical basis of {x : x @ A == 0}.

    >>> left_kernel(((2, 4), (1, 2)))
    ((1, -2),)
    """
    A = _freeze(A)
    if not A:
        return ()
    _, U, rank = hnf(A, with_transform=True)
    return hnf(U[rank:])


def lattice_intersect(A, B):
    """Canonical basis of the intersection of the two row lattices.

    >>> lattice_intersect(((2, 0),), ((3, 0),))
    ((6, 0),)
    """
    A = _freeze(A)
    B = _freeze(B)
    if not A or not B:
        return ()
    kernel = left_kernel(A + B)
    return hnf([combine(row[:len(A)], A) for row in kernel])


def saturate(A):
    """Primitive hull of a row lattice: the integer points of its
    rational span, computed with a double kernel.

    >>> saturate(((2, 4),))
    ((1, 2),)
    """
    A = _freeze(A)
    if not A:
        return ()
    nullspace = left_kernel(mat_transpose(A))
    if not nullspace:
        return identity_matrix(len(A[0]))
    return left_kernel(mat_transpose(nullspace))


# -- Lagrangian predicates ------------------------------------------------


def is_lagrangian(basis, g):
    """True iff the rows span a rank-g isotropic direct summand of Z^2g.

    A rank-g row lattice is a direct summand exactly when the columns of
    its Hermite form span Z^g, that is when the transposed form has the
    identity as its own Hermite form.

    >>> is_lagrangian(standard_lagrangian(2), 2)
    True
    >>> is_lagrangian(((1, 0), (0, 1)), 1)
    False
    >>> is_lagrangian(((1, 2),), 1)
    True
    >>> is_lagrangian(((2, 4),), 1)
    False
    """
    basis = _freeze(basis)
    if any(len(row) != 2 * g for row in basis):
        return False
    H = hnf(basis)
    return (_isotropic_of_rank(H, g)
            and hnf(mat_transpose(H)) == identity_matrix(g))


def _isotropic_of_rank(H, g):
    """Are the rows of a Hermite basis g vectors that pair to zero?"""
    return len(H) == g and not any(
        intersection(H[i], H[j]) for i in range(g) for j in range(i + 1, g))


def _is_symplectic_basis(rows, modulus=None, form=intersection):
    """Is the Gram matrix form(rows[i], rows[j]) the standard one of
    (a_1..a_g, b_1..b_g), exactly or modulo ``modulus``?

    For a square matrix F this says F J F^T = J.  For a frame L + Ldual
    it says both halves are isotropic and L[i] . Ldual[j] = delta_ij;
    checked exactly, the rows are then a basis of the lattice, since
    det(rows)^2 times the determinant 1 of the form is det J = 1.
    ``form`` must be alternating, so the entries above the diagonal
    decide.
    """
    n = len(rows)
    if n % 2 or any(len(row) != n for row in rows):
        return False
    g = n // 2
    for i in range(n):
        for j in range(i + 1, n):
            diff = form(rows[i], rows[j]) - (1 if j == i + g else 0)
            if modulus is not None:
                diff %= modulus
            if diff:
                return False
    return True


def is_symplectic(F):
    """Does the matrix preserve the intersection form (F J F^T = J)?"""
    return _is_symplectic_basis(_freeze(F))


# -- symplectic bases -----------------------------------------------------


def symplectic_dual_basis(L_rows, g):
    """A complementary Lagrangian basis (w_1..w_g) with u_i . w_j = delta.

    Input rows must span a Lagrangian; the returned pair (U, W) has
    ``U = hnf(L_rows)``, ``U[i] . W[j] = delta_ij``, W isotropic, and
    stacked (U, W) a basis of the full lattice.  The pairing matrix P,
    whose row j holds (U[i] . e_j)_i, has the identity as its Hermite
    form exactly when U is primitive; the first g rows of its transform
    then solve x @ P = e_i, and an isotropy correction along U makes
    them pair to zero.
    """
    U = hnf(L_rows)
    if any(len(u) != 2 * g for u in U) or not _isotropic_of_rank(U, g):
        raise ValueError("input is not a Lagrangian basis")
    # u . a_j = -u_(g+j) and u . b_j = u_j
    pair_matrix = mat_transpose([tuple(-v for v in u[g:]) + u[:g]
                                 for u in U])
    H, T, _ = hnf(pair_matrix, with_transform=True)
    if H != identity_matrix(g):
        raise ValueError("input is not a Lagrangian basis")
    W = T[:g]
    # isotropy correction W' = W + C.U with C - C^T = -S, S = pairwise form
    W2 = tuple(
        combine((1,) + tuple(-intersection(W[i], W[j])
                             for j in range(i + 1, g)), (W[i],) + U[i + 1:])
        for i in range(g)
    )
    if not _is_symplectic_basis(U + W2):
        raise ArithmeticError("dual basis does not complete a symplectic "
                              "basis")
    return U, W2


def symplectic_complete(gamma):
    """For a primitive (alpha, beta) in one handle, a vector delta with
    gamma . delta = 1 and the unimodular column pair (gamma, delta).

    >>> symplectic_complete((1, 0))
    ((0, 1), ((1, 0), (0, 1)))
    >>> symplectic_complete((2, 3))
    ((1, 2), ((2, 1), (3, 2)))
    """
    if len(gamma) != 2:
        raise ValueError("completion works on a single designated handle")
    alpha, beta = gamma
    if gcd(alpha, beta) != 1:
        raise ValueError("surgery class must be primitive")
    # alpha*v - beta*u = 1 via the extended Euclid
    old_r, r = alpha, beta
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qd = old_r // r
        old_r, r = r, old_r - qd * r
        old_s, s = s, old_s - qd * s
        old_t, t = t, old_t - qd * t
    # old_s*alpha + old_t*beta = old_r = +-gcd = +-1
    sign = old_r
    v = sign * old_s
    u = -sign * old_t
    # canonical representative: shift delta by multiples of gamma
    if alpha:
        r = u % abs(alpha)
        k = (u - r) // alpha
    else:
        r = v % abs(beta)
        k = (v - r) // beta
    u -= k * alpha
    v -= k * beta
    if alpha * v - beta * u != 1:
        raise ArithmeticError("completion is not unimodular")
    delta = (u, v)
    change = ((alpha, u), (beta, v))
    return delta, change


# -- correspondences ------------------------------------------------------


class Correspondence(Value):
    """The Lagrangian correspondence of a simple cobordism with a chosen
    complementary basis.

    ``adapted`` and ``adapted_dual`` are ordered bases of L_C and of a
    complement satisfying the pairing identity for the difference form;
    ``plus_block`` indexes the dual rows of the form (0, y) whose plus
    parts are the target dual basis.
    """

    __slots__ = ("g_minus", "g_plus", "adapted", "adapted_dual",
                 "plus_block", "source_L", "source_Ldual", "target_L",
                 "target_Ldual")

    def __init__(self, g_minus, g_plus, adapted, adapted_dual, plus_block,
                 source_L, source_Ldual, target_L, target_Ldual):
        set_field(self, "g_minus", g_minus)
        set_field(self, "g_plus", g_plus)
        set_field(self, "adapted", adapted)
        set_field(self, "adapted_dual", adapted_dual)
        set_field(self, "plus_block", plus_block)
        set_field(self, "source_L", source_L)
        set_field(self, "source_Ldual", source_Ldual)
        set_field(self, "target_L", target_L)
        set_field(self, "target_Ldual", target_Ldual)


def _check_adapted(corr: Correspondence):
    gm, gp = corr.g_minus, corr.g_plus
    rows = corr.adapted
    dual = corr.adapted_dual
    if len(rows) != gm + gp:
        raise ArithmeticError("adapted basis has %d rows, expected %d"
                              % (len(rows), gm + gp))
    if not _is_symplectic_basis(
            tuple(rows) + tuple(dual),
            form=lambda x, y: boundary_intersection(x, y, gm, gp)):
        raise ArithmeticError("adapted bases are not a symplectic basis "
                              "of the boundary")
    for idx in corr.plus_block:
        if any(dual[idx][: 2 * gm]):
            raise ArithmeticError("plus-block dual row %d has a minus part"
                                  % idx)


def _pad(minus_part, plus_part, g_minus, g_plus):
    minus_part = tuple(minus_part) if minus_part else (0,) * (2 * g_minus)
    plus_part = tuple(plus_part) if plus_part else (0,) * (2 * g_plus)
    return minus_part + plus_part


def _neg(v):
    return tuple(-c for c in v)


def _frame_correspondence(U, W, g_plus, graph, extra, plus_block, target):
    """The correspondence of a simple cobordism from the source frame
    (U, W) that carries each frame pair (u, w) of ``graph`` to (u', w'),
    listed as (u, w, u', w').

    L_C holds the graph rows (w, -w') and then (-u, u'); the complement
    holds (u, 0) and then (0, w').  ``extra`` appends at most one padded
    (row, dual row) pair, ``plus_block`` lists the dual rows of the form
    (0, y) and ``target`` is the target frame (L, Ldual)."""
    g = len(U)
    graph = list(graph)
    rows = [_pad(w, _neg(w2), g, g_plus) for _, w, _, w2 in graph] + [
        _pad(_neg(u), u2, g, g_plus) for u, _, u2, _ in graph]
    dual = [_pad(u, None, g, g_plus) for u, _, _, _ in graph] + [
        _pad(None, w2, g, g_plus) for _, _, _, w2 in graph]
    if extra is not None:
        rows.append(extra[0])
        dual.append(extra[1])
    corr = Correspondence(
        g_minus=g,
        g_plus=g_plus,
        adapted=_freeze(rows),
        adapted_dual=_freeze(dual),
        plus_block=tuple(plus_block),
        source_L=U,
        source_Ldual=W,
        target_L=tuple(target[0]),
        target_Ldual=tuple(target[1]),
    )
    _check_adapted(corr)
    return corr


def cylinder_correspondence(F, L_rows, Ldual_rows):
    """Correspondence of the mapping cylinder of the symplectic matrix F,
    adapted to the source pair (L, Ldual):
    L_C = {(-x, f(x))}, complement L_- + f(Ldual)."""
    F = _freeze(F)
    g = len(F) // 2
    if not is_symplectic(F):
        raise ValueError("cylinder matrix does not preserve the form")
    U, W = _freeze(L_rows), _freeze(Ldual_rows)
    fU, fW = cylinder_frame(F, U, W)
    return _frame_correspondence(U, W, g, zip(U, W, fU, fW), None,
                                 range(g, 2 * g), (fU, fW))


def cylinder_frame(F, L_rows, Ldual_rows):
    """The target frame (f(L), f(Ldual)) of the mapping cylinder of F,
    without building its correspondence."""
    return tuple(tuple(combine(v, F) for v in rows)
                 for rows in (L_rows, Ldual_rows))


def _embed_handle(v, g, pos):
    """Push (a, b) coordinates of genus g into genus g+1 with the new
    handle inserted at handle slot ``pos``."""
    a = tuple(v[:g])
    b = tuple(v[g:])
    return a[:pos] + (0,) + a[pos:] + b[:pos] + (0,) + b[pos:]


def index1_frame(L_rows, Ldual_rows, position=None):
    """The target frame of an index-1 surgery, without its
    correspondence: the source frame embedded, with the new meridian mu
    and longitude lambda as the pair at the new slot (default:
    appended)."""
    g = len(L_rows)
    pos = g if position is None else position
    if not (0 <= pos <= g):
        raise ValueError("insertion position out of range")
    rows = [[_embed_handle(v, g, pos) for v in r]
            for r in (L_rows, Ldual_rows)]
    for k, r in zip((pos, g + 1 + pos), rows):
        r.insert(pos, tuple(int(i == k) for i in range(2 * g + 2)))
    return tuple(map(tuple, rows))


def index1_correspondence(L_rows, Ldual_rows, position=None):
    """Correspondence of an index-1 surgery: a new handle appears at
    the given slot (default: appended), with meridian mu added to L_C
    and longitude lambda to the complement."""
    U, W = _freeze(L_rows), _freeze(Ldual_rows)
    g = len(U)
    gp = g + 1
    target = index1_frame(U, W, position)
    pos = g if position is None else position
    mu, lam = (r[pos] for r in target)
    eU, eW = (r[:pos] + r[pos + 1:] for r in target)
    # dual rows of plus type, listed in target handle-slot order
    slot_rows = [g + j for j in range(pos)] + [2 * g] + [
        g + j for j in range(pos, g)
    ]
    return _frame_correspondence(
        U, W, gp, zip(U, W, eU, eW),
        (_pad(None, mu, g, gp), _pad(None, lam, g, gp)), slot_rows, target)


def index2_correspondence(g, k, alpha, beta, L_rows=None, Ldual_rows=None):
    """Correspondence of an index-2 surgery along gamma = alpha*u_k +
    beta*w_k, where (u_i, w_i) is the working frame of the source
    surface (standard meridians and longitudes by default).  The pair k
    disappears; the target carries the standard frame of genus g-1."""
    if not (0 <= k < g):
        raise ValueError("handle index out of range")
    if L_rows is None:
        L_rows = standard_lagrangian(g)
        Ldual_rows = standard_dual(g)
    U, W = _freeze(L_rows), _freeze(Ldual_rows)
    delta2, _ = symplectic_complete((alpha, beta))
    gp = g - 1
    gamma = combine((alpha, beta), (U[k], W[k]))
    delta = combine(delta2, (U[k], W[k]))
    keep = [i for i in range(g) if i != k]
    target = (standard_lagrangian(gp), standard_dual(gp))
    graph = zip([U[i] for i in keep], [W[i] for i in keep], *target)
    extra = (_pad(gamma, None, g, gp), _pad(_neg(delta), None, g, gp))
    return _frame_correspondence(U, W, gp, graph, extra, range(gp, 2 * gp),
                                 target)


def lagrangian_compose(corr, L_rows):
    """The action L_C . L: saturation of the plus projection of
    L_C intersect (L + Z^{2 g_plus}).

    >>> idcyl = cylinder_correspondence(
    ...     identity_matrix(2), standard_lagrangian(1), standard_dual(1))
    >>> lagrangian_compose(idcyl, standard_lagrangian(1))
    ((1, 0),)
    """
    if not isinstance(corr, Correspondence):
        raise TypeError("first argument must be a Correspondence")
    gm, gp = corr.g_minus, corr.g_plus
    L = _freeze(L_rows)
    width = 2 * gm + 2 * gp
    ambient = [
        _pad(row, None, gm, gp) for row in L
    ] + [
        tuple(1 if j == 2 * gm + i else 0 for j in range(width))
        for i in range(2 * gp)
    ]
    meet = lattice_intersect(corr.adapted, ambient)
    plus_parts = [row[2 * gm:] for row in meet]
    projected = hnf(plus_parts)
    if not projected:
        return ()
    return saturate(projected)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
