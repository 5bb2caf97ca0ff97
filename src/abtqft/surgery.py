"""Closed 3-manifold invariants from surgery presentations.

A presentation is an integer symmetric linking matrix B.  The invariant
is the colored sum

    Z(B) = kappa^(-sig B) * eta^(n+1) * sum_c q^(c^T B c),

with colors c running over (Z/p')^n.  The normalization makes the empty
presentation give Z(S^3) = eta and makes +-1 blow-ups neutral, so the
value only depends on the presented manifold.

Lens spaces come from chains of unknots via the negative continued
fraction expansion; ``matrix_element`` computes partially-colored sums
(one boundary strand left uncolored) used to compare the chain picture
with solid-torus gluings.

For even p the colored sum splits into parity sectors
Sigma_s = sum over c = s (mod 2) of q^(c^T B c), one per s in (Z/2)^n.
With m = p/4 they obey:

- p = 4 (mod 8):  Sigma_s = i^(m s^T B s) Sigma_0, so no sector vanishes
  unless all do;
- p = 8 (mod 16): Sigma_s = 0 unless s is characteristic,
  B s = diag B (mod 2);
- p = 0 (mod 16): Sigma_s = 0 unless s is homogeneous, B s = 0 (mod 2).

The refinement classes are the solutions of the characteristic equation
Sum_j B_ij s_j = B_ii (mod 2) when p = 4 (mod 8), and of the homogeneous
equation when p = 0 (mod 8).  A refined value is one normalized parity
sector.  At p = 8 (mod 16) a homogeneous class is offset by the least
characteristic solution to reach a nonvanishing sector; at p = 0 (mod 16)
the class is itself the parity.  So for p = 0 (mod 8) the classes pick
out every nonvanishing sector and their values add up to the unrefined
invariant.  At p = 4 (mod 8) the refined values are the characteristic
sectors only; the other sectors are in general nonzero, so their sum can
differ from the invariant.

At odd p every colored sum is a quadratic Gauss sum, and none of them
is enumerated.  With the fixed colors of ``matrix_element`` moved into
a linear term b and a constant k, the sum reads
sum_x q^(x^T A x + 2 b^T x + k) over x in (Z/p)^n, and only the
histogram of the exponent mod p is needed.  For each prime power l^k
exactly dividing p the form is diagonalized by congruence mod l^k
(Jordan splitting; Conway-Sloane, Sphere Packings, ch. 15), pivoting on
an entry of least l-adic valuation; since l is odd, an off-diagonal
pivot reaches the diagonal by e_i += e_j.  The linear term follows the
same moves.  The histogram mod l^k is the convolution of the n
one-variable histograms of d y^2 + 2 b y, and CRT gives the histogram
mod p as the product of its residues.  Each change of variables is
invertible, so it permutes the colorings: the histogram equals the
enumerator's count for count, and both go through the same
``exponent_sum``, so the values agree to the last coefficient.  Even p
still enumerates: its 2-adic part needs the 2x2 block forms, and the
parity refinements sum over one residue class mod 2 only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

from .cyclotomic import (
    eta_kappa,
    exponent_sum,
    field_order,
    p_prime,
)

__all__ = [
    "signature",
    "z_invariant",
    "matrix_element",
    "continued_fraction",
    "iter_continued_fraction",
    "chain_matrix",
    "z_lens",
    "refinement_kind",
    "refinement_classes",
    "refined_invariant",
    "blow_up",
    "slide",
]


def _check_symmetric(B):
    B = tuple(tuple(int(v) for v in row) for row in B)
    n = len(B)
    for row in B:
        if len(row) != n:
            raise ValueError("linking matrix must be square")
    for i in range(n):
        for j in range(n):
            if B[i][j] != B[j][i]:
                raise ValueError("linking matrix must be symmetric")
    return B


def signature(B):
    """Signature of a symmetric integer matrix, by fraction-free
    congruence diagonalization (Bareiss 1968) on integers.

    Each step replaces the block after its pivot by
    (pivot * a_kl - a_ki * a_il) / last, last the previous pivot: the
    division is exact (Sylvester's identity) and the entries stay
    minors of B, so they stay small.  The step adds the sign of the
    rational pivot, pivot / last.  A zero diagonal entry with a nonzero
    entry B_ij to its right is first made nonzero by the congruence
    x_i += s x_j; a zero row is the radical and is skipped.

    >>> signature(((2, 1), (1, 2)))
    2
    >>> signature(((0, 1), (1, 0)))
    0
    >>> signature(())
    0
    """
    B = _check_symmetric(B)
    n = len(B)
    M = [list(row) for row in B]
    sig, last = 0, 1
    for i in range(n):
        row = M[i]
        if not row[i]:
            j = next((k for k in range(i + 1, n) if row[k]), None)
            if j is None:
                continue
            # x_i += s x_j turns the zero diagonal entry into
            # 2 s B_ij + B_jj, nonzero for one of the signs
            s = 1 if 2 * row[j] + M[j][j] else -1
            for k in range(i, n):
                row[k] += s * M[j][k]
            for k in range(i, n):
                M[k][i] += s * M[k][j]
        pivot = row[i]
        sig += 1 if (pivot > 0) == (last > 0) else -1
        for k in range(i + 1, n):
            rk, f = M[k], M[k][i]
            for l in range(i + 1, n):
                rk[l] = (pivot * rk[l] - f * row[l]) // last
        last = pivot
    return sig


def _phase_sum(p, B, ranges):
    """sum of q^(c^T B c) over the colorings c in product(*ranges), one
    range of colors per component of the symmetric matrix B.  This is
    the one enumerator behind every colored sum at even order, and the
    reference for the Gauss sums at odd order."""
    n = len(B)
    M = field_order(p)
    step = M // p
    counts = {}
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


@lru_cache(maxsize=None)
def _prime_powers(p):
    """The pairs (l, l^k) over the prime powers l^k exactly dividing p.

    >>> _prime_powers(45)
    ((3, 9), (5, 5))
    """
    out = []
    l = 2
    while l * l <= p:
        if p % l == 0:
            m = 1
            while p % l == 0:
                p //= l
                m *= l
            out.append((l, m))
        l += 1
    if p > 1:
        out.append((p, p))
    return tuple(out)


def _add_multiple(A, b, live, r, c, t, m):
    """The congruence e_r += t e_c mod m on the live block of the
    symmetric matrix A and on the linear term b: row r += t row c, then
    column r += t column c, which leaves A_rr + 2 t A_rc + t^2 A_cc."""
    row_r, row_c = A[r], A[c]
    for x in live:
        row_r[x] = (row_r[x] + t * row_c[x]) % m
    for x in live:
        row = A[x]
        row[r] = (row[r] + t * row[c]) % m
    b[r] = (b[r] + t * b[c]) % m


def _diagonal_form(A, b, l, m):
    """The pairs (d_i, b_i) of a congruence diagonalization of
    x^T A x + 2 b^T x over Z/m, m = l^k with l an odd prime: an
    invertible change of variables x = P y mod m after which the form
    reads sum_i d_i y_i^2 + 2 b_i y_i.

    Each step pivots on a live entry of least l-adic valuation v,
    preferring the diagonal; an off-diagonal pivot A_ij is first moved
    there by e_i += e_j, which leaves A_ii + 2 A_ij + A_jj of valuation
    v because l is odd.  Every other entry of the pivot row is then a
    multiple of l^v, so e_j -= (A_ij / l^v) (A_ii / l^v)^-1 e_i clears
    it.

    >>> _diagonal_form([[0, 1], [1, 0]], [0, 0], 3, 3)
    [(2, 0), (1, 0)]
    """
    A = [[v % m for v in row] for row in A]
    b = [v % m for v in b]
    live = list(range(len(A)))
    out = []
    while live:
        best = None
        for i in live:
            row = A[i]
            for j in live:
                a = row[j]
                if a and j >= i:
                    v = 0
                    while a % l == 0:
                        a //= l
                        v += 1
                    key = (v, i != j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            # the live block vanishes mod m: what is left is linear
            out.extend((0, b[i]) for i in live)
            break
        (v, off_diagonal), i, j = best
        if off_diagonal:
            _add_multiple(A, b, live, i, j, 1, m)
        unit, pivot = l ** v, A[i][i]
        if pivot % unit or (pivot // unit) % l == 0:
            raise ArithmeticError(
                "pivot %d mod %d at component %d lost its valuation %d"
                % (pivot, m, i, v))
        inverse = pow(pivot // unit, -1, m)
        row = A[i]
        for j in live:
            if j != i and row[j]:
                _add_multiple(A, b, live, j, i,
                              -(row[j] // unit) * inverse % m, m)
        if any(row[j] for j in live if j != i):
            raise ArithmeticError(
                "pivot row %d mod %d not cleared" % (i, m))
        out.append((pivot, b[i]))
        live.remove(i)
    return out


def _prime_power_counts(A, b, k, l, m):
    """The histogram over Z/m, as a list, of x^T A x + 2 b^T x + k over
    x in (Z/m)^n, m a power of the odd prime l."""
    acc = [0] * m
    acc[k % m] = 1
    for d, bi in _diagonal_form(A, b, l, m):
        single = [0] * m
        for y in range(m):
            single[(d * y + 2 * bi) * y % m] += 1
        terms = [(f, c) for f, c in enumerate(single) if c]
        wide = [0] * (2 * m)
        for e, c in enumerate(acc):
            if c:
                for f, cf in terms:
                    wide[e + f] += c * cf
        acc = [x + y for x, y in zip(wide, wide[m:])]
    return acc


def _gauss_sum(p, A, b, k):
    """sum of q^(x^T A x + 2 b^T x + k) over x in (Z/p)^n at odd p,
    from the exact histogram of the exponent: one histogram per prime
    power of p, combined by CRT, then the ``exponent_sum`` that
    ``_phase_sum`` also ends in."""
    M = field_order(p)
    step = M // p
    parts = [(m, _prime_power_counts(A, b, k, l, m))
             for l, m in _prime_powers(p)]
    counts = {}
    for e in range(p):
        c = 1
        for m, hist in parts:
            c *= hist[e % m]
        if c:
            counts[e * step] = c
    return exponent_sum(M, counts)


def _colour_sum(p, B, fixed):
    """sum of q^(c^T B c) over the colorings c in (Z/p')^n with
    c_i = fixed[i] on the fixed components: a Gauss sum at odd p, the
    enumerator at even p."""
    n = len(B)
    if p % 2 == 0:
        return _phase_sum(p, B, [
            (int(fixed[i]),) if i in fixed else range(p_prime(p))
            for i in range(n)])
    free = [i for i in range(n) if i not in fixed]
    colors = [(i, int(fixed[i])) for i in range(n) if i in fixed]
    A = [[B[i][j] for j in free] for i in free]
    b = [sum(B[i][j] * c for j, c in colors) for i in free]
    k = sum(ci * B[i][j] * cj for i, ci in colors for j, cj in colors)
    return _gauss_sum(p, A, b, k)


@lru_cache(maxsize=None)
def _normalisation(p, sig, k):
    """kappa^(-sig) * eta^k.  kappa is an eighth root of unity, so
    callers pass sig mod 8 and the cache holds one entry per
    (p, sig mod 8, k)."""
    eta, kappa = eta_kappa(p)
    return kappa ** (-sig) * eta ** k


def z_invariant(p, B):
    """Invariant of the closed manifold presented by B.

    >>> from abtqft.cyclotomic import eta_kappa
    >>> z_invariant(3, ()) == eta_kappa(3)[0]    # S^3
    True
    >>> z_invariant(3, ((0,),))                  # S^2 x S^1
    CycNum(24: 1)
    """
    B = _check_symmetric(B)
    norm = _normalisation(p, signature(B) % 8, len(B) + 1)
    return norm * _colour_sum(p, B, {})


def matrix_element(p, B_full, fixed, g_plus):
    """Partially colored surgery sum: components listed in ``fixed``
    keep their colors (they are boundary strands), the rest are
    surgered.  Normalized by the signature of the surgered sublink and
    by one eta per surgered component plus one per outgoing handle."""
    B_full = _check_symmetric(B_full)
    n = len(B_full)
    if any(not 0 <= i < n for i in fixed):
        raise ValueError("fixed component index out of range")
    free = [i for i in range(n) if i not in fixed]
    sub = tuple(tuple(B_full[i][j] for j in free) for i in free)
    norm = _normalisation(p, signature(sub) % 8, g_plus + len(free))
    return norm * _colour_sum(p, B_full, fixed)


# -- lens spaces ----------------------------------------------------------


def continued_fraction(beta, alpha):
    """Negative (ceiling) continued fraction of beta/alpha:
    beta/alpha = m_1 - 1/(m_2 - 1/(...)).

    >>> continued_fraction(2, 1)
    (2,)
    >>> continued_fraction(3, 2)
    (2, 2)
    >>> continued_fraction(5, 2)
    (3, 2)
    """
    if alpha < 0 or (alpha == 0 and beta not in (1, -1)):
        raise ValueError("expect alpha >= 0 with gcd(alpha, beta) = 1")
    return tuple(iter_continued_fraction(beta, alpha))


def iter_continued_fraction(beta, alpha):
    """The terms of :func:`continued_fraction` one at a time, so a
    caller can stop early on a long chain (alpha >= 0 assumed)."""
    while alpha:
        m = -((-beta) // alpha)  # ceiling
        yield m
        beta, alpha = alpha, m * alpha - beta


def chain_matrix(ms):
    """Linking matrix of a chain of unknots with framings ms.

    >>> chain_matrix((3, 2))
    ((3, 1), (1, 2))
    """
    n = len(ms)
    return tuple(
        tuple(
            ms[i] if i == j else (1 if abs(i - j) == 1 else 0)
            for j in range(n)
        )
        for i in range(n)
    )


def z_lens(p, beta, alpha):
    """Invariant of the lens space L(beta, alpha).

    >>> z_lens(3, 1, 0) == z_invariant(3, ())      # L(1, 0) = S^3
    True
    """
    if beta < 0:
        raise ValueError("use beta >= 0")
    if beta == 0:
        if alpha not in (1, -1):
            raise ValueError("gcd(alpha, beta) must be 1")
        return z_invariant(p, ((0,),))
    alpha %= beta
    if beta > 1 and gcd(alpha, beta) != 1:
        raise ValueError("gcd(alpha, beta) must be 1")
    if alpha == 0:
        return z_invariant(p, ())
    return z_invariant(p, chain_matrix(continued_fraction(beta, alpha)))


# -- parity refinements (even order only) ---------------------------------


def refinement_kind(p):
    """'spin' when p = 4 (mod 8), 'cohomology' when p = 0 (mod 8).

    The label names the mod-2 system the classes solve: characteristic
    for 'spin', homogeneous for 'cohomology'.  The class-sum identity
    (refined values add up to the invariant) is promised only for
    'cohomology'; see the module docstring for the sector law."""
    if p % 2:
        raise ValueError("odd order has no parity refinement")
    if p % 8 == 4:
        return "spin"
    if p % 8 == 0:
        return "cohomology"
    raise ValueError("order 2 mod 4 is not admissible")


def _solve_mod2(B, rhs):
    """All solutions over F_2 of B s = rhs (sorted tuples)."""
    n = len(B)
    rows = [
        [B[i][j] % 2 for j in range(n)] + [rhs[i] % 2] for i in range(n)
    ]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if rows[i][n]:
            return []
    free = [c for c in range(n) if c not in pivots]
    sols = []
    for assign in itertools.product((0, 1), repeat=len(free)):
        s = [0] * n
        for c, v in zip(free, assign):
            s[c] = v
        for i in reversed(range(r)):
            c = pivots[i]
            s[c] = (rows[i][n] + sum(rows[i][j] * s[j] for j in free)) % 2
        sols.append(tuple(s))
    return sorted(sols)


def refinement_classes(p, B):
    """The mod-2 classes refining the colored sum at even order."""
    B = _check_symmetric(B)
    kind = refinement_kind(p)
    n = len(B)
    if kind == "spin":
        rhs = [B[i][i] for i in range(n)]
    else:
        rhs = [0] * n
    return _solve_mod2(B, rhs)


def _characteristic_shift(B):
    n = len(B)
    chars = _solve_mod2(B, [B[i][i] for i in range(n)])
    if not chars:
        raise ArithmeticError("characteristic system is always solvable")
    return chars[0]


def refined_invariant(p, B, cls):
    """Colored sum restricted to the parity sector of one refinement
    class, with the normalization of ``z_invariant``.

    Spin classes (p = 4 mod 8) fix the color parities directly; their
    sum is the characteristic part of the invariant and can differ from
    it.  Homogeneous classes are offset by the least characteristic
    solution at p = 8 (mod 16) and used as parities as they are at
    p = 0 (mod 16); at both residues the values over all classes add
    up to ``z_invariant``."""
    B = _check_symmetric(B)
    kind = refinement_kind(p)
    n = len(B)
    if len(cls) != n:
        raise ValueError("class length does not match the matrix")
    if tuple(v % 2 for v in cls) not in refinement_classes(p, B):
        raise ValueError("not a refinement class of this presentation")
    if kind == "spin" or p % 16 == 0:
        parities = [v % 2 for v in cls]
    else:
        shift = _characteristic_shift(B)
        parities = [(v + s) % 2 for v, s in zip(cls, shift)]
    pp = p_prime(p)
    norm = _normalisation(p, signature(B) % 8, n + 1)
    return norm * _phase_sum(p, B, [range(par, pp, 2) for par in parities])


# -- Kirby moves ----------------------------------------------------------


def blow_up(B, sign):
    """Append a disjoint +-1 framed unknot."""
    if sign not in (1, -1):
        raise ValueError("blow-up sign must be +-1")
    B = _check_symmetric(B)
    n = len(B)
    return tuple(
        tuple(B[i][j] for j in range(n)) + (0,) for i in range(n)
    ) + ((0,) * n + (sign,),)


def slide(B, i, j, sign=1):
    """Slide component i over component j (basis change e_i -> e_i + s e_j)."""
    B = _check_symmetric(B)
    n = len(B)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("need two distinct component indices")
    if sign not in (1, -1):
        raise ValueError("slide sign must be +-1")
    C = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    C[j][i] = sign
    out = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            out[r][c] = sum(
                C[a][r] * B[a][b] * C[b][c]
                for a in range(n) for b in range(n)
            )
    return tuple(tuple(row) for row in out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
