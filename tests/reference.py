"""Reference implementations kept for the tests only.

The package carries what its command line and its two routes run.  The
helpers below have no caller there: the earlier ``Fraction`` signature
and ``decimal`` trigonometric table, which the integer versions in
``surgery`` and ``cyclotomic`` replaced and are checked against; the
word-based Morita counting functions and the symplectic inverse
J F^T (-J), which the one-pass kernel and the block transposition in
``mcg`` replaced; the mod-2 solver that listed every refinement class
to check one, and the normalisation branch the command line kept beside
``cobordism``'s; the colour enumerator on the unreduced matrix, which
``surgery._phase_sum`` now runs on residues mod p; the validation that
pushed the source Lagrangian through each step's ambient
correspondence, which the walk carrying the frames in ``cobordism``
replaced; the change of frame that split each label's class on its
own, which ``cobordism.context_transfer`` replaced by splitting the old
dual vectors once; the Hermite form that updated a separate transform
whether or not it was asked for, the primitivity test by double-kernel
saturation and the dual basis solved one column at a time, which
``homology`` replaced by one Hermite form of the transposed basis and
one of the pairing matrix; the command line's price formulas, which the
work functions beside each kernel replaced; and small public helpers
that only the tests used, such as the monoidal product of objects and
of maps and the dimension of the oracle's quotient module.
"""

import itertools
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

from math import gcd

from abtqft import cli
from abtqft.cobordism import (
    CobObject,
    Index1,
    Index2,
    MappingCylinder,
    ProgramError,
    closed_off_lens,
    load_program,
)
from abtqft.cobordism import validate as cobordism_validate
from abtqft.cyclotomic import (
    _field,
    cyclotomic_polynomial,
    exponent_sum,
    field_order,
    make_root,
    one,
    q_power,
)
from abtqft.heisenberg import _tensor_quotient, to_finite
from abtqft.homology import (
    _is_symplectic_basis,
    cylinder_correspondence,
    combine,
    hnf,
    index1_correspondence,
    index2_correspondence,
    intersection,
    lagrangian_compose,
    mat_mul,
    saturate,
    standard_dual,
    standard_lagrangian,
)
from abtqft.mcg import FreeWord, MappingClass, twist_generators
from abtqft.surgery import (
    _check_symmetric,
    _normalisation,
    chain_matrix,
    iter_continued_fraction,
    p_prime,
    refinement_count,
    refinement_kind,
    signature,
    z_invariant,
    z_lens,
)
from abtqft.value import json_int


def root_q(p):
    """The distinguished primitive p-th root q = zeta_M^(M/p)."""
    M = field_order(p)
    return make_root(M, M // p)


def bracket(p, B, colors):
    """The phase q^(c^T B c) of one coloring."""
    B = _check_symmetric(B)
    if len(colors) != len(B):
        raise ValueError("need one color per component")
    return phase_sum(p, B, [(c,) for c in colors])


def phase_sum(p, B, ranges):
    """sum of q^(c^T B c) over the colorings c in product(*ranges),
    multiplying out the entries of B as they are given."""
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


def row_span_equal(A, B):
    return hnf(A) == hnf(B)


def integral_mul(ctx, e1, e2):
    """(k, x)(k', x') = (k + k' + x.x', x + x')."""
    k1, x1 = e1
    k2, x2 = e2
    return (k1 + k2 + ctx.form(x1, x2), tuple(a + b for a, b in zip(x1, x2)))


def fraction_signature(B):
    """Signature of a symmetric integer matrix, by exact congruence
    diagonalization over the rationals."""
    B = _check_symmetric(B)
    n = len(B)
    M = [[Fraction(v) for v in row] for row in B]
    sig = 0
    for i in range(n):
        if M[i][i] == 0:
            j = next((k for k in range(i + 1, n) if M[i][k]), None)
            if j is None:
                continue
            for s in (1, -1):
                if 2 * s * M[i][j] + M[j][j] != 0:
                    break
            # x_i += s x_j turns the zero diagonal entry into
            # 2 s B_ij + B_jj, nonzero for one of the signs
            for k in range(n):
                M[i][k] += s * M[j][k]
            for k in range(n):
                M[k][i] += s * M[k][j]
        pivot = M[i][i]
        sig += 1 if pivot > 0 else -1
        for k in range(i + 1, n):
            factor = M[k][i] / pivot
            if factor:
                for l in range(n):
                    M[k][l] -= factor * M[i][l]
                for l in range(n):
                    M[l][k] -= factor * M[l][i]
    return sig


def _decimal_pi():
    """pi in the current decimal context, by the series in the recipes
    of the ``decimal`` module's documentation."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _decimal_cos_sin(y):
    """cos(y) and sin(y) for 0 <= y <= pi/4 by their Taylor series, in
    the current decimal context."""
    c = s = Decimal(0)
    term, k = Decimal(1), 0
    eps = Decimal(10) ** -(getcontext().prec + 2)
    while term > eps:
        if k % 4 == 0:
            c += term
        elif k % 4 == 1:
            s += term
        elif k % 4 == 2:
            c -= term
        else:
            s -= term
        k += 1
        term = term * y / k
    return c, s


def decimal_trig_table(M, scale):
    """The earlier display table before rounding: the pair (cos, sin) of
    tuples of Decimals 10^scale cos(2 pi j / M) and
    10^scale sin(2 pi j / M), 0 <= j < phi(M), computed with
    scale + 10 significant digits."""
    cos_t, sin_t = [], []
    with localcontext() as ctx:
        ctx.prec = scale + 10
        half_pi = _decimal_pi() / 2
        unit = Decimal(10) ** scale
        for j in range(_field(M).phi):
            quarter, b = divmod(Fraction(4 * j, M), 1)
            if 2 * b <= 1:
                c, s = _decimal_cos_sin(half_pi * b.numerator / b.denominator)
            else:
                b = 1 - b
                s, c = _decimal_cos_sin(half_pi * b.numerator / b.denominator)
            for _ in range(quarter):
                c, s = -s, c
            cos_t.append(c * unit)
            sin_t.append(s * unit)
    return tuple(cos_t), tuple(sin_t)


def restricted(word, i):
    """The image of a FreeWord under killing every generator pair except
    the i-th (freely reduced again)."""
    keep = (2 * i - 1, 2 * i)
    return FreeWord(tuple(x for x in word.letters if abs(x) in keep))


def morita_d(word, i):
    """The counting function d_i: decompose the reduced restriction into
    alternating blocks a^nu b^mu and sum over pairs of blocks."""
    letters = restricted(word, i).letters
    a_letter = 2 * i - 1
    blocks = []
    pos = 0
    while pos < len(letters):
        x = letters[pos]
        if abs(x) == a_letter:
            nu = 1 if x > 0 else -1
            pos += 1
            mu = 0
            if pos < len(letters) and abs(letters[pos]) != a_letter:
                mu = 1 if letters[pos] > 0 else -1
                pos += 1
            blocks.append((nu, mu))
        else:
            blocks.append((0, 1 if x > 0 else -1))
            pos += 1
    total = 0
    for j, (nu, _) in enumerate(blocks):
        for k, (_, mu) in enumerate(blocks):
            total += nu * mu if j <= k else -nu * mu
    return total


def theta(f):
    """theta(f)(x) = sum_i d_i(f(x)) - d_i(x) on each generator loop x,
    in the order (a_1..a_g, b_1..b_g)."""
    gen = f.g
    split_letters = [2 * i - 1 for i in range(1, gen + 1)] + [
        2 * i for i in range(1, gen + 1)]
    out = []
    for letter in split_letters:
        loop = FreeWord((letter,))
        image = f.apply(loop)
        out.append(sum(
            morita_d(image, i) - morita_d(loop, i)
            for i in range(1, gen + 1)
        ))
    return tuple(out)


def symplectic_inverse(F):
    """Inverse of a symplectic matrix via F^-1 = J F^T (-J)."""
    n = len(F)
    g = n // 2
    J = tuple(
        tuple(
            1 if j == i + g else (-1 if j == i - g else 0)
            for j in range(n)
        )
        for i in range(n)
    )
    Jneg = tuple(tuple(-x for x in row) for row in J)
    Ft = tuple(tuple(F[j][i] for j in range(n)) for i in range(n))
    return mat_mul(mat_mul(J, Ft), Jneg)


# -- parity refinements by listing every class ----------------------------


def solve_mod2(B, rhs):
    """All solutions over F_2 of B s = rhs (sorted tuples), pivoting
    from the first column and sorting the list."""
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
    B = _check_symmetric(B)
    n = len(B)
    if refinement_kind(p) == "spin":
        return solve_mod2(B, [B[i][i] for i in range(n)])
    return solve_mod2(B, [0] * n)


def characteristic_shift(B):
    """The least characteristic solution, from the sorted list of all."""
    chars = solve_mod2(B, [B[i][i] for i in range(len(B))])
    if not chars:
        raise ArithmeticError("characteristic system is always solvable")
    return chars[0]


def refined_invariant(p, B, cls):
    """The refined value, its class checked against the list of all."""
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
        shift = characteristic_shift(B)
        parities = [(v + s) % 2 for v, s in zip(cls, shift)]
    pp = p_prime(p)
    norm = _normalisation(p, signature(B) % 8, n + 1)
    return norm * phase_sum(p, B, [range(par, pp, 2) for par in parities])


# -- the normalisation branch of the command line -------------------------


def closure_factor(p, steps, closure=None):
    """Z of the closed-off cobordism as the command line computed it: the
    closure's invariant, one for no step or one cylinder or index-1
    step, the lens space of a lone index-2 step with beta >= 0, and None
    for a composite program without a closure."""
    if closure is not None:
        return z_invariant(p, closure)
    if len(steps) > 1:
        return None
    if len(steps) == 1 and isinstance(steps[0], Index2):
        sign = -1 if steps[0].beta < 0 else 1
        return z_lens(p, sign * steps[0].beta, sign * steps[0].alpha)
    return one(field_order(p))


# -- validation by ambient correspondences --------------------------------


def _ambient_correspondence(step, g):
    """The step's correspondence in ambient slot coordinates; only its
    lattice matters for validation."""
    if isinstance(step, MappingCylinder):
        if len(step.matrix) != 2 * g:
            raise ValueError("cylinder matrix size does not match genus")
        return cylinder_correspondence(
            step.matrix, standard_lagrangian(g), standard_dual(g)
        )
    if isinstance(step, Index1):
        return index1_correspondence(
            standard_lagrangian(g), standard_dual(g), step.position
        )
    if isinstance(step, Index2):
        if not (0 <= step.handle < g):
            raise ValueError("surgery handle out of range")
        return index2_correspondence(g, step.handle, step.alpha, step.beta)
    raise ValueError("unknown step %r" % (step,))


def ambient_chain(source, steps):
    """The source Lagrangian pushed through the steps' ambient
    correspondences with ``lagrangian_compose``: the list of (genus,
    Lagrangian) after each step, ends included.  Raises ``ProgramError``
    naming the first failing step."""
    g, L = source.g, source.L
    chain = [(g, L)]
    for i, step in enumerate(steps):
        try:
            corr = _ambient_correspondence(step, g)
        except (ValueError, AssertionError) as exc:
            raise ProgramError("step %d: %s" % (i, exc)) from exc
        L = lagrangian_compose(corr, L)
        g = corr.g_plus
        chain.append((g, L))
    return chain


def validate(prog):
    """The list of intermediate Lagrangians of :func:`ambient_chain`,
    checked against the declared target."""
    chain = ambient_chain(prog.source, prog.steps)
    g, L = chain[-1]
    if g != prog.target.g or L != prog.target.L:
        raise ProgramError(
            "step %d: program ends at genus %d with Lagrangian %r, the "
            "declared target is genus %d with Lagrangian %r"
            % (len(prog.steps), g, L, prog.target.g, prog.target.L)
        )
    return [L for _, L in chain]


# -- the change of frame, one label at a time -----------------------------


def context_transfer(ctx_from, ctx_to):
    """The monomial change of frame along a fixed Lagrangian, each label
    c rewritten through the finite image of its class sum c_i Ldual_i."""
    if ctx_from.p != ctx_to.p or ctx_from.g != ctx_to.g:
        raise ValueError("contexts live on different surfaces")
    if hnf(ctx_from.L) != hnf(ctx_to.L):
        raise ValueError("frames have different Lagrangians")
    out = {}
    for c in ctx_from.labels():
        k, _, beta = to_finite(ctx_to, 0, combine(c, ctx_from.Ldual))
        out[(beta, c)] = q_power(ctx_from.p, k)
    return out


# -- Lagrangian frames by saturation and one dual vector at a time ---------


def separate_transform_hnf(rows, with_transform=False):
    """The row Hermite normal form as ``homology.hnf`` computed it: the
    transform kept as a separate n x n matrix and updated beside the
    rows whether or not it was asked for."""
    A = [list(r) for r in rows]
    n = len(A)
    m = len(A[0]) if n else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(m):
        while True:
            nz = [i for i in range(r, n) if A[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, n):
                if A[i][c]:
                    qd = A[i][c] // A[r][c]
                    if qd:
                        for j in range(m):
                            A[i][j] -= qd * A[r][j]
                        for j in range(n):
                            U[i][j] -= qd * U[r][j]
                    if A[i][c]:
                        done = False
            if done:
                break
        if r < n and A[r][c]:
            if A[r][c] < 0:
                A[r] = [-v for v in A[r]]
                U[r] = [-v for v in U[r]]
            for i in range(r):
                qd = A[i][c] // A[r][c]
                if qd:
                    for j in range(m):
                        A[i][j] -= qd * A[r][j]
                    for j in range(n):
                        U[i][j] -= qd * U[r][j]
            r += 1
    basis = tuple(tuple(row) for row in A[:r])
    if with_transform:
        return basis, tuple(tuple(row) for row in U), r
    return basis


def solve_left(A, b):
    """An integer solution x of x @ A == b, or None."""
    A = tuple(tuple(row) for row in A)
    if not A:
        return None if any(b) else ()
    H, U, rank = separate_transform_hnf(A, with_transform=True)
    m = len(A[0])
    res = [int(v) for v in b]
    y = [0] * rank
    pivots = []
    for i in range(rank):
        col = next(j for j in range(m) if H[i][j])
        pivots.append(col)
    for i in range(rank):
        c = pivots[i]
        if res[c] % H[i][c]:
            return None
        q = res[c] // H[i][c]
        y[i] = q
        if q:
            for j in range(m):
                res[j] -= q * H[i][j]
    if any(res):
        return None
    return combine(y, U)


def is_lagrangian(basis, g):
    """Rank g, isotropic, and equal to its saturation by a double
    kernel."""
    basis = tuple(tuple(row) for row in basis)
    if any(len(row) != 2 * g for row in basis):
        return False
    H = hnf(basis)
    if len(H) != g:
        return False
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            if intersection(H[i], H[j]):
                return False
    return saturate(basis) == H


def symplectic_dual_basis(L_rows, g):
    """The complementary basis found by solving U . w_j = e_j one column
    at a time, then corrected along U to be isotropic."""
    U = separate_transform_hnf(L_rows)
    if not is_lagrangian(U, g):
        raise ValueError("input is not a Lagrangian basis")
    pair_matrix = tuple(
        tuple(intersection(U[i], tuple(1 if k == j else 0
                                       for k in range(2 * g)))
              for i in range(g))
        for j in range(2 * g)
    )
    W = []
    for jcol in range(g):
        target = tuple(1 if i == jcol else 0 for i in range(g))
        x = solve_left(pair_matrix, target)
        if x is None:
            raise ArithmeticError("no integral dual vector; lattice not "
                                  "primitive")
        W.append(x)
    W2 = tuple(
        combine((1,) + tuple(-intersection(W[i], W[j])
                             for j in range(i + 1, g)), (W[i],) + U[i + 1:])
        for i in range(g)
    )
    if not _is_symplectic_basis(U + W2):
        raise ArithmeticError("dual basis does not complete a symplectic "
                              "basis")
    return U, W2


def bimodule_quotient_dim(p, corr):
    """Dimension of the tensor-product quotient module; equals the
    rank of the outgoing state space for every valid correspondence."""
    pairs, _, pivots, _ = _tensor_quotient(p, corr)
    return len(pairs) - len(pivots)


def _concat_object(o1, o2):
    g = o1.g + o2.g
    rows = []
    for r in o1.L:
        a, b = r[: o1.g], r[o1.g:]
        rows.append(a + (0,) * o2.g + b + (0,) * o2.g)
    for r in o2.L:
        a, b = r[: o2.g], r[o2.g:]
        rows.append((0,) * o1.g + a + (0,) * o1.g + b)
    return CobObject(g=g, L=hnf(rows))


def monoidal_product(x1, x2):
    """Product of two objects, or of two maps under label
    concatenation."""
    if isinstance(x1, CobObject) and isinstance(x2, CobObject):
        return _concat_object(x1, x2)
    result = {}
    for (z1, w1), v1 in x1.items():
        for (z2, w2), v2 in x2.items():
            result[(z1 + z2, w1 + w2)] = v1 * v2
    return result



# -- the command line's prices as they were computed inside it ------------
#
# Before the engine modules stated the work of their kernels, the command
# line priced every kernel itself with the helpers below.  ``charges``
# replays each command's charges in the order the command made them, so
# the tests can check that every job is charged the same steps and items.

_OVER = 2 ** 64  # more items of any kind than the budget admits


def _degree(p):
    """phi(M), the degree of the field of order M = lcm(8, p)."""
    return len(cyclotomic_polynomial(field_order(p))) - 1


def _power(base, exponent):
    """base ** exponent for base >= 2, or _OVER when that is larger."""
    return min(base ** min(exponent, 64), _OVER)


def _charge_field(work, p):
    """Charge the field of order M = lcm(8, p); return its degree."""
    m = field_order(p)
    work.add("the cyclotomic field of order %d" % m, field=m * m)
    return _degree(p)


def _charge_invariant(work, p, B, free=None, signatures=1, refine=False):
    """Charge a closed invariant of B: its signatures, whose minors grow
    with B's entries, the colour sum over ``free`` (all) components and
    the refinement block: a signature and a printed value per class, and
    colour sums that together cover the colourings once."""
    n = len(B)
    free = n if free is None else free
    pp, cube = p_prime(p), n ** 3
    bits = max((abs(x) for row in B for x in row),
               default=0).bit_length() + 1
    work.add("%d signature(s) of a %d x %d linking matrix"
             % (signatures, n, n), pivots=signatures * cube,
             pivot_bits=signatures * cube * n * bits)
    if p % 2:
        work.add("the Gauss sum over %d components at p = %d" % (free, p),
                 pivots=free ** 3, histogram=free * p * p)
    else:
        work.add("the colour sum over %d components, %d^%d colourings"
                 % (free, pp, free),
                 colourings=_power(pp, free) * (n * n + 16))
    if refine:
        count = refinement_count(B)
        k = min(count, _OVER)
        work.add("the refinement block of 2^%d classes"
                 % (count.bit_length() - 1),
                 colourings=_power(pp, n) * (n * n + 16), pivots=k * cube,
                 pivot_bits=k * cube * n * bits,
                 printed=k * (_degree(p) + 64))


def _lens_chain(beta, alpha):
    """The linking matrix z_lens surgers for L(beta, alpha), cut at 300
    unknots, more than the budget admits at any order."""
    if beta <= 0 or gcd(alpha, beta) != 1:
        return ((0,),)  # S^2 x S^1, or parameters z_lens refuses
    return chain_matrix(list(itertools.islice(
        iter_continued_fraction(beta, alpha % beta), 300)))


def _charge_heis(work, p, g, op):
    """Charge a heis job: a genus-g frame, and on the Schrodinger module
    the field and its p'^g labels, or a commutant's p'^(2g) unknowns."""
    if op in ("mul", "inverse"):
        work.add("the genus-%d frame" % g, frame=g ** 3)
    elif op in ("act", "matrix", "commutant"):
        phi, pp = _charge_field(work, p), p_prime(p)
        labels = _power(pp, g)
        if op == "commutant":
            work.add("the genus-%d commutant system of %d^%d unknowns"
                     % (g, pp, 2 * g), frame=g ** 3,
                     entries=2 * g * labels * phi,
                     unknowns=_power(pp, 2 * g) * phi)
        else:
            work.add("the genus-%d Schrodinger module's %d^%d labels"
                     % (g, pp, g), frame=g ** 3, entries=labels * phi,
                     printed=labels * (phi + 64))


def _charge_weil(work, p, g, runs):
    """Charge ``runs`` genus-g Weil intertwiners, each p'^(4g) averaging
    terms and a normalised p'^g x p'^g matrix; return phi."""
    phi, pp = _charge_field(work, p), p_prime(p)
    work.add("%d Weil intertwiner(s) of genus %d averaging %d^%d terms "
             "each" % (runs, g, pp, 4 * g), frame=g ** 3,
             terms=runs * _power(pp, 4 * g),
             entries=runs * _power(pp, 2 * g) * phi)
    return phi


def _column_bits(rows):
    """Bits by which a row vector times integer rows can grow: those of
    the largest column sum of absolute values, less one; 0 if the rows
    are malformed."""
    try:
        return (max(sum(abs(json_int(v)) for v in column)
                    for column in zip(*rows)) - 1).bit_length()
    except (TypeError, ValueError):
        return 0


def _charge_validation(work, doc, p):
    """Charge validating the program of ``doc`` from the step kinds, then
    from the bits of its entries; return what its routes cost: the
    largest genus, the labels of the maps built, the oracle's tensor
    pairs and their relation rows."""
    try:
        g, steps = json_int(doc["source"]["g"]), doc.get("steps", [])
    except (KeyError, TypeError):
        return None
    if g < 0 or not isinstance(steps, list):
        return None
    kinds = [s.get("kind") if isinstance(s, dict) else None for s in steps]
    pp, source, top = p_prime(p), g, g
    labels = pairs = rows = 0
    for kind in kinds:
        if kind in ("index1", "index2"):
            labels += _power(pp, g) + _power(pp, source)
        if kind == "index2":
            pairs += _power(pp, 3 * g - 1)
            rows += 2 * g * _power(pp, 3 * g - 1)
        g += (kind == "index1") - (kind == "index2")
        top = max(top, g)
    step = "validating %d step(s) up to genus %d" % (len(steps), top)
    work.add(step, steps=(len(steps) + 2) * (top ** 3 + 32))
    bits, words = _column_bits(doc["source"].get("L")), 0
    for s, kind in zip(steps, kinds):
        grow = _column_bits(s.get("matrix")) if kind == "cylinder" else 0
        bits += grow
        words += (bits // 64 + 1) * (grow // 64 + 1)
    work.add(step, words=top ** 3 * (words
                                     + 64 * top * (bits // 64 + 1) ** 2))
    return top, labels + _power(pp, g), pairs, rows


def _charge_routes(work, p, phi, items, routes):
    """Charge each route the map entries, and the oracle its relation
    rows, that ``_charge_validation`` returned."""
    top, labels, pairs, rows = items
    for route in sorted(routes):
        work.add("the %s route over the genus-%d Schrodinger module, "
                 "%d^%d labels" % (route, top, p_prime(p), top),
                 entries=labels * phi)
    if "oracle" in routes:
        work.add("the tensor oracle over %d tensor pairs" % pairs,
                 tensor_pairs=rows * phi)


def _compose(work, f, h, key, step):
    """f after h, charged first with its image letters before reduction."""
    sizes = [len(w.letters) for w in f.images]
    count = sum(sizes[abs(x) - 1] for w in h.images for x in w.letters)
    work.add("%s of mapping class %r composes %d image letters"
             % (step, key, count), letters=count)
    return f * h


def _class_from(work, doc, key, genus):
    raw = doc.get(key)
    if raw is None:
        raise cli.CliError(2, "document lacks mapping class %r" % (key,))
    if not isinstance(raw, dict):
        raise cli.CliError(2, "mapping class %r must be an object" % (key,))
    if "word" in raw:
        word = raw["word"]
        if not isinstance(word, list):
            raise cli.CliError(2, "'word' must be a list")
        try:
            lib = twist_generators(genus)
        except ValueError as exc:
            raise cli.CliError(2, str(exc))
        f = MappingClass.identity(genus)
        for step, name in enumerate(word, 1):
            if not isinstance(name, str) or name not in lib:
                raise cli.CliError(2, "unknown twist %r" % (name,))
            f = _compose(work, f, lib[name], key,
                         "twist %d (%s)" % (step, name))
        return f
    if "images" in raw:
        work.add("the genus-%d class %r" % (genus, key), frame=genus ** 3)
        try:
            images = tuple(FreeWord(tuple(json_int(x) for x in w))
                           for w in raw["images"])
            return MappingClass(genus, images)
        except (TypeError, ValueError) as exc:
            raise cli.CliError(2, "bad mapping class: %s" % (exc,))
    raise cli.CliError(2, "mapping class %r needs 'word' or 'images'"
                       % (key,))


def _invariant_charges(args):
    work = cli._Work("invariant at p = %d" % args.p)
    cli._check_p(args.p)
    _charge_field(work, args.p)
    doc = cli._read_doc(args.input)
    B = cli._matrix_from(doc)
    fixed = cli._fixed_colors(doc, len(B))
    _charge_invariant(work, args.p, B, len(B) - len(fixed), 2,
                      refine=not fixed and args.p % 4 == 0)


def _refine_charges(args):
    cli._check_p(args.p)
    if args.p % 4:
        raise cli.CliError(3, "refinements need p = 0 mod 4")
    work = cli._Work("refine at p = %d" % args.p)
    _charge_field(work, args.p)
    B = cli._matrix_from(cli._read_doc(args.input))
    _charge_invariant(work, args.p, B, signatures=2, refine=True)


def _lens_charges(args):
    work = cli._Work("lens L(%d, %d) at p = %d"
                     % (args.beta, args.alpha, args.p))
    cli._check_p(args.p)
    _charge_field(work, args.p)
    _charge_invariant(work, args.p, _lens_chain(args.beta, args.alpha))


def _tqft_charges(args):
    work = cli._Work("tqft at p = %d" % args.p)
    cli._check_p(args.p)
    odd = args.p % 2 == 1
    if args.verify and not odd:
        raise cli.CliError(3, "--verify needs odd p")
    phi = _charge_field(work, args.p)
    doc = cli._read_doc(args.input, cli._PROGRAM_DIGITS)
    items = _charge_validation(work, doc, args.p)
    try:
        prog = load_program(doc)
    except ProgramError as exc:
        raise cli.CliError(2, str(exc))
    closure = None
    if args.closure is not None:
        closure = cli._matrix_from(cli._read_doc(args.closure))
    try:
        cobordism_validate(prog)
    except ProgramError as exc:
        raise cli.CliError(4, str(exc))
    route = args.mode if args.mode != "auto" else "closed" if odd else "oracle"
    other = "oracle" if route == "closed" else "closed"
    _charge_routes(work, args.p, phi, items,
                   {route, other} if args.verify else {route})
    labels = _power(p_prime(args.p), prog.source.g)
    if args.normalized:
        lens = closed_off_lens(prog.steps)
        if closure is not None or lens is not None:
            _charge_invariant(work, args.p, _lens_chain(*lens)
                              if closure is None else closure)
        work.add("normalising the map", entries=labels * phi)
    work.add("printing the map", printed=labels * (phi + 64))


def _heis_charges(args):
    cli._check_p(args.p)
    doc = cli._read_doc(args.input)
    op = doc.get("op")
    g = cli._genus(doc)
    _charge_heis(cli._Work("heis %s at p = %d" % (op, args.p)), args.p, g,
                 op)


def _mcg_charges(args):
    cli._check_p(args.p)
    doc = cli._read_doc(args.input)
    op = doc.get("op")
    genus = cli._genus(doc)
    work = cli._Work("mcg %s at p = %d, g = %d" % (op, args.p, genus))
    if op == "theta":
        _class_from(work, doc, "f", genus)
    elif op == "cocycle":
        if args.p % 2 == 0:
            raise cli.CliError(3, "the cocycle needs odd p")
        f = _class_from(work, doc, "f", genus)
        h = _class_from(work, doc, "h", genus)
        if args.verify:
            phi = _charge_weil(work, args.p, genus, 3)
            pp = p_prime(args.p)
            work.add("the projective defects, %d^%d products each"
                     % (pp, 3 * genus),
                     entries=3 * _power(pp, 3 * genus) * phi)
            _compose(work, f, h, "f h", "the product f h")
    elif op == "weil":
        if "matrix" in doc:
            try:
                tuple(tuple(json_int(x) for x in row) for row in doc["matrix"])
            except (TypeError, ValueError) as exc:
                raise cli.CliError(2, "bad matrix: %s" % (exc,))
        else:
            _class_from(work, doc, "f", genus)
        phi = _charge_weil(work, args.p, genus, 1)
        work.add("printing the intertwiner", printed=(phi + 64) * _power(
            p_prime(args.p), 2 * genus))


_CHARGES = {"invariant": _invariant_charges, "refine": _refine_charges,
            "lens": _lens_charges, "tqft": _tqft_charges,
            "heis": _heis_charges, "mcg": _mcg_charges}


def charges(argv):
    """Run the charges of the command line ``argv`` as the command line
    once made them, each through ``cli._Work``, up to the first error or
    refusal (``cli.CliError``)."""
    args = cli.parse_args(argv)
    try:
        _CHARGES[argv[0]](args)
    except cli.CliError:
        pass
