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
dual vectors once; and small public helpers that only the tests used.
"""

import itertools
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

from abtqft.cobordism import Index1, Index2, MappingCylinder, ProgramError
from abtqft.cyclotomic import (
    _field,
    exponent_sum,
    field_order,
    make_root,
    one,
    q_power,
)
from abtqft.heisenberg import to_finite
from abtqft.homology import (
    cylinder_correspondence,
    combine,
    hnf,
    index1_correspondence,
    index2_correspondence,
    lagrangian_compose,
    mat_mul,
    standard_dual,
    standard_lagrangian,
)
from abtqft.mcg import FreeWord
from abtqft.surgery import (
    _check_symmetric,
    _normalisation,
    p_prime,
    refinement_kind,
    signature,
    z_invariant,
    z_lens,
)


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
