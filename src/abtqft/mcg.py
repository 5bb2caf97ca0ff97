"""Mapping classes of a one-holed surface and their Weil actions.

The fundamental group of a genus-g surface with one boundary circle is
free on based loops alpha_1, beta_1, ..., alpha_g, beta_g, and a
homeomorphism fixing the boundary pointwise induces a substitution that
fixes the boundary word [alpha_1,beta_1]...[alpha_g,beta_g] exactly.
Letters are signed integers: ``2i-1`` is alpha_i, ``2i`` is beta_i, and
negation is inversion, so a word is just a tuple of nonzero integers.

The counting functions ``morita_d`` and the crossed homomorphism
``theta`` measure how a substitution acts on the integral Heisenberg
group beyond its symplectic matrix; ``t_dual`` converts theta into the
homology class pairing with it.  Both run on one kernel that reads a
word once, keeping per handle a running exponent sum of the a-letters
and its products with the b-letters, so theta is linear in the length
of the image words; ``morita_d`` is that kernel's value on one handle.
``weil_intertwiner`` produces the Stone-von Neumann isomorphism between
a Schrodinger module and its twist by a symplectic matrix, ``weil_H``
the variant twisted by the full Heisenberg action (the monomial
``heisenberg_twist`` after it), and ``cocycle_c`` the mod-p 2-cocycle
by which the two projective actions differ.

A validated library of Dehn twist substitutions ships with the module
(`twist_generators`): the two standard twists in genus one; per-handle
twists, a handle swap and a chain twist mixing the two handles in genus
two.  Primed names are the inverse twists.
"""

from .cyclotomic import exponent_sum, field_order, one
from .heisenberg import compose_maps, finite_inverse, monomial_of, to_finite
from .homology import (
    _is_symplectic_basis,
    combine,
    intersection,
    is_symplectic,
)
from .value import Value, set_field

__all__ = [
    "FreeWord",
    "boundary_word",
    "MappingClass",
    "twist_generators",
    "BraidWord",
    "braid_phi",
    "morita_d",
    "theta",
    "t_dual",
    "weil_intertwiner",
    "heisenberg_twist",
    "weil_H",
    "projective_defect",
    "cocycle_c",
]


# -- free-group words ------------------------------------------------------


def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _letter_name(x):
    kind = "a" if abs(x) % 2 else "b"
    handle = (abs(x) + 1) // 2
    return "%s%d%s" % (kind, handle, "" if x > 0 else "'")


class FreeWord(Value):
    """A freely reduced word in the surface generators.

    >>> w = FreeWord((1, 2, -2, 2))
    >>> w.letters
    (1, 2)
    >>> str(w)
    'a1 b1'
    >>> str(w * w.inverse())
    '1'
    >>> FreeWord.alpha(2) ** -2
    FreeWord((-3, -3))
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        if any(not isinstance(x, int) or x == 0 for x in letters):
            raise ValueError("letters must be nonzero integers")
        set_field(self, "letters", _reduce(letters))

    @staticmethod
    def alpha(i):
        return FreeWord((2 * i - 1,))

    @staticmethod
    def beta(i):
        return FreeWord((2 * i,))

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return FreeWord(base.letters * abs(n))

    def __bool__(self):
        return bool(self.letters)

    def __repr__(self):
        return "FreeWord(%r)" % (self.letters,)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(_letter_name(x) for x in self.letters)

    def substituted(self, images):
        """Replace letter k by ``images[k - 1]`` (a FreeWord each).

        >>> w = FreeWord((2, -1))
        >>> w.substituted((FreeWord((1,)), FreeWord((2, 1))))
        FreeWord((2,))
        """
        out = []
        for x in self.letters:
            img = images[abs(x) - 1]
            out.extend(img.letters if x > 0 else img.inverse().letters)
        return FreeWord(tuple(out))

    def homology(self, g):
        """Exponent sums in (a_1..a_g, b_1..b_g) coordinates.

        >>> FreeWord((1, 2, -1, -2)).homology(1)
        (0, 0)
        >>> FreeWord((2, 3)).homology(2)
        (0, 1, 1, 0)
        """
        v = [0] * (2 * g)
        for x in self.letters:
            k = abs(x)
            if k > 2 * g:
                raise ValueError("letter %d outside the genus-%d alphabet"
                                 % (x, g))
            handle = (k + 1) // 2 - 1
            pos = handle if k % 2 else g + handle
            v[pos] += 1 if x > 0 else -1
        return tuple(v)


def boundary_word(g):
    """The fixed boundary word, a product of commutators.

    >>> str(boundary_word(1))
    "a1 b1 a1' b1'"
    """
    out = []
    for i in range(1, g + 1):
        a, b = 2 * i - 1, 2 * i
        out.extend((a, b, -a, -b))
    return FreeWord(tuple(out))


# -- mapping classes -------------------------------------------------------


class MappingClass(Value):
    """A boundary-fixing substitution together with its homology matrix.

    ``images[k - 1]`` is the image word of letter k (interleaved order
    a1, b1, a2, b2, ...); ``matrix`` rows are the images of the basis
    (a_1..a_g, b_1..b_g) in the same split coordinates, acting on row
    vectors from the right.

    >>> f = twist_generators(1)["ta"]
    >>> str(f.apply(FreeWord((2,))))
    'b1 a1'
    >>> f.matrix
    ((1, 0), (1, 1))
    """

    __slots__ = ("g", "images", "matrix")

    def __init__(self, g, images):
        if len(images) != 2 * g:
            raise ValueError("need one image word per generator")
        images = tuple(
            w if isinstance(w, FreeWord) else FreeWord(tuple(w))
            for w in images
        )
        bnd = boundary_word(g)
        if bnd.substituted(images) != bnd:
            raise ValueError("substitution does not fix the boundary word")
        rows = []
        for i in range(1, g + 1):
            rows.append(images[2 * i - 2].homology(g))
        for i in range(1, g + 1):
            rows.append(images[2 * i - 1].homology(g))
        matrix = tuple(rows)
        if not is_symplectic(matrix):
            raise ValueError("substitution breaks the intersection form")
        set_field(self, "g", g)
        set_field(self, "images", images)
        set_field(self, "matrix", matrix)

    @classmethod
    def identity(cls, g):
        return cls(g, tuple(FreeWord((k,)) for k in range(1, 2 * g + 1)))

    def apply(self, word):
        return word.substituted(self.images)

    def __mul__(self, other):
        """Composition ``self after other``."""
        if self.g != other.g:
            raise ValueError("genus mismatch")
        return MappingClass(
            self.g, tuple(self.apply(w) for w in other.images)
        )


def _mk(g, image_dict):
    images = []
    for k in range(1, 2 * g + 1):
        images.append(FreeWord(image_dict.get(k, (k,))))
    return MappingClass(g, tuple(images))


def twist_generators(g):
    """Validated Dehn twist substitutions; primed names are inverses.

    Genus one: ``ta`` (b1 -> b1 a1) and ``tb`` (a1 -> a1 b1').  Genus
    two adds the same twists on each handle, the handle swap, and the
    ``chain`` twist whose matrix is the transvection along a1 - a2.

    >>> lib = twist_generators(1)
    >>> str((lib["ta"] * lib["ta'"]).apply(FreeWord((2,))))
    'b1'
    >>> twist_generators(2)["chain"].matrix[2]
    (1, -1, 1, 0)
    """
    if g == 1:
        return {
            "ta": _mk(1, {2: (2, 1)}),
            "ta'": _mk(1, {2: (2, -1)}),
            "tb": _mk(1, {1: (1, -2)}),
            "tb'": _mk(1, {1: (1, 2)}),
        }
    if g == 2:
        lib = {
            "ta1": _mk(2, {2: (2, 1)}),
            "ta1'": _mk(2, {2: (2, -1)}),
            "tb1": _mk(2, {1: (1, -2)}),
            "tb1'": _mk(2, {1: (1, 2)}),
            "ta2": _mk(2, {4: (4, 3)}),
            "ta2'": _mk(2, {4: (4, -3)}),
            "tb2": _mk(2, {3: (3, -4)}),
            "tb2'": _mk(2, {3: (3, 4)}),
            # twist along a curve through both handles (class a1 - a2)
            "chain": _mk(2, {
                2: (-3, 2, 1),
                3: (-3, 2, 1, -2, 3, 2, -1, -2, 3),
                4: (4, 2, -1, -2, 3),
            }),
            "chain'": _mk(2, {
                2: (2, -1, -2, 3, 2),
                3: (2, -1, -2, 3, 2, 1, -2),
                4: (4, -3, 2, 1, -2),
            }),
            # exchange the handles, conjugating to keep the boundary word
            "swap": _mk(2, {
                1: (3,),
                2: (4,),
                3: (4, 3, -4, -3, 1, 3, 4, -3, -4),
                4: (4, 3, -4, -3, 2, 3, 4, -3, -4),
            }),
            "swap'": _mk(2, {
                1: (1, 2, -1, -2, 3, 2, 1, -2, -1),
                2: (1, 2, -1, -2, 4, 2, 1, -2, -1),
                3: (1,),
                4: (2,),
            }),
        }
        return lib
    raise ValueError("twist library covers genus 1 and 2 only")


# -- the braid-group quotient ----------------------------------------------


class BraidWord(Value):
    """A word in surface braid letters s<i>, a<r>, b<r> ('-' inverts).

    >>> BraidWord(("s1", "-a2")).letters
    ('s1', '-a2')
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        set_field(self, "letters", letters)
        for tok in letters:
            body = tok[1:] if tok.startswith("-") else tok
            if (len(body) < 2 or body[0] not in "sab"
                    or not body[1:].isdigit() or int(body[1:]) < 1):
                raise ValueError("bad braid letter %r" % (tok,))


def braid_phi(word, g):
    """Image of a braid word in the integral Heisenberg group.

    Every braid generator s<i> maps to the central (1, 0), the surface
    letters a<r>, b<r> to (0, a_r), (0, b_r), and products follow the
    group law (k, x)(l, y) = (k + l + x.y, x + y).

    >>> braid_phi(("s1",), 1)
    (1, (0, 0))
    >>> braid_phi(("a1", "b1", "-a1", "-b1"), 1)
    (2, (0, 0))
    >>> lhs = braid_phi(("s1", "b2", "s1", "a2", "s1"), 2)
    >>> lhs == braid_phi(("a2", "s1", "b2"), 2)
    True
    """
    letters = word.letters if isinstance(word, BraidWord) else BraidWord(
        tuple(word)).letters
    k, x = 0, (0,) * (2 * g)
    for tok in letters:
        sign = -1 if tok.startswith("-") else 1
        body = tok[1:] if sign < 0 else tok
        kind, idx = body[0], int(body[1:])
        if kind == "s":
            k += sign
            continue
        if idx > g:
            raise ValueError("letter %r outside genus %d" % (tok, g))
        y = [0] * (2 * g)
        y[idx - 1 if kind == "a" else g + idx - 1] = sign
        k += intersection(x, y)
        x = tuple(u + v for u, v in zip(x, y))
    return (k, x)


# -- the crossed homomorphism ----------------------------------------------


def _morita_sums(letters, g):
    """d_1, ..., d_g of a word, in one pass over its letters.

    Restricted to the i-th generator pair, a word reads as blocks
    a^nu_k b^mu_k with nu, mu in {-1, 0, 1}, and d_i is
    sum_{j<=k} nu_j mu_k - sum_{j>k} nu_j mu_k = sum_k mu_k (2 P_k - N)
    with P_k = nu_1 + ... + nu_k and N the last P_k.  So an a-letter
    moves P and a b-letter adds its sign times P.  A cancelling pair
    x x^-1 adds nothing, so the restriction needs no free reduction.
    Every letter must lie in the genus-g alphabet.
    """
    run = [0] * (2 * g + 1)    # P_i at 2i - 1, sum of mu_k P_k at 2i
    mus = [0] * (2 * g + 1)    # sum of mu_k at 2i
    for x in letters:
        if x > 0:
            if x & 1:
                run[x] += 1
            else:
                run[x] += run[x - 1]
                mus[x] += 1
        elif x & 1:
            run[-x] -= 1
        else:
            run[-x] -= run[-x - 1]
            mus[-x] -= 1
    return [2 * run[b] - run[b - 1] * mus[b] for b in range(2, 2 * g + 1, 2)]


def morita_d(word, i):
    """The counting function d_i of a word.

    Project onto the i-th generator pair, decompose the reduced word
    into alternating blocks a^nu b^mu with nu, mu in {-1, 0, 1}, and
    return sum_{j<=k} nu_j mu_k - sum_{j>k} nu_j mu_k.

    >>> morita_d(FreeWord((1, 2)), 1)
    1
    >>> morita_d(FreeWord((2, 1)), 1)
    -1
    >>> morita_d(FreeWord((1,)), 1)
    0
    >>> morita_d(FreeWord((3, 2, 4, -3, 1)), 1)    # projects to b1 a1
    -1
    """
    if i < 1:
        raise ValueError("handle index must be positive, got %d" % i)
    letters = word.letters
    top = max(map(abs, letters), default=0)
    return _morita_sums(letters, max(i, (top + 1) // 2))[i - 1]


def theta(f):
    """Values of the crossed homomorphism on (a_1..a_g, b_1..b_g).

    theta(f)(x) = sum_i d_i(f(x)) on each generator loop x (d_i of a
    single letter is 0), one pass over each image word; it obeys
    theta_{g o f}(x) = theta_f(x) + theta_g(f_* x).

    >>> theta(MappingClass.identity(2))
    (0, 0, 0, 0)
    >>> theta(twist_generators(1)["ta"])
    (0, -1)
    """
    return tuple(sum(_morita_sums(w.letters, f.g))
                 for w in f.images[0::2] + f.images[1::2])


def t_dual(theta_vec, p):
    """The class t with theta(x) = 2 t.x mod p (p odd).

    >>> t_dual((0, -1), 3)
    (1, 0)
    >>> t_dual((0, 0, 0, 0), 5)
    (0, 0, 0, 0)
    """
    if p % 2 == 0:
        raise ValueError("2 is not invertible for even order %d" % p)
    if len(theta_vec) % 2:
        raise ValueError("theta vector must have even length")
    g = len(theta_vec) // 2
    inv2 = pow(2, -1, p)
    a_part = tuple(inv2 * theta_vec[g + i] % p for i in range(g))
    b_part = tuple(-inv2 * theta_vec[i] % p for i in range(g))
    return a_part + b_part


def _symplectic_inverse(F):
    """Inverse of a symplectic matrix [[A, B], [C, D]]: the blocks
    [[D^T, -B^T], [-C^T, A^T]], which is J F^T (-J)."""
    n = len(F)
    g = n // 2
    return tuple(
        tuple(F[(c + g) % n][(r + g) % n] if (r < g) == (c < g)
              else -F[(c + g) % n][(r + g) % n] for c in range(n))
        for r in range(n))


# -- Weil intertwiners -----------------------------------------------------


def weil_intertwiner(fsymp, ctx):
    """The Stone-von Neumann isomorphism for the symplectic twist.

    Returns a nonzero matrix ``{(target, source): value}`` with
    rho(k, f x) S = S rho(k, x) for every finite group element,
    normalized so the first nonzero entry in row-major label order
    is 1.  Computed by Schur averaging of seed matrices over the
    finite group; uniqueness up to scalar makes the result canonical.

    >>> from .heisenberg import closed_context
    >>> ctx = closed_context(3, 1)
    >>> S = weil_intertwiner(((1, 0), (0, 1)), ctx)
    >>> len(S) == 3 and all(S[(c, c)] == one(24) for c in ctx.labels())
    True
    """
    p = ctx.p
    pp = ctx.p_prime
    if len(fsymp) != 2 * ctx.g or not _is_symplectic_basis(fsymp, p):
        raise ValueError("matrix must be symplectic mod %d" % p)
    M = field_order(p)
    unit = M // p
    labs = ctx.labels()
    # precompute one monomial pair per central-free group element
    frame = tuple(ctx.L) + tuple(ctx.Ldual)
    data = []
    for a in labs:
        for b in labs:
            x = combine(a + b, frame)
            k0 = -sum(u * v for u, v in zip(a, b))
            hf = to_finite(ctx, k0, combine(x, fsymp))
            hi = finite_inverse(ctx, (0, a, b))
            data.append((hf, hi))

    def _project(seed):
        counts = {}
        for (kf, af, bf), (ki, ai, bi) in data:
            if seed is None:
                ezs = {}
                for z in labs:
                    src = tuple((u - v) % pp for u, v in zip(z, bf))
                    ezs[z] = kf + 2 * sum(u * v for u, v in zip(af, src))
                ews = {}
                for w in labs:
                    ews[w] = ki + 2 * sum(u * v for u, v in zip(ai, w))
                for z, ez in ezs.items():
                    for w, ew in ews.items():
                        vec = counts.setdefault((z, w), [0] * p)
                        vec[(ez + ew) % p] += 1
            else:
                c0, c1 = seed
                z = tuple((u + v) % pp for u, v in zip(c0, bf))
                w = tuple((u - v) % pp for u, v in zip(c1, bi))
                e = (kf + 2 * sum(u * v for u, v in zip(af, c0))
                     + ki + 2 * sum(u * v for u, v in zip(ai, w)))
                vec = counts.setdefault((z, w), [0] * p)
                vec[e % p] += 1
        out = {}
        for key, vec in counts.items():
            val = exponent_sum(M, {unit * e: c for e, c in enumerate(vec)})
            if val != 0:
                out[key] = val
        return out

    seeds = [None] + [(c0, c1) for c0 in labs for c1 in labs]
    for seed in seeds:
        S = _project(seed)
        if S:
            for z in labs:
                for w in labs:
                    if (z, w) in S:
                        scale = S[(z, w)].inverse()
                        return {k: v * scale for k, v in S.items()}
    raise RuntimeError(
        "averaging produced no intertwiner; the representation "
        "would not be irreducible")


def heisenberg_twist(f, ctx):
    """The monomial operator rho(0, f_*(t_f)) by which the full
    Heisenberg twist of f differs from the symplectic one (odd order
    only); t_f is the dual class of theta(f).

    >>> from .heisenberg import closed_context
    >>> ctx = closed_context(3, 1)
    >>> heisenberg_twist(MappingClass.identity(1), ctx).entries
    (((0,), (0,), 0), ((1,), (1,), 0), ((2,), (2,), 0))
    """
    if ctx.p % 2 == 0:
        raise ValueError("the Heisenberg twist needs odd order")
    if f.g != ctx.g:
        raise ValueError("genus mismatch")
    t = t_dual(theta(f), ctx.p)
    return monomial_of(ctx, to_finite(ctx, 0, combine(t, f.matrix)))


def weil_H(f, ctx):
    """The intertwiner for the full Heisenberg twist (odd order only).

    S_H(f) = rho(0, f_*(t_f)) o S(f), with S the normalized symplectic
    intertwiner and rho(0, f_*(t_f)) the :func:`heisenberg_twist`.

    >>> from .heisenberg import closed_context
    >>> ctx = closed_context(3, 1)
    >>> weil_H(MappingClass.identity(1), ctx) == weil_intertwiner(
    ...     ((1, 0), (0, 1)), ctx)
    True
    """
    twist = heisenberg_twist(f, ctx)
    return compose_maps(twist.as_map(), weil_intertwiner(f.matrix, ctx))


def projective_defect(A, B, C):
    """The scalar lambda with A B = lambda C, entrywise and exact.

    >>> I = {((0,), (0,)): one(24)}
    >>> projective_defect(I, I, I) == one(24)
    True
    """
    prod = compose_maps(A, B)
    C = {k: v for k, v in C.items() if v != 0}
    if not C:
        raise ValueError("reference matrix is zero")
    k0 = min(C)
    lam = prod.get(k0)
    if lam is None:
        raise ValueError("product misses a reference entry")
    lam = lam / C[k0]
    for key in set(prod) | set(C):
        left = prod.get(key)
        right = C.get(key)
        if left is None or right is None or left != lam * right:
            raise ValueError("product is not proportional to the reference")
    return lam


def cocycle_c(f, g, p):
    """The 2-cocycle with S_H(f) S_H(g) = q^c(f,g) S_H(f g), mod p.

    All three closed forms are evaluated and must agree:
    g_*^{-1}(t_f).t_g  =  t_f.g_*(t_g)  =  -t_f.t_{g^{-1}}.

    >>> lib = twist_generators(1)
    >>> cocycle_c(lib["ta"], lib["tb"], 3)
    2
    >>> cocycle_c(MappingClass.identity(1), lib["tb"], 5)
    0
    """
    if p % 2 == 0:
        raise ValueError("the cocycle needs odd order")
    if f.g != g.g:
        raise ValueError("genus mismatch")
    t_f = t_dual(theta(f), p)
    t_g = t_dual(theta(g), p)
    pushed = combine(t_g, g.matrix)
    c1 = intersection(combine(t_f, _symplectic_inverse(g.matrix)), t_g) % p
    c2 = intersection(t_f, pushed) % p
    t_g_inv = tuple(-x % p for x in pushed)
    c3 = -intersection(t_f, t_g_inv) % p
    if not c1 == c2 == c3:
        raise ArithmeticError("closed forms of the cocycle disagree")
    return c1
