"""Finite Heisenberg groups attached to surfaces and their Schrodinger
modules, plus the bimodule-tensor construction of cobordism maps.

The integral Heisenberg group of a surface is Z x H_1 with the
intersection cocycle; a choice of transverse Lagrangian pair (L, Ldual)
splits every class as a + b and identifies the quotient by the
depth-(p, p') congruence subgroup with a finite group on triples
(k mod p, a mod p', b mod p').  The Schrodinger module W_q(L) has basis
b_c indexed by c in (Z/p')^g, acted on by monomial matrices.  Linear
maps between such modules are sparse matrices {(target, source):
CycNum}; ``compose_maps`` and ``apply_map`` are their only product and
action.

A correspondence context puts the same structure on a cobordism
boundary -Sigma_- + Sigma_+ using the pairing-identity bases carried by
a :class:`~abtqft.homology.Correspondence`.  ``induced_map_oracle``
computes the map of a simple cobordism directly from the definition:
tensor W_q(L_C) with the incoming module, impose the bimodule
relations, and read the result off the surviving basis classes.  It is
deliberately independent of any closed formula so the two can be
checked against each other.
"""

from __future__ import annotations

import itertools

from .cyclotomic import (field_degree, field_order, one, p_prime,
                         p_prime_power, q_power)
from .homology import (
    Correspondence,
    _is_symplectic_basis,
    boundary_intersection,
    combine,
    standard_dual,
    standard_lagrangian,
)
from .value import Value, set_field

__all__ = [
    "HeisContext",
    "closed_context",
    "correspondence_context",
    "labels",
    "split_coords",
    "to_finite",
    "finite_mul",
    "finite_inverse",
    "MonomialOp",
    "monomial_of",
    "schrodinger_act",
    "identity_map",
    "compose_maps",
    "apply_map",
    "right_act_boundary",
    "induced_map_oracle",
    "commutant_dim",
    "frame_work", "module_work", "oracle_pairs", "oracle_work",
    "commutant_work",
]


def labels(p_pr, g):
    """All module labels (Z/p')^g in row-major order."""
    return list(itertools.product(range(p_pr), repeat=g))


class HeisContext(Value):
    """A surface (or cobordism boundary) with a split Heisenberg group.

    ``g_minus`` leading handles carry the reversed orientation; closed
    surfaces have ``g_minus = 0``.  ``L`` and ``Ldual`` are ordered
    bases with ``form(L[i], Ldual[j]) = delta_ij``.
    """

    __slots__ = ("p", "g_minus", "g_plus", "L", "Ldual")

    def __init__(self, p, g_minus, g_plus, L, Ldual):
        set_field(self, "p", p)
        set_field(self, "g_minus", g_minus)
        set_field(self, "g_plus", g_plus)
        set_field(self, "L", L)
        set_field(self, "Ldual", Ldual)
        if self.p < 3 or self.p % 4 == 2:
            raise ValueError("order must be odd or divisible by 4")
        if len(self.L) != self.g or not _is_symplectic_basis(
                tuple(self.L) + tuple(self.Ldual), form=self.form):
            raise ValueError("L and Ldual must be a symplectic basis "
                             "with form(L[i], Ldual[j]) = delta_ij")

    @property
    def g(self):
        return self.g_minus + self.g_plus

    @property
    def p_prime(self):
        return p_prime(self.p)

    def form(self, x, y):
        return boundary_intersection(x, y, self.g_minus, self.g_plus)

    def labels(self):
        return labels(self.p_prime, self.g)


def closed_context(p, g):
    """Standard meridian/longitude context on a closed genus-g surface."""
    return HeisContext(p=p, g_minus=0, g_plus=g, L=standard_lagrangian(g),
                       Ldual=standard_dual(g))


def frame_work(g):
    """The items of checking a genus-g frame (:func:`closed_context`)."""
    return {"frame": g ** 3}


def correspondence_context(p, corr: Correspondence):
    """Context on the boundary of a simple cobordism, in the
    pairing-identity order fixed by the correspondence."""
    return HeisContext(
        p=p,
        g_minus=corr.g_minus,
        g_plus=corr.g_plus,
        L=corr.adapted,
        Ldual=corr.adapted_dual,
    )


# -- group laws -----------------------------------------------------------


def split_coords(ctx, x):
    """Integer coordinates (alpha, beta) with
    x = sum alpha_i L[i] + sum beta_i Ldual[i]."""
    alpha = tuple(ctx.form(x, w) for w in ctx.Ldual)
    beta = tuple(ctx.form(u, x) for u in ctx.L)
    if combine(alpha + beta, tuple(ctx.L) + tuple(ctx.Ldual)) != tuple(x):
        raise ValueError("class does not lie in the split lattice")
    return alpha, beta


def to_finite(ctx, k, x):
    """Image of the integral element (k, x) in the finite quotient.

    The central correction a.b makes this a homomorphism onto the
    split form of the group law.

    >>> ctx = closed_context(3, 1)
    >>> to_finite(ctx, 0, (1, 1))     # a_1 + b_1
    (1, (1,), (1,))
    >>> to_finite(ctx, 3, (3, 0))     # the congruence subgroup dies
    (0, (0,), (0,))
    """
    alpha, beta = split_coords(ctx, x)
    correction = sum(a * b for a, b in zip(alpha, beta))
    pp = ctx.p_prime
    return (
        (k + correction) % ctx.p,
        tuple(a % pp for a in alpha),
        tuple(b % pp for b in beta),
    )


def finite_mul(ctx, e1, e2):
    """Split group law (k,a,b)(k',a',b') = (k+k'+2a.b', a+a', b+b').

    >>> ctx = closed_context(3, 1)
    >>> finite_mul(ctx, (0, (1,), (0,)), (0, (0,), (1,)))
    (2, (1,), (1,))
    """
    k1, a1, b1 = e1
    k2, a2, b2 = e2
    pp = ctx.p_prime
    k = (k1 + k2 + 2 * sum(x * y for x, y in zip(a1, b2))) % ctx.p
    return (
        k,
        tuple((x + y) % pp for x, y in zip(a1, a2)),
        tuple((x + y) % pp for x, y in zip(b1, b2)),
    )


def finite_inverse(ctx, e):
    k, a, b = e
    pp = ctx.p_prime
    k_inv = (-k + 2 * sum(x * y for x, y in zip(a, b))) % ctx.p
    return (
        k_inv,
        tuple((-x) % pp for x in a),
        tuple((-x) % pp for x in b),
    )


# -- the Schrodinger module ----------------------------------------------


class MonomialOp(Value):
    """An operator b_c -> q^e(c) b_pi(c), stored as c -> (pi(c), e(c)).

    ``entries`` is a sorted tuple of (label, target, exponent mod p).
    """

    __slots__ = ("p", "entries")

    def __init__(self, p, entries):
        set_field(self, "p", p)
        set_field(self, "entries", entries)

    @classmethod
    def from_dict(cls, p, mapping):
        items = tuple(
            (c, t, e % p) for c, (t, e) in sorted(mapping.items())
        )
        return cls(p=p, entries=items)

    def as_dict(self):
        return {c: (t, e) for c, t, e in self.entries}

    def as_map(self):
        """The operator as a sparse matrix {(target, source): q^e}, the
        form :func:`compose_maps` multiplies."""
        return {(t, c): q_power(self.p, e) for c, t, e in self.entries}


def monomial_of(ctx, fin):
    """Schrodinger action of a finite element:
    (k, a, b) . b_c = q^(k + 2 a.c) b_(c + b)."""
    k, a, b = fin
    pp = ctx.p_prime
    mapping = {}
    for c in ctx.labels():
        phase = (k + 2 * sum(x * y for x, y in zip(a, c))) % ctx.p
        target = tuple((x + y) % pp for x, y in zip(c, b))
        mapping[c] = (target, phase)
    return MonomialOp.from_dict(ctx.p, mapping)


def schrodinger_act(ctx, fin, vec):
    """Apply a finite element to {label: CycNum} (missing labels are
    zero)."""
    return apply_map(monomial_of(ctx, fin).as_map(), vec)


def module_work(p, g):
    """The items of an operator on the genus-g Schrodinger module: the
    frame and its p'^g entries, built and printed."""
    phi, labels = field_degree(p), p_prime_power(p, g)
    return {**frame_work(g), "entries": labels * phi,
            "printed": labels * (phi + 64)}


# -- maps as sparse matrices over the cyclotomic field --------------------


def identity_map(ctx):
    unit = one(field_order(ctx.p))
    return {(c, c): unit for c in ctx.labels()}


def compose_maps(m2, m1):
    """Matrix product m2 @ m1 of sparse label-indexed maps."""
    by_in = {}
    for (out, mid), v in m2.items():
        by_in.setdefault(mid, []).append((out, v))
    result = {}
    for (mid, inp), v1 in m1.items():
        for out, v2 in by_in.get(mid, ()):
            key = (out, inp)
            term = v2 * v1
            if key in result:
                result[key] = result[key] + term
            else:
                result[key] = term
    return {k: v for k, v in result.items() if v != 0}


def apply_map(m, vec):
    """Apply a sparse map to a vector {label: CycNum}."""
    out = {}
    for (z, w), coeff in m.items():
        v = vec.get(w)
        if v is None:
            continue
        term = coeff * v
        if z in out:
            out[z] = out[z] + term
        else:
            out[z] = term
    return {k: v for k, v in out.items() if v != 0}


def right_act_boundary(corr_ctx, minus_elem):
    """Finite image in the boundary group of an integral element (k, x)
    of the incoming surface group, included in the minus block.

    Because the minus block carries the reversed form this inclusion is
    an anti-homomorphism, which is exactly what a right action needs.
    """
    k, x = minus_elem
    padded = tuple(x) + (0,) * (2 * corr_ctx.g_plus)
    return to_finite(corr_ctx, k, padded)


# -- sparse elimination over the cyclotomic field -------------------------


def _monomial_rows(p, relations):
    """The sparse rows q^e1 [k1] - q^e2 [k2] of two-term monomial
    relations, from tuples (k1, e1, k2, e2), skipping rows that cancel.
    A generator, so ``_echelonize`` eliminates each row as it is made
    and never holds more than its pivots."""
    for k1, e1, k2, e2 in relations:
        lead, dec = q_power(p, e1), q_power(p, e2)
        if k1 != k2:
            yield {k1: lead, k2: -dec}
        else:
            lead = lead - dec
            if lead != 0:
                yield {k1: lead}


def _echelonize(rows, col_rank):
    """Reduce sparse relation rows (dicts col -> CycNum, consumed in
    order, each one mutated) to a pivot map col -> expansion, where each
    expansion writes the pivot column as a combination of non-pivot
    columns.  ``col_rank`` orders the columns; pivots prefer low rank.
    Relation rows repeat a few pivot values many times, so each distinct
    pivot value is inverted once per call (``negated_inverses``)."""
    pivots = {}
    negated_inverses = {}

    def _substitute(target, col, coeff, expansion):
        for c2, v2 in expansion.items():
            acc = target.get(c2, None)
            term = coeff * v2
            acc = term if acc is None else acc + term
            if acc == 0:
                target.pop(c2, None)
            else:
                target[c2] = acc

    for row in rows:
        while True:
            live = [c for c in row if c in pivots]
            if not live:
                break
            for c in live:
                coeff = row.pop(c, None)
                if coeff is not None:
                    _substitute(row, c, coeff, pivots[c])
        row = {c: v for c, v in row.items() if v != 0}
        if not row:
            continue
        pc = min(row, key=col_rank)
        lead = row[pc]
        factor = negated_inverses.get(lead)
        if factor is None:
            factor = negated_inverses[lead] = -lead.inverse()
        expansion = {c: v * factor for c, v in row.items() if c != pc}
        for other in pivots.values():
            if pc in other:
                coeff = other.pop(pc)
                _substitute(other, pc, coeff, expansion)
        pivots[pc] = expansion
    return pivots


def _tensor_quotient(p, corr: Correspondence):
    """Shared elimination behind the bimodule-tensor oracle: returns
    (pairs, designated, pivots, ctx_c) for the quotient of the plain
    tensor product by the relations (B.h) x w = B x (h.w)."""
    ctx_c = correspondence_context(p, corr)
    g_minus, g_plus = corr.g_minus, corr.g_plus
    ctx_minus = HeisContext(
        p=p, g_minus=0, g_plus=g_minus,
        L=corr.source_L, Ldual=corr.source_Ldual,
    )
    pp = ctx_c.p_prime
    labels_c = ctx_c.labels()
    labels_minus = ctx_minus.labels()
    pairs = [(z, w) for z in labels_c for w in labels_minus]

    # columns ordered so the designated classes come last; a designated
    # class has its label supported on the dual-basis rows of the form
    # (0, y), listed by the correspondence's plus block
    designated = {}
    for z_plus in labels(pp, g_plus):
        z = [0] * ctx_c.g
        for pos, val in zip(corr.plus_block, z_plus):
            z[pos] = val
        designated[(tuple(z), (0,) * g_minus)] = z_plus
    order = {}
    rank = 0
    for pr in pairs:
        if pr not in designated:
            order[pr] = rank
            rank += 1
    for pr in pairs:
        if pr in designated:
            order[pr] = rank
            rank += 1

    def relations():
        # (B.h) x w = B x (h.w) for each generator h of the incoming group
        for gen in tuple(ctx_minus.L) + tuple(ctx_minus.Ldual):
            left = monomial_of(ctx_c, right_act_boundary(ctx_c, (0, gen)))
            right = monomial_of(ctx_minus, to_finite(ctx_minus, 0, gen))
            left, right = left.as_dict(), right.as_dict()
            for z, w in pairs:
                (zt, ze), (wt, we) = left[z], right[w]
                yield (zt, w), ze, (z, wt), we

    pivots = _echelonize(_monomial_rows(p, relations()), lambda c: order[c])
    return pairs, designated, pivots, ctx_c


def induced_map_oracle(p, corr: Correspondence):
    """Matrix of the cobordism map computed from the bimodule tensor
    product, as a dict (out_label, in_label) -> CycNum.

    The tensor of the correspondence module with the incoming module is
    cut down by the relations (B.h) x w = B x (h.w) over the incoming
    Heisenberg group; the surviving classes B_(0, z) x b_0 are
    identified with the outgoing basis.  Its checks survive ``-O``.
    """
    pairs, designated, pivots, ctx_c = _tensor_quotient(p, corr)
    pp = ctx_c.p_prime
    where = "oracle at p=%d, g-=%d, g+=%d: " % (p, corr.g_minus, corr.g_plus)
    if len(pivots) != len(pairs) - pp ** corr.g_plus:
        raise AssertionError(where + "quotient dimension %d, expected %d" % (
            len(pairs) - len(pivots), pp ** corr.g_plus))
    if any(c in designated for c in pivots):
        raise AssertionError(where + "a designated class is eliminated")

    labels_minus = labels(pp, corr.g_minus)
    matrix = {}
    for w in labels_minus:
        start = ((0,) * ctx_c.g, w)
        if start in designated:
            expansion = {start: one(field_order(p))}
        else:
            expansion = dict(pivots[start])
        for col, coeff in expansion.items():
            z_plus = designated.get(col)
            if z_plus is None:
                raise AssertionError(
                    where + "class escaped the designated span")
            matrix[(z_plus, w)] = coeff
    return matrix


def oracle_pairs(p, g):
    """The tensor pairs of :func:`induced_map_oracle` on an index-2 step
    from genus g: p'^(2g-1) correspondence labels by p'^g incoming ones."""
    return p_prime_power(p, 3 * g - 1)


def oracle_work(p, g):
    """The items of :func:`induced_map_oracle` on an index-2 step from
    genus g: each tensor pair with a relation row per generator, 2g."""
    return {"tensor_pairs": 2 * g * oracle_pairs(p, g) * field_degree(p)}


def commutant_dim(ops, all_labels):
    """Dimension of the joint commutant of monomial operators: the
    unknowns M[r, c] with q^e(c) M[r, pi(c)] = q^e(s) M[s, c] for each
    operator b_c -> q^e(c) b_pi(c), where s = pi^-1(r)."""
    n = len(all_labels)
    index = {lab: i for i, lab in enumerate(all_labels)}

    def relations(op):
        d = op.as_dict()
        inv_perm = {t: c for c, (t, _) in d.items()}
        for r in all_labels:
            src = inv_perm[r]
            for c in all_labels:
                yield ((index[r], index[d[c][0]]), d[c][1],
                       (index[src], index[c]), d[src][1])

    rows = itertools.chain.from_iterable(
        _monomial_rows(op.p, relations(op)) for op in ops)
    return n * n - len(_echelonize(rows, lambda c: c))


def commutant_work(p, g):
    """The items of the genus-g commutant: the frame, 2g operators on
    p'^g labels and p'^(2g) unknowns."""
    phi = field_degree(p)
    return {**frame_work(g), "entries": 2 * g * p_prime_power(p, g) * phi,
            "unknowns": p_prime_power(p, 2 * g) * phi}


if __name__ == "__main__":
    import doctest

    doctest.testmod()
