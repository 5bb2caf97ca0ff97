"""Exact arithmetic in the cyclotomic field Q(zeta_M) with M = lcm(8, p).

The scalar type :class:`CycNum` stores coordinates in the power basis
``1, zeta, ..., zeta^(phi(M)-1)`` after reduction modulo the M-th
cyclotomic polynomial, as integer numerators over one positive common
denominator, with their common factor cancelled.  The field is large
enough to contain a primitive p-th root of unity q, the eighth roots of
unity, and the real square root of p' (p' = p for odd p and p/2 for
even p), so Gauss sums, the normalization eta = 1/sqrt(p') and the
anomaly kappa = g/sqrt(p') are all exact elements.  Equality is
coefficient equality; no floating point enters any decision.

Sums are integer vector operations.  A product runs a schoolbook loop
over the nonzero terms of its sparser operand and is folded back into
the power basis with the integer rows of x^j mod Phi_M.  An inverse is
a table lookup for a root of unity, else a fraction-free extended
Euclid on the numerators.  No Fraction or Decimal enters any field
operation or any display: rationals travel as (numerator, denominator)
pairs, and the module imports neither ``fractions`` nor ``decimal``.
Fractions are still accepted as coordinates and compared and hashed as
the rationals they are; ``CycNum.coeffs`` imports ``fractions`` on first
use.

:func:`approx_parts` is the only numerical surface the package uses: it
prints the real and imaginary parts of an element correctly rounded,
half-up, to a given number of significant digits, from a table of
cosines and sines in integer fixed point.  :func:`to_complex` returns an
mpmath number for library users and imports mpmath only when called.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache

__all__ = [
    "CycNum",
    "cyclotomic_polynomial",
    "make_root",
    "zero",
    "one",
    "from_rational",
    "exponent_sum",
    "field_order",
    "field_degree",
    "q_power",
    "gauss_sum",
    "sqrt_p_prime",
    "eta_kappa",
    "p_prime",
    "p_prime_power",
    "approx_parts",
    "to_complex",
]


def _mobius(n: int) -> int:
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M: int) -> tuple:
    """Integer coefficients (constant term first) of the M-th cyclotomic
    polynomial: the product of (x^d - 1)^mu(M/d) over the divisors d of
    M, with every factor multiplied in before the exact divisions.

    >>> cyclotomic_polynomial(8)
    (1, 0, 0, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if M < 1:
        raise ValueError("order must be positive")
    divisors = [(d, _mobius(M // d)) for d in range(1, M + 1) if M % d == 0]
    poly = [1]
    for d, mu in divisors:
        if mu == 1:
            poly = _schoolbook([-1] + [0] * (d - 1) + [1], poly)
    for d, mu in divisors:
        if mu == -1:
            # poly = q * (x^d - 1) means q[j - d] = poly[j] + q[j]
            for j in range(len(poly) - 1, d - 1, -1):
                poly[j - d] += poly[j]
            if any(poly[:d]):
                raise ArithmeticError("inexact polynomial division")
            poly = poly[d:]
    return tuple(poly)


class _Field:
    """Cached reduction data for one cyclotomic order.

    ``reduction_rows[j - phi]`` holds the integer coordinates of
    x^j mod Phi_M for phi <= j < M; products of reduced elements have
    degree at most 2*phi - 2 < M whenever M is even, so the table covers
    every exponent that can occur.  ``fold_rows`` keeps only the nonzero
    ``(i, coefficient)`` entries of each row.  ``root_index`` maps the
    integer coordinates of each root of unity zeta^j, 0 <= j < M, back
    to j, and ``root`` returns zeta^j itself.
    """

    __slots__ = ("order", "phi", "poly", "reduction_rows", "fold_rows",
                 "_root_index", "_roots")

    def __init__(self, M: int):
        self.order = M
        poly = cyclotomic_polynomial(M)
        self.poly = poly
        phi = len(poly) - 1
        self.phi = phi
        base = tuple(-c for c in poly[:phi])
        rows = [base]
        row = base
        for _ in range(phi + 1, M):
            carry = row[phi - 1]
            shifted = (0,) + row[: phi - 1]
            if carry:
                row = tuple(s + carry * b for s, b in zip(shifted, base))
            else:
                row = shifted
            rows.append(row)
        self.reduction_rows = tuple(rows)
        self.fold_rows = tuple(
            tuple((i, r) for i, r in enumerate(row) if r) for row in rows
        )
        self._root_index = None
        self._roots = None

    def _build_roots(self):
        phi = self.phi
        vectors = [
            (0,) * j + (1,) + (0,) * (phi - j - 1) for j in range(phi)
        ] + list(self.reduction_rows)
        self._root_index = {v: j for j, v in enumerate(vectors)}
        self._roots = tuple(_new(self.order, v, 1) for v in vectors)

    def root_index(self) -> dict:
        """The map from integer coordinates of zeta^j to j, built on
        first use."""
        if self._root_index is None:
            self._build_roots()
        return self._root_index

    def root(self, j: int) -> "CycNum":
        """zeta^j for 0 <= j < M, built once per field."""
        if self._roots is None:
            self._build_roots()
        return self._roots[j]


@lru_cache(maxsize=None)
def _field(M: int) -> _Field:
    return _Field(M)


def _fold(field: _Field, vec: list) -> list:
    """Fold an integer coefficient vector indexed by exponent (below M)
    into the power basis."""
    phi = field.phi
    out = list(vec[:phi])
    if len(out) < phi:
        out.extend([0] * (phi - len(out)))
    rows = field.fold_rows
    for j in range(phi, len(vec)):
        c = vec[j]
        if c:
            for i, r in rows[j - phi]:
                out[i] += c * r
    return out


def _schoolbook(sparse, dense) -> list:
    """Polynomial product by a loop over the nonzero terms of
    ``sparse``; every caller passes integers."""
    out = [0] * (len(sparse) + len(dense) - 1)
    for i, c in enumerate(sparse):
        if c:
            for j, d in enumerate(dense, i):
                out[j] += c * d
    return out


def _mul_numerators(field: _Field, a: tuple, b: tuple) -> tuple:
    """Reduced integer coordinates of the product of two numerator
    vectors, by a schoolbook loop over the sparser one."""
    if a.count(0) < b.count(0):
        a, b = b, a
    return tuple(_fold(field, _schoolbook(a, b)))


class CycNum:
    """Element of Q(zeta_M) in canonical power-basis form.

    The coordinates are stored as a tuple ``num`` of integer numerators
    over one positive denominator ``den``, with gcd(den, *num) = 1 (zero
    has den = 1), so equal elements have equal storage.  ``coeffs`` gives
    the same coordinates as a tuple of Fractions.

    A coordinate given to the constructor is an int, a Fraction, a
    string such as ``"-3/4"`` or a pair (numerator, denominator).
    Arithmetic coerces plain integers and Fractions; elements of
    different orders do not mix.

    >>> i = make_root(8, 2)
    >>> (1 + i) * (1 - i)
    CycNum(8: 2)
    >>> make_root(24, 8) + make_root(24, 16)
    CycNum(24: -1)
    >>> make_root(40, 3).conjugate() == make_root(40, 37)
    True
    >>> make_root(24, 7).inverse() == make_root(24, 17)
    True
    >>> (make_root(8, 1) / 2 + make_root(8, 3) / 6).num
    (0, 3, 0, 1)
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        pairs = [_rational(c) for c in coeffs]
        if len(pairs) != _field(order).phi:
            raise ValueError(
                "expected %d coefficients for order %d, got %d"
                % (_field(order).phi, order, len(pairs))
            )
        den = math.lcm(*[d for _, d in pairs])
        self.order = order
        self.num = tuple(n * (den // d) for n, d in pairs)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coordinates as a tuple of Fractions."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _pairs(self):
        """The coordinates as reduced (numerator, denominator) pairs."""
        den = self.den
        out = []
        for c in self.num:
            g = math.gcd(c, den)
            out.append((c // g, den // g))
        return out

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.order != self.order:
                raise ValueError(
                    "mixed cyclotomic orders %d and %d"
                    % (self.order, other.order)
                )
            return other
        if isinstance(other, int) or _is_fraction(other):
            return from_rational(self.order, other)
        return None

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- ring operations --------------------------------------------------

    def _combine(self, other, op):
        """Coordinate-wise ``op`` (add or sub) over a common denominator."""
        da, db = self.den, other.den
        if da == db:
            return _new(self.order, tuple(map(op, self.num, other.num)), da)
        g = math.gcd(da, db)
        ka, kb = db // g, da // g
        return _new(
            self.order,
            tuple(op(a * ka, b * kb) for a, b in zip(self.num, other.num)),
            da * ka,
        )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(map(operator.neg, self.num)), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _new(
            self.order,
            _mul_numerators(_field(self.order), self.num, other.num),
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def inverse(self) -> "CycNum":
        """Multiplicative inverse.

        A root of unity zeta^j is found in the field's table of roots
        and inverts to zeta^(-j) without arithmetic; any other element
        goes through :meth:`euclid_inverse`, on integers.  Both give the
        same canonical coefficients."""
        field = _field(self.order)
        if self.den == 1:
            j = field.root_index().get(self.num)
            if j is not None:
                return field.root(-j % field.order)
        return self.euclid_inverse()

    def euclid_inverse(self) -> "CycNum":
        """Multiplicative inverse by a fraction-free extended Euclidean
        algorithm on the numerators against Phi_M (irreducible over Q),
        the reference for the root-of-unity path of :meth:`inverse`.

        Each row (r, s) keeps r = s * num mod Phi_M.  A step scales the
        higher row by what the lower leading coefficient does not
        divide, cancels its leading term and divides the row by the gcd
        of its coefficients: the primitive remainder sequence (Collins
        1967, Brown and Traub 1971).  It ends at r = c, a nonzero
        integer, so num^(-1) = s / c."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero cyclotomic element")
        field = _field(self.order)
        r0, s0 = list(field.poly), []
        r1, s1 = list(self.num), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            while len(r0) >= len(r1):
                k = len(r0) - len(r1)
                g = math.gcd(r0[-1], r1[-1])
                m, q = r1[-1] // g, r0[-1] // g
                if m != 1:
                    r0 = [m * c for c in r0]
                    s0 = [m * c for c in s0]
                s0.extend([0] * (k + len(s1) - len(s0)))
                for i, c in enumerate(r1, k):
                    r0[i] -= q * c
                for i, c in enumerate(s1, k):
                    s0[i] -= q * c
                while r0 and not r0[-1]:
                    r0.pop()
                if not r0:
                    raise ArithmeticError(
                        "gcd with cyclotomic polynomial not constant")
                g = math.gcd(*r0, *s0)
                if g != 1:
                    r0 = [c // g for c in r0]
                    s0 = [c // g for c in s0]
            r0, s0, r1, s1 = r1, s1, r0, s0
        den = self.den if r1[0] > 0 else -self.den
        return _new(self.order, tuple(den * c for c in _fold(field, s1)),
                    abs(r1[0]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def conjugate(self) -> "CycNum":
        """Complex conjugation, realized by zeta -> zeta^(M-1)."""
        M = self.order
        vec = [0] * M
        vec[0] = self.num[0]
        for j, c in enumerate(self.num[1:], start=1):
            if c:
                vec[M - j] += c
        return _new(M, tuple(_fold(_field(M), vec)), self.den)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycNum):
            if other.order == self.order:
                return self.num == other.num and self.den == other.den
            return (
                self.is_rational()
                and other.is_rational()
                and self.num[0] == other.num[0]
                and self.den == other.den
            )
        if isinstance(other, int) or _is_fraction(other):
            return (
                self.num[0] == other.numerator
                and self.den == other.denominator
                and self.is_rational()
            )
        return NotImplemented

    def __hash__(self):
        # the hash of the equal Fraction, or of the tuple of them
        if self.is_rational():
            return _rational_hash(self.num[0], self.den)
        if self.den == 1:
            return hash((self.order, self.num))
        return hash((self.order,
                     tuple(_rational_hash(n, d) for n, d in self._pairs())))

    # -- display ----------------------------------------------------------

    def __str__(self):
        terms = []
        for j, (n, d) in enumerate(self._pairs()):
            if not n:
                continue
            body = _rational_str(abs(n), d)
            if j:
                mag = "" if abs(n) == d else body + "*"
                body = mag + ("z" if j == 1 else "z^%d" % j)
            terms.append((n < 0, body))
        if not terms:
            return "0"
        parts = []
        for k, (negative, body) in enumerate(terms):
            if k == 0:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "CycNum(%d: %s)" % (self.order, self)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """The order and the coordinates as strings such as ``"-3/4"``."""
        return {
            "order": self.order,
            "coeffs": [_rational_str(n, d) for n, d in self._pairs()],
        }


def _is_fraction(x) -> bool:
    """Whether x is a Fraction; one exists only once ``fractions`` has
    been imported."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _rational_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for a reduced pair."""
    return str(n) if d == 1 else "%d/%d" % (n, d)


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for a reduced pair, by the rule for numeric
    hashes that ``Fraction.__hash__`` follows."""
    try:
        h = hash(abs(n) * pow(d, -1, sys.hash_info.modulus))
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _rational(c) -> tuple:
    """``c`` as a reduced pair (numerator, denominator > 0): ``c`` is an
    int, a pair of ints, or anything ``Fraction`` takes, such as a
    string ``"-3/4"``; a float raises ``TypeError``.  A string
    [+-]digits[/digits] of ASCII digits is read on integers."""
    if isinstance(c, int):
        return c.numerator, 1  # a bool as its int
    if isinstance(c, str):
        top, slash, bottom = c.partition("/")
        unsigned = top[1:] if top[:1] in ("+", "-") else top
        if (unsigned + bottom).isascii() and unsigned.isdigit() and (
                not slash or bottom.isdigit() and bottom.strip("0")):
            c = int(top), int(bottom) if slash else 1
    if isinstance(c, tuple):
        n, d = c
        if d <= 0:
            raise ValueError("a rational pair needs a positive denominator")
        g = math.gcd(n, d)
        return n // g, d // g
    if isinstance(c, float):
        raise TypeError("expected an exact rational, got the float %r" % (c,))
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator, c.denominator


def _new(order: int, num: tuple, den: int) -> CycNum:
    """A CycNum from integer numerators over a positive denominator,
    cancelling their common factor."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    x = object.__new__(CycNum)
    x.order = order
    x.num = num
    x.den = den
    return x


# -- constructors ---------------------------------------------------------


def zero(M: int) -> CycNum:
    return _new(M, (0,) * _field(M).phi, 1)


def one(M: int) -> CycNum:
    return from_rational(M, 1)


def from_rational(M: int, r) -> CycNum:
    """The rational r, in any form :class:`CycNum` takes a coordinate."""
    n, d = _rational(r)
    return _new(M, (n,) + (0,) * (_field(M).phi - 1), d)


def make_root(M: int, j: int) -> CycNum:
    """zeta_M^j in canonical form.

    M must be divisible by 8 so that the eighth roots of unity (hence
    sqrt(2) and the anomaly kappa) are representable.

    >>> make_root(24, 0)
    CycNum(24: 1)
    >>> make_root(24, 12)
    CycNum(24: -1)
    """
    if M % 8:
        raise ValueError("cyclotomic order %d is not divisible by 8" % M)
    return _field(M).root(j % M)


def exponent_sum(M: int, counts) -> CycNum:
    """Sum of ``counts[j] * zeta_M^j`` with a single reduction pass.

    ``counts`` is a mapping or sequence of integer (or rational)
    multiplicities keyed by exponent; exponents are taken mod M.  This
    is the fast path for Gauss-sum style summations: the loop body is
    integer accumulation and reduction happens once at the end.
    """
    vec = [0] * M
    items = counts.items() if hasattr(counts, "items") else enumerate(counts)
    for j, c in items:
        if c:
            vec[j % M] += c
    return CycNum(M, _fold(_field(M), vec))


# -- roots of unity and Gauss sums ----------------------------------------


def field_order(p: int) -> int:
    """The ambient cyclotomic order M = lcm(8, p)."""
    return 8 * p // math.gcd(8, p)


def field_degree(p: int) -> int:
    """phi(M), the degree of the field of order M = lcm(8, p)."""
    return len(cyclotomic_polynomial(field_order(p))) - 1


def p_prime(p: int) -> int:
    return p if p % 2 else p // 2


def p_prime_power(p: int, k: int) -> int:
    """p'^k for a price: at most 2^64, the exponent cut at 64 first."""
    return min(p_prime(p) ** min(k, 64), 2 ** 64)


def q_power(p: int, e: int) -> CycNum:
    """q^e for the distinguished p-th root q."""
    M = field_order(p)
    return make_root(M, (M // p) * (e % p))


def _square_counts(M: int, m: int, n: int) -> dict:
    """Multiplicities of the exponents (M/m) k^2 mod M over 0 <= k < n,
    the terms of a quadratic Gauss sum at the m-th root zeta_M^(M/m)."""
    step = M // m
    counts: dict = {}
    for k in range(n):
        e = (step * k * k) % M
        counts[e] = counts.get(e, 0) + 1
    return counts


def gauss_sum(p: int):
    """The pair (G, g) of quadratic Gauss sums at the p-th root q.

    G sums q^(k^2) over 0 <= k < p, g over 0 <= k < p'.  For p odd the
    two coincide; for p = 2 mod 4 the full sum G vanishes.

    >>> gauss_sum(6)[0]
    CycNum(24: 0)
    >>> gauss_sum(3)[1] == 1 + 2 * make_root(24, 8)
    True
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    M = field_order(p)
    return (exponent_sum(M, _square_counts(M, p, p)),
            exponent_sum(M, _square_counts(M, p, p_prime(p))))


def _odd_sqrt(M: int, m: int) -> CycNum:
    """The positive square root of an odd m >= 1 inside Q(zeta_M).

    Built from the classical quadratic Gauss sum G_m = sum zeta_m^(k^2),
    which equals sqrt(m) for m = 1 mod 4 and sqrt(-m) for m = 3 mod 4.
    """
    if m == 1:
        return one(M)
    if M % m:
        raise ValueError("%d-th roots of unity unavailable at order %d" % (m, M))
    G = exponent_sum(M, _square_counts(M, m, m))
    if m % 4 == 3:
        G = -make_root(M, M // 4) * G
    return G


def sqrt_p_prime(p: int) -> CycNum:
    """Exact positive square root of p' (so eta = 1/sqrt_p_prime(p)).

    Factors p' = 2^a * m with m odd and multiplies a copies of
    sqrt(2) = zeta_8 + zeta_8^(-1) with the odd Gauss-sum square root.
    """
    M = field_order(p)
    pp = p_prime(p)
    a, m = 0, pp
    while m % 2 == 0:
        m //= 2
        a += 1
    sqrt2 = make_root(M, M // 8) + make_root(M, M - M // 8)
    return sqrt2 ** a * _odd_sqrt(M, m)


@lru_cache(maxsize=None)
def eta_kappa(p: int):
    """The normalization eta = 1/sqrt(p') and anomaly kappa = g * eta,
    computed once per order.

    kappa is checked to be an eighth root of unity (a fourth root for
    odd p), raising ArithmeticError otherwise; failure would mean the
    square-root construction and the Gauss sum disagree, which is a bug
    trap.

    >>> eta_kappa(5)[1]
    CycNum(40: 1)
    >>> eta_kappa(4)[1] == make_root(8, 1)
    True
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    if p % 4 == 2:
        raise ValueError("unsupported order: p = 2 mod 4 has vanishing Gauss sum")
    _, g = gauss_sum(p)
    # sqrt(p') * sqrt(p') = p', so no field inversion is needed
    root = sqrt_p_prime(p)
    eta = _new(root.order, root.num, root.den * p_prime(p))
    kappa = g * eta
    unit = one(field_order(p))
    if kappa ** 8 != unit:
        raise ArithmeticError(
            "kappa is not an eighth root of unity at p = %d" % p)
    if p % 2 and kappa ** 4 != unit:
        raise ArithmeticError(
            "kappa is not a fourth root of unity at p = %d" % p)
    return eta, kappa


# -- approximate display --------------------------------------------------

_GUARD = 10  # decimal digits the trigonometric table carries beyond its scale


def _pi(unit: int) -> int:
    """unit * pi, a power of ten, within 13 units per digit of ``unit``,
    by Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    def arctan_inv(x):
        # unit * arctan(1/x): each term is truncated once, so the sum is
        # within one unit per term
        total, term, k, sign = 0, unit // x, 1, 1
        while term:
            total += sign * (term // k)
            term //= x * x
            k, sign = k + 2, -sign
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def _cos_sin(y: int, unit: int) -> tuple:
    """unit * cos(y / unit) and unit * sin(y / unit) for
    0 <= y <= unit * pi / 4, by their Taylor series on integers: each
    term is truncated once and the terms fall, so each sum is within one
    unit per term."""
    c = s = 0
    term, k = unit, 0
    while term:
        if k % 4 == 0:
            c += term
        elif k % 4 == 1:
            s += term
        elif k % 4 == 2:
            c -= term
        else:
            s -= term
        k += 1
        term = term * y // (k * unit)
    return c, s


@lru_cache(maxsize=None)
def _trig_table(M: int, scale: int) -> tuple:
    """The pair (cos, sin) of integer tuples within 1 of
    10^scale * cos(2 pi j / M) and 10^scale * sin(2 pi j / M), for the
    power-basis exponents 0 <= j < phi(M).

    Each angle is reduced exactly, as a fraction r / M of a quarter
    turn, to [0, pi/4]; the series run in fixed point with ``_GUARD``
    digits to spare.  There pi/2 and the angle are off by at most 13
    units per digit of the fixed-point unit and each series by under a
    hundred units, far below the 10^_GUARD units of one table unit at
    any scale a display reaches, so every entry rounded from there is
    within 1.
    """
    unit = 10 ** (scale + _GUARD)
    spare = 10 ** _GUARD
    half_pi = _pi(unit) // 2
    cos_t, sin_t = [], []
    for j in range(_field(M).phi):
        quarter, r = divmod(4 * j, M)
        if 2 * r <= M:
            c, s = _cos_sin(half_pi * r // M, unit)
        else:
            s, c = _cos_sin(half_pi * (M - r) // M, unit)
        for _ in range(quarter):
            c, s = -s, c
        cos_t.append((2 * c + spare) // (2 * spare))
        sin_t.append((2 * s + spare) // (2 * spare))
    return tuple(cos_t), tuple(sin_t)


def _round_half_up(n: int, d: int, digits: int) -> tuple:
    """n/d (n nonzero, d positive) rounded half-up on its magnitude to
    ``digits`` significant digits: (negative, m, e) with
    10^(digits-1) <= m < 10^digits and |n/d| ~ m * 10^(e - digits + 1)."""
    negative = n < 0
    n = abs(n)
    e = len(str(n)) - len(str(d))
    if (n * 10 ** -e < d) if e < 0 else (n < d * 10 ** e):
        e -= 1
    k = digits - 1 - e
    if k >= 0:
        n *= 10 ** k
    else:
        d *= 10 ** -k
    m = (2 * n + d) // (2 * d)
    if m == 10 ** digits:
        m //= 10
        e += 1
    return negative, m, e


def _layout(negative: bool, m: int, e: int, digits: int) -> str:
    """The layout of mpmath's ``nstr``: fixed notation when
    min(-(digits // 3), -5) < e < digits, else ``m.mmme+x``; trailing
    zeros stripped down to ``.0``."""
    body = str(m)
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            body, split = "0" * -e + body, 1
        else:
            split = e + 1
        suffix = ""
    else:
        split, suffix = 1, "e%+d" % e
    body = (body[:split] + "." + body[split:]).rstrip("0")
    if body.endswith("."):
        body += "0"
    return "-" * negative + body + suffix


def _exact_parts(x: CycNum) -> list:
    """[Re x, Im x], each a reduced pair (numerator, denominator) when
    it is rational, else None.

    Decided in exact arithmetic: x + conj(x) = 2 Re x, and
    -i (x - conj(x)) = 2 Im x.  Without i in the field (4 does not
    divide M), a nonzero Im x is irrational."""
    conj = x.conjugate()
    twice_re = x + conj
    twice_im = x - conj
    parts = [None, None]
    if twice_re.is_rational():
        parts[0] = _rational((twice_re.num[0], 2 * twice_re.den))
    if not twice_im:
        parts[1] = (0, 1)
    elif x.order % 4 == 0:
        twice_im = twice_im * _field(x.order).root(3 * x.order // 4)
        if twice_im.is_rational():
            parts[1] = _rational((twice_im.num[0], 2 * twice_im.den))
    return parts


def _certified(x: CycNum, table: tuple, scale: int, digits: int):
    """The rounded string of sum_j x_j t_j / 10^scale, where t_j is
    within 1 of 10^scale times the true value, or None when the values
    that error allows do not all round alike."""
    total = sum(c * t for c, t in zip(x.num, table))
    err = sum(map(abs, x.num))
    lo, hi = total - err, total + err
    if lo <= 0 <= hi:
        return None
    den = x.den * 10 ** scale
    rounded = _round_half_up(lo, den, digits)
    if rounded != _round_half_up(hi, den, digits):
        return None
    return _layout(*rounded, digits)


def approx_parts(x: CycNum, digits: int) -> tuple:
    """The real and imaginary parts of x as decimal strings, each
    correctly rounded half-up to ``digits`` significant digits, in the
    layout of ``mpmath.nstr``.

    An exactly zero part prints ``0.0`` and a rational part is rounded
    from its numerator and denominator.  Any other part is summed on
    integers from a per-(M, scale) table of scaled cosines and sines,
    with a bound on the error; while that interval meets a rounding
    boundary (or zero) the scale doubles.  An irrational part lies on no boundary, so this
    ends.  For display only: no identity depends on it.

    >>> approx_parts(make_root(8, 1), 5)
    ('0.70711', '0.70711')
    >>> approx_parts(from_rational(8, "1/8"), 2)
    ('0.13', '0.0')
    >>> approx_parts(make_root(40, 2) * 10 ** 6, 3)
    ('9.51e+5', '3.09e+5')
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    out = [
        None if v is None else "0.0" if not v[0] else
        _layout(*_round_half_up(*v, digits), digits)
        for v in _exact_parts(x)
    ]
    scale = 24
    while scale < digits + 12:
        scale *= 2
    while None in out:
        tables = _trig_table(x.order, scale)
        out = [
            s if s is not None else _certified(x, table, scale, digits)
            for s, table in zip(out, tables)
        ]
        scale *= 2
    return tuple(out)


def to_complex(x: CycNum, digits: int):
    """Floating approximation of x with error below 10^(-digits).

    Returns an mpmath complex number (mpmath is imported on the first
    call); intended for cross-checking only, never for equality
    decisions.

    >>> abs(to_complex(make_root(8, 1), 10) - (0.7071067811865476+0.7071067811865476j)) < 1e-10
    True
    """
    import mpmath

    if digits < 1:
        raise ValueError("digits must be positive")
    with mpmath.workdps(digits + 15):
        z = mpmath.mpc(0)
        for j, (n, d) in enumerate(x._pairs()):
            if n:
                w = mpmath.mpf(n) / d
                z += w * mpmath.expjpi(mpmath.mpf(2 * j) / x.order)
        return +z


if __name__ == "__main__":
    import doctest

    doctest.testmod()
