"""Rational functions in one variable over Scalar coefficients.

Canonical form everywhere: numerator and denominator coprime, denominator
monic.  On top of the arithmetic this module provides the local data the
decision algorithm feeds on: pole lists, Laurent expansions at finite
points and at infinity, residues, and Hermite reduction for recognising
rational antiderivatives.
"""

from .poly import Poly, extended_gcd, gcd, roots_with_multiplicity
from .scalars import Scalar


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=1, _canonical=False):
        num = Poly.coerce(num)
        den = Poly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _canonical:
            g = gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.leading()
            if lc != 1:
                inv = lc.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def coerce(cls, x):
        if isinstance(x, RatFunc):
            return x
        return cls(Poly.coerce(x), Poly([1]), _canonical=True)

    @classmethod
    def x(cls):
        return cls(Poly.x(), Poly([1]), _canonical=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num

    def is_constant(self):
        return self.is_polynomial() and self.num.degree() <= 0

    def as_scalar(self) -> Scalar:
        return self.as_poly().coeff(0)

    def __add__(self, other):
        # Henrici: with g = gcd(den1, den2) the sum is
        # (num1 * den2/g + num2 * den1/g) / (den1 * den2/g), and any
        # common factor of that numerator and denominator divides g
        other = RatFunc.coerce(other)
        g = gcd(self.den, other.den)
        d2g = other.den.exact_div(g)
        num = self.num * d2g + other.num * self.den.exact_div(g)
        h = gcd(num, g)
        return RatFunc(
            num.exact_div(h), (self.den * d2g).exact_div(h), _canonical=True
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return RatFunc.coerce(other) + (-self)

    def __mul__(self, other):
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (RatFunc.coerce(1) / self) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, point):
        point = Scalar.coerce(point)
        d = self.den(point)
        if d.is_zero():
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(point) / d

    def order_at_infinity(self):
        """deg(den) - deg(num); None for the zero function."""
        if self.is_zero():
            return None
        return self.den.degree() - self.num.degree()

    def pole_order(self, c) -> int:
        c = Scalar.coerce(c)
        order = 0
        d = self.den
        lin = Poly([-c, 1])
        while True:
            q, r = d.divmod(lin)
            if not r.is_zero():
                return order
            order += 1
            d = q

    def poles(self):
        """[(point, order)] sorted deterministically.

        May adjoin square roots to split quadratic denominator factors;
        raises UnsupportedFieldError on unsplittable factors.
        """
        if self.den.degree() == 0:
            return []
        roots, _ = roots_with_multiplicity(self.den)
        return roots

    def polynomial_part(self) -> Poly:
        return self.num // self.den

    def proper_part(self) -> "RatFunc":
        return RatFunc(self.num % self.den, self.den, _canonical=True)

    def laurent_at(self, c, count):
        """First `count` Laurent coefficients at x = c.

        Returns (start, coeffs) with r = sum coeffs[k] * (x-c)^(start+k)
        + higher order terms; coeffs[0] != 0 unless r is zero.
        """
        if self.is_zero():
            return 0, [Scalar.coerce(0)] * count
        c = Scalar.coerce(c)
        n = self.num.shift(c)
        d = self.den.shift(c)
        a = _valuation(n)
        b = _valuation(d)
        n_units = n.coeffs[a:]
        d_units = d.coeffs[b:]
        return a - b, _series_div(n_units, d_units, count)

    def laurent_at_infinity(self, count):
        """First `count` coefficients of the expansion in powers of 1/x.

        Returns (top, coeffs) with r = sum coeffs[k] * x^(top-k) + lower
        order terms; top = -order_at_infinity and coeffs[0] != 0 unless
        r is zero.
        """
        if self.is_zero():
            return 0, [Scalar.coerce(0)] * count
        n_rev = list(reversed(self.num.coeffs))
        d_rev = list(reversed(self.den.coeffs))
        top = self.num.degree() - self.den.degree()
        return top, _series_div(n_rev, d_rev, count)

    def residue_at(self, c) -> Scalar:
        m = self.pole_order(c)
        if m == 0:
            return Scalar.coerce(0)
        # canonical form, so the numerator does not vanish at the pole
        # and the expansion really starts at order -m
        _, coeffs = self.laurent_at(c, m)
        return coeffs[m - 1]

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        ns = str(self.num)
        ds = str(self.den)
        if self.num.degree() > 0 or _needs_parens(ns):
            ns = "(" + ns + ")"
        if self.den.degree() > 0 or _needs_parens(ds):
            ds = "(" + ds + ")"
        return ns + "/" + ds

    def __repr__(self):
        return "RatFunc(%s)" % self


def _needs_parens(s: str) -> bool:
    return any(op in s for op in (" + ", " - ", "/")) or s.startswith("-")


def _valuation(p: Poly) -> int:
    for k, coeff in enumerate(p.coeffs):
        if not coeff.is_zero():
            return k
    raise ValueError("zero polynomial has no valuation")


def _series_div(n_coeffs, d_coeffs, count):
    """Power series division n/d to `count` terms; d[0] != 0."""
    inv0 = Scalar.coerce(d_coeffs[0]).inverse()
    out = []
    rem = [Scalar.coerce(x) for x in n_coeffs]
    for k in range(count):
        cur = rem[k] if k < len(rem) else Scalar.coerce(0)
        coeff = cur * inv0
        out.append(coeff)
        if not coeff.is_zero():
            for j, dj in enumerate(d_coeffs):
                idx = k + j
                if idx >= count:
                    break
                while idx >= len(rem):
                    rem.append(Scalar.coerce(0))
                rem[idx] = rem[idx] - coeff * Scalar.coerce(dj)
    return out


def hermite_reduce(r: RatFunc):
    """Write r = g' + h with h having a square-free denominator.

    Returns (g, h) as RatFuncs.  Purely rational operations, no root
    finding.  The polynomial part of r is folded into h.
    """
    r = RatFunc.coerce(r)
    poly_part = r.polynomial_part()
    a = r.num % r.den
    d = r.den
    g = RatFunc.coerce(0)
    while gcd(d, d.derivative()).degree() > 0:
        g_step, a, d = _hermite_step(a, d)
        g = g + g_step
    h = RatFunc(a, d) + RatFunc.coerce(poly_part)
    return g, h


def _hermite_step(a: Poly, d: Poly):
    """One Hermite reduction step on a/d (d not square-free)."""
    from .poly import squarefree_decomposition

    # peel the maximal multiplicity: d = u * v^m with v monic square-free,
    # gcd(u, v) = 1, m >= 2
    decomp = squarefree_decomposition(d)
    v, m = decomp[-1]
    u = d
    for _ in range(m):
        u = u.exact_div(v)
    # cancel the v^m pole of a/(u v^m) with d/dx(b / v^(m-1)):
    #   (b/v^(m-1))' = b'/v^(m-1) - (m-1) b v' / v^m
    # which requires  a == -(m-1) b u v'  (mod v)
    coeff_poly = (u * v.derivative()).scale(-(m - 1)) % v
    b = _solve_congruence(coeff_poly, a % v, v)
    g_step = RatFunc(b, v ** (m - 1))
    # a/d - (b/v^(m-1))' = [a + (m-1) u b v' - u b' v] / (u v^m)
    # and the bracket is divisible by v by construction
    new_num = a + (u * b * v.derivative()).scale(m - 1) - u * b.derivative() * v
    new_num = new_num.exact_div(v)
    new_den = u * v ** (m - 1)
    return g_step, new_num, new_den


def _solve_congruence(f: Poly, rhs: Poly, mod: Poly) -> Poly:
    """b with f*b == rhs (mod mod); requires gcd(f, mod) = 1."""
    g, s, _ = extended_gcd(f, mod)
    if g.degree() != 0:
        raise ValueError("congruence is not solvable, gcd = %s" % g)
    return (s * rhs).scale(g.coeff(0).inverse()) % mod


def rational_antiderivative(r: RatFunc):
    """An exact rational antiderivative of r, or None if none exists.

    Exists iff the Hermite remainder has no pole part at all (simple
    poles would contribute logarithms).
    """
    r = RatFunc.coerce(r)
    g, h = hermite_reduce(r)
    if not h.is_polynomial():
        return None
    p = h.as_poly()
    anti = Poly([0] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
    return g + RatFunc.coerce(anti)


def log_residues(r: RatFunc):
    """Residues of the simple-pole part of r as [(point, residue)].

    After Hermite reduction the remainder has only simple poles; its
    residues are num(c)/den'(c).  Needs the denominator to split over a
    supported tower.
    """
    _, h = hermite_reduce(r)
    prop = h.proper_part()
    if prop.is_zero():
        return []
    dd = prop.den.derivative()
    return [(c, prop.num(c) / dd(c)) for c, _ in prop.poles()]
