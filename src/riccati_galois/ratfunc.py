"""Rational functions in one variable over Scalar coefficients.

Canonical form everywhere: numerator and denominator coprime, denominator
monic.  When every coefficient of numerator and denominator is rational,
the constructor reaches that form through poly's rational kernel
(_rational_canonical): contents, then the primitive gcd and its
cofactors from GCDHEU (one integer gcd of two values, checked by exact
division, with the primitive remainder sequence as its fallback), on
the integer forms, and no Scalar is built.  Otherwise it runs
_canonical_form (gcd, exact_div and scale on Scalars), the path for
tower coefficients and the reference the tests hold the kernel to.
Arithmetic on rational operands reads the integer forms once (_forms)
and builds the result Polys from int lists: sums and products cancel by
Henrici's rules, a derivative by gcd(b, b') (Hermite), and a scalar
factor or a power takes no gcd.  Tower coefficients take Poly
operations and _canonical_form, the reference of the tests.

On top of the arithmetic this module provides the local data the
decision algorithm feeds on: pole lists, Laurent expansions at finite
points and at infinity, residues, and Hermite reduction for recognising
rational antiderivatives.  Pole orders and expansions at a finite point
c read the Taylor coefficients of numerator and denominator at c one at
a time, each the remainder of a synthetic division by x - c, and stop as
soon as the valuation and the requested terms are known; for rational
data and a rational c the divisions run on integers (_taylor) and the
series division on Fractions, and Scalars are built for the result only.
For rational data and c = (u + v sqrt(r))/w in a depth-1 tower, such as
the surd poles of a rational denominator, the divisions run on pairs of
ints meaning a + b sqrt(r) (_taylor_surd), and the first Scalars are the
Taylor coefficients it yields.
"""

from fractions import Fraction
from math import gcd as igcd, lcm as ilcm

from .poly import (
    Poly,
    _combine,
    _convolve,
    _deriv,
    _heu_gcd,
    _monic,
    _primitive,
    _rational_canonical,
    _rational_coeffs,
    extended_gcd,
    gcd,
    gcd_cofactors,
    roots_with_multiplicity,
)
from .scalars import QQ, Scalar


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = Poly.coerce(num)
        den = Poly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        fn, fd = _rational_coeffs(num), _rational_coeffs(den)
        if fn is not None and fd is not None:
            num, den = _rational_canonical(fn, fd)
        else:
            num, den = _canonical_form(num, den)
        self.num = num
        self.den = den

    @classmethod
    def coerce(cls, x):
        if isinstance(x, RatFunc):
            return x
        return _new(Poly.coerce(x), _ONE)

    @classmethod
    def x(cls):
        return _new(Poly.x(), _ONE)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num

    def _add(self, other, sign):
        """self + sign * other, sign +-1.  Henrici: with den1 = h f and
        den2 = h g the sum is M / (h f g), and gcd(M, h f g) divides h."""
        other = RatFunc.coerce(other)
        fs = _forms(self, other)
        if fs is None:
            other = other if sign > 0 else -other
            g, d1g, d2g = gcd_cofactors(self.den, other.den)
            num, den = self.num * d2g + other.num * d1g, self.den * d2g
            if g.degree() == 0:
                return _new(num, den)
            h = gcd(num, g)
            return _new(num.exact_div(h), den.exact_div(h))
        (a, da), (b, db), (c, dc), (e, de) = fs
        h, f, g = _heu_gcd(b, e)
        # M = (a db g / da + sign c de f / dc) / lc(f g); lc(f g) > 0
        dm, lc = ilcm(da, dc), f[-1] * g[-1]
        u, v = db * (dm // da), sign * de * (dm // dc)
        m = _combine(_convolve(a, g), u, _convolve(c, f), v)
        if len(h) > 1:
            num, den = _rational_canonical((m, dm * lc), (h, 1))
        else:  # coprime denominators: M / (f g) is canonical
            num, den = Poly._from_zz(m, dm * lc), _ONE
        ints, d = den._zz
        return _new(num, Poly._from_zz(_convolve(ints, _convolve(f, g)), d * lc))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __neg__(self):
        return _new(-self.num, self.den)

    def __mul__(self, other):
        if other is self:
            return self**2
        return self._times(other, False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._times(other, True)

    def _times(self, other, invert):
        """self * other, or self / other when invert.  (x/y)(z/w) cancels
        gcd(x, w) and gcd(z, y) (Henrici); a rational constant z/w, an
        int or a Fraction included, scales x and takes no gcd."""
        fs = _forms(self)
        if fs is not None and isinstance(other, (int, Fraction)):
            p = other.numerator
            fs += [([p] if p else [], 1), ([other.denominator], 1)]
        else:
            other = RatFunc.coerce(other)
            fo = _forms(other)
            if fs is None or fo is None:
                z, w = (other.den, other.num) if invert else (other.num, other.den)
                if w.is_zero():
                    raise ZeroDivisionError("division by the zero rational function")
                return RatFunc(self.num * z, self.den * w)
            fs += fo
        (a, da), (b, db), (c, dc), (e, de) = fs
        if invert:
            (c, dc), (e, de) = (e, de), (c, dc)
        if not e:
            raise ZeroDivisionError("division by the zero rational function")
        if not a or not c:
            return RatFunc.coerce(0)
        if len(c) == len(e) == 1:
            m, d = c[0] * de, da * dc * e[0]
            den = self.den
        else:
            # y is a canonical denominator, so b is primitive
            ca, cc, ce = igcd(*a), igcd(*c), igcd(*e)
            _, a, e = _heu_gcd(_primitive(a, ca), _primitive(e, ce))
            _, c, b = _heu_gcd(_primitive(c, cc), b)
            a, b = _convolve(a, c), _convolve(b, e)
            m, d = ca * cc * db * de, da * dc * ce * b[-1]
            den = _monic(b)
        if d < 0:
            m, d = -m, -d
        return _new(Poly._from_zz([m * x for x in a], d), den)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (RatFunc.coerce(1) / self) ** (-n)
        # powers of coprime polynomials stay coprime, of a monic one monic
        return _new(self.num**n, self.den**n)

    def __eq__(self, other):
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        # the canonical form is unique
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> "RatFunc":
        f = _forms(self)
        if f is None:
            return RatFunc(
                self.num.derivative() * self.den - self.num * self.den.derivative(),
                self.den * self.den,
            )
        (a, da), (b, db) = f
        if len(b) == 1:
            return _new(self.num.derivative(), _ONE)
        # Hermite: b = h u, b' = k h v, h = gcd(b, b'), k = cont(b'):
        # (a/b)' = (a' u - k a v) / (b u), in lowest terms
        d = _deriv(b)
        k = igcd(*d)
        _, u, v = _heu_gcd(b, _primitive(d, k))
        t = 1 if u[-1] > 0 else -1
        w = _combine(_convolve(_deriv(a), u), t, _convolve(a, v), -t * k)
        return _new(Poly._from_zz(w, da * t * u[-1]), _monic(_convolve(b, u)))

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
        """Multiplicity of c as a root of the denominator."""
        order = 0
        for t in _taylor(self.den, Scalar.coerce(c)):
            if t:
                return order
            order += 1

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
        return _new(self.num % self.den, self.den)

    def laurent_at(self, c, count):
        """First `count` Laurent coefficients at x = c.

        Returns (start, coeffs) with r = sum coeffs[k] * (x-c)^(start+k)
        + higher order terms; coeffs[0] != 0 unless r is zero.
        """
        if self.is_zero():
            return 0, [Scalar.coerce(0)] * count
        c = Scalar.coerce(c)
        a, n_units = _units(_taylor(self.num, c), count)
        b, d_units = _units(_taylor(self.den, c), count)
        return a - b, _series_div(n_units, d_units, count)

    def laurent_at_infinity(self, count):
        """First `count` coefficients of the expansion in powers of 1/x.

        Returns (top, coeffs) with r = sum coeffs[k] * x^(top-k) + lower
        order terms; top = -order_at_infinity and coeffs[0] != 0 unless
        r is zero.
        """
        if self.is_zero():
            return 0, [Scalar.coerce(0)] * count
        top = self.num.degree() - self.den.degree()
        n_rev = _values(self.num)[::-1]
        return top, _series_div(n_rev, _values(self.den)[::-1], count)

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


def _new(num, den):
    """The RatFunc num/den of a canonical pair, past __init__."""
    r = object.__new__(RatFunc)
    r.num, r.den = num, den
    return r


_ONE = Poly([1])


def _forms(*rs):
    """The integer forms of num and den of each r in a list, or None for
    a tower."""
    fs = [_rational_coeffs(p) for r in rs for p in (r.num, r.den)]
    return None if None in fs else fs


def _canonical_form(num: Poly, den: Poly):
    """Coprime num/den with a monic den via gcd, exact_div and scale.

    The constructor's path for tower coefficients; den is nonzero.
    """
    g = gcd(num, den)
    if g.degree() > 0:
        num = num.exact_div(g)
        den = den.exact_div(g)
    lc = den.leading()
    if lc != 1:
        inv = lc.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _needs_parens(s: str) -> bool:
    return any(op in s for op in (" + ", " - ", "/")) or s.startswith("-")


def _values(p: Poly):
    """p's coefficients, low order first: Fractions when rational, else
    Scalars."""
    zz = _rational_coeffs(p)
    if zz is None:
        return p.coeffs
    ints, den = zz
    return [Fraction(c, den) for c in ints]


def _taylor(p: Poly, c: Scalar):
    """Taylor coefficients of p at x = c, lowest order first, each the
    remainder of one synthetic division by x - c; Fractions when p and
    c are rational, else Scalars.  Lazy, so a caller stops as soon as it
    knows enough.

    With c = u/v, p = ints/den and n = deg p, B(z) = v^n den p(z/v) has
    integer coefficients and p(c + y) = B(u + v y) / (v^n den), so the
    k-th coefficient is that of B at u over v^(n-k) den.  A point of a
    depth-1 tower goes to _taylor_surd.
    """
    zz = _rational_coeffs(p)
    if zz is not None and c.tower.depth == 1:
        yield from _taylor_surd(zz, c)
        return
    if zz is None or c.tower is not QQ:
        b, u, scale = list(p.coeffs), c, None
    else:
        ints, den = zz
        u, v = c.val.numerator, c.val.denominator
        n = len(ints) - 1
        b = [a * v ** (n - j) for j, a in enumerate(ints)] if v != 1 else ints
        scale = den * v**n
    while b:
        # b <- (b - b(u)) / (z - u), by Horner from the top
        acc, q = b[-1], b[:-1]
        for j in range(len(q) - 1, -1, -1):
            acc, q[j] = q[j] + u * acc, acc
        if scale is None:
            yield acc
        else:
            yield Fraction(acc, scale)
            scale //= v
        b = q


def _taylor_surd(zz, c: Scalar):
    """_taylor of the integer form zz at c = (u + v sqrt(r))/w in a
    depth-1 tower, whose radicand r is a square-free integer
    (scalars._adjoin_sqrt_in).  The divisions of B(z) = w^n den p(z/w) by
    z - (u + v sqrt(r)) run on two int lists, a + b sqrt(r); a Scalar is
    built for each coefficient yielded only."""
    tower = c.tower
    lo, hi = c.val[0].val, c.val[1].val
    r = tower.radicand.val.numerator
    w = ilcm(lo.denominator, hi.denominator)
    u, v = int(lo * w), int(hi * w)
    vr = v * r
    ints, den = zz
    n = len(ints) - 1
    a = [x * w ** (n - j) for j, x in enumerate(ints)]
    b = [0] * len(a)
    scale = den * w**n
    while a:
        ta, tb = a[-1], b[-1]
        qa, qb = a[:-1], b[:-1]
        for j in range(len(qa) - 1, -1, -1):
            # (t_a + t_b sqrt(r)) <- q_j + (u + v sqrt(r)) (t_a + t_b sqrt(r))
            ta, tb, qa[j], qb[j] = (
                qa[j] + u * ta + vr * tb,
                qb[j] + u * tb + v * ta,
                ta,
                tb,
            )
        low = Scalar(QQ, Fraction(ta, scale))
        yield Scalar(tower, (low, Scalar(QQ, Fraction(tb, scale)))) if tb else low
        scale //= w
        a, b = qa, qb


def _units(taylor, count):
    """(valuation, the first `count` coefficients from the lowest nonzero
    one) of a nonzero polynomial's Taylor coefficients."""
    val, units = 0, []
    for t in taylor:
        if units or t:
            units.append(t)
            if len(units) == count:
                break
        else:
            val += 1
    return val, units


def _series_div(n_coeffs, d_coeffs, count):
    """`count` terms of the power series n/d as Scalars; d[0] != 0 and
    the coefficients are Fractions or Scalars."""
    out = []
    for k in range(count):
        acc = n_coeffs[k] if k < len(n_coeffs) else 0
        for j in range(1, min(k, len(d_coeffs) - 1) + 1):
            acc = acc - d_coeffs[j] * out[k - j]
        out.append(acc / d_coeffs[0])
    return [Scalar(QQ, q) if isinstance(q, Fraction) else q for q in out]


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
