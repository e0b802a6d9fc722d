"""Univariate polynomials with exact Scalar coefficients.

Coefficients live in a tower of quadratic extensions of the rationals
(see scalars.py).  Everything here is exact: divmod, gcd, square-free
decomposition and root extraction never approximate.

Rational kernel.  When every coefficient of the operands is rational
(its tower is QQ, see _rational_coeffs), these operations leave the
Scalar path for plain integers and Fractions:

- multiplication clears denominators, convolves the integer lists and
  builds one Fraction per output coefficient;
- divmod (and through it exact_div) runs its in-place loop on
  Fractions;
- gcd runs the primitive polynomial remainder sequence on integer lists
  (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6);
- _rational_canonical, which RatFunc uses to cancel a numerator against
  its denominator, takes contents, the primitive gcd and exact integer
  quotients in one pass.

Results are wrapped into Scalars once, by Poly._from_fractions.  Any
tower coefficient sends the operation through the Scalar loops
(_scalar_mul, _scalar_divmod, _euclid_gcd), which are also the
reference the tests hold the kernel to.
"""

from fractions import Fraction
from math import gcd as igcd, lcm as ilcm

from .scalars import QQ, ZERO, Scalar, UnsupportedFieldError


class Poly:
    """Dense univariate polynomial, low-order coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Scalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @classmethod
    def _from_fractions(cls, fracs):
        """Poly with the given Fraction coefficients, each wrapped once."""
        while fracs and not fracs[-1]:
            fracs.pop()
        p = object.__new__(cls)
        p.coeffs = [Scalar(QQ, q) for q in fracs]
        return p

    @classmethod
    def coerce(cls, x):
        if isinstance(x, Poly):
            return x
        return cls([x])

    @classmethod
    def monomial(cls, coeff, power):
        return cls([0] * power + [coeff])

    @classmethod
    def x(cls):
        return cls([0, 1])

    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self) -> Scalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Scalar.coerce(0)

    def __add__(self, other):
        other = Poly.coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        other = Poly.coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly([])
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            # Polys are immutable, so a unit factor may return the other
            if fa == [1]:
                return other
            if fb == [1]:
                return self
            return _rational_mul(fa, fb)
        return self._scalar_mul(other)

    __rmul__ = __mul__

    def _scalar_mul(self, other):
        """Product by the Scalar loop; both operands nonzero."""
        out = [Scalar.coerce(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, s) -> "Poly":
        s = Scalar.coerce(s)
        return Poly([c * s for c in self.coeffs])

    def divmod(self, other):
        """Exact polynomial division with remainder."""
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree()
        n = self.degree()
        if n < d:
            return Poly([]), self
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            q, r = _rational_divmod(fa, fb)
            return Poly._from_fractions(q), Poly._from_fractions(r)
        return self._scalar_divmod(other)

    def _scalar_divmod(self, other):
        """divmod by the Scalar loop; deg self >= deg other >= 0."""
        d = other.degree()
        n = self.degree()
        b = other.coeffs
        inv = b[d].inverse()
        r = list(self.coeffs)
        q = [ZERO] * (n - d + 1)
        for k in range(n - d, -1, -1):
            c = r[k + d]
            if c.is_zero():
                continue
            t = c * inv
            q[k] = t
            # r[k + d] - t * b[d] is zero by construction; only the
            # lower coefficients change
            for j in range(d):
                if not b[j].is_zero():
                    r[k + j] = r[k + j] - t * b[j]
        return Poly(q), Poly(r[:d])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(tuple(c.key() for c in self.coeffs))

    def __call__(self, point):
        point = Scalar.coerce(point)
        acc = Scalar.coerce(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly([])
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    def shift(self, a) -> "Poly":
        """p(x + a)."""
        return self.compose(Poly([a, 1]))

    def is_rational_poly(self) -> bool:
        return _rational_coeffs(self) is not None

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            if k == 0:
                term = _coeff_str(c)
            else:
                xs = "x" if k == 1 else "x^%d" % k
                if c == 1:
                    term = xs
                elif c == -1:
                    term = "-" + xs
                else:
                    term = _coeff_str(c) + "*" + xs
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return "Poly(%s)" % self


def _coeff_str(c: Scalar) -> str:
    # 1/2*x reads as (1/2)*x under the usual left-to-right precedence,
    # so only surd coefficients need parentheses
    s = str(c)
    if c.is_rational():
        return s
    return "(" + s + ")"


X = Poly.x()


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; the zero polynomial when both operands are zero.

    Operands with rational coefficients take the integer primitive
    remainder sequence (_rational_gcd); any tower coefficient sends both
    through the Euclidean loop (_euclid_gcd).  The two agree wherever
    both apply.
    """
    a, b = Poly.coerce(a), Poly.coerce(b)
    fa, fb = _rational_coeffs(a), _rational_coeffs(b)
    if fa is not None and fb is not None:
        return _rational_gcd(fa, fb)
    return _euclid_gcd(a, b)


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


# -- rational kernel --------------------------------------------------------
# Coefficient lists here are low-order first: Fractions for rational
# polynomials, ints for their cleared or primitive multiples.


def _rational_coeffs(p: Poly):
    """p's coefficients as Fractions, or None if any lies in an extension."""
    cs = p.coeffs
    for c in cs:
        if c.tower is not QQ:
            return None
    return [c.val for c in cs]


def _cleared(fracs):
    """(ints, den) with fracs == ints / den, den the lcm of denominators."""
    den = ilcm(*(q.denominator for q in fracs))
    if den == 1:
        return [q.numerator for q in fracs], 1
    return [q.numerator * (den // q.denominator) for q in fracs], den


def _integer_primitive(fracs):
    """(content, prim) with fracs == content * prim for a nonzero list.

    content is a positive Fraction and prim an int list with content 1.
    """
    ints, den = _cleared(fracs)
    c = igcd(*ints)
    return Fraction(c, den), _primitive(ints, c)


def _primitive(f, c=None):
    """f divided by its content c (f a nonzero int list)."""
    if c is None:
        c = igcd(*f)
    if c == 1:
        return f
    return [x // c for x in f]


def _rational_mul(fa, fb):
    """Product of two nonzero rational coefficient lists as a Poly."""
    a, da = _cleared(fa)
    b, db = _cleared(fb)
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + nb] = [o + ai * bj for o, bj in zip(out[i:i + nb], b)]
    d = da * db
    if d == 1:
        return Poly._from_fractions([Fraction(c) for c in out])
    return Poly._from_fractions([Fraction(c, d) for c in out])


def _rational_divmod(fa, fb):
    """(q, r) Fraction lists with fa == q*fb + r, deg fa >= deg fb >= 0."""
    d = len(fb) - 1
    n = len(fa) - 1
    inv = 1 / fb[d]
    r = list(fa)
    q = [Fraction(0)] * (n - d + 1)
    for k in range(n - d, -1, -1):
        c = r[k + d]
        if not c:
            continue
        t = c * inv
        q[k] = t
        # r[k + d] - t * fb[d] is zero by construction; only the lower
        # coefficients change
        for j in range(d):
            if fb[j]:
                r[k + j] -= t * fb[j]
    del r[d:]
    return q, r


def _rational_gcd(fa, fb):
    """Monic gcd of two rational coefficient lists as a Poly."""
    if not fa:
        fa, fb = fb, fa
    if not fb:
        return Poly._from_fractions([c / fa[-1] for c in fa])
    h = _prs_gcd(_integer_primitive(fa)[1], _integer_primitive(fb)[1])
    return Poly._from_fractions([Fraction(c, h[-1]) for c in h])


def _prs_gcd(f, g):
    """A primitive gcd of two primitive int lists (its sign is arbitrary).

    Runs the primitive PRS: each step takes a pseudo-remainder and
    divides out its content, so coefficients stay as small as the gcd
    allows.
    """
    if len(f) == 1 or len(g) == 1:
        return [1]
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _integer_prem(f, g)
        f, g = g, _primitive(r) if r else r
    return f


def _integer_prem(f, g):
    """A nonzero integer multiple of the remainder of f by g.

    Each step scales f by lc(g) / h and subtracts lc(f) / h times a
    shift of g, with h = gcd(lc(f), lc(g)); the multiple may differ from
    the classical pseudo-remainder, which the PRS divides out anyway.
    """
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) > dg:
        lr = r[-1]
        h = igcd(lr, lg)
        u, v = lg // h, lr // h
        k = len(r) - 1 - dg
        if u != 1:
            r = [u * c for c in r]
        for j in range(dg):
            r[k + j] -= v * g[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _integer_exact_div(f, g):
    """f / g for int lists when g divides f in Z[x].

    Every step must divide evenly and the remainder must vanish;
    otherwise raises ValueError, as Poly.exact_div does.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        t, m = divmod(r[k + dg], lg)
        if m:
            raise ValueError("division is not exact")
        q[k] = t
        if t:
            for j in range(dg):
                r[k + j] -= t * g[j]
    if any(r[:dg]):
        raise ValueError("division is not exact")
    return q


def _rational_canonical(fn, fd):
    """Canonical num/den of the rational function fn/fd as two Polys.

    fn and fd are rational coefficient lists, fd nonzero.  The result is
    coprime with a monic denominator: the contents come off first, the
    primitive parts are divided exactly by their primitive gcd, and the
    ratio of contents over lc(den) scales the numerator.
    """
    if not fn:
        return Poly([]), Poly._from_fractions([Fraction(1)])
    cn, f = _integer_primitive(fn)
    cd, g = _integer_primitive(fd)
    h = _prs_gcd(f, g)
    if len(h) > 1:
        f = _integer_exact_div(f, h)
        g = _integer_exact_div(g, h)
    lg = g[-1]
    s = cn / (cd * lg)
    sn, sd = s.numerator, s.denominator
    num = Poly._from_fractions([Fraction(sn * c, sd) for c in f])
    den = Poly._from_fractions([Fraction(c, lg) for c in g])
    return num, den


def lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly([])
    return (a * b).exact_div(gcd(a, b)).monic()


def extended_gcd(a: Poly, b: Poly):
    """Return (g, s, t) monic g = s*a + t*b."""
    r0, r1 = Poly.coerce(a), Poly.coerce(b)
    s0, s1 = Poly([1]), Poly([])
    t0, t1 = Poly([]), Poly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.leading().inverse()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def squarefree_part(p: Poly) -> Poly:
    p = Poly.coerce(p)
    if p.degree() <= 0:
        return p.monic() if not p.is_zero() else p
    return p.exact_div(gcd(p, p.derivative())).monic()


def squarefree_decomposition(p: Poly):
    """Yield (factor, multiplicity) with factor monic and square-free,
    multiplicities ascending (Yun's algorithm)."""
    p = Poly.coerce(p)
    out = []
    if p.degree() <= 0:
        return out
    g = gcd(p, p.derivative())
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    m = 1
    z = y - w.derivative()
    while not (w.degree() == 0):
        f = gcd(w, z)
        if f.degree() > 0:
            out.append((f, m))
        w = w.exact_div(f)
        z = z.exact_div(f) - w.derivative()
        m += 1
    return out


def rational_roots(p: Poly):
    """All rational roots of a polynomial with rational coefficients.

    Returns a list of Fractions (no multiplicity).
    """
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    if not p.is_rational_poly():
        raise ValueError("rational root search needs rational coefficients")
    ints = _integer_primitive(_rational_coeffs(p))[1]
    # strip trailing zero coefficients at the bottom (root 0)
    roots = []
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        ints = ints[low:]
    if len(ints) <= 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    q = Poly(ints)
    for num in divisors(a0):
        for dnm in divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * num, dnm)
                if cand not in roots and q(cand).is_zero():
                    roots.append(cand)
    roots.sort()
    return roots


def roots_with_multiplicity(p: Poly, allow_adjoin=True):
    """Split a polynomial into linear factors over the coefficient tower.

    Returns (roots, leading) where roots is a list of (Scalar root, int
    multiplicity).  Rational roots are peeled off first; what remains is
    split with the quadratic formula, adjoining at most one square root
    per quadratic factor when allow_adjoin is set.  Raises
    UnsupportedFieldError if an irreducible factor of degree >= 3 with no
    rational root remains.
    """
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    lead = p.leading()
    found = []
    for fac, mult in squarefree_decomposition(p.monic()):
        rem = fac
        if rem.is_rational_poly():
            for r in rational_roots(rem):
                found.append((Scalar.coerce(r), mult))
                rem = rem.exact_div(Poly([-r, 1]))
        if rem.degree() == 0:
            continue
        if rem.degree() == 1:
            found.append((-rem.coeff(0) / rem.coeff(1), mult))
            continue
        if rem.degree() == 2:
            a, b, c = rem.coeff(2), rem.coeff(1), rem.coeff(0)
            disc = b * b - 4 * a * c
            if allow_adjoin:
                sq = disc.sqrt()
            else:
                sq = disc.sqrt_in_field()
                if sq is None:
                    raise UnsupportedFieldError(
                        "quadratic factor %s does not split in the working field"
                        % rem
                    )
            found.append(((-b + sq) / (2 * a), mult))
            found.append(((-b - sq) / (2 * a), mult))
            continue
        raise UnsupportedFieldError(
            "cannot split factor of degree %d: %s" % (rem.degree(), rem)
        )
    found.sort(key=lambda rm: rm[0].sort_key())
    return found, lead
