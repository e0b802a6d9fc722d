"""Univariate polynomials with exact Scalar coefficients.

Coefficients live in a tower of quadratic extensions of the rationals
(see scalars.py).  Everything here is exact: divmod, gcd, square-free
decomposition and root extraction never approximate.

Representation.  A Poly with rational coefficients keeps its integer
form (ints, den): coefficient k is ints[k] / den, with den >= 1,
gcd(den, *ints) == 1 and no trailing zero; the zero polynomial is
([], 1).  Because the form is canonical, equality is a structural
comparison.  The Scalar coefficients are built, once, only when
something reads .coeffs.  A Poly built from Scalars computes its
integer form on demand (_rational_coeffs); with any coefficient in an
extension the form is None.

Rational kernel.  When every operand has an integer form, these
operations work on it and never build a Fraction per coefficient or a
Scalar (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6):

- +, -, unary -, scale, derivative, monic and compose work on the
  integer lists over a common denominator;
- * convolves the integer lists and multiplies the denominators;
- divmod pseudo-divides in Z[x], scaling only by what the leading
  coefficients do not share;
- exact_div divides by the primitive part of the divisor in Z[x]
  (Gauss's lemma) and folds its content into the denominator;
- gcd runs GCDHEU (_heu_gcd): one integer gcd of the two values at a
  large point, read back as a polynomial and accepted only when it
  divides both operands exactly, which also gives the cofactors
  (gcd_cofactors hands them up); after a few points it falls back to
  the primitive polynomial remainder sequence (_prs_gcd);
- _rational_canonical, which RatFunc uses to cancel a numerator against
  its denominator, takes contents and then the primitive gcd with its
  cofactors in one pass.

Results are reduced to the canonical form by Poly._from_zz.  Any tower
coefficient sends the operation through the Scalar loops (_scalar_mul,
_scalar_divmod, _euclid_gcd and the list comprehensions in the
methods), which are also the reference the tests hold the kernel to.

Printing (Poly.__str__) renders a rational polynomial from the values
ints[k] / den of its integer form, as ints or Fractions, and builds no
Scalar; only tower coefficients print through Scalars.
"""

from fractions import Fraction
from math import gcd as igcd, isqrt, lcm as ilcm

from .scalars import QQ, ZERO, Scalar, UnsupportedFieldError


def _integer_form(qs):
    """(ints, den) of ints and Fractions with no trailing zero."""
    # each Fraction is in lowest terms, so ints and den share no factor
    den = ilcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


class InexactDivision(ValueError):
    """exact_div met a remainder: a broken invariant, not a bad input."""


class Poly:
    """Dense univariate polynomial, low-order coefficient first.

    Immutable: _coeffs is the Scalar list or None until read, _zz the
    integer form, None for tower coefficients or False until computed.
    """

    __slots__ = ("_coeffs", "_zz")

    def __init__(self, coeffs):
        cs = list(coeffs)
        if all(isinstance(c, (int, Fraction)) for c in cs):
            while cs and not cs[-1]:
                cs.pop()
            self._coeffs, self._zz = None, _integer_form(cs)
            return
        cs = [Scalar.coerce(c) for c in cs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = cs
        self._zz = False

    @classmethod
    def _from_zz(cls, ints, den):
        """Poly with coefficients ints / den, den >= 1.

        ints must be a list the caller does not keep; trailing zeros are
        popped from it and the common factor of den and ints comes off.
        """
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            den = 1
        elif den != 1:
            g = igcd(den, *ints)
            if g != 1:
                ints = [c // g for c in ints]
                den //= g
        p = object.__new__(cls)
        p._coeffs = None
        p._zz = (ints, den)
        return p

    @property
    def coeffs(self):
        """The Scalar coefficients, low order first; do not mutate."""
        cs = self._coeffs
        if cs is None:
            ints, den = self._zz
            cs = self._coeffs = [Scalar(QQ, Fraction(c, den)) for c in ints]
        return cs

    def _integer_form(self):
        zz = self._zz
        if zz is False:
            cs = self._coeffs
            if any(c.tower is not QQ for c in cs):
                zz = None
            else:
                zz = _integer_form([c.val for c in cs])
            self._zz = zz
        return zz

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
        cs = self._coeffs
        if cs is None:
            cs = self._zz[0]
        return len(cs) - 1

    def is_zero(self):
        return self.degree() < 0

    def leading(self) -> Scalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k) -> Scalar:
        if 0 <= k <= self.degree():
            return self.coeffs[k]
        return ZERO

    def __add__(self, other):
        return self._add(Poly.coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(Poly.coerce(other), -1)

    def __rsub__(self, other):
        return Poly.coerce(other)._add(self, -1)

    def _add(self, other, sign):
        """self + sign * other, sign 1 or -1."""
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            return _rational_add(fa, fb, sign)
        n = max(self.degree(), other.degree()) + 1
        pairs = [(self.coeff(k), other.coeff(k)) for k in range(n)]
        if sign < 0:
            return Poly([a - b for a, b in pairs])
        return Poly([a + b for a, b in pairs])

    def __neg__(self):
        zz = _rational_coeffs(self)
        if zz is not None:
            return Poly._from_zz([-c for c in zz[0]], zz[1])
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = Poly.coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly([])
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            # Polys are immutable, so a unit factor may return the other
            if fa == _UNIT:
                return other
            if fb == _UNIT:
                return self
            return _rational_mul(fa, fb)
        return self._scalar_mul(other)

    __rmul__ = __mul__

    def _scalar_mul(self, other):
        """Product by the Scalar loop; both operands nonzero."""
        out = [ZERO] * (self.degree() + other.degree() + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, s) -> "Poly":
        s = Scalar.coerce(s)
        zz = _rational_coeffs(self)
        if zz is not None and s.tower is QQ:
            q = s.val
            return Poly._from_zz(
                [c * q.numerator for c in zz[0]], zz[1] * q.denominator
            )
        return Poly([c * s for c in self.coeffs])

    def divmod(self, other):
        """Exact polynomial division with remainder."""
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree() < other.degree():
            return Poly([]), self
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            return _rational_divmod(fa, fb)
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
        """self / other; raises InexactDivision if a remainder is left."""
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            return self if fb == _UNIT else _rational_exact_div(fa, fb)
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivision("division is not exact")
        return q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        fa, fb = _rational_coeffs(self), _rational_coeffs(other)
        if fa is not None and fb is not None:
            return fa == fb
        return (self - other).is_zero()

    def __hash__(self):
        # not through the dispatch hook: a Poly hashes alike on both routes
        zz = self._integer_form()
        if zz is not None:
            return hash((tuple(zz[0]), zz[1]))
        return hash(tuple(c.key() for c in self.coeffs))

    def __call__(self, point):
        point = Scalar.coerce(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        zz = _rational_coeffs(self)
        if zz is not None:
            ints = zz[0]
            return Poly._from_zz(
                [k * ints[k] for k in range(1, len(ints))], zz[1]
            )
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        zz = _rational_coeffs(self)
        if zz is not None:
            return _monic(zz[0])
        return self.scale(self.leading().inverse())

    def compose(self, inner: "Poly") -> "Poly":
        zz = _rational_coeffs(self)
        cs, den = (self.coeffs, 1) if zz is None else zz
        acc = Poly([])
        for c in reversed(cs):
            acc = acc * inner + c
        return acc if den == 1 else acc.scale(Fraction(1, den))

    def shift(self, a) -> "Poly":
        """p(x + a)."""
        return self.compose(Poly([a, 1]))

    def is_rational_poly(self) -> bool:
        return _rational_coeffs(self) is not None

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coeffs)

    def __str__(self):
        zz = _rational_coeffs(self)
        if zz is None:
            cs = self.coeffs
        else:
            ints, den = zz
            cs = ints if den == 1 else [Fraction(c, den) for c in ints]
        if not cs:
            return "0"
        parts = []
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if not c:
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


def _coeff_str(c) -> str:
    # an int or Fraction, or a Scalar; 1/2*x reads as (1/2)*x under the
    # usual left-to-right precedence, so only surd coefficients need
    # parentheses
    s = str(c)
    if isinstance(c, Scalar) and not c.is_rational():
        return "(" + s + ")"
    return s


X = Poly.x()


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; the zero polynomial when both operands are zero.

    Operands with rational coefficients take the integer kernel
    (_rational_gcd): GCDHEU on the primitive parts, with the primitive
    remainder sequence as its fallback.  With a tower coefficient, a
    linear operand is tested by evaluating the other at its root, and
    otherwise both go through the Euclidean loop (_euclid_gcd).  The
    routes agree wherever they all apply.
    """
    a, b = Poly.coerce(a), Poly.coerce(b)
    fa, fb = _rational_coeffs(a), _rational_coeffs(b)
    if fa is not None and fb is not None:
        return _rational_gcd(fa, fb)
    if b.degree() == 1:
        a, b = b, a
    if a.degree() == 1:
        # x - root divides b or is coprime to it
        return a.monic() if b(-a.coeff(0) / a.coeff(1)).is_zero() else Poly([1])
    return _euclid_gcd(a, b)


def gcd_cofactors(a: Poly, b: Poly):
    """(g, a/g, b/g) for nonzero a and b, g = gcd(a, b).  Rational
    operands take the cofactors f, k of their primitive parts from
    GCDHEU: with h their primitive gcd, g = h / lc(h) and a/g =
    cont(a) lc(h) f over a's denominator.  With a tower coefficient the
    cofactors are exact quotients by gcd(a, b)."""
    fa, fb = _rational_coeffs(a), _rational_coeffs(b)
    if fa is None or fb is None:
        g = gcd(a, b)
        if g.degree() == 0:
            return g, a, b
        return g, a.exact_div(g), b.exact_div(g)
    (ia, da), (ib, db) = fa, fb
    ca, cb = igcd(*ia), igcd(*ib)
    h, f, k = _heu_gcd(_primitive(ia, ca), _primitive(ib, cb))
    if len(h) == 1:
        return Poly._from_zz([1], 1), a, b
    ua, ub = ca * h[-1], cb * h[-1]
    return (
        _monic(h),
        Poly._from_zz([ua * c for c in f], da),
        Poly._from_zz([ub * c for c in k], db),
    )


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


# -- rational kernel --------------------------------------------------------
# A rational polynomial is its integer form (ints, den), see the module
# docstring; ints is low-order first.  Int lists held by a Poly are
# never mutated.

_UNIT = ([1], 1)


def _rational_coeffs(p: Poly):
    """p's integer form (ints, den), or None if a coefficient lies in an
    extension.  The one dispatch hook of the kernel."""
    return p._integer_form()


def _primitive(f, c=None):
    """f divided by its content c (f a nonzero int list)."""
    if c is None:
        c = igcd(*f)
    if c == 1:
        return f
    return [x // c for x in f]


def _monic(f):
    """The monic multiple of a nonzero int list, as a Poly."""
    lf = f[-1]
    return Poly._from_zz(f if lf > 0 else [-c for c in f], abs(lf))


def _rational_add(fa, fb, sign):
    """fa + sign * fb over the lcm of the denominators, as a Poly."""
    (a, da), (b, db) = fa, fb
    den = ilcm(da, db)
    ua, ub = den // da, sign * (den // db)
    if ua != 1:
        a = [ua * c for c in a]
    if ub != 1:
        b = [ub * c for c in b]
    n = min(len(a), len(b))
    return Poly._from_zz([x + y for x, y in zip(a, b)] + a[n:] + b[n:], den)


def _rational_mul(fa, fb):
    """Product of two nonzero integer forms as a Poly."""
    (a, da), (b, db) = fa, fb
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + nb] = [o + ai * bj for o, bj in zip(out[i:i + nb], b)]
    return Poly._from_zz(out, da * db)


def _rational_divmod(fa, fb):
    """(q, r) Polys with fa == q*fb + r; deg fa >= deg fb >= 0."""
    (a, da), (b, db) = fa, fb
    s, q, r = _integer_pdivmod(a, b)
    # s*a == q*b + r, so a/da == (q*db / (s*da)) * (b/db) + r / (s*da)
    den = s * da
    return Poly._from_zz([c * db for c in q], den), Poly._from_zz(r, den)


def _rational_exact_div(fa, fb):
    """fa / fb as a Poly, fb nonzero; raises InexactDivision otherwise.

    By Gauss's lemma the primitive part of fb divides the ints of fa in
    Z[x] whenever fb divides fa over Q; the content goes to the
    denominator.
    """
    (a, da), (b, db) = fa, fb
    if not a:
        return Poly([])
    cb = igcd(*b)
    q = _integer_exact_div(a, _primitive(b, cb))
    return Poly._from_zz([c * db for c in q], da * cb)


def _rational_gcd(fa, fb):
    """Monic gcd of two integer forms as a Poly."""
    a, b = fa[0], fb[0]
    if not a:
        a, b = b, a
    if not a:
        return Poly([])
    if not b:
        return _monic(a)
    return _monic(_heu_gcd(_primitive(a), _primitive(b))[0])


# points GCDHEU evaluates at before the remainder sequence takes over
_HEU_TRIES = 6


def _heu_gcd(f, g):
    """(h, f/h, g/h) for two primitive int lists f and g, h a primitive
    gcd (its sign is arbitrary).

    GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7 (1989); Geddes,
    Czapor & Labahn, Algorithms for Computer Algebra, 7.7).  With
    xi >= 2*B + 2, B the smaller of the two max-norms, the gcd G of f
    and g has |c(xi)| > (xi/2)^deg c for every factor c of G of positive
    degree: each root of c is a root of the operand of norm B, so it
    lies within 1 + B of 0 (Cauchy).  The base-xi digits of gcd(f(xi), g(xi)), taken in
    (-xi/2, xi/2], make a polynomial H with H(xi) = gcd(f(xi), g(xi)),
    a multiple of G(xi).  If h = pp(H) divides f and g, then G = h*c
    and c(xi) divides cont(H), which is at most xi/2: c is a unit and h
    is the gcd.  A constant H is the gcd 1 with no division.  The exact
    divisions that accept h are the cofactors.  When no point of a few
    succeeds, the primitive remainder sequence gives h.
    """
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(_HEU_TRIES):
        h = _symmetric_digits(igcd(_integer_eval(f, xi), _integer_eval(g, xi)), xi)
        if len(h) == 1:
            return [1], f, g
        h = _primitive(h)
        try:
            return h, _integer_exact_div(f, h), _integer_exact_div(g, h)
        except InexactDivision:
            pass
        # the book's step to a larger point, a factor of about 2.73
        xi = xi * 73794 // 27011
    h = _prs_gcd(f, g)
    return h, _integer_exact_div(f, h), _integer_exact_div(g, h)


def _integer_eval(f, x):
    """f(x) for an int list f and an int x, by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _symmetric_digits(v, xi):
    """The digits of v > 0 in base xi >= 4, each in (-xi/2, xi/2], low
    order first; the last one is positive."""
    half = xi // 2
    out = []
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        out.append(d)
    return out


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
        r = _integer_pdivmod(f, g)[2]
        f, g = g, _primitive(r) if r else r
    return f


def _integer_pdivmod(f, g):
    """(s, q, r) with s*f == q*g + r, s > 0 and deg r < deg g.

    f and g are int lists, g nonzero; r has no trailing zeros.  Each
    step scales by |lc(g)| / h only, h = gcd(lc(r), lc(g)), so s divides
    |lc(g)|^(deg f - deg g + 1) and is 1 whenever lc(g) = +-1.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    steps = []
    s = 1
    while len(r) > dg:
        # r <- u*r - v*x^k*g cancels the top term, which is popped
        lr = r.pop()
        h = igcd(lr, lg) if lg > 0 else -igcd(lr, lg)
        u, v = lg // h, lr // h
        k = len(r) - dg
        if u != 1:
            r = [u * c for c in r]
            s *= u
        for j in range(dg):
            r[k + j] -= v * g[j]
        steps.append((k, v, s))
        while r and not r[-1]:
            r.pop()
    q = [0] * max(len(f) - dg, 0)
    for k, v, sk in steps:
        # v was found at scale sk; the later steps scaled it by s / sk
        q[k] = v * (s // sk)
    return s, q, r


def _integer_exact_div(f, g):
    """f / g for int lists when g divides f in Z[x].

    Every step must divide evenly and the remainder must vanish;
    otherwise raises InexactDivision, as Poly.exact_div does.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        t, m = divmod(r[k + dg], lg)
        if m:
            raise InexactDivision("division is not exact")
        q[k] = t
        if t:
            for j in range(dg):
                r[k + j] -= t * g[j]
    if any(r[:dg]):
        raise InexactDivision("division is not exact")
    return q


def _rational_canonical(fn, fd):
    """Canonical num/den of the rational function fn/fd as two Polys.

    fn and fd are integer forms, fd nonzero.  The result is coprime with
    a monic denominator: the contents come off first, GCDHEU
    (_heu_gcd) replaces the primitive parts by their cofactors over
    their gcd, and the ratio of contents and denominators over lc(den)
    scales the numerator.
    """
    (a, da), (b, db) = fn, fd
    if not a:
        return Poly([]), Poly.coerce(1)
    ca, cb = igcd(*a), igcd(*b)
    _, f, g = _heu_gcd(_primitive(a, ca), _primitive(b, cb))
    # fn/fd == (ca*db / (da*cb)) * f/g and the monic denominator is g/lc(g)
    m, d = ca * db, da * cb * g[-1]
    if d < 0:
        m, d = -m, -d
    return Poly._from_zz([m * c for c in f], d), _monic(g)


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

    Returns a sorted list of Fractions (no multiplicity).  A root of the
    square-free integer form f, of degree n, is y / a_n for an integer
    root y of the monic a_n^(n-1) * f(y / a_n), which _integer_roots
    finds without factoring a coefficient.
    """
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    if not p.is_rational_poly():
        raise ValueError("rational root search needs rational coefficients")
    ints = _primitive(_rational_coeffs(p)[0])
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
    # the square-free part has the same roots, each simple
    ints = _heu_gcd(ints, _primitive([k * c for k, c in enumerate(ints)][1:]))[1]
    n, an = len(ints) - 1, ints[-1]
    monic = [c * an ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    roots.extend(Fraction(y, an) for y in _integer_roots(monic))
    roots.sort()
    return roots


def _integer_roots(f):
    """The integer roots of a monic square-free int list f, degree >= 1.

    Take the first prime p at which every root of f mod p is simple (one
    exists: any p that does not divide the discriminant).  Distinct
    integer roots then reduce to distinct roots mod p, and Newton's
    iteration lifts each of these uniquely (Hensel's lemma) to a modulus
    m > 2 * (1 + max |f_k|).  Every root lies within the Cauchy bound
    1 + max |f_k|, so it is the residue of its lift in (-m/2, m/2]; each
    such residue is kept if f vanishes there exactly.
    """
    df = [k * c for k, c in enumerate(f)][1:]
    p = 1
    while True:
        p += 1
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        fp = [c % p for c in f]
        start = [r for r in range(p) if _integer_eval(fp, r) % p == 0]
        if all(_integer_eval(df, r) % p for r in start):
            break
    bound = 1 + max(abs(c) for c in f[:-1])
    roots = []
    for y in start:
        m = p
        while m <= 2 * bound:
            m *= m
            y = (y - _integer_eval(f, y) * pow(_integer_eval(df, y), -1, m)) % m
        if y > m // 2:
            y -= m
        if not _integer_eval(f, y):
            roots.append(y)
    return roots


def roots_with_multiplicity(p: Poly):
    """Split a polynomial into linear factors over the coefficient tower.

    Returns (roots, leading) where roots is a list of (Scalar root, int
    multiplicity).  A square-free factor of degree 1 or 2 is split by
    formula; Scalar.sqrt returns a rational root when the discriminant
    is a rational square, and otherwise adjoins one square root.  From
    a rational factor of degree >= 3 the rational roots are peeled off
    first, and a remainder of degree 1 or 2 is split by formula.  Raises
    UnsupportedFieldError if a factor of degree >= 3 remains.
    """
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    lead = p.leading()
    found = []
    for fac, mult in squarefree_decomposition(p.monic()):
        rem = fac
        if rem.degree() >= 3 and rem.is_rational_poly():
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
            sq = disc.sqrt()
            found.append(((-b + sq) / (2 * a), mult))
            found.append(((-b - sq) / (2 * a), mult))
            continue
        raise UnsupportedFieldError(
            "cannot split factor of degree %d: %s" % (rem.degree(), rem)
        )
    found.sort(key=lambda rm: rm[0].sort_key())
    return found, lead
