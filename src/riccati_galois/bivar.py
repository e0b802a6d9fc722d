"""Bivariate polynomials in (x, w) and planar polynomial vector fields.

Used for the geometric side of the theory: invariant algebraic curves,
cofactors and divergences of the vector field attached to a Riccati
equation.  Representation is recursive (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 6): a BivarPoly is a polynomial in w over
Q[x], stored as its list of x-Polys, one per power of w, with no
trailing zero.  Every coefficient operation is a Poly operation, so
rational coefficients take Poly's integer kernel.
"""

from itertools import zip_longest

from .poly import Poly
from .ratfunc import RatFunc

_ZERO = Poly([])


class BivarPoly:
    """sum w_coeffs[j](x) w^j; immutable."""

    __slots__ = ("_w",)

    def __init__(self, w_coeffs):
        cs = [Poly.coerce(p) for p in w_coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._w = cs

    @classmethod
    def coerce(cls, v):
        if isinstance(v, BivarPoly):
            return v
        return cls([v])

    @classmethod
    def var_x(cls):
        return cls([Poly.x()])

    @classmethod
    def var_w(cls):
        return cls([0, 1])

    def w_coeffs(self):
        """The x-Polys indexed by w power, as a new list."""
        return list(self._w)

    @property
    def terms(self):
        """Read-only view {(i, j): Scalar} of the x^i w^j coefficients."""
        return {
            (i, j): c
            for j, p in enumerate(self._w)
            for i, c in enumerate(p.coeffs)
            if not c.is_zero()
        }

    def is_zero(self):
        return not self._w

    def degree_x(self):
        return max((p.degree() for p in self._w), default=-1)

    def degree_w(self):
        return len(self._w) - 1

    def total_degree(self):
        return max(
            (p.degree() + j for j, p in enumerate(self._w) if not p.is_zero()),
            default=-1,
        )

    def __add__(self, other):
        other = BivarPoly.coerce(other)
        return BivarPoly(
            [a + b for a, b in zip_longest(self._w, other._w, fillvalue=_ZERO)]
        )

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly([-p for p in self._w])

    def __sub__(self, other):
        other = BivarPoly.coerce(other)
        return BivarPoly(
            [a - b for a, b in zip_longest(self._w, other._w, fillvalue=_ZERO)]
        )

    def __rsub__(self, other):
        return BivarPoly.coerce(other) - self

    def __mul__(self, other):
        other = BivarPoly.coerce(other)
        if self.is_zero() or other.is_zero():
            return BivarPoly([])
        out = [_ZERO] * (len(self._w) + len(other._w) - 1)
        for i, a in enumerate(self._w):
            if a.is_zero():
                continue
            for j, b in enumerate(other._w):
                c = out[i + j]
                out[i + j] = a * b if c is _ZERO else c + a * b
        return BivarPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BivarPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        try:
            other = BivarPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self._w == other._w

    def __hash__(self):
        return hash(tuple(self._w))

    def d_dx(self):
        return BivarPoly([p.derivative() for p in self._w])

    def d_dw(self):
        return BivarPoly([p.scale(j) for j, p in enumerate(self._w[1:], 1)])

    def substitute_w(self, value: RatFunc) -> RatFunc:
        """Evaluate at w = value(x); returns a rational function of x."""
        value = RatFunc.coerce(value)
        acc = RatFunc.coerce(0)
        for p in reversed(self._w):
            acc = acc * value + RatFunc.coerce(p)
        return acc

    def exact_div(self, divisor: "BivarPoly"):
        """The quotient self / divisor, or None if it is not a polynomial.

        Division in (Q[x])[w]: each step divides the top w-coefficient
        of the remainder by the divisor's in Q[x].  An exact quotient is
        unique, so any exact division algorithm returns this one.
        """
        divisor = BivarPoly.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        d = divisor._w
        top = len(d) - 1
        rem = list(self._w)
        quot = [_ZERO] * (len(rem) - top)
        for k in range(len(quot) - 1, -1, -1):
            q, r = rem[k + top].divmod(d[top])
            if not r.is_zero():
                return None
            quot[k] = q
            if not q.is_zero():
                for j in range(top):
                    rem[k + j] = rem[k + j] - q * d[j]
        if any(not p.is_zero() for p in rem[:top]):
            return None
        return BivarPoly(quot)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = self.terms
        keys = sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[1], -k[0]))
        parts = []
        for i, j in keys:
            c = terms[(i, j)]
            bits = []
            if i:
                bits.append("x" if i == 1 else "x^%d" % i)
            if j:
                bits.append("w" if j == 1 else "w^%d" % j)
            if not bits or c != 1:
                if c == -1 and bits:
                    bits.insert(0, "-1")
                else:
                    cs = str(c)
                    if not c.is_rational():
                        cs = "(" + cs + ")"
                    bits.insert(0, cs)
            term = "*".join(bits).replace("-1*", "-")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return "BivarPoly(%s)" % self


class BivarRatFunc:
    """Unreduced quotient of bivariate polynomials.

    No multivariate gcd is attempted; equality and zero tests go through
    cross-multiplication, which is exact.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = BivarPoly.coerce(num)
        den = BivarPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def coerce(cls, v):
        if isinstance(v, BivarRatFunc):
            return v
        if isinstance(v, RatFunc):
            return cls(BivarPoly.coerce(v.num), BivarPoly.coerce(v.den))
        return cls(BivarPoly.coerce(v))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = BivarRatFunc.coerce(other)
        return BivarRatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return BivarRatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-BivarRatFunc.coerce(other))

    def __rsub__(self, other):
        return BivarRatFunc.coerce(other) + (-self)

    def __mul__(self, other):
        other = BivarRatFunc.coerce(other)
        return BivarRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = BivarRatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return BivarRatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return BivarRatFunc.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (1 / self) ** (-n)
        return BivarRatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        try:
            other = BivarRatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def _derivative(self, d):
        """The quotient rule for the partial derivative d of BivarPoly."""
        return BivarRatFunc(
            d(self.num) * self.den - self.num * d(self.den),
            self.den * self.den,
        )

    def d_dx(self):
        return self._derivative(BivarPoly.d_dx)

    def d_dw(self):
        return self._derivative(BivarPoly.d_dw)

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "BivarRatFunc(%s)" % self


class PlanarVectorField:
    """X = P(x, w) d/dx + Q(x, w) d/dw."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self.p = BivarPoly.coerce(p)
        self.q = BivarPoly.coerce(q)

    def apply(self, f):
        """X(f) for a BivarPoly or BivarRatFunc."""
        if isinstance(f, BivarRatFunc):
            return BivarRatFunc.coerce(self.p) * f.d_dx() + BivarRatFunc.coerce(
                self.q
            ) * f.d_dw()
        f = BivarPoly.coerce(f)
        return self.p * f.d_dx() + self.q * f.d_dw()

    def divergence(self) -> BivarPoly:
        return self.p.d_dx() + self.q.d_dw()

    def cofactor_of(self, f):
        """K with X(f) = K f, or None if f is not an invariant curve."""
        f = BivarPoly.coerce(f)
        if f.is_zero():
            raise ValueError("zero polynomial is not a curve")
        return self.apply(f).exact_div(f)

    def __str__(self):
        return "(%s) d/dx + (%s) d/dw" % (self.p, self.q)

    def __repr__(self):
        return "PlanarVectorField(%s)" % self
