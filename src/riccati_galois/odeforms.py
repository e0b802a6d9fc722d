"""The four equivalent equation forms and the maps between them.

Forms:
  (i)   y'' + b1 y' + b0 y = 0          SecondOrderODE
  (ii)  xi'' = rho xi                   ReducedODE
  (iii) v' = a0 + a1 v + a2 v^2         RiccatiGeneral
  (iv)  w' = r - w^2                    RiccatiReduced

transform_T: (iii) -> (iv) by the affine change v = alpha + beta w
transform_B: (iii) -> (i)  by v = -(1/a2) y'/y
transform_S: (i) -> (ii)   by y = xi exp(-1/2 int b1)
transform_R: (ii) -> (iv)  by w = xi'/xi
and S o B = R o T on the nose.

foliation_of reads a Riccati equation off a planar polynomial vector
field whose base component depends on the base variable alone.
"""

from .bivar import BivarPoly, PlanarVectorField
from .poly import Poly
from .ratfunc import RatFunc


class NotRiccatiError(Exception):
    pass


class SecondOrderODE:
    """y'' + b1 y' + b0 y = 0."""

    __slots__ = ("b1", "b0")

    def __init__(self, b1, b0):
        self.b1 = RatFunc.coerce(b1)
        self.b0 = RatFunc.coerce(b0)

    def __eq__(self, other):
        if not isinstance(other, SecondOrderODE):
            return NotImplemented
        return self.b1 == other.b1 and self.b0 == other.b0

    def __repr__(self):
        return "SecondOrderODE(y'' + (%s) y' + (%s) y = 0)" % (self.b1, self.b0)


class ReducedODE:
    """xi'' = rho xi."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        self.rho = RatFunc.coerce(rho)

    def __eq__(self, other):
        if not isinstance(other, ReducedODE):
            return NotImplemented
        return self.rho == other.rho

    def __repr__(self):
        return "ReducedODE(xi'' = (%s) xi)" % self.rho


class RiccatiGeneral:
    """v' = a0 + a1 v + a2 v^2 with a2 != 0."""

    __slots__ = ("a0", "a1", "a2")

    def __init__(self, a0, a1, a2):
        self.a0 = RatFunc.coerce(a0)
        self.a1 = RatFunc.coerce(a1)
        self.a2 = RatFunc.coerce(a2)
        if self.a2.is_zero():
            raise ValueError("not a Riccati equation: a2 = 0")

    def __eq__(self, other):
        if not isinstance(other, RiccatiGeneral):
            return NotImplemented
        return (
            self.a0 == other.a0 and self.a1 == other.a1 and self.a2 == other.a2
        )

    def __repr__(self):
        return "RiccatiGeneral(v' = (%s) + (%s) v + (%s) v^2)" % (
            self.a0,
            self.a1,
            self.a2,
        )


class RiccatiReduced:
    """w' = r - w^2."""

    __slots__ = ("r",)

    def __init__(self, r):
        self.r = RatFunc.coerce(r)

    def __eq__(self, other):
        if not isinstance(other, RiccatiReduced):
            return NotImplemented
        return self.r == other.r

    def __repr__(self):
        return "RiccatiReduced(w' = (%s) - w^2)" % self.r


class AffineSubstitution:
    """v = alpha + beta w."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        self.alpha = RatFunc.coerce(alpha)
        self.beta = RatFunc.coerce(beta)

    def apply(self, w: RatFunc) -> RatFunc:
        return self.alpha + self.beta * RatFunc.coerce(w)

    def __repr__(self):
        return "v = (%s) + (%s) w" % (self.alpha, self.beta)


class ExponentialMultiplier:
    """y = xi * exp(int exponent dx), with the integral left formal."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = RatFunc.coerce(exponent)

    def __repr__(self):
        return "y = xi * exp(int (%s) dx)" % self.exponent


def transform_T(e: RiccatiGeneral):
    """General Riccati to reduced Riccati; returns (equation, substitution)."""
    a0, a1, a2 = e.a0, e.a1, e.a2
    alpha = -(a2.derivative() / (2 * a2 * a2) + a1 / (2 * a2))
    beta = -1 / a2
    r = (a0 + a1 * alpha + a2 * alpha * alpha - alpha.derivative()) / beta
    return RiccatiReduced(r), AffineSubstitution(alpha, beta)


def transform_B(e: RiccatiGeneral) -> SecondOrderODE:
    """General Riccati to second-order linear ODE via v = -(1/a2) y'/y."""
    b1 = -(e.a1 + e.a2.derivative() / e.a2)
    b0 = e.a0 * e.a2
    return SecondOrderODE(b1, b0)


def transform_S(e: SecondOrderODE):
    """Remove the first-order term; returns (equation, multiplier)."""
    b1, b0 = e.b1, e.b0
    rho = b1 * b1 * RatFunc.coerce(1) / 4 + b1.derivative() / 2 - b0
    return ReducedODE(rho), ExponentialMultiplier(-b1 / 2)


def transform_R(e: ReducedODE) -> RiccatiReduced:
    """Reduced ODE to reduced Riccati via w = xi'/xi."""
    return RiccatiReduced(e.rho)


class Foliation:
    """Riccati equation read off a planar vector field.

    base is "x" or "w": the independent variable of the equation.  When
    base is "w" the returned coefficients are rational functions of the
    original fiber variable (the field was transposed first).
    """

    __slots__ = ("equation", "base")

    def __init__(self, equation, base):
        self.equation = equation
        self.base = base

    def __repr__(self):
        return "Foliation(base=%s, %r)" % (self.base, self.equation)


def _transpose(f: BivarPoly) -> BivarPoly:
    """f with x and w exchanged."""
    rows = f.w_coeffs()
    return BivarPoly(
        [Poly([p.coeff(i) for p in rows]) for i in range(f.degree_x() + 1)]
    )


def _try_orientation(p: BivarPoly, q: BivarPoly):
    # base component must be a polynomial in x alone, fiber degree <= 2
    if p.is_zero() or p.degree_w() != 0 or q.degree_w() > 2:
        return None
    base = RatFunc.coerce(p.w_coeffs()[0])
    coeffs = q.w_coeffs()
    while len(coeffs) < 3:
        coeffs.append(Poly([]))
    a0 = RatFunc.coerce(coeffs[0]) / base
    a1 = RatFunc.coerce(coeffs[1]) / base
    a2 = RatFunc.coerce(coeffs[2]) / base
    if a2.is_zero():
        return None
    if a1.is_zero() and a2 == -1:
        return RiccatiReduced(a0)
    return RiccatiGeneral(a0, a1, a2)


def foliation_of(field: PlanarVectorField) -> Foliation:
    """Extract dw/dx = Q/P as a Riccati equation.

    Prefers x as the base variable; falls back to the transposed
    orientation.  Raises NotRiccatiError when neither works.
    """
    eq = _try_orientation(field.p, field.q)
    if eq is not None:
        return Foliation(eq, "x")
    eq = _try_orientation(_transpose(field.q), _transpose(field.p))
    if eq is not None:
        return Foliation(eq, "w")
    raise NotRiccatiError(
        "vector field is not a Riccati foliation in either orientation"
    )
