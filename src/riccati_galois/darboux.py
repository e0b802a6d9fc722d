"""Invariant curves, cofactors, integrating factors and first integrals
for planar polynomial vector fields, specialised to Riccati foliations
X = q(x) d/dx + (p(x) - q(x) w^2) d/dw.

The two central facts used throughout: a curve f = 0 is invariant iff
X(f) = K f for a polynomial cofactor K, and a linear relation
sum lambda_i K_i (+ div X) = 0 among cofactors produces a first integral
(resp. integrating factor) prod f_i^lambda_i.
"""

from .bivar import BivarPoly, BivarRatFunc, PlanarVectorField
from .linalg import nullspace, solve
from .poly import Poly, squarefree_part
from .ratfunc import RatFunc, rational_antiderivative
from .scalars import Scalar


class NotASolutionError(Exception):
    pass


class DegenerateError(Exception):
    pass


class AlgebraicCurve:
    """f = 0 invariant under the field, with cofactor X(f)/f."""

    __slots__ = ("f", "cofactor")

    def __init__(self, f, cofactor):
        self.f = BivarPoly.coerce(f)
        self.cofactor = BivarRatFunc.coerce(cofactor)

    @classmethod
    def of(cls, field: PlanarVectorField, f):
        k = cofactor_of(field, f)
        if k is None:
            raise ValueError("%s is not an invariant curve" % f)
        return cls(f, k)

    def __repr__(self):
        return "AlgebraicCurve(f=%s, K=%s)" % (self.f, self.cofactor)


class ExponentialFactor:
    """F = exp(g/h) with polynomial cofactor X(g/h)."""

    __slots__ = ("g", "h", "cofactor")

    def __init__(self, g, h, cofactor):
        self.g = BivarPoly.coerce(g)
        self.h = BivarPoly.coerce(h)
        self.cofactor = BivarRatFunc.coerce(cofactor)

    @classmethod
    def of(cls, field: PlanarVectorField, g, h):
        g = BivarPoly.coerce(g)
        h = BivarPoly.coerce(h)
        num = field.apply(g) * h - g * field.apply(h)
        k = num.exact_div(h * h)
        if k is None:
            raise ValueError("exp((%s)/(%s)) is not an exponential factor" % (g, h))
        return cls(g, h, k)

    def __repr__(self):
        return "ExponentialFactor(exp((%s)/(%s)), K=%s)" % (
            self.g,
            self.h,
            self.cofactor,
        )


class FormalExpFactor:
    """An exponential factor given only through its cofactor, e.g.
    F = exp(-int w1 dx) along a Riccati field, whose cofactor is the
    rational function -q(x) w1(x)."""

    __slots__ = ("description", "cofactor")

    def __init__(self, description, cofactor):
        self.description = description
        self.cofactor = BivarRatFunc.coerce(cofactor)

    def __repr__(self):
        return "FormalExpFactor(%s, K=%s)" % (self.description, self.cofactor)


class DarbouxObject:
    """A verified linear relation among cofactors and the Darboux
    function it produces."""

    FIRST_INTEGRAL = "first_integral"
    INTEGRATING_FACTOR = "integrating_factor"

    __slots__ = ("curves", "expfactors", "exponents", "kind")

    def __init__(self, curves, expfactors, exponents, kind):
        self.curves = list(curves)
        self.expfactors = list(expfactors)
        self.exponents = [Scalar.coerce(e) for e in exponents]
        self.kind = kind

    def verify(self, field: PlanarVectorField) -> bool:
        acc = BivarRatFunc.coerce(0)
        items = self.curves + self.expfactors
        for lam, item in zip(self.exponents, items):
            acc = acc + BivarRatFunc.coerce(lam) * item.cofactor
        if self.kind == self.INTEGRATING_FACTOR:
            acc = acc + BivarRatFunc.coerce(field.divergence())
        return acc.is_zero()

    def __repr__(self):
        return "DarbouxObject(%s, exponents=%s)" % (
            self.kind,
            [str(e) for e in self.exponents],
        )


def cofactor_of(field: PlanarVectorField, f):
    """K with X(f) = K f, or None when f = 0 is not invariant."""
    return field.cofactor_of(f)


def darboux_combination(curves, expfactors, field, kind):
    """Exponents lambda with sum lambda_i K_i (+ div X) = 0, or None.

    kind is DarbouxObject.FIRST_INTEGRAL (homogeneous relation, smallest
    nullspace vector) or INTEGRATING_FACTOR (inhomogeneous with the
    divergence as right-hand side).
    """
    items = list(curves) + list(expfactors)
    if not items:
        return None
    cofs = [BivarRatFunc.coerce(it.cofactor) for it in items]
    rhs_fn = BivarRatFunc.coerce(0)
    if kind == DarbouxObject.INTEGRATING_FACTOR:
        rhs_fn = BivarRatFunc.coerce(field.divergence())
    # clear denominators: multiply everything by the product of all dens
    common = BivarPoly.coerce(1)
    for c in cofs:
        common = common * c.den
    common = common * rhs_fn.den
    num_terms = [(c.num * common.exact_div(c.den)).terms for c in cofs]
    rhs_terms = (rhs_fn.num * common.exact_div(rhs_fn.den)).terms
    monomials = sorted(set(rhs_terms).union(*num_terms))
    zero = Scalar.coerce(0)
    rows = [[t.get(mon, zero) for t in num_terms] for mon in monomials]
    rhs = [-rhs_terms.get(mon, zero) for mon in monomials]
    if kind == DarbouxObject.FIRST_INTEGRAL:
        if not monomials:
            # every cofactor vanished: any single curve already works
            exps = [Scalar.coerce(1)] + [Scalar.coerce(0)] * (len(items) - 1)
            return DarbouxObject(curves, expfactors, exps, kind)
        basis = nullspace(rows)
        if not basis:
            return None
        return DarbouxObject(curves, expfactors, basis[0], kind)
    if not monomials:
        return None
    sol = solve(rows, rhs)
    if sol is None:
        return None
    if all(s.is_zero() for s in sol):
        return None
    return DarbouxObject(curves, expfactors, sol, kind)


def riccati_field(r: RatFunc) -> PlanarVectorField:
    """The polynomial field q d/dx + (p - q w^2) d/dw for r = p/q."""
    r = RatFunc.coerce(r)
    p = BivarPoly.coerce(r.num)
    q = BivarPoly.coerce(r.den)
    w2 = BivarPoly.var_w() ** 2
    return PlanarVectorField(q, p - q * w2)


def _solution_line(w: RatFunc) -> BivarPoly:
    """-w + w_i cleared to den(w_i): num(w_i) - den(w_i) w."""
    return BivarPoly([w.num, -w.den])


def _check_riccati_shape(field: PlanarVectorField) -> RatFunc:
    """r = p/q when the field has the Riccati shape above, else raise."""
    if field.p.degree_w() != 0:
        raise ValueError("base component must depend on x alone")
    q = field.p.w_coeffs()[0]
    coeffs = field.q.w_coeffs()
    while len(coeffs) < 3:
        coeffs.append(Poly([]))
    if field.q.degree_w() > 2 or not coeffs[1].is_zero() or coeffs[2] != -q:
        raise ValueError("field does not have the reduced Riccati shape")
    return RatFunc(coeffs[0], q)


class RiccatiIntegratingFactor:
    """mu = exp(-2 int w1 dx) / (-w + w1)^2 for a Riccati solution w1."""

    __slots__ = ("w1",)

    def __init__(self, w1: RatFunc):
        self.w1 = RatFunc.coerce(w1)

    def log_derivative_along(self, field: PlanarVectorField) -> BivarRatFunc:
        """D(mu)/mu along the normalized derivation D = d/dx +
        (r - w^2) d/dw, computed with d/dx(int w1) = w1.

        The polynomial field is q(x) times D, so mu is an integrating
        factor of the foliation; for nonconstant q the polynomial field
        itself needs the extra factor 1/q."""
        r = _check_riccati_shape(field)
        flow = BivarRatFunc.coerce(r) - BivarRatFunc.coerce(
            BivarPoly.var_w() ** 2
        )

        def apply_normalized(f):
            return f.d_dx() + flow * f.d_dw()

        ft = BivarRatFunc(_solution_line(self.w1))
        den = BivarRatFunc.coerce(RatFunc(self.w1.den))
        return (
            BivarRatFunc.coerce(-2 * self.w1)
            - 2 * apply_normalized(ft) / ft
            + 2 * apply_normalized(den) / den
        )

    def verify(self, field: PlanarVectorField) -> bool:
        # div of the normalized derivation is -2w
        lhs = self.log_derivative_along(field)
        return (lhs - 2 * BivarRatFunc.coerce(BivarPoly.var_w())).is_zero()

    def __str__(self):
        return "exp(-2 int (%s) dx) / (-w + (%s))^2" % (self.w1, self.w1)

    def __repr__(self):
        return "RiccatiIntegratingFactor(w1=%s)" % self.w1


def integrating_factor_from_solution(
    w1: RatFunc, field: PlanarVectorField
) -> RiccatiIntegratingFactor:
    """The Darboux integrating factor attached to one rational solution
    of w' = r - w^2.  Raises NotASolutionError on a non-solution."""
    r = _check_riccati_shape(field)
    w1 = RatFunc.coerce(w1)
    if not (w1.derivative() + w1 * w1 - r).is_zero():
        raise NotASolutionError("w1 = %s does not solve w' = r - w^2" % w1)
    return RiccatiIntegratingFactor(w1)


class RiccatiFirstIntegral:
    """H = ((-w + w2)/(-w + w1)) exp(int (w2 - w1) dx)."""

    __slots__ = ("w1", "w2")

    def __init__(self, w1, w2):
        self.w1 = RatFunc.coerce(w1)
        self.w2 = RatFunc.coerce(w2)

    def log_derivative_along(self, field: PlanarVectorField) -> BivarRatFunc:
        q = BivarRatFunc.coerce(RatFunc(field.p.w_coeffs()[0]))

        def piece(wi):
            ft = BivarRatFunc(_solution_line(wi))
            den = BivarRatFunc.coerce(RatFunc(wi.den))
            return field.apply(ft) / ft - field.apply(den) / den

        exp_part = q * BivarRatFunc.coerce(self.w2 - self.w1)
        return piece(self.w2) - piece(self.w1) + exp_part

    def verify(self, field: PlanarVectorField) -> bool:
        return self.log_derivative_along(field).is_zero()

    def __str__(self):
        return "((-w + (%s))/(-w + (%s))) * exp(int (%s) dx)" % (
            self.w2,
            self.w1,
            self.w2 - self.w1,
        )


def _two_solutions(w1, w2, field: PlanarVectorField):
    """(w1, w2) as RatFuncs once both solve the field's Riccati equation
    and differ; raises NotASolutionError or DegenerateError otherwise."""
    r = _check_riccati_shape(field)
    w1 = RatFunc.coerce(w1)
    w2 = RatFunc.coerce(w2)
    for w in (w1, w2):
        if not (w.derivative() + w * w - r).is_zero():
            raise NotASolutionError("%s does not solve w' = r - w^2" % w)
    if w1 == w2:
        raise DegenerateError("the two solutions coincide")
    return w1, w2


def first_integral_two_solutions(
    w1, w2, field: PlanarVectorField
) -> RiccatiFirstIntegral:
    return RiccatiFirstIntegral(*_two_solutions(w1, w2, field))


def rational_first_integral_cyclic(g: RatFunc, n: int) -> BivarRatFunc:
    """H = (1/g^2) ((-n g w - g')/(-n g w + g'))^n, the classical
    closed form attached to the cyclic situation xi = g^(1/n).

    This is a genuine first integral only when -g'/(ng) solves the
    same Riccati equation as g'/(ng); for the general two-solution
    construction use rational_first_integral_power."""
    g = RatFunc.coerce(g)
    if g.is_zero():
        raise ValueError("g must be nonzero")
    if n < 1:
        raise ValueError("n must be a positive integer")
    gb = BivarRatFunc.coerce(g)
    gpb = BivarRatFunc.coerce(g.derivative())
    wv = BivarRatFunc.coerce(BivarPoly.var_w())
    a = -n * gb * wv - gpb
    b = -n * gb * wv + gpb
    return (a / b) ** n / (gb * gb)


def rational_first_integral_power(w1, w2, n: int, field: PlanarVectorField):
    """A rational first integral from two rational solutions whose
    difference integrates to a logarithm: when exp(int n(w2 - w1) dx)
    is a rational function g, H = ((-w + w2)/(-w + w1))^n * g satisfies
    X(H) = 0 exactly.  Raises ValueError when no such g exists."""
    w1, w2 = _two_solutions(w1, w2, field)
    g = exp_integral_as_rational(n * (w2 - w1))
    if g is None:
        raise ValueError("exp(int n(w2 - w1)) is not rational")
    f1 = BivarRatFunc(_solution_line(w1), w1.den)
    f2 = BivarRatFunc(_solution_line(w2), w2.den)
    return BivarRatFunc.coerce(g) * (f2 / f1) ** n


def exp_integral_as_rational(f: RatFunc):
    """R with R'/R = f, if exp(int f) is rational; otherwise None.

    Needs f to have zero polynomial part, only simple poles, and integer
    residues; R is then the product of (x - c)^residue.
    """
    f = RatFunc.coerce(f)
    if not f.polynomial_part().is_zero():
        return None
    if f.den.degree() > 0 and squarefree_part(f.den) != f.den.monic():
        return None
    num = RatFunc.coerce(1)
    den = RatFunc.coerce(1)
    dd = f.den.derivative()
    for c, _ in f.poles():
        res = f.num(c) / dd(c)
        if not res.is_integer():
            return None
        k = int(res.as_fraction())
        lin = RatFunc(Poly([-c, 1]))
        if k >= 0:
            num = num * lin**k
        else:
            den = den * lin ** (-k)
    return num / den


class FirstIntegralClass:
    """Classification of the first integral attached to a Kovacic
    result, with the witnesses that decide it."""

    __slots__ = ("label", "w1", "w2", "detail")

    def __init__(self, label, w1=None, w2=None, detail=None):
        self.label = label
        self.w1 = w1
        self.w2 = w2
        self.detail = detail

    def __repr__(self):
        return "FirstIntegralClass(%s)" % self.label


def classify_first_integral(res) -> FirstIntegralClass:
    """Map a Kovacic result to its first-integral type.

    Case 1 splits on whether the second solution is also rational:
    xi_2/xi_1 = int exp(-2 int omega)/P^2, which is rational exactly
    when exp(-2 int omega) is rational and the resulting quotient has a
    rational antiderivative.
    """
    if res.case == 4:
        return FirstIntegralClass("none")
    if res.case == 2:
        return FirstIntegralClass("hyperelliptic", detail=res.quadratic)
    if res.case == 3:
        return FirstIntegralClass("rational", detail=res.omega_poly)
    p_rf = RatFunc.coerce(res.p)
    w1 = res.omega + p_rf.derivative() / p_rf
    inner = exp_integral_as_rational(-2 * res.omega)
    if inner is None:
        return FirstIntegralClass("darboux-schwarz-christoffel", w1=w1)
    quotient = inner / (p_rf * p_rf)
    anti = rational_antiderivative(quotient)
    if anti is None:
        return FirstIntegralClass("darboux-schwarz-christoffel", w1=w1)
    w2 = w1 + quotient / anti
    return FirstIntegralClass("darboux", w1=w1, w2=w2)
