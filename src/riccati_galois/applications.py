"""End-to-end integrability pipelines for concrete planar families.

Four families are covered: linear-quadratic planar systems whose
foliation is a Whittaker-type Riccati equation, the Lienard fields
attached to the classical orthogonal polynomials, two Lienard-type
reductions (one ending in a Legendre equation, one in a biconfluent
Heun equation), and a handful of worked equations with known Galois
groups.  Every verdict carries the derivation trace that produced it,
and every constructed invariant object is re-verified before it is
returned.
"""

from fractions import Fraction

from .darboux import AlgebraicCurve, classify_first_integral
from .kovacic import solve_rlde
from .odeforms import (
    ReducedODE,
    RiccatiGeneral,
    SecondOrderODE,
    transform_S,
    transform_T,
)
from .bivar import BivarPoly, PlanarVectorField
from .poly import Poly
from .ratfunc import RatFunc
from .scalars import Scalar, UnsupportedFieldError
from .specialfn import (
    BiconfluentParams,
    CriterionVerdict,
    WhittakerParams,
    biconfluent_heun_test,
    martinet_ramis_test,
    orth_polynomial,
)


class DegenerateDiscriminant(Exception):
    """The Whittaker reduction needs a non-zero discriminant."""


class SingularParameterCombination(Exception):
    """A denominator of the reduction formulas vanishes."""


class Unsupported(Exception):
    """The reduction leaves the supported scalar towers or shapes."""


# -- linear-quadratic systems ----------------------------------------------


class S1Params:
    """x' = x, y' = eps x + lam y + b20 x^2 + b11 xy + b02 y^2."""

    __slots__ = ("eps", "lam", "b20", "b11", "b02")

    def __init__(self, eps, lam, b20, b11, b02):
        self.eps = Scalar.coerce(eps)
        self.lam = Scalar.coerce(lam)
        self.b20 = Scalar.coerce(b20)
        self.b11 = Scalar.coerce(b11)
        self.b02 = Scalar.coerce(b02)

    def __repr__(self):
        return "S1Params(eps=%s, lam=%s, b20=%s, b11=%s, b02=%s)" % (
            self.eps,
            self.lam,
            self.b20,
            self.b11,
            self.b02,
        )


class S2Params(S1Params):
    """x' = y, y' = eps x + lam y + b20 x^2 + b11 xy + b02 y^2."""

    def __repr__(self):
        return "S2" + super().__repr__()[2:]


def s1_riccati(p: S1Params) -> RiccatiGeneral:
    """The foliation of an (S1) system: dy/dx = (eps + b20 x) +
    ((lam + b11 x)/x) y + (b02/x) y^2."""
    x = Poly.x()
    return RiccatiGeneral(
        Poly([p.eps, p.b20]),
        RatFunc(Poly([p.lam, p.b11]), x),
        RatFunc(Poly([p.b02]), x),
    )


class S1Analysis:
    """Whittaker parameters of an (S1) system together with the
    integrability verdicts."""

    __slots__ = (
        "kappa",
        "mu",
        "whittaker",
        "verdict",
        "condition_a1",
        "condition_b1",
        "trace",
    )

    def __init__(self, kappa, mu, whittaker, verdict, a1, b1, trace):
        self.kappa = kappa
        self.mu = mu
        self.whittaker = whittaker
        self.verdict = verdict
        self.condition_a1 = a1
        self.condition_b1 = b1
        self.trace = trace

    def __repr__(self):
        return "S1Analysis(kappa=%s, mu=%s, %s)" % (
            self.kappa,
            self.mu,
            self.verdict.status,
        )


def s1_analyze(p: S1Params) -> S1Analysis:
    """Reduce an (S1) system to a Whittaker equation and decide its
    integrability.

    kappa = (b02 eps + (b11/2)(1 - lam)) / sqrt(b11^2 - 4 b20 b02) and
    mu = lam/2; the half-odd-integer criterion is evaluated for both
    choices of the square root (its verdict is invariant since the
    criterion is symmetric under kappa -> -kappa).  The two closed-form
    sufficient conditions (b02 = lam = 0, and b02 = 0 with lam a
    negative rational) are reported separately.
    """
    disc = p.b11 * p.b11 - 4 * p.b20 * p.b02
    if disc.is_zero():
        raise DegenerateDiscriminant(
            "b11^2 - 4 b20 b02 = 0: no Whittaker reduction"
        )
    root = disc.sqrt()
    kappa = (p.b02 * p.eps + p.b11 / 2 * (1 - p.lam)) / root
    mu = p.lam / 2
    whittaker = WhittakerParams(kappa, mu)
    verdict = martinet_ramis_test(whittaker)
    other = martinet_ramis_test(WhittakerParams(-kappa, mu))
    if verdict.is_integrable != other.is_integrable:
        raise Unsupported("criterion not invariant under the root choice")
    a1 = p.b02.is_zero() and p.lam.is_zero()
    b1 = (
        p.b02.is_zero()
        and p.lam.is_rational()
        and p.lam.as_fraction() < 0
    )
    trace = [
        "discriminant b11^2 - 4 b20 b02 = %s" % disc,
        "kappa = %s, mu = %s" % (kappa, mu),
        "half-odd-integer criterion: %s" % verdict.reason,
        "closed-form conditions: a1=%s, b1=%s" % (a1, b1),
    ]
    return S1Analysis(kappa, mu, whittaker, verdict, a1, b1, trace)


S2_BERNOULLI = "Bernoulli"
S2_LINEAR = "Linear"
S2_SEPARABLE = "Separable"
S2_LIENARD = "Lienard"
S2_UNCLASSIFIED = "Unclassified"


def s2_classify(p: S2Params) -> str:
    """Type of the first-order equation an (S2) system reduces to;
    clauses are tried in order and the first match wins."""
    if p.lam.is_zero() and p.b11.is_zero():
        return S2_BERNOULLI
    if p.eps.is_zero() and p.b20.is_zero():
        return S2_LINEAR
    if (
        p.b20.is_zero()
        and p.b02.is_zero()
        and p.lam.is_zero()
        and not (p.eps * p.b11).is_zero()
    ):
        return S2_SEPARABLE
    if p.b02.is_zero():
        return S2_LIENARD
    return S2_UNCLASSIFIED


# -- orthogonal-family invariant curves ------------------------------------


def orth_lienard_field(row, n: int, mu) -> PlanarVectorField:
    """The Lienard-type field dx/dt = Q, dw/dt = (lam/mu) Q + (Q'-L) w
    + mu w^2 attached to a family row and degree n."""
    mu = Scalar.coerce(mu)
    if mu.is_zero():
        raise ValueError("mu must be non-zero")
    lam = row.eigenvalue(n)
    return PlanarVectorField(
        BivarPoly([row.q]),
        BivarPoly([row.q.scale(lam / mu), row.q.derivative() - row.l, mu]),
    )


def orth_invariant_curve(row, n: int, mu) -> AlgebraicCurve:
    """Invariant algebraic curve mu w P_n + Q P_n' = 0 of the attached
    Lienard field, verified through its cofactor before it is returned."""
    mu = Scalar.coerce(mu)
    field = orth_lienard_field(row, n, mu)
    p_n = orth_polynomial(row, n)
    f = BivarPoly([row.q * p_n.derivative(), p_n.scale(mu)])
    return AlgebraicCurve.of(field, f)


# -- Lienard reduction to a Legendre equation ------------------------------

# Membership families for the integrability of the Legendre equation
# with parameters (mu, nu): each row constrains the residue classes of
# mu, nu and optionally mu + nu.  A nu entry may live on the lattice Z
# or (1/2)Z.  The first six rows are the hypergeometric table families
# whose three fractional classes are distinct; the remaining rows cover
# the families where both copies of mu land on the same fractional
# class.  The list is exhaustive: it reproduces the hypergeometric
# exponent-difference test on the triple (mu, mu, 2 nu + 1) for every
# rational pair, which the test suite checks on a full residue grid.
LIENARD_TABLE = (
    ("(a)", Fraction(1, 2), None, False, None),
    ("(b)", Fraction(1, 3), Fraction(1, 3), True, Fraction(1, 6)),
    ("(c)", Fraction(2, 5), Fraction(1, 5), True, Fraction(1, 10)),
    ("(d)", Fraction(1, 3), Fraction(2, 5), True, Fraction(1, 10)),
    ("(e)", Fraction(1, 5), Fraction(2, 5), True, Fraction(1, 10)),
    ("(f)", Fraction(2, 5), Fraction(1, 3), True, Fraction(1, 6)),
    ("(g)", Fraction(1, 4), Fraction(1, 6), False, None),
    ("(h)", Fraction(1, 3), Fraction(1, 4), False, None),
    ("(i)", Fraction(1, 3), Fraction(1, 10), False, None),
    ("(j)", Fraction(1, 3), Fraction(3, 10), False, None),
    ("(k)", Fraction(1, 3), Fraction(1, 6), False, Fraction(1, 2)),
    ("(l)", Fraction(1, 5), Fraction(1, 6), False, None),
    ("(m)", Fraction(1, 5), Fraction(1, 10), False, Fraction(3, 10)),
    ("(n)", Fraction(2, 5), Fraction(1, 6), False, None),
    ("(o)", Fraction(2, 5), Fraction(3, 10), False, Fraction(3, 10)),
)


def _in_z_offset(x: Fraction, f: Fraction) -> bool:
    """x in Z + f or Z - f."""
    return (x - f).denominator == 1 or (x + f).denominator == 1


def _in_half_z_offset(x: Fraction, f: Fraction) -> bool:
    """x in (1/2)Z + f or (1/2)Z - f."""
    return (2 * (x - f)).denominator == 1 or (2 * (x + f)).denominator == 1


def lienard_table_row(mu: Fraction, nu: Fraction):
    """Label of the first table row containing (mu, nu), or None."""
    for label, mu_off, nu_off, nu_half, sum_off in LIENARD_TABLE:
        if not _in_z_offset(mu, mu_off):
            continue
        if nu_off is not None:
            member = _in_half_z_offset if nu_half else _in_z_offset
            if not member(nu, nu_off):
                continue
        if sum_off is not None and not _in_z_offset(mu + nu, sum_off):
            continue
        return label
    return None


def lienard_integrability(mu, nu) -> CriterionVerdict:
    """Integrability of the Legendre equation with parameters (mu, nu):
    either mu + nu, mu - nu or nu is an integer, or (mu, nu) lies in
    one of the table families."""
    mu = Scalar.coerce(mu)
    nu = Scalar.coerce(nu)
    for value, name in (
        (mu + nu, "mu + nu"),
        (mu - nu, "mu - nu"),
        (nu, "nu"),
    ):
        if value.is_integer():
            return CriterionVerdict(
                CriterionVerdict.INTEGRABLE,
                "%s = %s is an integer" % (name, value),
                detail={"clause": 1, "condition": name},
            )
    if mu.is_rational() and nu.is_rational():
        label = lienard_table_row(mu.as_fraction(), nu.as_fraction())
    else:
        # row (a), mu in 1/2 + Z with nu free, is the one row an
        # irrational pair can fit
        label, mu_off = LIENARD_TABLE[0][:2]
        if not (mu.is_rational() and _in_z_offset(mu.as_fraction(), mu_off)):
            return CriterionVerdict(
                CriterionVerdict.NOT_INTEGRABLE,
                "no integer combination and no rational residue class",
            )
    if label is not None:
        return CriterionVerdict(
            CriterionVerdict.INTEGRABLE,
            "table row %s" % label,
            detail={"clause": 2, "row": label},
        )
    return CriterionVerdict(
        CriterionVerdict.NOT_INTEGRABLE,
        "no clause applies",
    )


class Lienard1Params:
    """y y' = (a(2m+k)x^(2k) + b(2m-k)x^(m-k-1)) y - (a^2 m x^(4k) +
    c x^(2k) + b^2 m) x^(2m-2k-1), with rational exponents m and k."""

    __slots__ = ("a", "b", "c", "m", "k")

    def __init__(self, a, b, c, m, k):
        self.a = Scalar.coerce(a)
        self.b = Scalar.coerce(b)
        self.c = Scalar.coerce(c)
        self.m = Fraction(m)
        self.k = Fraction(k)

    def __repr__(self):
        return "Lienard1Params(a=%s, b=%s, c=%s, m=%s, k=%s)" % (
            self.a,
            self.b,
            self.c,
            self.m,
            self.k,
        )


class Lienard1Reduction:
    """Legendre parameters of a Lienard equation: mu, the quadratic
    satisfied by nu (coefficients low to high), its roots, and the
    integrability verdict with the clause that fired."""

    __slots__ = ("mu", "nu_quadratic", "nu_roots", "verdict", "trace")

    def __init__(self, mu, nu_quadratic, nu_roots, verdict, trace):
        self.mu = mu
        self.nu_quadratic = nu_quadratic
        self.nu_roots = nu_roots
        self.verdict = verdict
        self.trace = trace

    def __repr__(self):
        return "Lienard1Reduction(mu=%s, nu=%s, %s)" % (
            self.mu,
            self.nu_roots,
            self.verdict.status,
        )


def lienard1_reduce(p: Lienard1Params) -> Lienard1Reduction:
    """Reduce the Lienard equation to a Legendre equation and decide
    its integrability.

    mu = -(m + k)/(2m) and nu satisfies nu^2 + nu + C = 0 with C =
    (m^2 - k^2)/(4 m^2) - a b k^2/(m c - 2 a b m^2).  The closed-form
    criterion is preferred over the differential solver because the
    reduction involves a change of the independent variable.
    """
    if p.m == 0:
        raise SingularParameterCombination("m = 0")
    denom = p.m * p.c - 2 * p.a * p.b * p.m * p.m
    if denom.is_zero():
        raise SingularParameterCombination("m c - 2 a b m^2 = 0")
    mu = Scalar.coerce(Fraction(-(p.m + p.k), 2 * p.m))
    const = (
        Scalar.coerce(Fraction(p.m * p.m - p.k * p.k, 4 * p.m * p.m))
        - p.a * p.b * p.k * p.k / denom
    )
    quadratic = (const, Scalar.coerce(1), Scalar.coerce(1))
    try:
        root = (1 - 4 * const).sqrt()
    except UnsupportedFieldError as exc:
        raise Unsupported("nu lies outside the scalar tower: %s" % exc)
    nu_roots = ((-1 + root) / 2, (-1 - root) / 2)
    verdict = lienard_integrability(mu, nu_roots[0])
    trace = [
        "mu = %s" % mu,
        "nu^2 + nu + (%s) = 0" % const,
        "nu in {%s, %s}" % nu_roots,
        "criterion: %s" % verdict.reason,
    ]
    return Lienard1Reduction(mu, quadratic, nu_roots, verdict, trace)


# -- Abel-type reduction to a biconfluent Heun equation --------------------


class AbelLienardParams:
    """dx/dw = (a + alpha w) + (b + beta w) x + (c + gamma w) x^2: the
    Riccati form of dx/dw = A(x) + B(x) w with quadratic A and B."""

    __slots__ = ("a", "b", "c", "alpha", "beta", "gamma")

    def __init__(self, a, b, c, alpha, beta, gamma):
        self.a = Scalar.coerce(a)
        self.b = Scalar.coerce(b)
        self.c = Scalar.coerce(c)
        self.alpha = Scalar.coerce(alpha)
        self.beta = Scalar.coerce(beta)
        self.gamma = Scalar.coerce(gamma)

    def __repr__(self):
        return "AbelLienardParams(a=%s, b=%s, c=%s, alpha=%s, beta=%s, gamma=%s)" % (
            self.a,
            self.b,
            self.c,
            self.alpha,
            self.beta,
            self.gamma,
        )


class AbelLienardReduction:
    """Outcome of the biconfluent reduction: the reduced potential in
    the original variable, the scaled potential, the extracted
    parameters (None on the degenerate branch) and the verdict."""

    __slots__ = ("rho", "phi", "params", "scale", "verdict", "trace")

    def __init__(self, rho, phi, params, scale, verdict, trace):
        self.rho = rho
        self.phi = phi
        self.params = params
        self.scale = scale
        self.verdict = verdict
        self.trace = trace

    def __repr__(self):
        return "AbelLienardReduction(params=%s, %s)" % (
            self.params,
            self.verdict.status,
        )


def abel_riccati(p: AbelLienardParams) -> RiccatiGeneral:
    """The Riccati equation with the independent variable renamed x."""
    return RiccatiGeneral(
        Poly([p.a, p.alpha]),
        Poly([p.b, p.beta]),
        Poly([p.c, p.gamma]),
    )


def abel_lienard_reduce(p: AbelLienardParams) -> AbelLienardReduction:
    """Reduce the Riccati equation to a biconfluent Heun equation and
    decide its integrability.

    The chain: normalize to xi'' = rho xi, substitute tau = gamma x + c
    (which divides the potential by gamma^2), then scale z = s tau with
    s^4 = (beta^2 - 4 alpha gamma)/(4 gamma^4) so the leading
    coefficient becomes 1.  The resulting potential has the biconfluent
    shape with delta0 = 2; the remaining deltas are read off exactly.
    """
    beta, gamma = p.beta, p.gamma
    if beta.is_zero() and gamma.is_zero():
        if p.c.is_zero():
            raise Unsupported("c = 0: the coefficient of x^2 vanishes")
        red, _ = transform_T(abel_riccati(p))
        rho = red.r
        deg = rho.num.degree() - rho.den.degree()
        if deg == 1:
            verdict = CriterionVerdict(
                CriterionVerdict.NOT_INTEGRABLE,
                "reduced potential is a degree-one polynomial",
            )
        else:
            verdict = CriterionVerdict(
                CriterionVerdict.INTEGRABLE,
                "reduced potential is constant",
            )
        trace = ["beta = gamma = 0 branch", "rho = %s" % rho]
        return AbelLienardReduction(rho, None, None, None, verdict, trace)
    if gamma.is_zero():
        raise Unsupported("gamma = 0 with beta != 0")
    disc = beta * beta - 4 * p.alpha * gamma
    if disc.is_zero():
        raise Unsupported("beta^2 - 4 alpha gamma = 0")
    red, _ = transform_T(abel_riccati(p))
    rho = red.r
    # tau = gamma x + c, so x = -c/gamma + tau/gamma; the change of the
    # independent variable contributes the factor gamma^2
    inner = Poly([-p.c / gamma, 1 / gamma])
    rho_tau = RatFunc(
        rho.num.compose(inner), rho.den.compose(inner)
    ) / (gamma * gamma)
    try:
        scale = (disc / (4 * gamma ** 4)).sqrt().sqrt()
    except UnsupportedFieldError as exc:
        raise Unsupported("scaling constant outside the tower: %s" % exc)
    stretch = Poly([Scalar.coerce(0), 1 / scale])
    phi = RatFunc(
        rho_tau.num.compose(stretch), rho_tau.den.compose(stretch)
    ) / (scale * scale)
    top = phi.polynomial_part()
    if top.degree() != 2 or top.coeffs[2] != Scalar.coerce(1):
        raise Unsupported("scaled potential is not monic of degree two")
    d1 = top.coeffs[1]
    d2 = d1 * d1 / 4 - top.coeffs[0]
    start, coeffs = phi.proper_part().laurent_at(0, 2)
    if start != -2 or coeffs[0] != Scalar.coerce(Fraction(3, 4)):
        raise Unsupported("scaled potential is not of biconfluent shape")
    d3 = 2 * coeffs[1]
    params = BiconfluentParams(2, d1, d2, d3)
    if phi != params.reduced_rho():
        raise Unsupported("scaled potential has extra singularities")
    verdict = biconfluent_heun_test(params)
    trace = [
        "rho = %s" % rho,
        "tau-substitution potential = %s" % rho_tau,
        "scale s with s^4 = %s" % (disc / (4 * gamma ** 4)),
        "phi = %s" % phi,
        "deltas = (2, %s, %s, %s)" % (d1, d2, d3),
        "criterion: %s" % verdict.reason,
    ]
    return AbelLienardReduction(rho, phi, params, scale, verdict, trace)


# -- worked equations ------------------------------------------------------


def hypergeometric_rho(lam, mu, nu) -> RatFunc:
    """Reduced potential of the hypergeometric equation with exponent
    differences (lam, mu, nu) at 0, 1 and infinity."""
    lam, mu, nu = (Scalar.coerce(t) for t in (lam, mu, nu))
    x = Poly.x()
    xm1 = Poly([-1, 1])
    return -(
        RatFunc(Poly([1 - lam * lam]), 4 * x ** 2)
        + RatFunc(Poly([1 - mu * mu]), 4 * xm1 ** 2)
        + RatFunc(
            Poly([lam * lam + mu * mu - nu * nu - 1]), 4 * x * xm1
        )
    )


def finite_galois_example(nu) -> SecondOrderODE:
    """y'' + ((7x-4)/(6x(x-1))) y' - ((36 nu^2 - 1)/(144 x(x-1))) y = 0,
    with finite Galois group for nu in {1/3, 1/4, 1/5}."""
    nu = Scalar.coerce(nu)
    x = Poly.x()
    xxm1 = x * Poly([-1, 1])
    return SecondOrderODE(
        RatFunc(Poly([-4, 7]), 6 * xxm1),
        RatFunc(Poly([-(36 * nu * nu - 1)]), 144 * xxm1),
    )


def triconfluent_rho(d0, d1, d2) -> RatFunc:
    """Reduced potential of the triconfluent Heun equation: (9/4)x^4 +
    (3/2) d2 x^2 - d1 x + d2^2/4 - d0."""
    d0, d1, d2 = (Scalar.coerce(t) for t in (d0, d1, d2))
    return RatFunc(
        Poly(
            [
                d2 * d2 / 4 - d0,
                -d1,
                3 * d2 / 2,
                Scalar.coerce(0),
                Scalar.coerce(Fraction(9, 4)),
            ]
        )
    )


class WorkedExample:
    __slots__ = ("name", "equation", "case", "first_integral")

    def __init__(self, name, equation, case, first_integral):
        self.name = name
        self.equation = equation
        self.case = case
        self.first_integral = first_integral

    def __repr__(self):
        return "WorkedExample(%s: case %d)" % (self.name, self.case)


def worked_examples():
    """Run the solver on the recorded equations and report the Kovacic
    case of each, with the first-integral label for the algebraic
    (case 3) successes."""
    half = Fraction(1, 2)
    items = [
        ("dihedral-2", ReducedODE(hypergeometric_rho(half, half, half))),
        (
            "dihedral-3",
            ReducedODE(hypergeometric_rho(half, half, Fraction(1, 3))),
        ),
        ("tetrahedral", finite_galois_example(Fraction(1, 3))),
        ("octahedral", finite_galois_example(Fraction(1, 4))),
        ("triconfluent-0", ReducedODE(triconfluent_rho(0, 0, 0))),
        ("triconfluent-1", ReducedODE(triconfluent_rho(1, 1, 1))),
    ]
    report = []
    for name, equation in items:
        if isinstance(equation, SecondOrderODE):
            reduced, _ = transform_S(equation)
        else:
            reduced = equation
        res = solve_rlde(reduced)
        label = None
        if res.case == 3:
            label = classify_first_integral(res).label
        report.append(WorkedExample(name, equation, res.case, label))
    return report
