"""Closed-form integrability criteria for classical families.

Covers the hypergeometric exponent-difference test (Kimura), the
Whittaker criterion (Martinet-Ramis), its Bessel corollary, the
biconfluent Heun criterion built on a banded determinant, and the Lame
taxonomy.  Every verdict is decidable by exact arithmetic; agreement
with the Kovacic solver on overlapping instances is part of the test
suite.
"""

from fractions import Fraction
from itertools import permutations, product

from .linalg import det, solve
from .odeforms import ReducedODE, SecondOrderODE, transform_S
from .poly import Poly
from .ratfunc import RatFunc
from .scalars import Scalar


class CriterionVerdict:
    INTEGRABLE = "integrable"
    NOT_INTEGRABLE = "not_integrable"

    __slots__ = ("status", "reason", "detail")

    def __init__(self, status, reason, detail=None):
        self.status = status
        self.reason = reason
        self.detail = detail

    @property
    def is_integrable(self):
        return self.status == self.INTEGRABLE

    def __repr__(self):
        return "CriterionVerdict(%s: %s)" % (self.status, self.reason)


class ExponentDiffs:
    """Differences of local exponents of the hypergeometric equation
    at 0, infinity and 1."""

    __slots__ = ("lam", "mu", "nu")

    def __init__(self, lam, mu, nu):
        self.lam = Scalar.coerce(lam)
        self.mu = Scalar.coerce(mu)
        self.nu = Scalar.coerce(nu)

    def triple(self):
        return (self.lam, self.mu, self.nu)

    def __repr__(self):
        return "ExponentDiffs(%s, %s, %s)" % self.triple()


class WhittakerParams:
    __slots__ = ("kappa", "mu")

    def __init__(self, kappa, mu):
        self.kappa = Scalar.coerce(kappa)
        self.mu = Scalar.coerce(mu)

    def reduced_rho(self) -> RatFunc:
        """1/4 - kappa/x + (4 mu^2 - 1)/(4 x^2)."""
        x = Poly.x()
        return (
            RatFunc.coerce(Fraction(1, 4))
            - RatFunc(Poly([self.kappa]), x)
            + RatFunc(Poly([4 * self.mu * self.mu - 1]), 4 * x**2)
        )

    def __repr__(self):
        return "WhittakerParams(kappa=%s, mu=%s)" % (self.kappa, self.mu)


class BiconfluentParams:
    __slots__ = ("delta0", "delta1", "delta2", "delta3")

    def __init__(self, delta0, delta1, delta2, delta3):
        self.delta0 = Scalar.coerce(delta0)
        self.delta1 = Scalar.coerce(delta1)
        self.delta2 = Scalar.coerce(delta2)
        self.delta3 = Scalar.coerce(delta3)

    def reduced_rho(self) -> RatFunc:
        """x^2 + d1 x + d1^2/4 - d2 + d3/(2x) + (d0^2 - 1)/(4x^2)."""
        x = Poly.x()
        d0, d1, d2, d3 = self.delta0, self.delta1, self.delta2, self.delta3
        rho = RatFunc(Poly([d1 * d1 / 4 - d2, d1, 1]))
        rho = rho + RatFunc(Poly([d3]), 2 * x)
        return rho + RatFunc(Poly([d0 * d0 - 1]), 4 * x**2)

    def __repr__(self):
        return "BiconfluentParams(%s, %s, %s, %s)" % (
            self.delta0,
            self.delta1,
            self.delta2,
            self.delta3,
        )


class LameParams:
    """n(n+1)x + B over f = 4x^3 - g2 x - g3, with square-free f."""

    __slots__ = ("n", "b", "g2", "g3")

    def __init__(self, n, b, g2, g3):
        self.n = Scalar.coerce(n)
        self.b = Scalar.coerce(b)
        self.g2 = Scalar.coerce(g2)
        self.g3 = Scalar.coerce(g3)
        disc = 27 * self.g3 * self.g3 - self.g2 * self.g2 * self.g2
        if disc.is_zero():
            raise ValueError("cubic has a multiple root (zero discriminant)")

    def cubic(self) -> Poly:
        return Poly([-self.g3, -self.g2, 0, 4])

    def __repr__(self):
        return "LameParams(n=%s, B=%s, g2=%s, g3=%s)" % (
            self.n,
            self.b,
            self.g2,
            self.g3,
        )


# the fifteen table rows: fractional parts for the three entries
# (None = arbitrary value) and whether l + m + q must be even
_TABLE = (
    (Fraction(1, 2), Fraction(1, 2), None, False),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3), False),
    (Fraction(2, 3), Fraction(1, 3), Fraction(1, 3), True),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), False),
    (Fraction(2, 3), Fraction(1, 4), Fraction(1, 4), True),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), False),
    (Fraction(2, 5), Fraction(1, 3), Fraction(1, 3), True),
    (Fraction(2, 3), Fraction(1, 5), Fraction(1, 5), True),
    (Fraction(1, 2), Fraction(2, 5), Fraction(1, 5), True),
    (Fraction(3, 5), Fraction(1, 3), Fraction(1, 5), True),
    (Fraction(2, 5), Fraction(2, 5), Fraction(2, 5), True),
    (Fraction(2, 3), Fraction(1, 3), Fraction(1, 5), True),
    (Fraction(4, 5), Fraction(1, 5), Fraction(1, 5), True),
    (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), True),
    (Fraction(3, 5), Fraction(2, 5), Fraction(1, 3), True),
)


def _row_match(values, row):
    """Integers (l, m, q) fitting a table row, or None.

    values are Fractions already fixed in sign and order.
    """
    head1, head2, head3, parity = row
    offsets = []
    for value, head in zip(values, (head1, head2, head3)):
        if head is None:
            offsets.append(0)
            continue
        diff = value - head
        if diff.denominator != 1:
            return None
        offsets.append(int(diff))
    if parity and sum(offsets) % 2 != 0:
        return None
    return tuple(offsets)


def kimura_test(e: ExponentDiffs) -> CriterionVerdict:
    """Integrability of the hypergeometric equation with exponent
    differences (lam, mu, nu): either one of the four signed sums is an
    odd integer, or some signed permutation of the triple fits one of
    the fifteen table families."""
    lam, mu, nu = e.triple()
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        total = signs[0] * lam + signs[1] * mu + signs[2] * nu
        if total.is_odd_integer():
            return CriterionVerdict(
                CriterionVerdict.INTEGRABLE,
                "signed sum %s is an odd integer" % total,
                detail={"condition": "odd-sum", "signs": signs},
            )
    if not all(v.is_rational() for v in e.triple()):
        return _family_one(e.triple())
    fracs = [v.as_fraction() for v in e.triple()]
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            values = tuple(signs[i] * fracs[perm[i]] for i in range(3))
            for idx, row in enumerate(_TABLE):
                hit = _row_match(values, row)
                if hit is not None:
                    return CriterionVerdict(
                        CriterionVerdict.INTEGRABLE,
                        "table family %d" % (idx + 1),
                        detail={
                            "condition": "table",
                            "family": idx + 1,
                            "offsets": hit,
                            "permutation": perm,
                            "signs": signs,
                        },
                    )
    return CriterionVerdict(
        CriterionVerdict.NOT_INTEGRABLE, "no signed sum or table family fits"
    )


def _family_one(triple) -> CriterionVerdict:
    """Table family 1, (1/2 + l, 1/2 + m, any value): the one family
    whose third entry is free, so the one that can fit a triple with an
    irrational entry; not integrable when it does not fit."""
    # -x lies in 1/2 + Z when x does, so the signs never matter
    signs = (1, 1, 1)
    for perm in permutations(range(3)):
        first, second = triple[perm[0]], triple[perm[1]]
        if not (first.is_rational() and second.is_rational()):
            continue
        values = (first.as_fraction(), second.as_fraction(), None)
        hit = _row_match(values, _TABLE[0])
        if hit is not None:
            return CriterionVerdict(
                CriterionVerdict.INTEGRABLE,
                "table family 1",
                detail={
                    "condition": "table",
                    "family": 1,
                    "offsets": hit,
                    "permutation": perm,
                    "signs": signs,
                },
            )
    # families 2-15 have rational entries only, and Kimura's theorem
    # holds for complex exponent differences: nothing else can fit
    return CriterionVerdict(
        CriterionVerdict.NOT_INTEGRABLE, "no signed sum or table family fits"
    )


def martinet_ramis_test(p: WhittakerParams):
    """Integrability of the Whittaker equation: some +-kappa +- mu lies
    in 1/2 + N."""
    # the natural numbers here include 0: the Kovacic cross-check pins
    # the inclusive reading
    for sk, sm in product((1, -1), repeat=2):
        value = sk * p.kappa + sm * p.mu - Scalar.coerce(Fraction(1, 2))
        if not value.is_nonneg_integer():
            continue
        return CriterionVerdict(
            CriterionVerdict.INTEGRABLE,
            "%skappa %s mu in 1/2 + N" % (
                "" if sk == 1 else "-",
                "+" if sm == 1 else "-",
            ),
            detail={"signs": (sk, sm)},
        )
    return CriterionVerdict(
        CriterionVerdict.NOT_INTEGRABLE,
        "no signed combination lies in 1/2 + N",
    )


def bessel_test(n) -> CriterionVerdict:
    """Integrability of the Bessel equation: n in 1/2 + Z."""
    n = Scalar.coerce(n)
    if (n - Scalar.coerce(Fraction(1, 2))).is_integer():
        return CriterionVerdict(
            CriterionVerdict.INTEGRABLE, "n is a half-odd integer"
        )
    return CriterionVerdict(
        CriterionVerdict.NOT_INTEGRABLE, "n is not a half-odd integer"
    )


# the printed source for the second row of the band matrix is ambiguous
# between the arithmetic pattern continued downward and a literal
# "d xi w + 1" entry; the pattern reading is the one that agrees with
# the Kovacic solver on the biconfluent family
def pi_matrix(d, a, b, u, v, xi, w):
    """The (d+1) x (d+1) band matrix underlying pi_determinant."""
    if d < 0:
        raise ValueError("d must be non-negative")
    a, b, u, v, xi, w = (Scalar.coerce(t) for t in (a, b, u, v, xi, w))
    zero = Scalar.coerce(0)
    m = [[zero for _ in range(d + 1)] for _ in range(d + 1)]
    m[0][0] = w
    if d >= 1:
        m[0][1] = u
    for k in range(1, d + 1):
        m[k][k - 1] = (d - k + 1) * xi
        m[k][k] = w + k * (v + (k - 1) * a)
        if k < d:
            m[k][k + 1] = (k + 1) * (u + k * b)
    return m


def pi_determinant(d, a, b, u, v, xi, w) -> Scalar:
    """Exact determinant of the banded matrix."""
    return det(pi_matrix(d, a, b, u, v, xi, w))


def _sign_of(s: Scalar) -> int:
    return 1 if s.as_fraction() > 0 else -1


def biconfluent_heun_test(p: BiconfluentParams):
    """Liouvillian solvability of the biconfluent equation.

    Three clauses, tried in order; the determinant conditions use the
    s x s matrix for a theorem subscript s, with the sign parameter
    negated relative to the printed statement -- both conventions fixed
    by requiring agreement with the Kovacic solver.
    """
    d0, d1, d2, d3 = p.delta0, p.delta1, p.delta2, p.delta3
    d0_unit = (d0 * d0 - 1).is_zero()
    if d0_unit and d3.is_zero() and d2.is_odd_integer():
        return CriterionVerdict(
            CriterionVerdict.INTEGRABLE,
            "delta0^2 = 1, delta3 = 0, delta2 odd",
            detail={"clause": 1},
        )
    if d0_unit and not d3.is_zero() and d2.is_odd_integer():
        k = int(abs(d2.as_fraction()))
        if k >= 3:
            eps = -_sign_of(d2)
            s = (k - 1) // 2
            value = pi_determinant(
                s - 1, 0, 1, 2, eps * d1, -2 * eps, eps * d1 - d3 / 2
            )
            if value.is_zero():
                return CriterionVerdict(
                    CriterionVerdict.INTEGRABLE,
                    "determinant condition with one regular solution",
                    detail={"clause": 2, "eps": eps, "size": s},
                )
    if not d0_unit and d0.is_rational() and d2.is_rational():
        for eps_inf, eps_0 in product((1, -1), repeat=2):
            twice = eps_inf * d2 - eps_0 * d0
            if not twice.is_integer():
                continue
            dstar = int(twice.as_fraction()) // 2
            if 2 * dstar != int(twice.as_fraction()) or dstar < 1:
                continue
            flip = -eps_inf
            u = 1 + eps_0 * d0
            value = pi_determinant(
                dstar - 1,
                0,
                1,
                u,
                flip * d1,
                -2 * flip,
                (flip * d1 * u - d3) / 2,
            )
            if value.is_zero():
                return CriterionVerdict(
                    CriterionVerdict.INTEGRABLE,
                    "determinant condition with both local exponents",
                    detail={
                        "clause": 3,
                        "eps_inf": eps_inf,
                        "eps_0": eps_0,
                        "dstar": dstar,
                    },
                )
    return CriterionVerdict(
        CriterionVerdict.NOT_INTEGRABLE, "no clause applies"
    )


def lame_reduced(p: LameParams) -> ReducedODE:
    """Reduced form of the Lame equation y'' + (f'/2f) y' - ((n(n+1)x
    + B)/f) y = 0."""
    f = RatFunc(p.cubic())
    b1 = f.derivative() / (2 * f)
    b0 = -RatFunc(Poly([p.b, p.n * (p.n + 1)])) / f
    red, _ = transform_S(SecondOrderODE(b1, b0))
    return red


def _lame_solution_shape(p: LameParams, res) -> bool:
    """Whether the recovered solution of the original equation has the
    form prod (x - e_i)^{k_i} P_m with k_i in {0, 1/2}: a proper
    logarithmic derivative with residues 1/2 at roots of the cubic and
    positive integers elsewhere."""
    f = RatFunc(p.cubic())
    p_rf = RatFunc.coerce(res.p)
    logd = res.omega + p_rf.derivative() / p_rf - f.derivative() / (4 * f)
    if not logd.polynomial_part().is_zero():
        return False
    cubic_roots = {c.key() for c, _ in RatFunc(Poly([1]), p.cubic()).poles()}
    for c, order in logd.poles():
        if order != 1:
            return False
        residue = logd.residue_at(c)
        if c.key() in cubic_roots:
            if residue != Scalar.coerce(Fraction(1, 2)):
                return False
        elif not residue.is_nonneg_integer() or residue.is_zero():
            return False
    return True


def lame_classify(p: LameParams):
    """Taxonomy label for the Lame equation.

    Returns (label, detail).  Labels: "(i.1)" polynomial-times-radical
    solution, "(i.2)" the remaining natural-n situation, "(ii)" and
    "(iii)" report arithmetic membership only, "generic" otherwise.
    """
    from .kovacic import solve_rlde

    half = Scalar.coerce(Fraction(1, 2))
    if p.n.is_nonneg_integer():
        res = solve_rlde(lame_reduced(p))
        if res.case == 1 and _lame_solution_shape(p, res):
            return "(i.1)", {"kovacic_case": res.case}
        return "(i.2)", {"kovacic_case": res.case}
    if (p.n + half).is_nonneg_integer():
        return "(ii)", {"note": "algebraic condition on B not evaluated"}
    shifted = p.n + half
    if shifted.is_rational():
        frac = shifted.as_fraction()
        if frac.denominator in (3, 4, 5):
            return "(iii)", {"note": "extra algebraic restrictions not evaluated"}
    return "generic", None


class OrthFamilyRow:
    """One row of the classical orthogonal-family table: Q, L and the
    eigenvalue as a function of the degree n."""

    __slots__ = ("family", "q", "l", "_eigen")

    def __init__(self, family, q, l, eigen):
        self.family = family
        self.q = Poly.coerce(q)
        self.l = Poly.coerce(l)
        self._eigen = eigen

    def eigenvalue(self, n: int) -> Scalar:
        return Scalar.coerce(self._eigen(n))

    def __repr__(self):
        return "OrthFamilyRow(%s)" % self.family


def orth_family(tag, m=0, nu=0) -> OrthFamilyRow:
    """Table row by family tag: H (Hermite), T/U (Chebyshev), P
    (Legendre), L (Laguerre), Lm (associated Laguerre), C (Gegenbauer),
    J (Jacobi), B (Bessel)."""
    x = Poly.x()
    m = Scalar.coerce(m)
    nu = Scalar.coerce(nu)
    one_minus_x2 = Poly([1, 0, -1])
    rows = {
        "H": (Poly([1]), -2 * x, lambda n: 2 * n),
        "T": (one_minus_x2, -x, lambda n: n * n),
        "U": (one_minus_x2, -3 * x, lambda n: n * (n + 2)),
        "P": (one_minus_x2, -2 * x, lambda n: n * (n + 1)),
        "L": (x, Poly([1, -1]), lambda n: Scalar.coerce(n)),
        "Lm": (x, Poly([m + 1, -1]), lambda n: Scalar.coerce(n)),
        "C": (one_minus_x2, Poly([0, -(2 * m + 1)]), lambda n: n * (n + 2 * m)),
        "J": (
            one_minus_x2,
            Poly([nu - m, -(m + nu + 2)]),
            lambda n: n * (n + 1 + m + nu),
        ),
        "B": (x**2, Poly([2, 2]), lambda n: -n * (n + 1)),
    }
    if tag not in rows:
        raise ValueError("unknown family tag %r" % tag)
    q, l, eigen = rows[tag]
    return OrthFamilyRow(tag, q, l, eigen)


class GenerationFailed(Exception):
    pass


def orth_polynomial(row: OrthFamilyRow, n: int) -> Poly:
    """Monic degree-n solution of Q P'' + L P' + eigenvalue(n) P = 0,
    found by an exact linear solve on the coefficients."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    lam = row.eigenvalue(n)

    def operator(poly):
        return (
            row.q * poly.derivative().derivative()
            + row.l * poly.derivative()
            + Poly([lam]) * poly
        )

    images = [operator(Poly.monomial(1, j)) for j in range(n + 1)]
    width = max(img.degree() for img in images) + 1 if images else 1
    width = max(width, 1)
    rows_ = []
    rhs = []
    top = images[n]
    for i in range(width):
        rows_.append(
            [
                images[j].coeffs[i] if i <= images[j].degree() else Scalar.coerce(0)
                for j in range(n)
            ]
        )
        rhs.append(-(top.coeffs[i] if i <= top.degree() else Scalar.coerce(0)))
    sol = solve(rows_, rhs)
    if sol is None:
        raise GenerationFailed(
            "no monic degree-%d polynomial solves the equation" % n
        )
    candidate = Poly(list(sol) + [Scalar.coerce(1)])
    if not operator(candidate).is_zero():
        raise GenerationFailed("linear solve produced a non-solution")
    return candidate


def orth_reduced_rho(row: OrthFamilyRow, n: int) -> ReducedODE:
    """rho = (1/2)(L/Q)' - eigenvalue/Q + (L/2Q)^2; the corresponding
    reduced equation has the solution P_n exp(int L/(2Q))."""
    lq = RatFunc(row.l, row.q)
    lam = RatFunc(Poly([row.eigenvalue(n)]), row.q)
    half_lq = lq / 2
    return ReducedODE(half_lq.derivative() - lam + half_lq * half_lq)


def orth_solution(row: OrthFamilyRow, n: int):
    """The recorded solution P_n exp(int L/(2Q)) as a formal product."""
    from .formal import FormalProduct

    p_n = orth_polynomial(row, n)
    integrand = RatFunc(row.l, 2 * row.q)
    return FormalProduct(1, ((RatFunc(p_n), 1),), integrand)
