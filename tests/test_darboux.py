import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from riccati_galois import cli
from riccati_galois.bivar import BivarPoly, BivarRatFunc, PlanarVectorField
from riccati_galois.darboux import (
    AlgebraicCurve,
    DarbouxObject,
    DegenerateError,
    ExponentialFactor,
    FormalExpFactor,
    NotASolutionError,
    classify_first_integral,
    cofactor_of,
    darboux_combination,
    exp_integral_as_rational,
    first_integral_two_solutions,
    integrating_factor_from_solution,
    rational_first_integral_cyclic,
    rational_first_integral_power,
    riccati_field,
)
from riccati_galois.kovacic import solve_rlde
from riccati_galois.poly import Poly
from riccati_galois.ratfunc import RatFunc


X = Poly.x()
XV = BivarPoly.var_x()
WV = BivarPoly.var_w()


def rf(num, den=1):
    return RatFunc(num, den)


def euler_rho(a):
    # xi = x^a solves xi'' = rho xi with rho = a(a-1)/x^2; the two
    # Riccati solutions are a/x and (1-a)/x
    return rf(Poly([F(a) * (F(a) - 1)]), X**2)


class TestCofactor:
    def test_riccati_solution_curve(self):
        # f = -w + w1 has cofactor -q (w + w1) for the Riccati field
        fld = riccati_field(rf(X**2 - 1))
        k = cofactor_of(fld, -WV - XV)
        assert k == XV - WV

    def test_constant_curve(self):
        fld = PlanarVectorField(XV * WV, XV**3 + WV)
        assert cofactor_of(fld, 1) == BivarPoly.coerce(0)

    def test_linear_field(self):
        fld = PlanarVectorField(XV, WV)
        assert cofactor_of(fld, WV - XV) == BivarPoly.coerce(1)

    def test_non_invariant(self):
        fld = riccati_field(rf(X**2 - 1))
        assert cofactor_of(fld, WV - XV**3) is None

    def test_zero_curve_rejected(self):
        fld = PlanarVectorField(XV, WV)
        with pytest.raises(ValueError):
            cofactor_of(fld, 0)

    @pytest.mark.parametrize(
        "f,g",
        [
            (-WV - XV, -WV - XV),
            (XV, WV),
            (WV - XV, WV),
        ],
    )
    def test_multiplicative(self, f, g):
        fld = PlanarVectorField(XV, WV)
        f = BivarPoly.coerce(f)
        g = BivarPoly.coerce(g)
        kf = cofactor_of(fld, f)
        kg = cofactor_of(fld, g)
        if kf is None or kg is None:
            pytest.skip("needs two invariant curves")
        assert cofactor_of(fld, f * g) == kf + kg

    def test_degree_bound(self):
        # deg K <= d - 1 with d the field degree
        fld = riccati_field(rf(X**2 - 1))
        d = max(fld.p.total_degree(), fld.q.total_degree())
        k = cofactor_of(fld, -WV - XV)
        assert k.total_degree() <= d - 1


class TestCurveTypes:
    def test_curve_constructor_checks(self):
        fld = riccati_field(rf(1))
        c = AlgebraicCurve.of(fld, -WV + 1)
        assert c.cofactor == BivarRatFunc.coerce(-WV - 1)
        with pytest.raises(ValueError):
            AlgebraicCurve.of(fld, WV - XV)

    def test_exponential_factor(self):
        # X = x d/dx + w d/dw leaves w/x invariant: cofactor 0
        fld = PlanarVectorField(XV, WV)
        e = ExponentialFactor.of(fld, WV, XV)
        assert e.cofactor == BivarRatFunc.coerce(0)

    def test_exponential_factor_polynomial_h(self):
        # exp(x) along d/dx: cofactor 1
        fld = PlanarVectorField(BivarPoly.coerce(1), BivarPoly.coerce(0))
        e = ExponentialFactor.of(fld, XV, 1)
        assert e.cofactor == BivarRatFunc.coerce(1)

    def test_exponential_factor_rejects(self):
        fld = PlanarVectorField(BivarPoly.coerce(1), BivarPoly.coerce(0))
        with pytest.raises(ValueError):
            ExponentialFactor.of(fld, WV, XV)


class TestCombination:
    def test_integrating_factor_relation(self):
        # -2 K1 + 2 L1 + div X = 0 for one curve and one exponential
        # factor attached to a rational Riccati solution
        r = rf(X**2 - 1)
        fld = riccati_field(r)
        w1 = rf(-X)
        curve = AlgebraicCurve.of(fld, -WV - XV)
        q = rf(r.den)
        expf = FormalExpFactor("exp(-int w1 dx)", -q * w1)
        combo = darboux_combination(
            [curve], [expf], fld, DarbouxObject.INTEGRATING_FACTOR
        )
        assert combo is not None
        assert combo.exponents == [-2, 2]
        assert combo.verify(fld)

    def test_trivial_first_integral(self):
        fld = PlanarVectorField(XV, WV)
        curve = AlgebraicCurve.of(fld, 1)
        combo = darboux_combination([curve], [], fld, DarbouxObject.FIRST_INTEGRAL)
        assert combo is not None
        assert combo.exponents == [1]
        assert combo.verify(fld)

    def test_opposite_cofactors(self):
        # x and w for x d/dx - w d/dw: K1 = 1, K2 = -1, product invariant
        fld = PlanarVectorField(XV, -WV)
        c1 = AlgebraicCurve.of(fld, XV)
        c2 = AlgebraicCurve.of(fld, WV)
        combo = darboux_combination([c1, c2], [], fld, DarbouxObject.FIRST_INTEGRAL)
        assert combo is not None
        assert combo.verify(fld)
        lam1, lam2 = combo.exponents
        assert lam1 == lam2 and not lam1.is_zero()

    def test_no_relation(self):
        fld = PlanarVectorField(XV, -WV)
        c1 = AlgebraicCurve.of(fld, XV)
        assert (
            darboux_combination([c1], [], fld, DarbouxObject.FIRST_INTEGRAL) is None
        )

    def test_inconsistent_integrating_factor(self):
        # div = -2w cannot be matched by a single w-independent relation
        fld = riccati_field(rf(1))
        c1 = AlgebraicCurve.of(fld, -WV + 1)
        assert (
            darboux_combination([c1], [], fld, DarbouxObject.INTEGRATING_FACTOR)
            is None
        )

    def test_empty_input(self):
        fld = PlanarVectorField(XV, -WV)
        assert darboux_combination([], [], fld, DarbouxObject.FIRST_INTEGRAL) is None


class TestIntegratingFactor:
    @pytest.mark.parametrize(
        "r,w1",
        [
            (rf(X**2 - 1), rf(-X)),
            (rf(1), rf(1)),
            (euler_rho(F(3, 2)), rf(Poly([F(3, 2)]), X)),
        ],
    )
    def test_log_derivative_identity(self, r, w1):
        fld = riccati_field(r)
        mu = integrating_factor_from_solution(w1, fld)
        assert mu.verify(fld)

    def test_not_a_solution(self):
        fld = riccati_field(rf(1))
        with pytest.raises(NotASolutionError):
            integrating_factor_from_solution(rf(0), fld)

    def test_requires_riccati_shape(self):
        with pytest.raises(ValueError):
            integrating_factor_from_solution(rf(1), PlanarVectorField(XV, WV))

    def test_plain_text(self):
        fld = riccati_field(rf(1))
        mu = integrating_factor_from_solution(rf(1), fld)
        assert "exp" in str(mu) and "int" in str(mu)


class TestFirstIntegralTwoSolutions:
    def test_constant_pair(self):
        fld = riccati_field(rf(1))
        h = first_integral_two_solutions(rf(1), rf(-1), fld)
        assert h.verify(fld)

    def test_euler_pair(self):
        a = F(3, 2)
        fld = riccati_field(euler_rho(a))
        h = first_integral_two_solutions(
            rf(Poly([a]), X), rf(Poly([1 - a]), X), fld
        )
        assert h.verify(fld)

    def test_degenerate(self):
        fld = riccati_field(rf(1))
        with pytest.raises(DegenerateError):
            first_integral_two_solutions(rf(1), rf(1), fld)

    def test_not_a_solution(self):
        fld = riccati_field(rf(1))
        with pytest.raises(NotASolutionError):
            first_integral_two_solutions(rf(1), rf(X), fld)


class TestCyclicFormula:
    def test_degree_one(self):
        h = rational_first_integral_cyclic(rf(X), 1)
        expect = BivarRatFunc(-XV * WV - 1, XV * XV * (-XV * WV + 1))
        assert h == expect

    def test_degree_two(self):
        h = rational_first_integral_cyclic(rf(X), 2)
        a = -2 * XV * WV - 1
        b = -2 * XV * WV + 1
        assert h == BivarRatFunc(a * a, XV * XV * b * b)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rational_first_integral_cyclic(rf(0), 2)
        with pytest.raises(ValueError):
            rational_first_integral_cyclic(rf(X), 0)


class TestRationalFirstIntegralPower:
    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_euler_family_invariance(self, num, n):
        # a = num/n gives solutions a/x and (1-a)/x whose difference
        # integrates to ((1-2a)/n) log x^n
        a = F(num, n)
        if a == F(1, 2):
            a += F(1, n * 2)
        fld = riccati_field(euler_rho(a))
        w1 = rf(Poly([a]), X)
        w2 = rf(Poly([1 - a]), X)
        h = rational_first_integral_power(w1, w2, n, fld)
        assert fld.apply(h).is_zero()

    def test_nonrational_exponential_rejected(self):
        fld = riccati_field(rf(1))
        with pytest.raises(ValueError):
            rational_first_integral_power(rf(1), rf(-1), 1, fld)

    def test_not_a_solution(self):
        fld = riccati_field(rf(1))
        with pytest.raises(NotASolutionError):
            rational_first_integral_power(rf(X), rf(-1), 1, fld)


class TestExpIntegralAsRational:
    def test_positive_residues(self):
        assert exp_integral_as_rational(rf(2, X)) == rf(X**2)

    def test_mixed_residues(self):
        f = rf(1, X) - rf(3, X - 1)
        assert exp_integral_as_rational(f) == rf(X, (X - 1) ** 3)

    def test_fractional_residue(self):
        assert exp_integral_as_rational(rf(1, 2 * X)) is None

    def test_double_pole(self):
        assert exp_integral_as_rational(rf(1, X**2)) is None

    def test_polynomial_part(self):
        assert exp_integral_as_rational(rf(X)) is None

    def test_no_poles(self):
        assert exp_integral_as_rational(rf(0)) == rf(1)


class TestClassification:
    def test_case4_none(self):
        assert classify_first_integral(solve_rlde(rf(X))).label == "none"

    def test_case2_hyperelliptic(self):
        r = rf(1, X) - rf(Poly([F(3, 16)]), X**2)
        assert classify_first_integral(solve_rlde(r)).label == "hyperelliptic"

    def test_case3_rational(self):
        # reduced hypergeometric with exponent differences (1/2, 1/3, 1/3)
        r = (
            rf(Poly([F(-3, 16)]), X**2)
            + rf(Poly([F(-2, 9)]), (X - 1) ** 2)
            + rf(Poly([F(3, 16)]), X * (X - 1))
        )
        assert classify_first_integral(solve_rlde(r)).label == "rational"

    def test_one_rational_solution(self):
        res = solve_rlde(rf(X**2 - 1))
        c = classify_first_integral(res)
        assert c.label == "darboux-schwarz-christoffel"
        assert c.w1 == rf(-X)
        assert c.w2 is None

    def test_two_rational_solutions(self):
        res = solve_rlde(rf(0))
        c = classify_first_integral(res)
        assert c.label == "darboux"
        assert c.w1 == rf(0) and c.w2 == rf(1, X)

    def test_euler_two_solutions(self):
        r = euler_rho(F(3, 2))
        c = classify_first_integral(solve_rlde(r))
        assert c.label == "darboux"
        for w in (c.w1, c.w2):
            assert (w.derivative() + w * w - r).is_zero()
        assert c.w1 != c.w2


# Full `--json --no-timing` stdout of darboux and apply runs, pinned so
# that a change to the bivariate arithmetic shows as a changed string:
# every verdict, a non-invariant curve, sqrt(2) coefficients and a
# rational --param.
PINNED = json.loads(
    (Path(__file__).parent / "data" / "darboux_pinned.json").read_text()
)


@pytest.mark.parametrize(
    "row", PINNED, ids=[" ".join(r["argv"]) for r in PINNED]
)
def test_pinned_output(row):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(row["argv"] + ["--json", "--no-timing"])
    assert code == 0
    assert out.getvalue() == row["stdout"]
