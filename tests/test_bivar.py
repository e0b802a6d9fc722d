from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from riccati_galois.bivar import BivarPoly, BivarRatFunc, PlanarVectorField
from riccati_galois.odeforms import _transpose
from riccati_galois.poly import Poly
from riccati_galois.ratfunc import RatFunc
from riccati_galois.scalars import scalar_sqrt


XV = BivarPoly.var_x()
WV = BivarPoly.var_w()


class TestBivarPoly:
    def test_ring_ops(self):
        f = XV * WV + 1
        g = XV - WV
        assert f + g == BivarPoly([Poly([1, 1]), Poly([-1, 1])])
        assert f * g == XV**2 * WV - XV * WV**2 + XV - WV
        assert (f - f).is_zero()

    def test_degrees(self):
        f = XV**3 * WV + WV**2
        assert f.degree_x() == 3
        assert f.degree_w() == 2
        assert f.total_degree() == 4

    def test_partials(self):
        f = XV**2 * WV**3
        assert f.d_dx() == 2 * XV * WV**3
        assert f.d_dw() == 3 * XV**2 * WV**2

    def test_w_coeffs_roundtrip(self):
        p0 = Poly([1, 2])
        p1 = Poly([0, 0, 3])
        f = BivarPoly([p0, p1])
        back = f.w_coeffs()
        assert back[0] == p0 and back[1] == p1
        assert BivarPoly(back) == f

    def test_substitute_w(self):
        f = WV**2 - XV
        val = f.substitute_w(RatFunc(1, Poly.x()))
        assert val == RatFunc(Poly([1, 0, 0, -1]), Poly([0, 0, 1]))

    def test_exact_div(self):
        f = (XV + WV) * (XV * WV - 2)
        assert f.exact_div(XV + WV) == XV * WV - 2
        assert f.exact_div(XV * WV - 2) == XV + WV
        assert f.exact_div(XV - WV) is None

    def test_str(self):
        assert str(XV * WV - 1) == "x*w - 1"
        assert str(BivarPoly.coerce(0)) == "0"


# degree <= 3 in each variable, small rational coefficients
rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
bivars = st.lists(
    st.lists(rationals, max_size=4).map(Poly), max_size=4
).map(BivarPoly)
V = RatFunc(Poly([1, 0, 1]), Poly([-1, 2]))


def check_ring_laws(f, g):
    # substitute_w is a ring map to Q(x), whose arithmetic is RatFunc's
    fv, gv = f.substitute_w(V), g.substitute_w(V)
    assert (f + g).substitute_w(V) == fv + gv
    assert (f * g).substitute_w(V) == fv * gv
    assert f * g == g * f and hash(f * g) == hash(g * f)
    if not g.is_zero():
        assert (f * g).exact_div(g) == f
    if g.degree_w() > 0:
        assert (f * g + 1).exact_div(g) is None
    assert (f * g).d_dx() == f.d_dx() * g + f * g.d_dx()
    assert (f * g).d_dw() == f.d_dw() * g + f * g.d_dw()
    assert _transpose(_transpose(f)) == f


class TestBivarProperties:
    @settings(max_examples=100, deadline=None)
    @given(bivars, bivars)
    def test_ring_laws(self, f, g):
        check_ring_laws(f, g)

    def test_ring_laws_over_sqrt2(self):
        r2 = scalar_sqrt(2)
        f = BivarPoly([Poly([1, r2]), Poly([r2]), Poly([F(1, 2)])])
        g = BivarPoly([Poly([-r2, 0, 1]), Poly([1, 1 + r2])])
        check_ring_laws(f, g)
        check_ring_laws(g, f)


class TestBivarRatFunc:
    def test_cross_multiplied_equality(self):
        a = BivarRatFunc(XV**2 - WV**2, XV - WV)
        b = BivarRatFunc(XV + WV)
        assert a == b
        assert a - b == 0

    def test_arithmetic(self):
        a = BivarRatFunc(1, XV)
        b = BivarRatFunc(1, WV)
        assert a + b == BivarRatFunc(XV + WV, XV * WV)
        assert a * b == BivarRatFunc(1, XV * WV)
        assert a / b == BivarRatFunc(WV, XV)

    def test_partials(self):
        r = BivarRatFunc(WV, XV)
        assert r.d_dx() == BivarRatFunc(-WV, XV**2)
        assert r.d_dw() == BivarRatFunc(1, XV)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            BivarRatFunc(1, BivarPoly.coerce(0))


class TestPlanarVectorField:
    def test_apply_and_divergence(self):
        # X = d/dx + (w^2) d/dw
        field = PlanarVectorField(BivarPoly.coerce(1), WV**2)
        f = XV * WV
        assert field.apply(f) == WV + XV * WV**2
        assert field.divergence() == 2 * WV

    def test_cofactor_of_invariant_curve(self):
        # w' = w^2 has invariant curve w = 0 with cofactor w
        field = PlanarVectorField(BivarPoly.coerce(1), WV**2)
        assert field.cofactor_of(WV) == WV
        assert field.cofactor_of(XV * WV) is None

    def test_cofactor_rejects_non_invariant(self):
        field = PlanarVectorField(BivarPoly.coerce(1), WV**2)
        assert field.cofactor_of(XV + WV) is None

    def test_apply_ratfunc_quotient_rule(self):
        field = PlanarVectorField(BivarPoly.coerce(1), WV**2)
        r = BivarRatFunc(1, WV)
        assert field.apply(r) == BivarRatFunc(-WV**2, WV**2)

    def test_scaled_coefficients(self):
        field = PlanarVectorField(BivarPoly.coerce(F(1, 2)), WV)
        assert field.divergence() == 1
