from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from riccati_galois.linalg import det, nullspace, rank, solve
from riccati_galois.poly import (
    Poly,
    _euclid_gcd,
    extended_gcd,
    gcd,
    rational_roots,
    roots_with_multiplicity,
    squarefree_decomposition,
    squarefree_part,
)
from riccati_galois.ratfunc import (
    RatFunc,
    hermite_reduce,
    log_residues,
    rational_antiderivative,
)
from riccati_galois.scalars import Scalar, UnsupportedFieldError, scalar_sqrt


X = Poly.x()

small_polys = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=0, max_size=5
).map(Poly)

# rationals with negative values and non-integer denominators
small_fractions = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=5)
)
fraction_polys = st.lists(small_fractions, min_size=0, max_size=5).map(Poly)

SQRT2 = scalar_sqrt(2)
surd_polys = st.lists(
    st.builds(lambda a, b: a + b * SQRT2, small_fractions, small_fractions),
    min_size=0,
    max_size=5,
).map(Poly)


class TestPolyArithmetic:
    def test_construction_strips_zeros(self):
        assert Poly([1, 2, 0, 0]).degree() == 1
        assert Poly([0, 0]).is_zero()
        assert Poly([]).degree() == -1

    def test_ring_ops(self):
        p = X**2 - 1
        q = X + 1
        assert p + q == X**2 + X
        assert p - q == X**2 - X - 2
        assert p * q == X**3 + X**2 - X - 1
        assert (X - 1) * (X + 1) == p

    def test_divmod(self):
        p = X**3 + 2 * X - 5
        d = X**2 + 1
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.degree() < d.degree()
        assert q == X
        assert r == X - 5

    @settings(max_examples=100, deadline=None)
    @given(surd_polys, surd_polys)
    def test_divmod_identity_over_sqrt2(self, a, b):
        assume(not b.is_zero())
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    def test_divmod_tower_example(self):
        q, r = (X**2 - 2).divmod(X - SQRT2)
        assert q == X + SQRT2
        assert r.is_zero()

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ValueError):
            (X**2 + 1).exact_div(X - 1)

    def test_eval_and_compose(self):
        p = 2 * X**2 - 3 * X + 1
        assert p(2) == 3
        assert p(F(1, 2)) == 0
        assert p.compose(X + 1) == 2 * X**2 + X
        assert p.shift(1)(0) == p(1)

    def test_derivative(self):
        p = X**4 - 3 * X**2 + 7
        assert p.derivative() == 4 * X**3 - 6 * X

    @given(small_polys, small_polys)
    def test_derivative_leibniz(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs

    def test_pow(self):
        assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
        assert (X + 1) ** 0 == 1

    def test_str(self):
        assert str(X**2 - X - 2) == "x^2 - x - 2"
        assert str(Poly([])) == "0"
        assert str(Poly([F(1, 2)])) == "1/2"


class TestPolyGcd:
    def test_gcd_basic(self):
        a = (X - 1) * (X + 2) ** 2
        b = (X + 2) * (X - 3)
        assert gcd(a, b) == X + 2

    def test_gcd_monic(self):
        a = 4 * (X - 1)
        b = 6 * (X - 1)
        assert gcd(a, b) == X - 1

    @settings(max_examples=150, deadline=None)
    @given(fraction_polys, fraction_polys, fraction_polys)
    def test_rational_gcd_matches_euclid(self, common, p, q):
        # the planted factor may be zero or constant, and p, q may be zero
        a, b = common * p, common * q
        g = gcd(a, b)
        assert g == _euclid_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            return
        assert g.leading() == 1
        assert (a % g).is_zero() and (b % g).is_zero()
        if not common.is_zero():
            assert (g % common).is_zero()

    def test_rational_gcd_edge_cases(self):
        assert gcd(Poly([]), Poly([])).is_zero()
        assert gcd(Poly([]), -3 * X + 6) == X - 2
        assert gcd(F(2, 3) * X**2, Poly([])) == X**2
        assert gcd(Poly([F(-5, 2)]), X**2 + 1) == 1
        assert gcd(Poly([7]), Poly([F(1, 3)])) == 1
        a = F(-3, 4) * (X - F(1, 2)) * (X**2 + 3)
        b = F(5, 7) * (X - F(1, 2)) * (X + 9)
        assert gcd(a, b) == X - F(1, 2)

    def test_tower_gcd(self):
        a = (X - SQRT2) * (X + 1) * 3
        b = (X - SQRT2) * (X - SQRT2 * 3) * SQRT2
        assert gcd(a, b) == X - SQRT2
        assert gcd(a, X + SQRT2) == 1

    def test_extended_gcd_bezout(self):
        a = (X - 1) * (X + 2)
        b = (X - 1) * (X - 5)
        g, s, t = extended_gcd(a, b)
        assert g == X - 1
        assert s * a + t * b == g

    def test_squarefree(self):
        p = (X - 1) ** 3 * (X + 2) ** 2 * (X - 5)
        assert squarefree_part(p) == (X - 1) * (X + 2) * (X - 5)
        decomp = dict(
            (m, f) for f, m in squarefree_decomposition(p)
        )
        assert decomp[1] == X - 5
        assert decomp[2] == X + 2
        assert decomp[3] == X - 1


class TestRoots:
    def test_rational_roots(self):
        p = (2 * X - 1) * (X + 3) * (3 * X + 2)
        assert rational_roots(p) == [F(-3), F(-2, 3), F(1, 2)]

    def test_rational_roots_with_zero(self):
        p = X**2 * (X - 4)
        assert rational_roots(p) == [F(0), F(4)]

    def test_quadratic_surd_roots(self):
        roots, lead = roots_with_multiplicity(X**2 - 2)
        assert lead == 1
        vals = [r for r, m in roots]
        assert scalar_sqrt(2) in vals and -scalar_sqrt(2) in vals

    def test_complex_roots(self):
        roots, _ = roots_with_multiplicity(X**2 + 1)
        i = scalar_sqrt(-1)
        vals = [r for r, m in roots]
        assert i in vals and -i in vals

    def test_multiplicity(self):
        p = (X - 2) ** 3 * (X**2 - 3)
        roots, _ = roots_with_multiplicity(p)
        table = {r.key(): m for r, m in roots}
        assert table[Scalar.coerce(2).key()] == 3
        assert table[scalar_sqrt(3).key()] == 1

    def test_unsplittable_cubic(self):
        with pytest.raises(UnsupportedFieldError):
            roots_with_multiplicity(X**3 - 2)


class TestLinalg:
    def test_solve_unique(self):
        m = [[1, 2], [3, 4]]
        sol = solve(m, [5, 6])
        assert sol == [Scalar.coerce(-4), Scalar.coerce(F(9, 2))]

    def test_solve_inconsistent(self):
        assert solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_solve_underdetermined_deterministic(self):
        sol = solve([[1, 1, 1]], [3])
        # free variables pinned to zero
        assert sol == [Scalar.coerce(3), Scalar.coerce(0), Scalar.coerce(0)]

    def test_nullspace(self):
        basis = nullspace([[1, 2, 3], [2, 4, 6]])
        assert len(basis) == 2
        for vec in basis:
            assert (vec[0] + 2 * vec[1] + 3 * vec[2]).is_zero()

    def test_rank_det(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[2, 0], [0, F(1, 2)]]) == 1

    def test_surd_entries(self):
        r2 = scalar_sqrt(2)
        sol = solve([[r2, 0], [0, 1]], [2, r2])
        assert sol == [r2, r2]


class TestRatFunc:
    def test_canonical_form(self):
        r = RatFunc((X**2 - 1) * 3, (X - 1) * 6)
        assert r.num == Poly([F(1, 2), F(1, 2)])
        assert r.den == 1

    def test_arithmetic(self):
        one_over = RatFunc(1, X)
        assert one_over + one_over == RatFunc(2, X)
        assert one_over * X == 1
        assert (one_over - one_over).is_zero()
        assert 1 / one_over == RatFunc(X)

    @settings(max_examples=100, deadline=None)
    @given(
        fraction_polys, fraction_polys, fraction_polys, fraction_polys, fraction_polys
    )
    def test_sum_is_canonical(self, common, n1, d1, n2, d2):
        # shared denominator factors exercise the Henrici cancellation
        assume(not d1.is_zero() and not d2.is_zero() and not common.is_zero())
        r1, r2 = RatFunc(n1, common * d1), RatFunc(n2, common * d2)
        s = r1 + r2
        ref = RatFunc(n1 * d2 + n2 * d1, common * d1 * d2)
        assert s.num.coeffs == ref.num.coeffs
        assert s.den.coeffs == ref.den.coeffs

    def test_sum_cancels_against_shared_factor(self):
        # 1/(x(x-1)) + 1/(x(x+1)) = 2x/(x(x^2-1)): the sum's numerator
        # shares x with gcd of the denominators
        s = RatFunc(1, X * (X - 1)) + RatFunc(1, X * (X + 1))
        assert s.num.coeffs == Poly([2]).coeffs
        assert s.den.coeffs == (X**2 - 1).coeffs
        r = RatFunc(X + 3, (X - 1) ** 2 * (X + 2))
        z = r + (-r)
        assert z.is_zero() and z.den.coeffs == Poly([1]).coeffs

    def test_derivative(self):
        r = RatFunc(1, X)
        assert r.derivative() == RatFunc(-1, X**2)
        q = RatFunc(X**2 + 1, X - 1)
        num = q.derivative()
        assert num == RatFunc(X**2 - 2 * X - 1, (X - 1) ** 2)

    def test_order_at_infinity(self):
        assert RatFunc(1, X**2).order_at_infinity() == 2
        assert RatFunc(X**3 + 1, X).order_at_infinity() == -2
        assert RatFunc.coerce(5).order_at_infinity() == 0
        assert RatFunc.coerce(0).order_at_infinity() is None

    def test_poles(self):
        r = RatFunc(1, X**2 * (X - 1))
        got = {c.key(): m for c, m in r.poles()}
        assert got == {Scalar.coerce(0).key(): 2, Scalar.coerce(1).key(): 1}

    def test_laurent_at_pole(self):
        # 1/(x(x-1)) = -1/x - 1 - x - ... at 0
        r = RatFunc(1, X * (X - 1))
        start, coeffs = r.laurent_at(0, 3)
        assert start == -1
        assert coeffs == [Scalar.coerce(-1)] * 3

    def test_laurent_at_regular_point(self):
        r = RatFunc(1, 1 - X)
        start, coeffs = r.laurent_at(0, 4)
        assert start == 0
        assert coeffs == [Scalar.coerce(1)] * 4

    def test_laurent_at_infinity(self):
        # x^2/(x-1) = x + 1 + 1/x + 1/x^2 + ...
        r = RatFunc(X**2, X - 1)
        top, coeffs = r.laurent_at_infinity(4)
        assert top == 1
        assert coeffs == [Scalar.coerce(1)] * 4

    def test_residues(self):
        r = RatFunc(2 * X + 3, X * (X - 1))
        assert r.residue_at(0) == -3
        assert r.residue_at(1) == 5
        assert r.residue_at(7) == 0

    def test_eval(self):
        r = RatFunc(X + 1, X - 1)
        assert r(3) == 2
        with pytest.raises(ZeroDivisionError):
            r(1)


class TestHermite:
    def test_reduction_identity(self):
        r = RatFunc(X**2 + 3, X**2 * (X - 1) ** 3)
        g, h = hermite_reduce(r)
        assert g.derivative() + h == r
        # remainder denominator square-free
        from riccati_galois.poly import squarefree_part

        assert squarefree_part(h.den) == h.den.monic() or h.den.degree() == 0

    def test_rational_antiderivative_exists(self):
        # d/dx (1/x) = -1/x^2
        anti = rational_antiderivative(RatFunc(-1, X**2))
        assert anti is not None
        assert anti.derivative() == RatFunc(-1, X**2)

    def test_rational_antiderivative_poly(self):
        anti = rational_antiderivative(RatFunc.coerce(Poly([1, 2, 3])))
        assert anti.derivative() == RatFunc.coerce(Poly([1, 2, 3]))

    def test_no_rational_antiderivative_for_log(self):
        assert rational_antiderivative(RatFunc(1, X)) is None

    @given(small_polys, st.integers(min_value=0, max_value=2))
    def test_hermite_roundtrip(self, p, k):
        den = (X**2 + 1) * (X - 1) ** (k + 1)
        r = RatFunc(p, den)
        g, h = hermite_reduce(r)
        assert g.derivative() + h == r

    def test_log_residues(self):
        r = RatFunc(2 * X - 1, X * (X - 1))
        got = {c.key(): v for c, v in log_residues(r)}
        assert got == {
            Scalar.coerce(0).key(): Scalar.coerce(1),
            Scalar.coerce(1).key(): Scalar.coerce(1),
        }

    def test_log_residues_ignore_derivative_part(self):
        base = RatFunc(3, X - 2)
        r = base + RatFunc(1, X**2).derivative()
        got = log_residues(r)
        assert len(got) == 1
        assert got[0][0] == 2 and got[0][1] == 3
