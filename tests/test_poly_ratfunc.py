import contextlib
from fractions import Fraction as F
from math import gcd as igcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from riccati_galois import cli, poly as poly_module, ratfunc as ratfunc_module
from riccati_galois.linalg import (
    det,
    nullspace,
    solve,
    solve_fraction_free,
)
from riccati_galois.odeforms import (
    RiccatiGeneral,
    transform_B,
    transform_R,
    transform_S,
    transform_T,
)
from riccati_galois.poly import (
    InexactDivision,
    Poly,
    _HEU_TRIES,
    _euclid_gcd,
    _heu_gcd,
    _integer_exact_div,
    _primitive,
    _prs_gcd,
    extended_gcd,
    gcd,
    gcd_cofactors,
    rational_roots,
    roots_with_multiplicity,
    squarefree_decomposition,
    squarefree_part,
)
from riccati_galois.ratfunc import (
    RatFunc,
    _canonical_form,
    hermite_reduce,
    log_residues,
    rational_antiderivative,
)
from riccati_galois.scalars import (
    QQ,
    Scalar,
    UnsupportedFieldError,
    scalar_sqrt,
)


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


def int_mul(f, g):
    """The product of two int lists, by the schoolbook convolution."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# int lists with a nonzero leading coefficient of either sign, up to
# 10^12 in size, and often zero low-order terms
big_ints = st.integers(min_value=-(10**12), max_value=10**12)
int_lists = st.builds(
    lambda low, mid, lead: [0] * low + mid + [lead],
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-3, max_value=3) | big_ints, max_size=4),
    big_ints.filter(bool) | st.sampled_from([1, -1, 2, -3]),
)

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
        with pytest.raises(InexactDivision, match="division is not exact"):
            (X**2 + 1).exact_div(X - SQRT2)

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

    @settings(max_examples=150, deadline=None)
    @given(int_lists, int_lists, int_lists)
    def test_heu_gcd_matches_prs(self, common, p, q):
        f, g = _primitive(int_mul(common, p)), _primitive(int_mul(common, q))
        h, cf, cg = _heu_gcd(f, g)
        ref = _prs_gcd(f, g)
        sign = 1 if h[-1] * ref[-1] > 0 else -1
        assert h == [sign * c for c in ref]
        assert cf == [sign * c for c in _integer_exact_div(f, ref)]
        assert cg == [sign * c for c in _integer_exact_div(g, ref)]
        assert int_mul(h, cf) == f and int_mul(h, cg) == g
        # the planted factor divides the gcd
        _integer_exact_div(h, _primitive(common))

    def test_heu_gcd_falls_back_to_prs(self, monkeypatch):
        # digits of a degree above both operands never divide them, so
        # every point fails and the remainder sequence answers
        f = int_mul([-1, 1], [2, 0, 3])
        g = int_mul([-1, 1], [5, -7])
        points, prs = [], []
        monkeypatch.setattr(
            poly_module, "_symmetric_digits", lambda v, xi: points.append(xi) or [1] * 9
        )
        monkeypatch.setattr(
            poly_module, "_prs_gcd", lambda f, g: prs.append(1) or _prs_gcd(f, g)
        )
        assert _heu_gcd(f, g) == ([-1, 1], [2, 0, 3], [5, -7])
        assert len(points) == _HEU_TRIES and len(set(points)) == _HEU_TRIES
        assert prs == [1]

    @pytest.mark.parametrize("fail", [False, True])
    def test_heu_gcd_points_clear_the_norm_bound(self, monkeypatch, fail):
        # xi >= 2 * min(|f|, |g|) + 2 is what makes an accepted h the
        # gcd; the first three pairs need two to four points unpatched,
        # and with the patch every pair runs through all of them
        cases = [
            ([2, 3, -2, -2, -3, 2], [0, 3, 10, 12, 9, 2]),
            ([0, 6, -1, -1], [-6, -5, -1]),
            ([3, -8, -6, -1], [6, -1, -1]),
            (int_mul([7, 0, -(10**12)], [1, 5]), int_mul([7, 0, -(10**12)], [1, 3])),
        ]
        evaluated = []
        evaluate = poly_module._integer_eval
        monkeypatch.setattr(
            poly_module,
            "_integer_eval",
            lambda f, xi: evaluated.append(xi) or evaluate(f, xi),
        )
        if fail:
            monkeypatch.setattr(
                poly_module, "_symmetric_digits", lambda v, xi: [1] * 9
            )
        for i, (f, g) in enumerate(cases):
            evaluated.clear()
            h = _heu_gcd(f, g)[0]
            assert h in (_prs_gcd(f, g), [-c for c in _prs_gcd(f, g)])
            bound = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
            assert min(evaluated) >= bound
            points = len(set(evaluated))
            if fail:
                assert points == _HEU_TRIES
            else:
                assert (points > 1) == (i < 3)

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


def divisor_roots(p):
    """Rational roots by trying every num/den with num | a_0 and den | a_n,
    the search rational_roots replaced; p has integer coefficients."""
    ints = poly_module._rational_coeffs(p)[0]
    roots = {F(0)} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints = ints[1:]

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return set(small + [n // d for d in small])

    n = len(ints) - 1
    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for sign in (1, -1):
                # den^n * p(num/den), in integers
                terms = enumerate(ints)
                if not sum(c * (sign * num) ** k * den ** (n - k) for k, c in terms):
                    roots.add(F(sign * num, den))
    return sorted(roots)


small_roots = st.builds(
    F, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6)
)


class TestRationalRootSearch:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_roots, max_size=4), small_polys, st.integers(1, 3))
    def test_matches_divisor_search(self, planted, cofactor, power):
        assume(not cofactor.is_zero())
        p = cofactor
        for r in planted:
            p = p * Poly([-r.numerator, r.denominator]) ** power
        assert rational_roots(p) == divisor_roots(p)
        assert set(planted) <= set(rational_roots(p))

    def test_large_coefficients(self):
        # divisors of 2^130 * 3 by trial division would take ~2^65 steps
        p = (X - 2**60) * (3 * X + 2**70) * (X**2 - 3) * (X**3 - 2)
        assert rational_roots(p) == [F(-(2**70), 3), F(2**60)]
        roots, _ = roots_with_multiplicity((X - 2**60) ** 2 * (X**2 - 2**80))
        table = {r.key(): m for r, m in roots}
        assert table == {
            Scalar.coerce(2**60).key(): 2,
            Scalar.coerce(2**40).key(): 1,
            Scalar.coerce(-(2**40)).key(): 1,
        }


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
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[2, 0], [0, F(1, 2)]]) == 1

    def test_surd_entries(self):
        r2 = scalar_sqrt(2)
        sol = solve([[r2, 0], [0, 1]], [2, r2])
        assert sol == [r2, r2]

    @pytest.mark.parametrize(
        "m,rhs",
        [
            # tall and consistent
            ([[2, 1], [0, 3], [4, 5], [6, 3]], [1, 3, 7, 3]),
            # tall and inconsistent
            ([[2, 1], [0, 3], [4, 5]], [1, 2, 3]),
            # rank-deficient: a free variable, set to zero
            ([[1, 2, 3], [2, 4, 7], [3, 6, 10]], [1, 3, 4]),
            # a zero column, and zeros below a pivot that must be rescaled
            ([[0, 3, 1], [0, 0, 2], [0, 6, 5]], [4, 6, 11]),
            ([[2, 1, 0], [0, 1, 1], [0, 1, 2]], [1, 1, 2]),
            ([[3, 1, 2], [0, 2, 1], [6, 5, 7], [0, 4, 5]], [1, 2, 3, 4]),
        ],
    )
    def test_fraction_free_examples(self, m, rhs):
        ref = solve(m, rhs)
        got = solve_fraction_free(m, rhs)
        if ref is None:
            assert got is None
        else:
            assert got == [s.as_fraction() for s in ref]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fraction_free_matches_solve(self, data):
        # rows are combinations of a few base rows (rank-deficient when
        # there are more rows than bases), some columns are zeroed, and
        # the right-hand side is either m x (consistent) or random
        n_cols = data.draw(st.integers(1, 4))
        entries = st.integers(-4, 4) | st.just(0)
        bases = data.draw(
            st.lists(
                st.lists(entries, min_size=n_cols, max_size=n_cols),
                min_size=1,
                max_size=4,
            )
        )
        n_rows = data.draw(st.integers(1, 7))
        zero_cols = data.draw(st.sets(st.integers(0, n_cols - 1)))
        m = []
        for _ in range(n_rows):
            k = len(bases)
            w = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
            row = [sum(c * b[j] for c, b in zip(w, bases))
                   for j in range(n_cols)]
            m.append([0 if j in zero_cols else v for j, v in enumerate(row)])
        if data.draw(st.booleans()):
            x = data.draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
            rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
        else:
            rhs = data.draw(
                st.lists(entries, min_size=n_rows, max_size=n_rows)
            )
        ref = solve(m, rhs)
        got = solve_fraction_free(m, rhs)
        if ref is None:
            assert got is None
        else:
            assert got == [s.as_fraction() for s in ref]
            assert all(isinstance(v, F) for v in got)


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


def _valuation_reference(p):
    for k, coeff in enumerate(p.coeffs):
        if not coeff.is_zero():
            return k
    raise ValueError("zero polynomial has no valuation")


def _series_div_reference(n_coeffs, d_coeffs, count):
    inv0 = Scalar.coerce(d_coeffs[0]).inverse()
    out = []
    rem = [Scalar.coerce(x) for x in n_coeffs]
    for k in range(count):
        cur = rem[k] if k < len(rem) else Scalar.coerce(0)
        coeff = cur * inv0
        out.append(coeff)
        if not coeff.is_zero():
            for j, dj in enumerate(d_coeffs):
                idx = k + j
                if idx >= count:
                    break
                while idx >= len(rem):
                    rem.append(Scalar.coerce(0))
                rem[idx] = rem[idx] - coeff * Scalar.coerce(dj)
    return out


def laurent_reference(r, c, count):
    """The expansion at c by shifting numerator and denominator to c."""
    if r.is_zero():
        return 0, [Scalar.coerce(0)] * count
    c = Scalar.coerce(c)
    n, d = r.num.shift(c), r.den.shift(c)
    a, b = _valuation_reference(n), _valuation_reference(d)
    return a - b, _series_div_reference(n.coeffs[a:], d.coeffs[b:], count)


def laurent_at_infinity_reference(r, count):
    if r.is_zero():
        return 0, [Scalar.coerce(0)] * count
    n_rev = list(reversed(r.num.coeffs))
    d_rev = list(reversed(r.den.coeffs))
    top = r.num.degree() - r.den.degree()
    return top, _series_div_reference(n_rev, d_rev, count)


def pole_order_reference(r, c):
    """The pole order at c by repeated division by x - c."""
    order, d, lin = 0, r.den, Poly([-Scalar.coerce(c), 1])
    while True:
        q, rem = d.divmod(lin)
        if not rem.is_zero():
            return order
        order += 1
        d = q


def expansion_keys(expansion):
    start, coeffs = expansion
    return start, [c.key() for c in coeffs]


# points (u + v sqrt(r))/w of a depth-1 tower, w > 1, v != 0
surd_points = st.builds(
    lambda u, v, w, r: (u + v * scalar_sqrt(r)) / w,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.integers(min_value=2, max_value=6),
    st.sampled_from([2, 3, 5, -1]),
)


class TestLocalExpansions:
    @settings(max_examples=150, deadline=None)
    @given(
        fraction_polys,
        fraction_polys,
        small_fractions,
        small_fractions,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=9),
        st.booleans(),
    )
    def test_expansions_match_shift_reference(
        self, num, den, a, b, k, j, count, conjugates
    ):
        # c = a + b sqrt(2) is rational when b = 0; the planted factor is
        # x - c, or with conjugates the rational x^2 - 2a x + a^2 - 2b^2,
        # so numerator and denominator may vanish at c to any order, and
        # count may exceed every degree
        assume(not den.is_zero())
        c = a + b * SQRT2
        if conjugates:
            factor = X**2 - 2 * a * X + (a * a - 2 * b * b)
        else:
            factor = X - c
        r = RatFunc(num * factor**k, den * factor**j)
        assert expansion_keys(r.laurent_at(c, count)) == expansion_keys(
            laurent_reference(r, c, count)
        )
        assert expansion_keys(r.laurent_at_infinity(count)) == expansion_keys(
            laurent_at_infinity_reference(r, count)
        )
        assert r.pole_order(c) == pole_order_reference(r, c)

    def test_numerator_vanishing_at_the_point(self):
        # (x - 1/2)^3 / (x^2 (x - 1/2)) at 1/2: a double zero
        r = RatFunc((X - F(1, 2)) ** 3, X**2 * (X - F(1, 2)))
        start, coeffs = r.laurent_at(F(1, 2), 6)
        assert start == 2
        assert coeffs == laurent_reference(r, F(1, 2), 6)[1]
        assert coeffs[:3] == [4, -16, 48]
        assert r.pole_order(F(1, 2)) == 0 and r.pole_order(0) == 2

    def test_surd_pole(self):
        # 1/(x^2 - 2) = (sqrt(2)/4) / (x - sqrt(2)) - 1/8 + ...
        r = RatFunc(1, X**2 - 2)
        start, coeffs = r.laurent_at(SQRT2, 3)
        assert start == -1
        assert coeffs[0] == SQRT2 / 4 and coeffs[1] == F(-1, 8)
        assert r.pole_order(SQRT2) == 1 and r.pole_order(-SQRT2) == 1
        assert RatFunc(1, (X - SQRT2) ** 2).pole_order(SQRT2) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        fraction_polys,
        fraction_polys,
        surd_points,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
    )
    def test_surd_point_expansions_match_shift_reference(
        self, num, den, c, k, j, count, conjugates
    ):
        # the planted factor is x - c, or with conjugates the rational
        # (x - c)(x - c'), so that rational data meets the surd point
        assume(not den.is_zero())
        assert c.tower.depth == 1
        lo, hi = c.val
        if conjugates:
            factor = X**2 - 2 * lo * X + (lo * lo - hi * hi * c.tower.radicand)
            assert factor.is_rational_poly()
        else:
            factor = X - c
        r = RatFunc(num * factor**k, den * factor**j)
        assert expansion_keys(r.laurent_at(c, count)) == expansion_keys(
            laurent_reference(r, c, count)
        )
        assert r.pole_order(c) == pole_order_reference(r, c)

    def test_surd_point_examples(self):
        # 1/(9x^2 - 6x - 1) has simple poles at (1 +- sqrt(2))/3
        c = (1 + SQRT2) / 3
        r = RatFunc(1, 9 * X**2 - 6 * X - 1)
        start, coeffs = r.laurent_at(c, 3)
        assert start == -1 and coeffs[0] == SQRT2 / 12
        assert [k.key() for k in coeffs] == [
            k.key() for k in laurent_reference(r, c, 3)[1]
        ]
        # a double pole at (1 + i)/2 and a numerator vanishing there
        i = scalar_sqrt(-1)
        c = (1 + i) / 2
        quad = 2 * X**2 - 2 * X + 1
        assert RatFunc(X, quad**2).pole_order(c) == 2
        start, coeffs = RatFunc(quad, X**3 + 1).laurent_at(c, 4)
        assert start == 1
        ref = laurent_reference(RatFunc(quad, X**3 + 1), c, 4)
        assert [k.key() for k in coeffs] == [k.key() for k in ref[1]]

    def test_surd_point_divisions_make_no_scalar_arithmetic(self, monkeypatch):
        # the Taylor divisions run on ints: Scalar arithmetic starts
        # only in the series division that builds the result
        c = (3 - 2 * scalar_sqrt(5)) / 4
        den = (16 * X**2 - 24 * X - 11) ** 2 * (X - 1)
        r = RatFunc(X**3 - F(1, 2), den)
        want = laurent_reference(r, c, 3)
        calls = count_scalar_arithmetic(monkeypatch)
        entered = []
        series_div = ratfunc_module._series_div

        def checked(*args):
            entered.append(list(calls))
            return series_div(*args)

        monkeypatch.setattr(ratfunc_module, "_series_div", checked)
        assert r.pole_order(c) == 2
        assert calls == []
        start, coeffs = r.laurent_at(c, 3)
        assert entered == [[]]
        monkeypatch.undo()
        assert start == -2
        assert [k.key() for k in coeffs] == [k.key() for k in want[1]]


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


def keys(p):
    """Structural form of a Poly: equal lists mean identical coefficients."""
    return [c.key() for c in p.coeffs]


def assert_canonical(p):
    """p's integer form is canonical, and its eager copy agrees with it."""
    ints, den = p._integer_form()
    assert den >= 1 and igcd(den, *ints) == 1
    assert not ints or ints[-1] != 0
    eager = Poly(p.coeffs)
    assert p == eager and hash(p) == hash(eager)


@contextlib.contextmanager
def scalar_route():
    """Every Poly operation takes the Scalar loops, rational or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_rational_coeffs", lambda p: None)
        yield


# coefficients for the printer: +-1 and 0 often, small fractions and
# large denominators
print_coeffs = st.one_of(
    st.sampled_from([0, 1, -1, 0, 1, -1]),
    small_fractions,
    st.builds(
        F,
        st.integers(min_value=-(10**15), max_value=10**15),
        st.integers(min_value=1, max_value=10**18),
    ),
)


class TestRationalKernel:
    """The integer kernel against the Scalar loops, on rational operands.

    fraction_polys draws zero and constant polynomials, negative leading
    coefficients and non-integer denominators; a planted common factor
    makes the divisions exact and the cancellations non-trivial.
    """

    @settings(max_examples=150, deadline=None)
    @given(fraction_polys, fraction_polys, fraction_polys)
    def test_mul_matches_scalar_loop(self, common, p, q):
        a, b = common * p, q
        got = a * b
        assert all(c.tower is QQ for c in got.coeffs)
        with scalar_route():
            ref = a * b
        assert keys(got) == keys(ref)

    @settings(max_examples=150, deadline=None)
    @given(fraction_polys, fraction_polys, fraction_polys)
    def test_divmod_matches_scalar_loop(self, common, p, r):
        assume(not common.is_zero())
        a = common * p + r
        q, rem = a.divmod(common)
        assert q * common + rem == a
        assert rem.degree() < common.degree()
        with scalar_route():
            ref_q, ref_rem = a.divmod(common)
        assert keys(q) == keys(ref_q)
        assert keys(rem) == keys(ref_rem)
        # the planted factor divides exactly
        assert keys((common * p).exact_div(common)) == keys(p)

    @settings(max_examples=150, deadline=None)
    @given(fraction_polys, fraction_polys, fraction_polys, small_fractions)
    def test_linear_ops_match_scalar_route(self, common, p, q, s):
        # a is built by the kernel, so its Scalars come from the integer
        # form; q is rebuilt from Scalars, so its integer form comes from
        # them
        a, q = common * p, Poly(q.coeffs)
        ops = {
            "add": lambda: a + q,
            "sub": lambda: q - a,
            "neg": lambda: -a,
            "scale": lambda: a.scale(s),
            "derivative": lambda: a.derivative(),
            "monic": lambda: q.monic(),
        }
        if not common.is_zero():
            ops["exact_div"] = lambda: a.exact_div(common)
        got = {name: op() for name, op in ops.items()}
        with scalar_route():
            ref = {name: op() for name, op in ops.items()}
        for name, result in got.items():
            assert keys(result) == keys(ref[name]), name
            assert_canonical(result)
        for operand in (common, p, q, a):
            assert_canonical(operand)

    @settings(max_examples=150, deadline=None)
    @given(fraction_polys, fraction_polys, fraction_polys)
    def test_canonical_form_matches_scalar_route(self, common, n, d):
        assume(not common.is_zero() and not d.is_zero())
        num, den = common * n, common * d
        r = RatFunc(num, den)
        assert r.den.leading() == 1
        assert gcd(r.num, r.den).degree() == 0
        if n.is_zero():
            assert r.num.is_zero() and keys(r.den) == keys(Poly([1]))
        with scalar_route():
            ref_num, ref_den = _canonical_form(num, den)
        assert keys(r.num) == keys(ref_num)
        assert keys(r.den) == keys(ref_den)

    @settings(max_examples=150, deadline=None)
    @given(
        fraction_polys, fraction_polys, fraction_polys, fraction_polys, fraction_polys
    )
    def test_sum_matches_gcd_and_exact_div(self, common, n1, d1, n2, d2):
        # the cofactors GCDHEU hands up against gcd and two exact
        # divisions, the formula they replace in RatFunc.__add__
        assume(not common.is_zero() and not d1.is_zero() and not d2.is_zero())
        r1, r2 = RatFunc(n1, common * d1), RatFunc(n2, common * d2)
        g = gcd(r1.den, r2.den)
        q1, q2 = r1.den.exact_div(g), r2.den.exact_div(g)
        got = gcd_cofactors(r1.den, r2.den)
        assert [keys(p) for p in got] == [keys(g), keys(q1), keys(q2)]
        for p in got:
            assert_canonical(p)
        s = r1 + r2
        num = r1.num * q2 + r2.num * q1
        h = gcd(num, g)
        assert keys(s.num) == keys(num.exact_div(h))
        assert keys(s.den) == keys((r1.den * q2).exact_div(h))

    @settings(max_examples=40, deadline=None)
    @given(surd_polys, surd_polys, surd_polys)
    def test_gcd_cofactors_with_tower_coefficients(self, common, p, q):
        assume(not common.is_zero() and not p.is_zero() and not q.is_zero())
        a, b = common * p, common * q
        g, qa, qb = gcd_cofactors(a, b)
        assert keys(g) == keys(gcd(a, b))
        assert qa * g == a and qb * g == b

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(print_coeffs, min_size=0, max_size=6).map(Poly),
        st.lists(print_coeffs, min_size=1, max_size=4).map(Poly),
    )
    def test_str_matches_scalar_route(self, p, q):
        # a RatFunc prints its numerator and denominator, with parentheses
        values = [p, q, -p]
        if not q.is_zero():
            values.append(RatFunc(p, q))
        if not p.is_zero():
            values.append(RatFunc(q, p))
        got = [str(v) for v in values]
        with scalar_route():
            ref = [str(v) for v in values]
        assert got == ref

    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ([], "0"),
            ([0, 1], "x"),
            ([0, -1], "-x"),
            ([1, 0, -1], "-x^2 + 1"),
            ([0, F(-1, 3), 0, 1], "x^3 - 1/3*x"),
            ([F(1, 10**20), 0, -2], "-2*x^2 + 1/100000000000000000000"),
            ([F(-7, 2)], "-7/2"),
        ],
    )
    def test_str_examples(self, coeffs, text):
        p = Poly(coeffs)
        assert str(p) == text
        with scalar_route():
            assert str(p) == text

    def test_canonical_form_examples(self):
        # negative leading coefficients and fractional contents on both
        # sides, a shared factor, and a constant denominator
        r = RatFunc(F(-3, 4) * (X - 2) * (X + F(1, 3)), F(-5, 6) * (X - 2))
        assert keys(r.num) == keys(F(9, 10) * X + F(3, 10))
        assert keys(r.den) == keys(Poly([1]))
        r = RatFunc(Poly([F(2, 7)]), -3 * X**2 + F(1, 2))
        assert keys(r.num) == keys(Poly([F(-2, 21)]))
        assert keys(r.den) == keys(X**2 - F(1, 6))

    def test_integer_exact_div_checks_every_step(self):
        assert _integer_exact_div([-2, 1, 1], [-1, 1]) == [2, 1]
        with pytest.raises(ValueError, match="division is not exact"):
            # x^2 + 1 = (x + 1)(x - 1) + 2: a remainder is left
            _integer_exact_div([1, 0, 1], [-1, 1])
        with pytest.raises(ValueError, match="division is not exact"):
            # 3x + 1 over 2x + 1: floor division would leave remainder 0
            # after quotient 1, so only the step check sees 3 / 2
            _integer_exact_div([1, 3], [1, 2])
        with pytest.raises(ValueError, match="division is not exact"):
            _integer_exact_div([5], [1, 1])


ARITHMETIC_DUNDERS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
    "__eq__",
    "__ne__",
    "inverse",
)


def count_scalar_arithmetic(monkeypatch):
    """Patch the Scalar arithmetic methods to log their names; the log."""
    calls = []

    def counting(name):
        inner = getattr(Scalar, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        return wrapper

    for name in ARITHMETIC_DUNDERS:
        monkeypatch.setattr(Scalar, name, counting(name))
    return calls


class FrozenList(list):
    """A list whose every mutating method fails the test."""

    def _refuse(self, *args):
        raise AssertionError("a caller mutated the list of Poly.coeffs")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


class TestKernelDispatch:
    def test_rational_operands_make_no_scalar_arithmetic(self, monkeypatch):
        a = Poly([F(1, 2), -3, F(2, 3)])
        b = Poly([F(-5, 4), 0, 7, -1])
        common = Poly([F(3, 2), 1])
        num, den = a * common, b * common
        eager = Poly(a.coeffs)
        calls = count_scalar_arithmetic(monkeypatch)
        a * b
        b.divmod(a)
        num.exact_div(common)
        a + b, a - b, -a, a.scale(F(-2, 3)), a.derivative(), b.monic()
        # eager is built from Scalars, a from its integer form
        assert a == eager and a != b and len({a, eager}) == 1
        gcd(num, den)
        RatFunc(num, den)
        RatFunc(Poly([]), den)
        assert calls == []
        # the counter sees the Scalar loop
        a._scalar_mul(b)
        assert calls

    def test_riccati_chain_makes_no_scalar_arithmetic(self, monkeypatch):
        e = RiccatiGeneral(
            RatFunc(Poly([2, -1, 3]), Poly([1, 0, -2])),
            RatFunc(Poly([F(1, 2), 3]), Poly([-3, 1])),
            RatFunc(Poly([-2, 0, 0, 1]), Poly([1, 2])),
        )
        calls = count_scalar_arithmetic(monkeypatch)
        direct = transform_T(e)[0]
        via_linear = transform_R(transform_S(transform_B(e))[0])
        assert direct.r == via_linear.r
        assert calls == []

    def test_callers_never_mutate_coeffs(self, monkeypatch, capsys):
        # every Poly hands out a list that refuses mutation, on the
        # rational and the tower paths of the solver and the pipelines
        coeffs = Poly.coeffs
        monkeypatch.setattr(
            Poly, "coeffs", property(lambda p: FrozenList(coeffs.fget(p)))
        )
        rhos = [
            "x^2-1",
            "x",
            "-3/(16*(x^2-2)^2)",
            "(-2/9*x^2 + 2/9*x - 3/16)/(x^4 - 2*x^3 + x^2)",
            "-3/(16*x^2) - 2/(9*(x-1)^2) + 3/(16*x*(x-1))",
        ]
        for rho in rhos:
            assert cli.main(["solve", "--rho=" + rho, "--no-timing"]) == 0
        assert cli.main(["apply", "examples", "--no-timing"]) == 0
        r = RatFunc(Poly([1, 0, 3]), (X - 1) ** 3 * (X**2 - 2))
        hermite_reduce(r)
        log_residues(RatFunc(Poly([1]), X**2 - 2))
        capsys.readouterr()

    def test_tower_operands_take_the_scalar_loops(self, monkeypatch):
        rational = X**2 - 3 * X + F(1, 2)
        surd = X - SQRT2
        num1, den1 = 3 * (X - SQRT2) * (X + 1), (X - SQRT2) * (2 * X - 1)
        num2, den2 = X + SQRT2, 2 * X**2 - 1
        # the canonical forms, written out by hand
        want1 = keys(F(3, 2) * X + F(3, 2)), keys(X - F(1, 2))
        want2 = keys((X + SQRT2) * F(1, 2)), keys(X**2 - F(1, 2))
        product = rational * surd

        def refuse(*args):
            raise AssertionError("rational kernel entered with a tower operand")

        for name in (
            "_rational_add",
            "_rational_mul",
            "_rational_divmod",
            "_rational_exact_div",
            "_rational_gcd",
            "_rational_canonical",
            "_integer_pdivmod",
            "_integer_exact_div",
            "_heu_gcd",
            "_integer_eval",
            "_symmetric_digits",
            "_prs_gcd",
        ):
            monkeypatch.setattr(poly_module, name, refuse)
        monkeypatch.setattr("riccati_galois.ratfunc._rational_canonical", refuse)
        assert keys(rational * surd) == keys(rational._scalar_mul(surd))
        assert keys(surd * rational) == keys(surd._scalar_mul(rational))
        q, r = product.divmod(surd)
        assert keys(q) == keys(rational) and r.is_zero()
        q, r = rational.divmod(surd)
        assert q * surd + r == rational
        with pytest.MonkeyPatch.context() as mp:
            # every kernel result is built here, so this also guards the
            # unary operations; the canonical forms below may meet
            # rational quotients, which rightly take the kernel
            mp.setattr(Poly, "_from_zz", classmethod(refuse))
            assert keys(product.exact_div(surd)) == keys(rational)
            assert keys(product.exact_div(rational)) == keys(surd)
            assert (surd + rational) - rational == surd
            assert keys(-(-surd)) == keys(surd)
            assert surd.scale(2) != surd and surd.monic() == surd
            assert keys(gcd(product, surd)) == keys(surd)
        r1, r2 = RatFunc(num1, den1), RatFunc(num2, den2)
        assert (keys(r1.num), keys(r1.den)) == want1
        assert (keys(r2.num), keys(r2.den)) == want2
