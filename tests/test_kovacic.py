import contextlib
import io
import json
import time
from fractions import Fraction as F
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from riccati_galois import cli, kovacic
from riccati_galois import poly as poly_module, ratfunc as ratfunc_module
from riccati_galois.applications import hypergeometric_rho
from riccati_galois.exprparse import parse_ratfunc
from riccati_galois.kovacic import (
    INFINITY,
    Case4Result,
    _case3_degrees,
    _frobenius_log,
    _integer_lists,
    _kovacic_chain,
    _logarithmic,
    _order2_root,
    _order2_roots,
    _search,
    case1,
    case2,
    case3,
    classify_point_case1,
    second_solution,
    solve_rlde,
    verify_algebraic_riccati,
    verify_case1,
)
from riccati_galois.linalg import solve
from riccati_galois.odeforms import ReducedODE
from riccati_galois.poly import Poly, gcd
from riccati_galois.ratfunc import RatFunc
from riccati_galois.scalars import Scalar, scalar_sqrt
from riccati_galois.specialfn import _TABLE, ExponentDiffs, kimura_test


X = Poly.x()


def rf(num, den=1):
    return RatFunc(num, den)


def whittaker(kappa, mu):
    return (
        rf(F(1, 4))
        - rf(Poly([F(kappa)]), X)
        + rf(Poly([4 * F(mu) ** 2 - 1]), 4 * X**2)
    )


def schwarz_hypergeometric(lam, mu, nu):
    """Reduced hypergeometric with exponent differences (lam, mu, nu)."""
    b0 = (F(lam) ** 2 - 1) / 4
    b1 = (F(mu) ** 2 - 1) / 4
    binf = (F(nu) ** 2 - 1) / 4
    c = binf - b0 - b1
    return (
        rf(Poly([b0]), X**2)
        + rf(Poly([b1]), (X - 1) ** 2)
        + rf(Poly([c]), X * (X - 1))
    )


class TestLocalClassification:
    def test_simple_pole(self):
        d = classify_point_case1(rf(1, X), 0)
        assert d.subcase == "c1"
        assert d.alpha_plus == 1 and d.alpha_minus == 1
        assert RatFunc.coerce(d.sqrt_head).is_zero()

    def test_double_pole_whittaker(self):
        mu = F(5, 2)
        d = classify_point_case1(whittaker(1, mu), 0)
        assert d.subcase == "c2"
        assert d.alpha_plus == F(1, 2) + mu
        assert d.alpha_minus == F(1, 2) - mu

    def test_high_even_pole(self):
        # r = 1/x^4: v = 2, head = 1/x^2, b = 0
        d = classify_point_case1(rf(1, X**4), 0)
        assert d.subcase == "c3"
        assert RatFunc.coerce(d.sqrt_head) == rf(1, X**2)
        assert d.alpha_plus == 1 and d.alpha_minus == 1

    def test_odd_high_pole_inapplicable(self):
        assert classify_point_case1(rf(1, X**3), 0).subcase is None

    def test_infinity_growth(self):
        d = classify_point_case1(rf(X**2 - 1), INFINITY)
        assert d.subcase == "inf3"
        assert Poly.coerce(d.sqrt_head) == X
        # alpha from b = -1, a = 1, v = 1
        assert d.alpha_plus == -1 and d.alpha_minus == 0

    def test_infinity_decay(self):
        d = classify_point_case1(rf(1, X**3), INFINITY)
        assert d.subcase == "inf1"
        assert d.alpha_plus == 0 and d.alpha_minus == 1

    def test_infinity_order_two(self):
        d = classify_point_case1(rf(2, X**2), INFINITY)
        assert d.subcase == "inf2"
        assert d.alpha_plus == 2 and d.alpha_minus == -1

    def test_infinity_odd_inapplicable(self):
        assert classify_point_case1(rf(X), INFINITY).subcase is None
        assert classify_point_case1(rf(1, X), INFINITY).subcase is None


class TestCase1:
    def test_gaussian(self):
        res = case1(rf(X**2 - 1))
        assert res is not None
        assert res.omega == rf(-X)
        assert res.p == Poly([1])
        assert res.m == 0

    def test_exponential(self):
        res = case1(rf(1))
        assert res.omega == 1 and res.p == Poly([1])

    def test_airy_fails(self):
        assert case1(rf(X)) is None

    @pytest.mark.parametrize(
        "n,expected_p",
        [
            (0, Poly([1])),
            (1, X),
            (2, X**2 - F(1, 2)),
            (3, X**3 - F(3, 2) * X),
        ],
    )
    def test_hermite_family(self, n, expected_p):
        # r = x^2 - (2n + 1): solutions are Hermite functions
        res = case1(rf(X**2 - (2 * n + 1)))
        assert res is not None
        assert res.omega == rf(-X)
        assert res.m == n
        assert res.p == expected_p
        assert verify_case1(rf(X**2 - (2 * n + 1)), res.omega, res.p)

    def test_whittaker_half_integer(self):
        r = whittaker(F(3, 2), 0)
        res = case1(r)
        assert res is not None
        assert res.m == 1
        assert res.p == X - 1
        assert res.omega == rf(Poly([F(1, 2), F(-1, 2)]), X)
        assert verify_case1(r, res.omega, res.p)

    def test_reduced_bessel_three_halves(self):
        # rho = (4n^2 - 1)/(4x^2) - 1 at n = 3/2
        r = rf(2, X**2) - 1
        res = case1(r)
        assert res is not None
        assert verify_case1(r, res.omega, res.p)

    def test_surd_omega(self):
        # r = -1 forces omega = +-i
        res = case1(rf(-1))
        assert res is not None
        i = scalar_sqrt(-1)
        assert res.omega == rf(Poly([i])) or res.omega == rf(Poly([-i]))

    def test_solution_object(self):
        res = case1(rf(X**2 - 1))
        sol = res.solution()
        # xi'/xi = P'/P + omega
        assert sol.log_derivative() == rf(-X)


class TestCase2:
    def test_dihedral_classic(self):
        r = rf(1, X) - rf(Poly([F(3, 16)]), X**2)
        res = case2(r)
        assert res is not None
        assert res.theta == rf(Poly([F(1, 2)]), X)
        assert res.p == Poly([1])
        n0, n1, n2 = res.quadratic
        assert n2 == 1 and n1 == -res.phi
        assert verify_algebraic_riccati(r, res.quadratic)

    def test_d_empty(self):
        assert case2(rf(1, X)) is None

    def test_no_poles_not_offered(self):
        assert case2(rf(X**2 - 1)) is None


class TestCase3:
    def test_tetrahedral(self):
        r = schwarz_hypergeometric(F(1, 2), F(1, 3), F(1, 3))
        res = case3(r)
        assert res is not None
        assert res.n == 4
        assert res.m == 0 and res.p == Poly([1])
        assert res.s == X**2 - X
        assert verify_algebraic_riccati(r, res.omega_poly)

    def test_octahedral(self):
        r = schwarz_hypergeometric(F(1, 2), F(1, 3), F(1, 4))
        res = case3(r)
        assert res is not None and res.n == 6

    def test_icosahedral(self):
        r = schwarz_hypergeometric(F(1, 2), F(1, 3), F(1, 5))
        res = case3(r)
        assert res is not None and res.n == 12

    def test_high_pole_rejected(self):
        assert case3(rf(1, X**3)) is None

    def test_slow_decay_rejected(self):
        assert case3(rf(X, (X - 1))) is None


class TestDriver:
    def test_case_ordering(self):
        assert solve_rlde(ReducedODE(rf(X**2 - 1))).case == 1
        assert solve_rlde(ReducedODE(rf(1, X) - rf(Poly([F(3, 16)]), X**2))).case == 2
        assert (
            solve_rlde(schwarz_hypergeometric(F(1, 2), F(1, 3), F(1, 3))).case
            == 3
        )

    def test_airy_case4(self):
        assert solve_rlde(rf(X)).case == 4
        assert solve_rlde(rf(X**3 + 1)).case == 4

    def test_non_schwarz_triple_case4(self):
        assert solve_rlde(schwarz_hypergeometric(F(1, 2), F(1, 3), F(1, 7))).case == 4

    def test_trivial_equation(self):
        res = solve_rlde(rf(0))
        assert res.case == 1
        assert res.omega.is_zero() and res.p == Poly([1])

    def test_determinism(self):
        r = whittaker(F(3, 2), 0)
        a = solve_rlde(r)
        b = solve_rlde(r)
        assert a.omega == b.omega and a.p == b.p and a.m == b.m


class TestVerifiers:
    def test_verify_case1_examples(self):
        assert verify_case1(rf(X**2 - 1), rf(-X), Poly([1]))
        assert verify_case1(rf(1), rf(1), Poly([1]))
        assert not verify_case1(rf(X), rf(0), Poly([1]))

    def test_verify_algebraic_negative(self):
        # omega^2 = x is not closed under the Riccati flow of r = 0
        assert not verify_algebraic_riccati(
            rf(0), (rf(-X), rf(0), rf(1))
        )

    def test_verify_algebraic_rejects_constant(self):
        assert not verify_algebraic_riccati(rf(0), (rf(1),))


class TestSecondSolution:
    def test_structure(self):
        res = case1(rf(X**2 - 1))
        sec = second_solution(res)
        inner = sec.integral.derivative()
        # inner = exp(-2 int omega)/P^2, so its log-derivative is
        # -2 omega - 2 P'/P
        assert inner.log_derivative() == rf(2 * X)
        assert sec.xi1.log_derivative() == rf(-X)

    def test_plain_text(self):
        res = case1(rf(0))
        sec = second_solution(res)
        assert "int" in str(sec)


# `solve --json --no-timing` stdout for inputs that reach every local-set
# branch: Case 1 subcases c1/c2/c3/inf1/inf2/inf3 (one with the surd head
# sqrt(-1)), Case 2 with poles of order 2 and 3 and infinity of order < 2,
# 2 and > 2, Case 3 with n = 4, 6 and 12, and Case 4 (simple pole, order
# at infinity < 2).  "2/x^2" has two working candidates at the lowest
# degree, and the tetrahedral input several, so a change in candidate
# order changes the certificate.  "1/x^4 - 2/x + 3 + x^2" has a c3 pole
# with equal alphas where only the minus sign works, so a sign dropped
# there turns its Case 1 into Case 4.  Recorded before the shared search
# was written; the search must reproduce them byte for byte.  The last
# seven rows were recorded before the integer search, expansions and
# Case 3 recursion: Case 1 with poles at +-sqrt(2), +-sqrt(3) and
# +-sqrt(5); irrational exponent sets from a double pole with 1 + 4b = 2
# (Case 1 and Case 4); the Moebius pullbacks of (1/2, 1/3, 1/4), Case 3,
# and of (1/3, 1/4, 1/7), Case 4.  The last three rows were recorded
# before the operators were cleared of their denominators: Case 1 with
# c3 poles (order 4) at +-sqrt(2) and P = x - 1, from omega = x -
# 1/(x^2 - 2)^2; Case 2 with a pole of order 3, the Moebius pullback of
# "1/x^3 - 3/(16*x^2)"; and the Case 4 potential of the exponent
# differences (1/3, 1/4, 2), whose search builds 66 candidates.
PINNED = json.loads(
    (Path(__file__).parent / "data" / "solve_pinned.json").read_text()
)


@pytest.mark.parametrize("row", PINNED, ids=[r["rho"] for r in PINNED])
def test_pinned_certificates(row):
    argv = ["solve", "--rho=" + row["rho"], "--json", "--no-timing"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    assert out.getvalue() == row["stdout"]


@pytest.mark.parametrize("row", PINNED, ids=[r["rho"] for r in PINNED])
def test_one_check_per_answer(row):
    # a positive answer is checked once, by the builder that found it;
    # Case 4 has no certificate to check
    checks = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("verify_case1", "verify_algebraic_riccati"):
            def counting(*args, _real=getattr(kovacic, name), _name=name):
                checks.append(_name)
                return _real(*args)

            mp.setattr(kovacic, name, counting)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", "--rho=" + row["rho"], "--json"]) == 0
    case = json.loads(out.getvalue())["verdict"]["case"]
    assert len(checks) == (0 if case == 4 else 1)


def mobius_pullback(rho, a=2, b=1, c=1, d=3):
    """rho(x(t)) (ad - bc)^2 / (ct + d)^4 for x = (at + b)/(ct + d).

    The Schwarzian of a Moebius map is 0, so this is the reduced
    potential of the pulled-back equation and the Galois group is kept.
    For the default map infinity becomes the ordinary point x = 2, so
    every singular point of the result is a finite pole."""
    num, den = Poly([b, a]), Poly([d, c])
    deg = max(rho.num.degree(), rho.den.degree())

    def homogenised(p):
        out = Poly([])
        for i, coeff in enumerate(p.coeffs):
            out = out + Poly([coeff]) * num**i * den ** (deg - i)
        return out

    jacobian = (a * d - b * c) ** 2
    return RatFunc(
        homogenised(rho.num) * jacobian, homogenised(rho.den) * den**4
    )


@pytest.mark.parametrize(
    "triple",
    [
        # not on Kimura's list
        (F(1, 3), F(1, 4), F(1, 7)),
        (F(1, 2), F(1, 3), F(1, 7)),
        # controls: table family 1 (dihedral), family 4 (octahedral)
        (F(1, 2), F(1, 2), F(1, 3)),
        (F(1, 2), F(1, 3), F(1, 4)),
    ],
)
def test_mobius_pullback_case_matches_kimura(triple):
    # Kimura's list shares no code with the Kovacic search: Case 4 exactly
    # when it has no match, table family 1 dihedral, families 2-15 finite
    rho = mobius_pullback(hypergeometric_rho(*triple))
    assert rho.order_at_infinity() >= 4
    assert [order for _, order in rho.poles()] == [2, 2, 2]
    verdict = kimura_test(ExponentDiffs(*triple))
    if not verdict.is_integrable:
        expected = 4
    else:
        expected = 2 if verdict.detail["family"] == 1 else 3
    assert solve_rlde(rho).case == expected


# -- the integer hot paths against the Scalar and Poly code they replaced


def search_reference(exponents, scale):
    """[(m, choice)] in (m, product index) order by the Scalar odometer."""
    finite, at_inf = exponents[:-1], exponents[-1]
    idx = [0] * len(finite)
    sums = [0] * (len(finite) + 1)
    stale, candidates = 0, []
    while stale >= 0:
        for i in range(stale, len(finite)):
            sums[i + 1] = sums[i] + finite[i][idx[i]]
        for j, e in enumerate(at_inf):
            m = (e - sums[-1]) * scale
            if m.is_nonneg_integer():
                candidates.append((int(m.as_fraction()), idx + [j]))
        stale = len(finite) - 1
        while stale >= 0 and idx[stale] == len(finite[stale]) - 1:
            idx[stale] = 0
            stale -= 1
        if stale >= 0:
            idx[stale] += 1
    candidates.sort(key=lambda c: c[0])
    return candidates


def search_candidates(exponents, scale):
    """Every candidate _search offers its builder, in order."""
    seen = []

    def record(choice, m):
        seen.append((m, choice))

    tags = [list(range(len(es))) for es in exponents]
    assert _search(exponents, tags, scale, record) is None
    return seen


def case3_sequence_reference(p, s_poly, s_theta, s2r, n):
    """[P_{-1}, P_0, ..., P_n] by the downward recursion on Polys."""
    seq = [Poly([])] * (n + 2)
    seq[n + 1] = -Poly.coerce(p)
    for i in range(n, -1, -1):
        p_i = seq[i + 1]
        p_next = seq[i + 2] if i + 2 <= n + 1 else Poly([])
        seq[i] = (
            -(s_poly * p_i.derivative())
            + (s_poly.derivative().scale(n - i) - s_theta) * p_i
            - s2r.scale((n - i) * (i + 1)) * p_next
        )
    return seq


SQRT2 = scalar_sqrt(2)
SQRT3 = scalar_sqrt(3)
SCALES = [F(1), F(1, 2), F(4, 12), F(6, 12), F(12, 12)]
small_fractions = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)
)
rational_exponents = small_fractions.map(Scalar.coerce)
# q + k sqrt(d): equal surds cancel often enough to pass
surd_exponents = st.builds(
    lambda q, k, root: q + k * root,
    small_fractions,
    st.integers(min_value=-1, max_value=1),
    st.sampled_from([SQRT2, SQRT3]),
)


def exponent_sets(elements):
    return st.lists(
        st.lists(elements, min_size=1, max_size=4), min_size=1, max_size=4
    )


class TestIntegerSearch:
    @settings(max_examples=150, deadline=None)
    @given(exponent_sets(rational_exponents), st.sampled_from(SCALES))
    def test_rational_candidates_match_reference(self, exponents, scale):
        assert search_candidates(exponents, scale) == search_reference(
            exponents, scale
        )

    @settings(max_examples=150, deadline=None)
    @given(exponent_sets(surd_exponents), st.sampled_from(SCALES))
    def test_surd_candidates_match_reference(self, exponents, scale):
        assert search_candidates(exponents, scale) == search_reference(
            exponents, scale
        )

    def test_surd_parts_must_cancel(self):
        # the rational parts pass for all eight choices, the surds cancel in two
        e = [
            [1 + SQRT2, 1 - SQRT2, 1 + SQRT3, Scalar.coerce(2)],
            [2 + SQRT2, Scalar.coerce(3)],
        ]
        got = search_candidates(e, F(1))
        assert got == [(1, [0, 0]), (1, [3, 1])]
        assert got == search_reference(e, F(1))


class TestCase3Chain:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([4, 6, 12]),
        st.lists(small_fractions, min_size=1, max_size=3, unique=True),
        st.lists(small_fractions, min_size=0, max_size=3),
        st.lists(small_fractions, min_size=0, max_size=5),
        st.lists(small_fractions, min_size=0, max_size=4),
    )
    def test_matches_poly_recursion(self, n, roots, theta, r2, p):
        s_poly = Poly([1])
        for c in roots:
            s_poly = s_poly * Poly([-c, 1])
        s_theta, s2r, p = Poly(theta), Poly(r2), Poly(p)
        d, (s, t, r2_ints) = _integer_lists(s_poly, s_theta, s2r)
        assert all(isinstance(c, int) for c in s + t + r2_ints)
        q, q_den = p._integer_form()
        chain = _kovacic_chain(q, s, t, r2_ints, d, n)
        seq = case3_sequence_reference(p, s_poly, s_theta, s2r, n)
        assert len(chain) == len(seq) == n + 2
        for i in range(-1, n + 1):
            got = Poly(chain[i + 1]).scale(F(1, q_den * d ** (n - i)))
            assert got == seq[i + 1]

    @pytest.mark.parametrize("n", [4, 6, 12])
    def test_tower_coefficients(self, n):
        s_poly = X**2 - 2
        s_theta = Poly([F(1, 2) * SQRT2, F(3, 4)])
        s2r = Poly([F(-3, 16), SQRT2, F(1, 3)])
        p = Poly([SQRT2, F(1, 2), 1])
        d, lists = _integer_lists(s_poly, s_theta, s2r)
        assert d == 1
        chain = _kovacic_chain(p.coeffs, *lists, d, n)
        seq = case3_sequence_reference(p, s_poly, s_theta, s2r, n)
        assert [Poly(q) for q in chain] == seq

    def test_setup_is_the_pole_product_at_order_two(self):
        # every pole of order 2, as Case 3 requires: L = S = prod (x - c),
        # so its images are those of Kovacic's S-scaled recursion
        r = parse_ratfunc(
            "-3/(16*x^2) - 2/(9*(x - 1)^2) + 1/(x^2 - 2)^2 + 1/(x*(x - 1))"
        )
        poles = r.poles()
        assert sorted(o for _, o in poles) == [2, 2, 2, 2]
        l_poly, cofactors, l2r = kovacic._chain_setup(r, poles)
        s_poly = X * (X - 1) * (X**2 - 2)
        assert l_poly == s_poly
        assert cofactors == [s_poly.exact_div(Poly([-c, 1])) for c, _ in poles]
        assert l2r == (rf(s_poly) ** 2 * r).as_poly()


def test_search_makes_no_scalar_arithmetic():
    # the Moebius Case 4 input: every exponent rational, so the search
    # itself (its builders aside) stays on integers
    rho = mobius_pullback(hypergeometric_rho(F(1, 3), F(1, 4), F(1, 7)))
    calls, inside = [], [False]

    def counting(name):
        method = getattr(Scalar, name)

        def wrapper(*args):
            if inside[0]:
                calls.append(name)
            return method(*args)

        return wrapper

    def quiet(build):
        def wrapped(*args):
            inside[0] = False
            try:
                return build(*args)
            finally:
                inside[0] = True

        return wrapped

    def search(exponents, tags, scale, build):
        inside[0] = True
        try:
            return _search(exponents, tags, scale, quiet(build))
        finally:
            inside[0] = False

    with pytest.MonkeyPatch.context() as mp:
        for name in ("__sub__", "__rsub__", "__mul__", "__rmul__"):
            mp.setattr(Scalar, name, counting(name))
        mp.setattr(kovacic, "_search", search)
        assert case3(rho) is None
        assert solve_rlde(rho).case == 4
    assert calls == []


# -- cleared polynomial operators against the RatFunc operators they
# replaced: the same solution from the same system times a polynomial


def monic_solution_reference(images):
    """The monic kernel polynomial from Poly or RatFunc images of x^j:
    clear the lcm of the denominators and solve with linalg.solve."""
    m = len(images) - 1
    images = [RatFunc.coerce(im) for im in images]
    den = Poly([1])
    for im in images:
        den = (den * im.den).exact_div(gcd(den, im.den))  # the lcm
    nums = [im.num * den.exact_div(im.den) for im in images]
    max_deg = max(n.degree() for n in nums)
    if max_deg < 0:
        return Poly.monomial(1, m)
    if m == 0:
        return None
    rows = [[nums[j].coeff(k) for j in range(m)] for k in range(max_deg + 1)]
    sol = solve(rows, [-nums[m].coeff(k) for k in range(max_deg + 1)])
    return None if sol is None else Poly(list(sol) + [1])


def case1_operator(r, omega, q):
    """Case 1's operator q'' + 2 omega q' + (omega' + omega^2 - r) q on
    RatFuncs."""
    return (
        RatFunc.coerce(q.derivative().derivative())
        + 2 * omega * RatFunc.coerce(q.derivative())
        + (omega.derivative() + omega * omega - r) * RatFunc.coerce(q)
    )


def case1_reference(r, omega, m):
    """The monic kernel polynomial of degree m of case1_operator."""
    return monic_solution_reference(
        [case1_operator(r, omega, Poly.monomial(1, j)) for j in range(m + 1)]
    )


def case2_reference(r, theta, m):
    """Case 2's operator P''' + 3 theta P'' + coef1 P' + coef0 P on
    RatFuncs."""
    tp = theta.derivative()
    coef1 = 3 * tp + 3 * theta * theta - 4 * r
    coef0 = (
        tp.derivative() + 3 * theta * tp + theta**3 - 4 * r * theta
        - 2 * r.derivative()
    )

    def op(q):
        q1 = q.derivative()
        q2 = q1.derivative()
        return (
            RatFunc.coerce(q2.derivative())
            + 3 * theta * RatFunc.coerce(q2)
            + coef1 * RatFunc.coerce(q1)
            + coef0 * RatFunc.coerce(q)
        )

    return monic_solution_reference(
        [op(Poly.monomial(1, j)) for j in range(m + 1)]
    )


def theta_reference(poles, exponents, scale):
    """theta = sum scale e_c / (x - c) over the poles, on RatFuncs."""
    theta = RatFunc.coerce(0)
    for (c, _), e_c in zip(poles, exponents):
        theta = theta + RatFunc(Poly([e_c * scale]), Poly([-c, 1]))
    return theta


def verify_case1_reference(r, omega, p):
    """The Case 1 identity on RatFuncs."""
    return case1_operator(r, omega, p).is_zero()


@st.composite
def case1_instances(draw):
    """(A, B, r, P, perturbed): omega = A/B (not reduced: A may share a
    factor with B), P monic, and r = omega' + omega^2 + (P'' + 2 omega
    P') / P, so that P solves Case 1's equation, or that r plus c/(x - d),
    so that it does not.  A carries sqrt(2) at times."""
    points = draw(st.lists(small_fractions, max_size=2, unique=True))
    b = Poly([1])
    for c in points:
        b = b * Poly([-c, 1]) ** draw(st.integers(1, 2))
    a = Poly(draw(st.lists(small_fractions, max_size=b.degree() + 2)))
    a = a.scale(draw(st.sampled_from([1, 1, 1, SQRT2])))
    m = draw(st.integers(0, 3))
    p = Poly(draw(st.lists(small_fractions, min_size=m, max_size=m)) + [1])
    omega = RatFunc(a, b)
    p1 = RatFunc.coerce(p.derivative())
    r = omega.derivative() + omega * omega + (
        p1.derivative() + 2 * omega * p1
    ) / RatFunc.coerce(p)
    perturbed = draw(st.booleans())
    if perturbed:
        c = draw(small_fractions.filter(bool))
        r = r + RatFunc(Poly([c]), Poly([-draw(small_fractions), 1]))
    return a, b, r, p, perturbed


@st.composite
def case2_instances(draw):
    """(r, poles, exponents, m) with poles of order 1 to 3."""
    den = Poly([1])
    points = st.lists(small_fractions, min_size=1, max_size=2, unique=True)
    for c in draw(points):
        den = den * Poly([-c, 1]) ** draw(st.integers(1, 3))
    num = Poly(draw(st.lists(small_fractions, min_size=1, max_size=4)))
    assume(not num.is_zero())
    r = RatFunc(num, den)
    poles = r.poles()
    assume(poles)
    surds = st.sampled_from([1, 1, SQRT2])
    exponents = [
        Scalar.coerce(draw(small_fractions)) * draw(surds) for _ in poles
    ]
    return r, poles, exponents, draw(st.integers(0, 3))


def case1_chain_lists(a, b, r):
    """(d, [s, t, r2]) of Case 1's chain at n = 1 for omega = A/B and
    r = N/M, scaled by L = B M: L theta = A M and L^2 r = L B N."""
    l_poly = b * r.den
    return _integer_lists(l_poly, a * r.den, l_poly * b * r.num)


def chain_images(r, poles, exponents, m):
    """Images of x^0..x^m under Case 2's P_{-1} map (n = 2, theta = sum
    e_c / (2 (x - c))), from _chain_setup and _kovacic_chain."""
    l_poly, cofactors, l2r = kovacic._chain_setup(r, poles)
    l_theta = kovacic._l_theta(cofactors, exponents, F(1, 2))
    d, (s, t, r2) = _integer_lists(l_poly, l_theta, l2r)
    return [
        _kovacic_chain([0] * j + [1], s, t, r2, d, 2)[0]
        for j in range(m + 1)
    ]


class TestClearedOperators:
    @settings(max_examples=60, deadline=None)
    @given(case1_instances())
    def test_case1_matches_ratfunc_operator(self, instance):
        a, b, r, p, perturbed = instance
        m = p.degree()
        d, (s, t, r2) = case1_chain_lists(a, b, r)
        images = [
            _kovacic_chain([0] * j + [1], s, t, r2, d, 1)[0]
            for j in range(m + 1)
        ]
        got = kovacic._monic_poly_solution(images)
        assert got == case1_reference(r, RatFunc(a, b), m)
        if not perturbed:
            assert got is not None

    @settings(max_examples=60, deadline=None)
    @given(case1_instances())
    def test_chain_at_one_is_case1_operator(self, instance):
        # P_{-1} = -(P'' + 2 theta P' + (theta' + theta^2 - r) P) at
        # n = 1, and the chain returns it times d^2 L^2
        a, b, r, p, _ = instance
        d, (s, t, r2) = case1_chain_lists(a, b, r)
        got = _kovacic_chain(p.coeffs, s, t, r2, d, 1)[0]
        l_poly = rf(b * r.den)
        want = -(d * d) * l_poly * l_poly * case1_operator(r, rf(a, b), p)
        assert rf(Poly(got)) == want

    @settings(max_examples=60, deadline=None)
    @given(case2_instances())
    def test_case2_matches_ratfunc_operator(self, instance):
        r, poles, exponents, m = instance
        images = chain_images(r, poles, exponents, m)
        got = kovacic._monic_poly_solution(images)
        theta = theta_reference(poles, exponents, F(1, 2))
        assert got == case2_reference(r, theta, m)

    @pytest.mark.parametrize(
        "rho",
        [
            "1/x - 3/(16*x^2)",
            "1/x^3 - 3/(16*x^2)",
            "(125/64*x + 1125/128)/(x^5 + 15/2*x^4 + 75/4*x^3 + 145/8*x^2"
            " + 15/2*x + 9/8)",
        ],
    )
    def test_case2_candidates_match_ratfunc_operator(self, rho):
        # every candidate of a Case 2 search, the consistent one included
        r = parse_ratfunc(rho)
        poles = r.poles()
        roots = kovacic._order2_roots(r, poles)
        sets = next(kovacic._exponent_sets(r, poles, roots, 2, [2]))
        found = []

        def check(choice, m):
            images = chain_images(r, poles, choice[:-1], m)
            got = kovacic._monic_poly_solution(images)
            theta = theta_reference(poles, choice[:-1], F(1, 2))
            assert got == case2_reference(r, theta, m)
            found.append(got is not None)

        assert _search(sets, sets, F(1, 2), check) is None
        assert any(found)

    @settings(max_examples=60, deadline=None)
    @given(case1_instances())
    def test_verify_case1_matches_ratfunc_identity(self, instance):
        a, b, r, p, perturbed = instance
        omega = RatFunc(a, b)
        assert verify_case1(r, omega, p) == (not perturbed)
        assert verify_case1_reference(r, omega, p) == (not perturbed)


def test_case1_case2_builders_take_no_gcd_before_solving():
    # a builder forms its operator on polynomials; gcds (RatFunc
    # canonicalisation, lcm) come only after a consistent system
    calls, at_solve, every = [], [], []

    def counting(function):
        def wrapper(*args):
            calls.append(function.__name__)
            every.append(function.__name__)
            return function(*args)

        return wrapper

    def solving(images):
        at_solve.append(list(calls))
        return monic_poly_solution(images)

    def search(exponents, tags, scale, build):
        def fresh(*args):
            calls.clear()
            return build(*args)

        return real_search(exponents, tags, scale, fresh)

    monic_poly_solution = kovacic._monic_poly_solution
    real_search = kovacic._search
    inputs = [
        (case1, "x^2 - 5"),
        (case1, "1/x^4 - 2/x + 3 + x^2"),
        (case1, PINNED[-3]["rho"]),  # c3 poles at +-sqrt(2)
        (case2, "1/x^3 - 3/(16*x^2)"),
        (case2, PINNED[-2]["rho"]),  # a pole of order 3
    ]
    with pytest.MonkeyPatch.context() as mp:
        for name in ("gcd", "_heu_gcd", "_prs_gcd", "_euclid_gcd"):
            mp.setattr(poly_module, name, counting(getattr(poly_module, name)))
        # ratfunc holds its own reference to gcd: point it at the counter
        mp.setattr(ratfunc_module, "gcd", poly_module.gcd)
        mp.setattr(kovacic, "_monic_poly_solution", solving)
        mp.setattr(kovacic, "_search", search)
        for case, rho in inputs:
            r = parse_ratfunc(rho)
            poles = r.poles()
            assert case(r, poles) is not None
    assert len(at_solve) >= len(inputs)
    assert all(seen == [] for seen in at_solve)
    assert "_heu_gcd" in every  # the counters are live


def test_order2_roots_once_per_equation():
    # three poles of order 2: one root each, shared by Cases 1, 2 and 3
    rho = mobius_pullback(hypergeometric_rho(F(1, 3), F(1, 4), F(1, 7)))
    calls = []
    order2_root = kovacic._order2_root

    def counting(r, point):
        calls.append(point)
        return order2_root(r, point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kovacic, "_order2_root", counting)
        assert solve_rlde(rho).case == 4
    assert len(calls) == 3


# -- local monodromy: logarithmic points and projective orders ------------


def fraction_laurent(r, point, count):
    """(valuation, first count coefficients) of r at a rational point, or
    of t^-4 r(1/t) at t = 0 for INFINITY, on plain Fractions."""
    num = [c.as_fraction() for c in r.num.coeffs]
    den = [c.as_fraction() for c in r.den.coeffs]
    if point is INFINITY:
        shift = len(den) - len(num) - 4
        num, den = num[::-1], den[::-1]
    else:
        shift = 0
        c = F(point)
        num, den = (
            [
                sum(p[i] * comb(i, k) * c ** (i - k) for i in range(k, len(p)))
                for k in range(len(p))
            ]
            for p in (num, den)
        )
    vn = next(i for i, v in enumerate(num) if v)
    vd = next(i for i, v in enumerate(den) if v)
    num = num[vn:] + [F(0)] * count
    den = den[vd:] + [F(0)] * count
    out = []
    for k in range(count):
        acc = num[k] - sum(den[i] * out[k - i] for i in range(1, k + 1))
        out.append(acc / den[0])
    return shift + vn - vd, out


def log_reference(r, point):
    """True iff the point (rational or INFINITY) of xi'' = r xi is a
    regular singular point whose local solutions carry a logarithm, by
    the Frobenius recursion for the smaller exponent on Fractions."""
    val, (r0,) = fraction_laurent(r, point, 1)
    if val >= 0:
        return False  # an ordinary point
    assert val >= -2, "an irregular point"
    b = r0 if val == -2 else F(0)  # a simple pole: b = 0, N = 1
    disc = 1 + 4 * b
    n = isqrt(disc.numerator)
    if disc.denominator != 1 or n * n != disc.numerator:
        return False  # N is not an integer
    alpha = (1 - F(n)) / 2
    _, rs = fraction_laurent(r, point, n + 1)
    if val == -1:
        rs = [F(0)] + rs
    a = [F(1)]
    for j in range(1, n + 1):
        lhs = (alpha + j) * (alpha + j - 1) - b
        rhs = sum(rs[k] * a[j - k] for k in range(1, j + 1))
        if lhs == 0:
            return rhs != 0  # j = N: the point is logarithmic iff rhs != 0
        a.append(rhs / lhs)
    return True  # N = 0


def singular_points(r):
    return [c.as_fraction() for c, _ in r.poles()] + [INFINITY]


class TestLogarithmicPoints:
    @pytest.mark.parametrize(
        "rho, point, n, expected",
        [
            ("-1/(4*x^2)", 0, 0, True),  # N = 0: equal exponents
            ("(4 - x^2)/(4*x^4)", INFINITY, 0, True),  # -1/(4t^2) + 1
            ("3/(4*x^2) + 1/x", 0, 2, True),  # r_2 - r_1^2 = -1
            ("3/(4*x^2) + 1/x + 1", 0, 2, False),  # r_2 = r_1^2: apparent
            ("2/x^2 + 1/x", 0, 3, True),
            ("2/x^2 + 1", 0, 3, False),  # spherical Bessel, no logarithm
            ("(2*x^2 + x)/x^4", INFINITY, 3, True),  # 2/t^2 + 1/t at t = 0
            ("(2*x^2 + 1)/x^4", INFINITY, 3, False),  # 2/t^2 + 1
            ("(15/4*x^2 - 15/4*x + 3/4)/(x^4 - 2*x^3 + x^2)", 0, 2, True),
            ("(15/4*x^2 - 15/4*x + 3/4)/(x^4 - 2*x^3 + x^2)", INFINITY, 4, True),
        ],
    )
    def test_order2_points(self, rho, point, n, expected):
        r = parse_ratfunc(rho)
        at = point if point is INFINITY else Scalar.coerce(point)
        root = _order2_root(r, at)
        assert root == n
        assert _frobenius_log(r, at, root) == expected
        assert log_reference(r, point) == expected

    @pytest.mark.parametrize(
        "rho, expected",
        [
            ("1/x", True),  # a simple pole: N = 1, exponents 0 and 1
            ("1/x - 3/(16*x^2)", False),
            ("x/((x - 1)^2*(x + 1)^2)", True),  # order 3 at infinity only
            ("x^2 - 1", False),
            ("2/x^2 + 1", False),
            ("3/(4*x^2) + 1/x", True),
        ],
    )
    def test_whole_equation(self, rho, expected):
        r = parse_ratfunc(rho)
        poles = r.poles()
        assert _logarithmic(r, poles, _order2_roots(r, poles)) == expected
        if r.order_at_infinity() >= 2 and all(o <= 2 for _, o in poles):
            assert any(log_reference(r, p) for p in singular_points(r)) == expected

    def test_large_n_stays_cheap(self):
        # N = 1001 at 0: the recursion runs modulo a prime (0.4 s); on
        # Fractions N = 321 alone took 2.2 s
        n = 1001
        r = parse_ratfunc("%d/x^2 + 1/x + 2/(x - 1)^2" % ((n * n - 1) // 4))
        start = time.perf_counter()
        assert _frobenius_log(r, Scalar.coerce(0), Scalar.coerce(n))
        assert time.perf_counter() - start < 5.0

    def test_tower_points_are_not_tested(self):
        # N = 2 at +-sqrt(2): no logarithm is proved, so the Case 2 and 3
        # searches run and answer
        r = parse_ratfunc("6/(x^2 - 2)^2 + 1/x^2")
        poles = r.poles()
        roots = _order2_roots(r, poles)
        towers = [
            (c, root) for (c, _), root in zip(poles, roots) if not c.is_rational()
        ]
        assert len(towers) == 2
        for c, root in towers:
            assert root == 2 and not _frobenius_log(r, c, root)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([F(-1, 4), F(3, 4), F(2), F(15, 4), F(5, 16)]),
        st.lists(st.integers(-2, 2), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_matches_fraction_recursion(self, b, tail, at_infinity):
        # b x^-2 + sum_k tail[k-1] x^(k-2): N = 0, 2, 3, 4 and 3/2, with
        # small tails that often make the point apparent
        coeffs = [b] + tail
        if at_infinity:
            # sum_k coeffs[k] x^-(k+2): t^-4 r(1/t) has the same expansion
            r = RatFunc(Poly(coeffs[::-1]), X ** (len(coeffs) + 1))
            point = INFINITY
        else:
            r, point = RatFunc(Poly(coeffs), X**2), Scalar.coerce(0)
        root = _order2_root(r, point)
        expected = log_reference(r, point if point is INFINITY else 0)
        assert _frobenius_log(r, point, root) == expected


# Kimura's table families by the projective group (Kimura 1969): 1
# dihedral, 2-3 tetrahedral, 4-5 octahedral, 6-15 icosahedral
FAMILY_N = {2: 4, 3: 4, 4: 6, 5: 6, **{f: 12 for f in range(6, 16)}}


@st.composite
def kimura_pullbacks(draw):
    """(triple, rho): a signed, permuted triple of a Kimura family and
    the Moebius pullback of its hypergeometric potential.  Families 1-5
    get integer offsets in {-1, 0, 1}; the icosahedral ones, whose
    searches grow fast with the offsets, none."""
    family = draw(st.integers(1, 15))
    *heads, parity = _TABLE[family - 1]
    span = (-1, 0, 1) if family <= 5 else (0,)
    offsets = [draw(st.sampled_from(span)) for _ in heads]
    if parity and sum(offsets) % 2:
        offsets[0] += 1
    triple = []
    for head, offset in zip(heads, offsets):
        if head is None:  # family 1's free entry
            head = F(draw(st.integers(1, 5)), draw(st.integers(2, 6)))
        triple.append((head + offset) * draw(st.sampled_from((1, -1))))
    triple = draw(st.permutations(triple))
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    assume(a * d != b * c)
    rho = mobius_pullback(hypergeometric_rho(*triple), a, b, c, d)
    return triple, rho


@settings(max_examples=25, deadline=None)
@given(kimura_pullbacks())
def test_kimura_families_answer_without_logarithms(instance):
    triple, rho = instance
    verdict = kimura_test(ExponentDiffs(*triple))
    res = solve_rlde(rho)
    if verdict.detail["condition"] == "odd-sum":
        assert res.case == 1
        return
    family = verdict.detail["family"]
    if family == 1:
        assert res.case == 2
    else:
        assert res.case == 3 and res.n == FAMILY_N[family]
    # D-infinity and the finite groups hold no unipotent element
    assert not any(log_reference(rho, p) for p in singular_points(rho))


@pytest.mark.parametrize(
    "rho",
    [
        hypergeometric_rho(2, 2, 2),
        hypergeometric_rho(2, 2, 4),
        hypergeometric_rho(3, 3, 2),
        mobius_pullback(hypergeometric_rho(2, 2, 2)),
    ],
    ids=["(2,2,2)", "(2,2,4)", "(3,3,2)", "pullback (2,2,2)"],
)
def test_integer_triples_stop_at_a_logarithm(rho):
    # every exponent set is integral, so without the log rule the
    # search builds hundreds to thousands of candidates (3-61 s)
    start = time.perf_counter()
    assert solve_rlde(rho).case == 4
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "triple, degrees",
    [
        ((F(1, 2), F(1, 3), F(1, 3)), (4, 6, 12)),  # tetrahedral
        ((F(1, 2), F(1, 3), F(1, 4)), (6, 12)),  # octahedral
        ((F(1, 2), F(1, 3), F(1, 5)), (12,)),  # icosahedral
        ((F(1, 2), F(1, 4), F(1, 5)), ()),  # orders 4 and 5
        ((F(1, 3), F(1, 4), F(1, 7)), ()),  # order 7
        ((F(1, 2), F(1, 3), F(7, 6)), ()),  # order 6
        ((F(1, 2), F(1, 3), Scalar.coerce(2).sqrt()), ()),  # infinite
        ((F(1, 2), F(2, 3), F(3)), (4, 6, 12)),  # an integer N: order 1
    ],
)
def test_case3_degrees_from_local_orders(triple, degrees):
    r = hypergeometric_rho(*triple)
    assert _case3_degrees(_order2_roots(r, r.poles())) == degrees


@pytest.mark.parametrize(
    "triple, scales, n",
    [
        # the search at n runs at scale n/12
        ((F(1, 2), F(1, 3), F(1, 3)), [F(1, 3)], 4),
        ((F(1, 2), F(1, 3), F(1, 4)), [F(1, 2)], 6),
        ((F(1, 2), F(1, 3), F(1, 5)), [F(1)], 12),
        ((F(1, 2), F(1, 4), F(1, 5)), [], None),
    ],
)
def test_case3_searches_only_degrees_its_group_can_have(triple, scales, n):
    r = schwarz_hypergeometric(*triple)
    seen = []

    def search(exponents, tags, scale, build):
        seen.append(scale)
        return real_search(exponents, tags, scale, build)

    real_search = kovacic._search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kovacic, "_search", search)
        res = case3(r)
    assert seen == scales
    assert (res and res.n) == n


def counted_setup(mp):
    """Patch _chain_setup, the setup of Cases 1-3, to log its calls by
    name; the log."""
    made = []
    real = kovacic._chain_setup

    def counting(*args):
        made.append("_chain_setup")
        return real(*args)

    mp.setattr(kovacic, "_chain_setup", counting)
    return made


# two equations on which both Case 2 and Case 3 build candidates: Case 4,
# and Case 3
SHARED_SETUP = [
    "(-3/16*x^2 - 3/10*x - 189/400)/(x^4 - 2*x^2 + 1)",
    "(-5/36*x^2 + 35/72*x - 79/72)/(x^4 - 8*x^3 + 22*x^2 - 24*x + 9)",
]


@pytest.mark.parametrize("rho", [r["rho"] for r in PINNED] + SHARED_SETUP)
def test_one_setup_per_equation(rho):
    # Cases 1-3 share one _chain_setup, and a Case 1 omega = A/B has its
    # B dividing that setup's L
    r = parse_ratfunc(rho)
    with pytest.MonkeyPatch.context() as mp:
        made = counted_setup(mp)
        res = solve_rlde(r)
    assert len(made) <= 1
    if res.case == 1:
        l_poly = kovacic._chain_setup(r, r.poles())[0]
        assert l_poly.divmod(res.omega.den)[1].is_zero()


def test_setup_waits_for_a_surviving_candidate():
    # Bessel with n = 1/3: no choice of exponents gives a degree m >= 0
    # in Case 1 or 2, and Case 3 needs order >= 2 at infinity
    n = F(1, 3)
    r = rf(Poly([4 * n * n - 1]), 4 * X**2) - 1
    builds = []

    def search(exponents, tags, scale, build):
        def logged(*args):
            builds.append(scale)
            return build(*args)

        return real_search(exponents, tags, scale, logged)

    real_search = kovacic._search
    with pytest.MonkeyPatch.context() as mp:
        made = counted_setup(mp)
        mp.setattr(kovacic, "_search", search)
        assert solve_rlde(r).case == 4
        assert builds == [] and made == []
        # with survivors, a case sets up once for all its candidates: the
        # (1/3, 1/4, 2) potential builds 63 of them in Case 3 (n = 6, 12)
        r = parse_ratfunc(PINNED[-1]["rho"])
        assert case3(r) is None
        assert len(builds) == 63 and made == ["_chain_setup"]


def test_simple_pole_ends_cases_2_and_3_at_once():
    # a simple pole is logarithmic, which D-infinity and the finite
    # groups rule out: no search, no setup
    r = parse_ratfunc("1/x - 3/(16*x^2) + 1/(x - 1)")
    searched = []
    with pytest.MonkeyPatch.context() as mp:
        made = counted_setup(mp)
        mp.setattr(kovacic, "_search", lambda *args: searched.append(args))
        assert case2(r) is None and case3(r) is None
    assert searched == [] and made == []
    assert solve_rlde(r).case == 4
