from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from riccati_galois.applications import hypergeometric_rho
from riccati_galois.kovacic import solve_rlde
from riccati_galois.poly import Poly
from riccati_galois.ratfunc import RatFunc
from riccati_galois.scalars import Scalar
from riccati_galois.specialfn import (
    BiconfluentParams,
    CriterionVerdict,
    ExponentDiffs,
    LameParams,
    OrthFamilyRow,
    WhittakerParams,
    bessel_test,
    biconfluent_heun_test,
    kimura_test,
    lame_classify,
    lame_reduced,
    martinet_ramis_test,
    orth_family,
    orth_polynomial,
    orth_reduced_rho,
    orth_solution,
    pi_determinant,
    pi_matrix,
)


X = Poly.x()


def rf(num, den=1):
    return RatFunc(num, den)


def schwarz_rho(lam, mu, nu):
    b0 = (F(lam) ** 2 - 1) / 4
    b1 = (F(mu) ** 2 - 1) / 4
    binf = (F(nu) ** 2 - 1) / 4
    c = binf - b0 - b1
    return (
        rf(Poly([b0]), X**2)
        + rf(Poly([b1]), (X - 1) ** 2)
        + rf(Poly([c]), X * (X - 1))
    )


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# the solver cross-checks stay within unit exponent differences: every
# table row lives there, and large differences make the case-3 search
# expensive without adding coverage
unit_fracs = st.fractions(min_value=-1, max_value=1, max_denominator=6)


class TestKimura:
    @pytest.mark.parametrize(
        "triple,verdict",
        [
            ((1, 0, 0), True),  # odd signed sum
            ((F(1, 2), F(1, 2), F(7, 3)), True),  # family 1, third entry free
            ((F(1, 2), F(1, 3), F(1, 3)), True),
            ((F(2, 3), F(1, 3), F(1, 3)), True),
            ((F(1, 2), F(1, 3), F(1, 4)), True),
            ((F(1, 2), F(1, 3), F(1, 5)), True),
            ((F(2, 5), F(2, 5), F(2, 5)), True),
            ((F(3, 5), F(2, 5), F(1, 3)), True),
            ((0, 0, 0), False),
            ((F(1, 2), F(1, 3), F(1, 7)), False),
            ((F(1, 5), F(1, 7), F(1, 9)), False),
        ],
    )
    def test_known_instances(self, triple, verdict):
        assert kimura_test(ExponentDiffs(*triple)).is_integrable == verdict

    def test_parity_constraint(self):
        # family 5 needs an even offset sum: (2/3, 1/4, 5/4) shifts the
        # third entry by 1 and fits no other row, so it must fail,
        # while a shift by 2 keeps the parity and passes
        assert not kimura_test(
            ExponentDiffs(F(2, 3), F(1, 4), F(5, 4))
        ).is_integrable
        assert kimura_test(
            ExponentDiffs(F(2, 3), F(1, 4), F(9, 4))
        ).is_integrable

    @given(small_fracs, small_fracs, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_signed_permutation_invariance(self, a, b, c):
        base = kimura_test(ExponentDiffs(a, b, c)).is_integrable
        for perm in permutations((a, b, c)):
            for signs in product((1, -1), repeat=3):
                mixed = tuple(s * v for s, v in zip(signs, perm))
                assert kimura_test(ExponentDiffs(*mixed)).is_integrable == base

    @given(unit_fracs, unit_fracs, unit_fracs)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_kovacic(self, a, b, c):
        verdict = kimura_test(ExponentDiffs(a, b, c))
        res = solve_rlde(schwarz_rho(a, b, c))
        assert verdict.is_integrable == (res.case != 4)

    def test_irrational_not_integrable(self):
        # no signed sum is odd, family 1 does not fit and families 2-15
        # need rational entries: not integrable, and Kovacic agrees
        s2, s3 = Scalar.coerce(2).sqrt(), Scalar.coerce(3).sqrt()
        for triple in [
            (s2, F(1, 3), F(1, 3)),
            (s2, F(1, 2), F(1, 3)),
            (s2, s3, F(1, 2)),
        ]:
            v = kimura_test(ExponentDiffs(*triple))
            assert v.status == CriterionVerdict.NOT_INTEGRABLE
            assert solve_rlde(hypergeometric_rho(*triple)).case == 4

    @pytest.mark.parametrize(
        "triple",
        [(F(1, 2), F(1, 2), 2), (2, F(-1, 2), F(3, 2)), (F(5, 2), -3, F(1, 2))],
    )
    def test_irrational_family_one(self, triple):
        # family 1 leaves one entry free: two entries in 1/2 + Z make
        # the equation integrable whatever the third, here sqrt(2) or
        # sqrt(-3); Kovacic confirms
        e = tuple(Scalar.coerce(t).sqrt() if isinstance(t, int) else t
                  for t in triple)
        v = kimura_test(ExponentDiffs(*e))
        assert v.is_integrable
        assert v.detail["family"] == 1
        assert solve_rlde(hypergeometric_rho(*e)).case != 4

    def test_irrational_odd_sum(self):
        s2 = Scalar.coerce(2).sqrt()
        v = kimura_test(ExponentDiffs(s2, -s2, 3))
        assert v.is_integrable


class TestMartinetRamis:
    @pytest.mark.parametrize(
        "kappa,mu,verdict",
        [
            (F(1, 2), 0, True),
            (F(3, 2), 0, True),
            (0, F(1, 2), True),
            (F(1, 4), F(1, 4), True),
            (F(1, 2), 1, True),
            (0, 0, False),
            (F(1, 2), F(1, 2), False),
            (0, F(1, 4), False),
            (F(1, 3), F(1, 3), False),
        ],
    )
    def test_known_instances(self, kappa, mu, verdict):
        v = martinet_ramis_test(WhittakerParams(kappa, mu))
        assert v.is_integrable == verdict

    @given(small_fracs, small_fracs)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_kovacic(self, kappa, mu):
        p = WhittakerParams(kappa, mu)
        verdict = martinet_ramis_test(p)
        res = solve_rlde(p.reduced_rho())
        assert verdict.is_integrable == (res.case != 4)

    def test_exclusive_reading(self):
        # kappa + mu = 1/2 exactly: only the zero-inclusive reading
        # accepts it, and that reading matches the solver
        p = WhittakerParams(F(1, 4), F(1, 4))
        assert martinet_ramis_test(p).is_integrable
        assert solve_rlde(p.reduced_rho()).case != 4

    def test_sign_symmetry(self):
        for kappa, mu in [(F(1, 2), F(3, 2)), (F(1, 4), F(1, 4))]:
            base = martinet_ramis_test(WhittakerParams(kappa, mu)).is_integrable
            for sk, sm in product((1, -1), repeat=2):
                v = martinet_ramis_test(WhittakerParams(sk * kappa, sm * mu))
                assert v.is_integrable == base


class TestBessel:
    @pytest.mark.parametrize(
        "n,verdict",
        [
            (F(1, 2), True),
            (F(-1, 2), True),
            (F(7, 2), True),
            (0, False),
            (1, False),
            (F(1, 3), False),
        ],
    )
    def test_half_odd_rule(self, n, verdict):
        assert bessel_test(n).is_integrable == verdict

    @given(small_fracs)
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_kovacic(self, n):
        # reduced Bessel: rho = (4n^2 - 1)/(4x^2) - 1
        r = rf(Poly([4 * F(n) ** 2 - 1]), 4 * X**2) - rf(1)
        assert bessel_test(n).is_integrable == (solve_rlde(r).case != 4)


class TestPiDeterminant:
    def test_size_one(self):
        assert pi_determinant(0, 0, 1, 2, 5, -2, 7) == Scalar.coerce(7)

    def test_size_two_pattern(self):
        # [[w, u], [xi, w + v]]
        val = pi_determinant(1, 0, 1, 2, 3, -2, 5)
        assert val == Scalar.coerce(5 * 8 + 4)

    def test_band_structure(self):
        m = pi_matrix(3, 1, 2, 3, 4, 5, 6)
        for i in range(4):
            for j in range(4):
                if abs(i - j) > 1:
                    assert m[i][j].is_zero()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            pi_determinant(-1, 0, 0, 0, 0, 0, 0)

    @given(
        st.integers(min_value=0, max_value=5),
        *(st.fractions(min_value=-4, max_value=4, max_denominator=3)
          for _ in range(6)),
    )
    @settings(max_examples=50, deadline=None)
    def test_cofactor_expansion_oracle(self, d, a, b, u, v, xi, w):
        # independent determinant via Laplace expansion on the last row
        def laplace(m):
            n = len(m)
            if n == 1:
                return m[0][0]
            total = Scalar.coerce(0)
            for j in range(n):
                if m[n - 1][j].is_zero():
                    continue
                minor = [row[:j] + row[j + 1:] for row in m[: n - 1]]
                sign = -1 if (n - 1 + j) % 2 else 1
                total = total + sign * m[n - 1][j] * laplace(minor)
            return total

        m = pi_matrix(d, a, b, u, v, xi, w)
        assert pi_determinant(d, a, b, u, v, xi, w) == laplace(m)


class TestBiconfluent:
    def test_clause1(self):
        for d2 in (-5, -1, 1, 3, 7):
            p = BiconfluentParams(1, 5, d2, 0)
            v = biconfluent_heun_test(p)
            assert v.is_integrable and v.detail["clause"] == 1

    def test_clause1_needs_odd(self):
        assert not biconfluent_heun_test(
            BiconfluentParams(1, 5, 2, 0)
        ).is_integrable

    @pytest.mark.parametrize(
        "d1,d2,d3,verdict",
        [
            (5, 3, -10, True),
            (5, 3, 12, False),
            (3, 5, -4, True),
            (3, 5, -14, True),
            (3, 5, 1, False),
            (5, -3, 10, True),
            (5, -3, -10, False),
        ],
    )
    def test_clause2_instances(self, d1, d2, d3, verdict):
        p = BiconfluentParams(1, d1, d2, d3)
        v = biconfluent_heun_test(p)
        assert v.is_integrable == verdict
        if verdict:
            assert v.detail["clause"] == 2
        assert (solve_rlde(p.reduced_rho()).case != 4) == verdict

    @pytest.mark.parametrize(
        "d3,verdict",
        [(-4, True), (-16, True), (0, False), (3, False)],
    )
    def test_clause3_instances(self, d3, verdict):
        p = BiconfluentParams(3, 2, 7, d3)
        v = biconfluent_heun_test(p)
        assert v.is_integrable == verdict
        if verdict:
            assert v.detail["clause"] == 3
        assert (solve_rlde(p.reduced_rho()).case != 4) == verdict

    @given(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-20, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_clause2_sweep_agrees_with_kovacic(self, d1, d3):
        p = BiconfluentParams(1, d1, 3, d3)
        v = biconfluent_heun_test(p)
        assert v.is_integrable == (solve_rlde(p.reduced_rho()).case != 4)

    @given(st.integers(min_value=-20, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_clause3_sweep_agrees_with_kovacic(self, d3):
        p = BiconfluentParams(3, 2, 7, d3)
        v = biconfluent_heun_test(p)
        assert v.is_integrable == (solve_rlde(p.reduced_rho()).case != 4)

    def test_rho_shape(self):
        p = BiconfluentParams(1, 2, 3, 4)
        rho = p.reduced_rho()
        # no x^-2 term when delta0 = 1
        assert rho == rf(Poly([-2, 2, 1])) + rf(2, X)


class TestLame:
    def test_discriminant_guard(self):
        with pytest.raises(ValueError):
            LameParams(1, 0, 3, 1)  # 27 - 27 = 0

    def test_lame_function_cases(self):
        # f = 4x^3 - 4x has roots 0, 1, -1; B equal to a root gives the
        # square-root solution
        for b in (0, 1, -1):
            label, detail = lame_classify(LameParams(1, b, 4, 0))
            assert label == "(i.1)"
            assert detail["kovacic_case"] == 1

    def test_hermite_case(self):
        label, detail = lame_classify(LameParams(1, 2, 4, 0))
        assert label == "(i.2)"

    def test_constant_solution(self):
        assert lame_classify(LameParams(0, 0, 4, 0))[0] == "(i.1)"

    def test_half_integer_case(self):
        assert lame_classify(LameParams(F(3, 2), 5, 4, 0))[0] == "(ii)"

    def test_fractional_membership(self):
        assert lame_classify(LameParams(F(1, 6), 0, 4, 0))[0] == "(iii)"
        assert lame_classify(LameParams(F(-1, 4), 0, 4, 0))[0] == "(iii)"
        assert lame_classify(LameParams(F(3, 10), 0, 4, 0))[0] == "(iii)"

    def test_generic(self):
        assert lame_classify(LameParams(F(-1, 3), 0, 4, 0))[0] == "generic"
        assert lame_classify(LameParams(F(1, 7), 0, 4, 0))[0] == "generic"

    def test_reduced_form(self):
        red = lame_reduced(LameParams(1, 0, 4, 0))
        # rho comes from removing the first-order term of the self-
        # adjoint equation; spot-check one Laurent datum
        assert red.rho.pole_order(Scalar.coerce(0)) == 2


class TestOrthFamilies:
    ALL = [
        ("H", {}),
        ("T", {}),
        ("U", {}),
        ("P", {}),
        ("L", {}),
        ("Lm", {"m": 2}),
        ("C", {"m": F(1, 2)}),
        ("J", {"m": 1, "nu": 2}),
        ("B", {}),
    ]

    @pytest.mark.parametrize("tag,kw", ALL)
    def test_solution_solves_reduced_equation(self, tag, kw):
        row = orth_family(tag, **kw)
        for n in range(6):
            rho = orth_reduced_rho(row, n).rho
            ld = orth_solution(row, n).log_derivative()
            assert (ld.derivative() + ld * ld - rho).is_zero()

    @pytest.mark.parametrize(
        "tag,n,expected",
        [
            ("H", 3, X**3 - F(3, 2) * X),
            ("T", 2, X**2 - F(1, 2)),
            ("P", 2, X**2 - F(1, 3)),
            ("L", 2, X**2 - 4 * X + 2),
            ("U", 1, X),
        ],
    )
    def test_classical_polynomials(self, tag, n, expected):
        assert orth_polynomial(orth_family(tag), n) == expected

    def test_monic(self):
        for tag, kw in self.ALL:
            p5 = orth_polynomial(orth_family(tag, **kw), 5)
            assert p5.degree() == 5
            assert p5.coeffs[5] == Scalar.coerce(1)

    def test_degree_zero(self):
        assert orth_polynomial(orth_family("H"), 0) == Poly([1])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            orth_polynomial(orth_family("H"), -1)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            orth_family("Z")

    def test_eigenvalues(self):
        assert orth_family("H").eigenvalue(3) == Scalar.coerce(6)
        assert orth_family("B").eigenvalue(2) == Scalar.coerce(-6)
        assert orth_family("C", m=F(1, 2)).eigenvalue(2) == Scalar.coerce(6)

    @pytest.mark.parametrize("tag,kw", ALL)
    def test_reduced_is_case1(self, tag, kw):
        # every row is solvable, and by a single exponential-of-rational
        row = orth_family(tag, **kw)
        res = solve_rlde(orth_reduced_rho(row, 3))
        assert res.case == 1
