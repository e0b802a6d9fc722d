from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from riccati_galois.applications import (
    AbelLienardParams,
    DegenerateDiscriminant,
    Lienard1Params,
    S1Params,
    S2Params,
    SingularParameterCombination,
    Unsupported,
    abel_lienard_reduce,
    abel_riccati,
    finite_galois_example,
    hypergeometric_rho,
    lienard1_reduce,
    lienard_integrability,
    lienard_table_row,
    orth_invariant_curve,
    orth_lienard_field,
    s1_analyze,
    s1_riccati,
    s2_classify,
    triconfluent_rho,
    worked_examples,
)
from riccati_galois.bivar import BivarPoly
from riccati_galois.kovacic import solve_rlde
from riccati_galois.odeforms import transform_S, transform_T
from riccati_galois.poly import Poly
from riccati_galois.ratfunc import RatFunc
from riccati_galois.scalars import Scalar
from riccati_galois.specialfn import (
    ExponentDiffs,
    WhittakerParams,
    kimura_test,
    martinet_ramis_test,
    orth_family,
    orth_polynomial,
)


X = Poly.x()

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
lienard_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=12)


class TestS1:
    def test_a1_condition(self):
        # b02 = lam = 0 forces 2(kappa +- mu) = 1
        ana = s1_analyze(S1Params(eps=5, lam=0, b20=0, b11=1, b02=0))
        assert ana.kappa == Scalar.coerce(F(1, 2))
        assert ana.mu.is_zero()
        assert ana.condition_a1
        assert ana.verdict.is_integrable

    def test_b1_condition(self):
        ana = s1_analyze(S1Params(eps=2, lam=F(-3, 4), b20=1, b11=2, b02=0))
        assert ana.condition_b1
        assert ana.verdict.is_integrable
        assert (2 * (ana.kappa + ana.mu)).is_odd_integer()

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (5, 1), (7, 4), (1, 6)])
    def test_b1_random_negative_rational(self, p, q):
        lam = F(-p, q)
        ana = s1_analyze(S1Params(eps=1, lam=lam, b20=2, b11=3, b02=0))
        assert ana.condition_b1
        assert ana.verdict.is_integrable

    def test_whittaker_instance(self):
        # full quadratic term: disc = 4, kappa = 0, mu = 1/6
        ana = s1_analyze(S1Params(eps=0, lam=F(1, 3), b20=-1, b11=0, b02=1))
        assert ana.kappa.is_zero()
        assert ana.mu == Scalar.coerce(F(1, 6))
        assert not ana.verdict.is_integrable

    def test_degenerate_discriminant(self):
        with pytest.raises(DegenerateDiscriminant):
            s1_analyze(S1Params(eps=0, lam=0, b20=1, b11=2, b02=1))

    @given(
        eps=small_fracs,
        lam=small_fracs,
        b20=small_fracs,
        b11=small_fracs,
        b02=small_fracs,
    )
    @settings(max_examples=60, deadline=None)
    def test_sqrt_sign_invariance(self, eps, lam, b20, b11, b02):
        if F(b11) ** 2 - 4 * F(b20) * F(b02) == 0:
            return
        ana = s1_analyze(S1Params(eps, lam, b20, b11, b02))
        flipped = martinet_ramis_test(WhittakerParams(-ana.kappa, ana.mu))
        assert flipped.is_integrable == ana.verdict.is_integrable

    @pytest.mark.parametrize(
        "params,case",
        [
            ((0, F(1, 3), -1, 0, 1), 4),
            ((2, 1, -1, 0, 1), 1),
            ((0, 0, 1, 1, 1), 4),
            ((1, -1, -1, 2, 1), 4),
        ],
    )
    def test_criterion_matches_solver(self, params, case):
        # the foliation itself, pushed through the solver, must agree
        # with the closed-form criterion
        p = S1Params(*params)
        ana = s1_analyze(p)
        red, _ = transform_T(s1_riccati(p))
        res = solve_rlde(red.r)
        assert res.case == case
        assert ana.verdict.is_integrable == (res.case != 4)


class TestS2:
    @pytest.mark.parametrize(
        "params,label",
        [
            ((1, 0, 1, 0, 1), "Bernoulli"),
            ((0, 1, 0, 1, 1), "Linear"),
            ((2, 0, 0, 3, 0), "Separable"),
            ((1, 1, 1, 1, 0), "Lienard"),
            ((1, 1, 1, 1, 1), "Unclassified"),
        ],
    )
    def test_clauses(self, params, label):
        assert s2_classify(S2Params(*params)) == label

    def test_clause_order(self):
        # lam = b11 = 0 wins even when the linear clause also matches
        assert s2_classify(S2Params(0, 0, 0, 0, 1)) == "Bernoulli"
        # the separable clause is shadowed when b20 != 0
        assert s2_classify(S2Params(1, 1, 1, 2, 0)) == "Lienard"


class TestOrthCurves:
    def test_degree_zero_curve(self):
        row = orth_family("L")
        curve = orth_invariant_curve(row, 0, 3)
        assert curve.f == BivarPoly([Poly([]), Poly([3])])

    def test_hermite_degree_one(self):
        curve = orth_invariant_curve(orth_family("H"), 1, 1)
        # P_1 = x, so f = w x + 1
        assert curve.f == BivarPoly([Poly([1]), X])

    def test_legendre_degree_two(self):
        row = orth_family("P")
        curve = orth_invariant_curve(row, 2, 2)
        p2 = orth_polynomial(row, 2)
        expected = BivarPoly(
            [row.q * p2.derivative(), Poly([2]) * p2]
        )
        assert curve.f == expected

    def test_zero_mu_rejected(self):
        with pytest.raises(ValueError):
            orth_invariant_curve(orth_family("H"), 1, 0)

    @pytest.mark.parametrize(
        "tag,kwargs",
        [
            ("H", {}),
            ("T", {}),
            ("U", {}),
            ("P", {}),
            ("L", {}),
            ("Lm", {"m": 1}),
            ("C", {"m": 1}),
            ("J", {"m": 1, "nu": 1}),
            ("B", {}),
        ],
    )
    def test_all_rows_verified(self, tag, kwargs):
        row = orth_family(tag, **kwargs)
        for n in range(4):
            mu = Scalar.coerce(F(n + 1, 2))
            field = orth_lienard_field(row, n, mu)
            curve = orth_invariant_curve(row, n, mu)
            # re-verify against the field, never trusting construction
            k = field.cofactor_of(curve.f)
            assert k is not None
            assert k == curve.cofactor


class TestLienardTable:
    @pytest.mark.parametrize(
        "mu,nu,clause",
        [
            (F(-1), F(0), 1),
            (F(-1), F(-1), 1),
            (F(-1, 2), F(-1, 2), 1),
            (F(1, 2), F(7, 3), 2),  # row (a)
            (F(1, 3), F(1, 6), 2),  # row (b)
            (F(1, 4), F(-1, 6), 2),  # row (g)
            (F(1, 3), F(1, 4), 2),  # row (h)
            (F(1, 5), F(1, 10), 2),  # row (m)
        ],
    )
    def test_integrable_instances(self, mu, nu, clause):
        verdict = lienard_integrability(mu, nu)
        assert verdict.is_integrable
        assert verdict.detail["clause"] == clause

    @pytest.mark.parametrize(
        "mu,nu",
        [
            (F(2, 5), F(-3, 4)),
            (F(1, 5), F(-3, 4)),
            (F(1, 7), F(2, 7)),
            (F(1, 3), F(2, 7)),
        ],
    )
    def test_not_integrable_instances(self, mu, nu):
        assert not lienard_integrability(mu, nu).is_integrable

    def test_supplementary_rows_match_solver_corners(self):
        # both equal exponent differences on one fractional class: the
        # solver confirms these are genuinely integrable
        assert lienard_table_row(F(1, 4), F(-1, 6)) == "(g)"
        assert lienard_table_row(F(1, 3), F(-3, 10)) == "(j)"
        assert lienard_table_row(F(1, 5), F(-1, 6)) == "(l)"

    def test_residue_grid_agreement(self):
        # the table is a closed form for the exponent-difference test
        # on (mu, mu, 2 nu + 1); all residue classes live on the
        # denominator-60 grid
        for i in range(60):
            for j in range(60):
                mu, nu = F(i, 60), F(j, 60)
                table = lienard_integrability(mu, nu).is_integrable
                oracle = kimura_test(
                    ExponentDiffs(mu, mu, 2 * nu + 1)
                ).is_integrable
                assert table == oracle, (mu, nu)

    @given(mu=lienard_fracs, nu=lienard_fracs)
    @settings(max_examples=200, deadline=None)
    def test_random_agreement(self, mu, nu):
        table = lienard_integrability(mu, nu).is_integrable
        oracle = kimura_test(ExponentDiffs(mu, mu, 2 * nu + 1)).is_integrable
        assert table == oracle


class TestLienardReduce:
    def test_first_derived_instance(self):
        red = lienard1_reduce(Lienard1Params(a=0, b=1, c=1, m=1, k=1))
        assert red.mu == Scalar.coerce(-1)
        assert red.nu_quadratic[0].is_zero()
        roots = {r.key() for r in red.nu_roots}
        assert roots == {Scalar.coerce(0).key(), Scalar.coerce(-1).key()}
        assert red.verdict.is_integrable
        assert red.verdict.detail["clause"] == 1

    def test_second_derived_instance(self):
        red = lienard1_reduce(Lienard1Params(a=0, b=1, c=1, m=1, k=0))
        assert red.mu == Scalar.coerce(F(-1, 2))
        assert red.nu_roots[0] == Scalar.coerce(F(-1, 2))
        assert red.verdict.is_integrable
        assert red.verdict.detail["clause"] == 1

    def test_zero_m_rejected(self):
        with pytest.raises(SingularParameterCombination):
            lienard1_reduce(Lienard1Params(a=1, b=1, c=1, m=0, k=1))

    def test_singular_denominator(self):
        # m c - 2 a b m^2 = 0
        with pytest.raises(SingularParameterCombination):
            lienard1_reduce(Lienard1Params(a=1, b=1, c=2, m=1, k=1))

    def test_irrational_nu(self):
        # 1 - 4C < 0: nu leaves the rationals, and mu = -3/2 puts the
        # pair in row (a), the row that leaves nu free
        red = lienard1_reduce(Lienard1Params(a=1, b=1, c=1, m=1, k=2))
        assert not red.nu_roots[0].is_rational()
        assert red.verdict.is_integrable
        assert red.verdict.detail == {"clause": 2, "row": "(a)"}
        assert self._kovacic_liouvillian(red)

    def test_irrational_nu_outside_row_a(self):
        # mu = -1 and nu = -1/2 + sqrt(-3)/2: no clause fits, and Kovacic
        # finds Case 4
        red = lienard1_reduce(Lienard1Params(a=1, b=1, c=1, m=1, k=1))
        assert red.mu == Scalar.coerce(-1)
        assert not red.nu_roots[0].is_rational()
        assert not red.verdict.is_integrable
        assert not self._kovacic_liouvillian(red)

    @staticmethod
    def _kovacic_liouvillian(red):
        # the Legendre equation with parameters (mu, nu) has exponent
        # differences (mu, mu, 2 nu + 1)
        rho = hypergeometric_rho(red.mu, red.mu, 2 * red.nu_roots[0] + 1)
        return solve_rlde(rho).case != 4

    def test_root_choice_irrelevant(self):
        # the two roots sum to -1, and the criterion is invariant
        # under nu -> -1 - nu
        for params in ((0, 1, 1, 1, 3), (1, 1, 3, 1, 2), (0, 2, 5, 2, 1)):
            red = lienard1_reduce(Lienard1Params(*params))
            v0 = lienard_integrability(red.mu, red.nu_roots[0])
            v1 = lienard_integrability(red.mu, red.nu_roots[1])
            assert v0.is_integrable == v1.is_integrable


class TestAbelLienard:
    def test_printed_potential_formula(self):
        # the reduced potential has the closed form
        # ((b^2-4ac')/4)x^2 ... with poles only at gamma x + c = 0
        import random

        random.seed(7)
        checked = 0
        while checked < 50:
            a, b, c, al, be, ga = (
                F(random.randint(-5, 5), random.randint(1, 3))
                for _ in range(6)
            )
            if ga == 0 and c == 0:
                continue
            red, _ = transform_T(
                abel_riccati(AbelLienardParams(a, b, c, al, be, ga))
            )
            lin = Poly([c]) + ga * X
            expected = (
                RatFunc(
                    Poly(
                        [
                            b * b / 4 - a * c,
                            -(2 * a * ga + 2 * al * c - b * be) / 2,
                            (be * be - 4 * al * ga) / 4,
                        ]
                    )
                )
                + RatFunc(Poly([b * ga - be * c]), 2 * lin)
                + RatFunc(Poly([3 * ga * ga]), 4 * lin * lin)
            )
            assert red.r == expected
            checked += 1

    def test_chain_example(self):
        res = abel_lienard_reduce(
            AbelLienardParams(a=0, b=0, c=0, alpha=F(-1, 4), beta=0, gamma=1)
        )
        assert res.params.delta0 == Scalar.coerce(2)
        assert res.params.delta1.is_zero()
        assert res.params.delta2.is_zero()
        assert res.params.delta3.is_zero()
        assert res.verdict.is_integrable
        # the scaled potential really is the biconfluent one
        assert solve_rlde(res.phi).case == 1

    def test_degenerate_linear_branch(self):
        res = abel_lienard_reduce(
            AbelLienardParams(a=1, b=2, c=3, alpha=5, beta=0, gamma=0)
        )
        assert res.params is None
        assert not res.verdict.is_integrable

    def test_degenerate_constant_branch(self):
        res = abel_lienard_reduce(
            AbelLienardParams(a=1, b=2, c=3, alpha=0, beta=0, gamma=0)
        )
        assert res.verdict.is_integrable

    def test_unsupported_branches(self):
        with pytest.raises(Unsupported):
            abel_lienard_reduce(AbelLienardParams(1, 1, 1, 1, 2, 0))
        with pytest.raises(Unsupported):
            abel_lienard_reduce(AbelLienardParams(1, 1, 1, 1, 2, 1))

    @given(
        a=small_fracs,
        b=small_fracs,
        c=small_fracs,
        alpha=small_fracs,
        beta=small_fracs,
        gamma=small_fracs,
    )
    @settings(max_examples=40, deadline=None)
    def test_biconfluent_shape(self, a, b, c, alpha, beta, gamma):
        if F(gamma) == 0 or F(beta) ** 2 - 4 * F(alpha) * F(gamma) == 0:
            return
        res = abel_lienard_reduce(
            AbelLienardParams(a, b, c, alpha, beta, gamma)
        )
        assert res.params.delta0 == Scalar.coerce(2)
        assert res.phi == res.params.reduced_rho()

    @pytest.mark.parametrize(
        "a,b,c,beta", [(0, 1, 2, 0), (-1, 1, 0, -1), (3, 0, -1, -3), (2, -3, 2, 2)]
    )
    def test_verdict_matches_solver(self, a, b, c, beta):
        # gamma = 1 and alpha = (beta^2 - 4)/4 keep the scaling
        # constant rational, so the solver can check the verdict
        alpha = (F(beta) ** 2 - 4) / 4
        res = abel_lienard_reduce(AbelLienardParams(a, b, c, alpha, beta, 1))
        case = solve_rlde(res.phi).case
        assert res.verdict.is_integrable == (case != 4)


class TestWorkedExamples:
    def test_cases(self):
        report = {ex.name: ex for ex in worked_examples()}
        assert report["dihedral-2"].case == 2
        assert report["dihedral-3"].case == 2
        assert report["tetrahedral"].case == 3
        assert report["octahedral"].case == 3
        assert report["triconfluent-0"].case == 4
        assert report["triconfluent-1"].case == 4

    def test_case3_first_integral_labels(self):
        report = {ex.name: ex for ex in worked_examples()}
        assert report["tetrahedral"].first_integral == "rational"
        assert report["octahedral"].first_integral == "rational"
        assert report["dihedral-2"].first_integral is None

    def test_hypergeometric_rho_exponent_differences(self):
        # local data: at 0 the c_{-2} coefficient is (lam^2 - 1)/4
        rho = hypergeometric_rho(F(1, 2), F(1, 3), F(1, 5))
        start, coeffs = rho.laurent_at(0, 1)
        assert start == -2
        assert coeffs[0] == Scalar.coerce((F(1, 2) ** 2 - 1) / 4)
        start, coeffs = rho.laurent_at(1, 1)
        assert start == -2
        assert coeffs[0] == Scalar.coerce((F(1, 3) ** 2 - 1) / 4)
        # at infinity rho ~ (nu^2 - 1) / 4x^2
        top, coeffs = rho.laurent_at_infinity(1)
        assert top == -2
        assert coeffs[0] == Scalar.coerce((F(1, 5) ** 2 - 1) / 4)

    def test_hypergeometric_rho_octahedral_is_case3(self):
        # (1/2, 1/3, 1/4) is in Schwarz's list: a finite primitive group
        diffs = (F(1, 2), F(1, 3), F(1, 4))
        res = solve_rlde(hypergeometric_rho(*diffs))
        assert res.case == 3
        assert kimura_test(ExponentDiffs(*diffs)).is_integrable

    def test_finite_galois_example_is_hypergeometric(self):
        # the reduced form has regular singular points at 0, 1 only
        red, _ = transform_S(finite_galois_example(F(1, 3)))
        assert {c.as_fraction() for c, _ in red.rho.poles()} == {F(0), F(1)}

    def test_triconfluent_rho_zero_parameters(self):
        assert triconfluent_rho(0, 0, 0) == RatFunc(
            Poly([0, 0, 0, 0, F(9, 4)])
        )
