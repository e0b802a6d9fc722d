from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from riccati_galois import exprparse, ratfunc as ratfunc_module
from riccati_galois.bivar import BivarPoly
from riccati_galois.exprparse import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    ParseError,
    parse,
    parse_ratfunc,
    parse_scalar,
    parse_vectorfield,
    print_canonical,
)
from riccati_galois.poly import Poly
from riccati_galois.ratfunc import RatFunc
from riccati_galois.scalars import Scalar, UnsupportedFieldError
from riccati_galois.specialfn import WhittakerParams


X = Poly.x()

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)


class TestParseRatfunc:
    def test_whittaker_shape(self):
        r = parse_ratfunc(
            "1/4 - k/x + (4*m^2-1)/(4*x^2)",
            params={"k": F(1, 2), "m": F(1, 3)},
        )
        assert r == WhittakerParams(F(1, 2), F(1, 3)).reduced_rho()

    def test_polynomial(self):
        assert parse_ratfunc("x^2 - 1") == RatFunc(Poly([-1, 0, 1]))

    def test_sqrt_adjunction(self):
        r = parse_ratfunc("1/(x-sqrt(2))")
        root = Scalar.coerce(2).sqrt()
        assert r == RatFunc(Poly([1]), Poly([-root, 1]))

    def test_alternate_variable(self):
        assert parse_ratfunc("t^2", var="t") == RatFunc(X**2)

    def test_unbound_symbol(self):
        with pytest.raises(ParseError):
            parse_ratfunc("k*x")

    @pytest.mark.parametrize(
        "src,expected",
        [
            ("-x^2", RatFunc(-(X**2))),  # ^ binds tighter than unary -
            ("(-x)^2", RatFunc(X**2)),
            ("2^3^2", RatFunc.coerce(512)),  # right-associative
            ("x^-1", RatFunc(Poly([1]), X)),
            ("1/2*x", RatFunc(Poly([0, F(1, 2)]))),  # / and * same level
            ("1-2-3", RatFunc.coerce(-4)),  # - left-associative
            ("1+2*x", RatFunc(Poly([1, 2]))),
            ("2*x+1", RatFunc(Poly([1, 2]))),
            ("-2-x", RatFunc(Poly([-2, -1]))),
            ("1/(2*x)", RatFunc(Poly([1]), 2 * X)),
        ],
    )
    def test_precedence_table(self, src, expected):
        assert parse_ratfunc(src) == expected

    @pytest.mark.parametrize(
        "src",
        ["1/0", "x/(1-1)*0/0", "x +", "(x", "sin(x)", "x y", "", "x;1"],
    )
    def test_rejected(self, src):
        with pytest.raises(ParseError):
            parse_ratfunc(src)

    def test_division_by_syntactic_zero_position(self):
        with pytest.raises(ParseError) as err:
            parse_ratfunc("x/-0")
        assert "division by zero" in str(err.value)


class TestParseScalar:
    def test_rational(self):
        assert parse_scalar("3/4 - 1") == Scalar.coerce(F(-1, 4))

    def test_extension(self):
        assert parse_scalar("(1+2*sqrt(5))/3") == (
            1 + 2 * Scalar.coerce(5).sqrt()
        ) / 3

    def test_non_constant_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("x+1")


class TestParseVectorfield:
    def test_s1_shape(self):
        vf = parse_vectorfield("x; e*x + l*y", params={"e": 2, "l": F(1, 3)})
        assert vf.p == BivarPoly.var_x()
        assert vf.q == BivarPoly([2 * X, Poly([F(1, 3)])])

    def test_constant_field(self):
        vf = parse_vectorfield("1; 0")
        assert vf.p == BivarPoly.coerce(1)
        assert vf.q.is_zero()

    def test_cubic_field(self):
        vf = parse_vectorfield("y; x^3")
        assert vf.p == BivarPoly.var_w()
        assert vf.q == BivarPoly.coerce(X**3)

    def test_w_alias(self):
        assert parse_vectorfield("x; w").q == parse_vectorfield("x; y").q

    def test_constant_division_allowed(self):
        vf = parse_vectorfield("x/2; y/2")
        assert vf.p == BivarPoly([F(1, 2) * X])

    def test_non_polynomial_component_rejected(self):
        with pytest.raises(ParseError):
            parse_vectorfield("1/x; y")

    def test_component_count(self):
        with pytest.raises(ParseError):
            parse_vectorfield("x")
        with pytest.raises(ParseError):
            parse_vectorfield("x; y; x")


class TestPrintCanonical:
    @pytest.mark.parametrize(
        "value",
        [
            RatFunc(Poly([1]), Poly([0, -1, 2])),
            RatFunc(Poly([F(1, 2), -2, 1])),
            RatFunc(Poly([]), Poly([1])),
            RatFunc(Poly([-1, 0, 1]), Poly([0, 0, 4])),
        ],
    )
    def test_ratfunc_roundtrip(self, value):
        txt = print_canonical(value)
        assert parse_ratfunc(txt) == value
        assert print_canonical(parse_ratfunc(txt)) == txt

    @pytest.mark.parametrize(
        "value",
        [
            Scalar.coerce(F(-3, 4)),
            Scalar.coerce(2).sqrt(),
            (1 + 2 * Scalar.coerce(5).sqrt()) / 3,
        ],
    )
    def test_scalar_roundtrip(self, value):
        txt = print_canonical(value)
        assert parse_scalar(txt) == value
        assert print_canonical(parse_scalar(txt)) == txt

    def test_nested_radical_roundtrip(self):
        value = (Scalar.coerce(2).sqrt() + 1).sqrt()
        txt = print_canonical(value)
        assert parse_scalar(txt) == value

    def test_vectorfield_roundtrip(self):
        vf = parse_vectorfield("x; 2*x + 1/3*y + y^2")
        txt = print_canonical(vf)
        back = parse_vectorfield(txt)
        assert back.p == vf.p and back.q == vf.q

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            print_canonical(object())

    @given(
        coeffs=st.lists(small_fracs, min_size=1, max_size=4),
        den=st.lists(small_fracs, min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_roundtrip(self, coeffs, den):
        d = Poly(den)
        if d.is_zero():
            return
        value = RatFunc(Poly(coeffs), d)
        txt = print_canonical(value)
        assert parse_ratfunc(txt) == value
        assert print_canonical(parse_ratfunc(txt)) == txt

    @given(value=small_fracs)
    @settings(max_examples=50, deadline=None)
    def test_print_parse_idempotent_on_scalars(self, value):
        txt = print_canonical(Scalar.coerce(value))
        assert print_canonical(parse_scalar(txt)) == txt


class TestAst:
    def test_tree_shape(self):
        # sym, sqrt and pow nodes end with the position of their token
        assert parse("1+2*x") == (
            "add", ("int", 1), ("mul", ("int", 2), ("sym", "x", 4))
        )
        assert parse("sqrt(2)^3") == (
            "pow", ("sqrt", ("int", 2), 0), ("int", 3), 7
        )

    def test_exponent_is_integer_tree(self):
        with pytest.raises(ParseError):
            parse_ratfunc("x^x")

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("1 + $")
        assert err.value.position == 4


class TestEvaluationPositions:
    @pytest.mark.parametrize(
        "src,position",
        [
            ("x; z*y", 3),  # unbound symbol in the second component
            ("x; 1/y", 3),  # second component not a polynomial
            ("1/y; x", 0),
            ("x; sqrt(y) + 1", 3),  # sqrt of a non-constant
        ],
    )
    def test_vectorfield(self, src, position):
        with pytest.raises(ParseError) as err:
            parse_vectorfield(src)
        assert err.value.position == position

    def test_ratfunc(self):
        for src, position in (
            ("1 + y", 4),
            ("x + sqrt(x)", 4),
            ("x^x", 2),
            ("x^(1/2)", 1),
            ("x^(2^-1)", 4),
        ):
            with pytest.raises(ParseError) as err:
                parse_ratfunc(src)
            assert err.value.position == position, src


class TestExponentBound:
    def test_bound_is_inclusive(self):
        assert parse_ratfunc("x^%d" % MAX_EXPONENT).num.degree() == MAX_EXPONENT
        assert parse_ratfunc("(x^2)^%d" % (MAX_EXPONENT // 2)).num.degree() == (
            MAX_EXPONENT
        )
        assert parse_ratfunc("x^(2^9)").num.degree() == 512

    @pytest.mark.parametrize(
        "src,position",
        [
            # just above the bound, so that a regression is slow (about
            # 0.3 s for this power), not memory-exhausting
            ("(x + 1/3)^%d / (x - 1)" % (MAX_EXPONENT + 1), 9),
            ("(x^2)^%d" % (MAX_EXPONENT // 2 + 1), 5),
            ("x^-%d" % (MAX_EXPONENT + 1), 1),
            ("2^%d" % (MAX_EXPONENT + 1), 1),
            ("x^(2^10)", 4),  # a power inside an exponent
            ("x^(2^2^2^2^2)", 6),
        ],
    )
    def test_above_bound_is_a_parse_error(self, src, position):
        with pytest.raises(ParseError) as err:
            parse_ratfunc(src)
        assert err.value.position == position
        assert str(MAX_EXPONENT) in str(err.value)


class TestPowerSizeBound:
    def test_large_inputs_still_parse(self):
        value = parse_ratfunc("(x + 1/3)^%d / (x - 1)" % MAX_EXPONENT)
        assert value.num.degree() == MAX_EXPONENT
        assert parse_scalar("(2^1000)^1000") == 2 ** 10**6
        vf = parse_vectorfield("(x + y + 2^10)^20; 1")
        assert vf.p.total_degree() == 20

    @pytest.mark.parametrize(
        "src,position",
        [
            # a 10^9-bit integer and 1001 coefficients of about 10^6
            # bits: both stop at the outer ^ before any arithmetic
            ("((2^1000)^1000)^1000", 15),
            ("(x + 2^1000)^1000", 12),
        ],
    )
    def test_above_bound_is_a_parse_error(self, src, position):
        with pytest.raises(ParseError) as err:
            parse_ratfunc(src)
        assert err.value.position == position
        assert str(MAX_POWER_BITS) in str(err.value)

    def test_bivariate_power_counts_every_monomial(self):
        # total degree 1000 has about 5*10^5 monomials
        with pytest.raises(ParseError) as err:
            parse_vectorfield("(x + y + 2^1000)^1000; 1")
        assert err.value.position == 16


class TestDivisionByZero:
    @pytest.mark.parametrize(
        "src,position",
        [
            ("1/(x-x)", 1),
            ("(x-x)^-1", 5),
            ("0^-1", 1),
            ("1/sqrt(0)", 1),
            ("x + 2/(1/2 - 1/2)", 5),
            ("(x^2 - x*x)^-3 + 1", 11),
        ],
    )
    def test_ratfunc(self, src, position):
        with pytest.raises(ParseError, match="division by zero") as err:
            parse_ratfunc(src)
        assert err.value.position == position

    def test_scalar_and_param(self):
        with pytest.raises(ParseError, match="division by zero") as err:
            parse_scalar("1/(1-1)")
        assert err.value.position == 1
        with pytest.raises(ParseError, match="division by zero") as err:
            parse_ratfunc("x/a", params={"a": 0})
        assert err.value.position == 1

    def test_vectorfield(self):
        with pytest.raises(ParseError, match="division by zero") as err:
            parse_vectorfield("x; 1/(y-y)")
        assert err.value.position == 4
        with pytest.raises(ParseError, match="division by zero") as err:
            parse_vectorfield("(x-x)^-2; y")
        assert err.value.position == 5


# parameters for the route comparison: two rationals and two surds
ROUTE_PARAMS = {
    "a": F(1, 3),
    "b": F(-5, 2),
    "s": Scalar.coerce(2).sqrt(),
    "t": Scalar.coerce(-3).sqrt(),
}

_constants = st.recursive(
    st.sampled_from(["0", "1", "2", "3", "a", "b", "s", "sqrt(2)"]),
    lambda kids: st.tuples(kids, st.sampled_from("+-*/"), kids).map(
        lambda t: "(%s)%s(%s)" % t
    ),
    max_leaves=3,
)
_plain = st.sampled_from(
    ["x"] * 8 + ["0", "1", "2", "7", "12", "a", "b", "s", "t", "z", "sqrt(x + 1)"]
)
# one leaf in ten is the square root of a constant expression
_leaves = st.tuples(st.integers(min_value=0, max_value=9), _plain, _constants).map(
    lambda t: "sqrt(%s)" % t[2] if t[0] == 0 else t[1]
)


def _render(op, left, right, exponent):
    if op == "^":
        return "(%s)^%d" % (left, exponent)
    if op == "neg":
        return "-(%s)" % left
    return "(%s)%s(%s)" % (left, op, right)


def _branches(kids):
    ops = st.sampled_from(["+", "-", "*", "/", "+", "*", "/", "^", "neg"])
    exponents = st.integers(min_value=-3, max_value=3)
    return st.tuples(ops, kids, kids, exponents).map(lambda t: _render(*t))


# ints, x, rational and surd params, an unbound symbol, sqrt of
# constants and non-constants, + - * /, ^ with negative exponents and
# nested quotients
expression_texts = st.recursive(_leaves, _branches, max_leaves=8)


def reference_ratfunc(src, params):
    """parse_ratfunc as a RatFunc at every node: _evaluate over RatFunc."""
    env = exprparse._param_env(params, RatFunc.coerce)
    env["x"] = RatFunc.x()
    value = exprparse._evaluate(
        parse(src), env, RatFunc.coerce, exprparse._ratfunc_to_scalar
    )
    return RatFunc.coerce(value)


def _outcome(route, src):
    try:
        value = route(src, ROUTE_PARAMS)
    except ParseError as exc:
        return "ParseError", exc.position, str(exc)
    except UnsupportedFieldError:
        return ("UnsupportedFieldError",)
    return value, print_canonical(value)


class TestIntegerFormRoute:
    @settings(max_examples=300, deadline=None)
    @given(expression_texts)
    def test_matches_ratfunc_per_node(self, src):
        got = _outcome(lambda s, p: parse_ratfunc(s, params=p), src)
        ref = _outcome(reference_ratfunc, src)
        if isinstance(ref[0], RatFunc):
            assert isinstance(got[0], RatFunc), (src, got)
            assert got[0] == ref[0], src
            assert got[1] == ref[1], src
        else:
            assert got == ref, src

    def test_examples_match_ratfunc_per_node(self):
        for src in (
            "(1/4*x^2 + 1/4*x - 3/16)/(x^2)",
            "(x - 1/2)^3 / (x^2 - 1/4) + a*x^-2",
            "(s*x + 1)^2 / (2*x - 2/3) - t",
            "((x/3 - 1/6)/(x - 1/2))^-2",
            "sqrt(1/4)*x^0 + 0*x^5 - (2/4)^3",
            "-(x^2 - x*x)",
        ):
            got = parse_ratfunc(src, params=ROUTE_PARAMS)
            ref = reference_ratfunc(src, ROUTE_PARAMS)
            assert got == ref and print_canonical(got) == print_canonical(ref)

    def test_quotient_builds_no_scalar_and_one_canonical_form(self, monkeypatch):
        src = "(-2/9*x^2 - 1099/1200*x - 35/16)/(x^4 + 6*x^3 + 9*x^2)"
        want = reference_ratfunc(src, None)
        built, canonical = [], []
        init = Scalar.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        inner = ratfunc_module._rational_canonical

        def counting_canonical(*args):
            canonical.append(args)
            return inner(*args)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        monkeypatch.setattr(ratfunc_module, "_rational_canonical", counting_canonical)
        value = parse_ratfunc(src)
        assert built == [] and len(canonical) == 1
        monkeypatch.undo()
        assert value == want
