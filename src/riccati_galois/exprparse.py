"""Text grammar for scalars, rational functions and planar vector
fields.

Expressions are built from integer literals, bound symbols, the
operators + - * / ^ and sqrt(...).  Precedence, from strongest: ^
(right-associative, integer exponents), unary minus, * and /, then +
and -.  Parsing and evaluation are separate: parse() produces a small
tree, and the evaluators interpret it over the rational-function or
bivariate domains.  Printing is canonical: parsing a printed value
gives the value back.
"""

from fractions import Fraction

from .bivar import BivarPoly, BivarRatFunc, PlanarVectorField
from .poly import Poly
from .ratfunc import RatFunc
from .scalars import Scalar


class ParseError(SyntaxError):
    """Syntax error with the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# The largest exponent, and the largest degree a power may produce: far
# above the degrees of any input the package is meant for, and low
# enough that a short input cannot run for hours.
MAX_EXPONENT = 1000

# The largest size of a power: |exponent| times the bit length of the
# base's largest coefficient times the number of coefficients of the
# result, which estimates the bits the result holds.  (x + 1/3)^1000 is
# about 2*10^6; a nested constant power such as ((2^1000)^1000)^1000
# multiplies the size of its base by its exponent and is stopped here.
MAX_POWER_BITS = 10**7


# -- tokenizer -------------------------------------------------------------

_OPERATORS = set("+-*/^();")


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, at = self.next()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, at)

    def expression(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                right = self.term()
                node = ("add" if value == "+" else "sub", node, right)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                right = self.unary()
                if value == "/" and _syntactic_zero(right):
                    raise ParseError("division by zero", at)
                node = ("mul" if value == "*" else "div", node, right)
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.next()
            # right-associative; the exponent must reduce to an integer
            exponent = self.unary()
            return ("pow", node, exponent, at)
        return node

    def atom(self):
        kind, value, at = self.next()
        if kind == "int":
            return ("int", value)
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value != "sqrt":
                    raise ParseError("unknown function %r" % value, at)
                self.next()
                arg = self.expression()
                self.expect_op(")")
                return ("sqrt", arg, at)
            return ("sym", value, at)
        if kind == "op" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ParseError(
            "expected a literal, symbol or parenthesis", at
        )


def _syntactic_zero(node):
    if node == ("int", 0):
        return True
    if node[0] == "neg":
        return _syntactic_zero(node[1])
    return False


def parse(src):
    """Parse a single expression to a tree; the whole text must be
    consumed."""
    parser = _Parser(_tokenize(src))
    node = parser.expression()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", at)
    return node


# -- evaluation ------------------------------------------------------------


def _eval_int(node, at):
    """Exponent subtrees: integer arithmetic only; at is the position of
    the enclosing ^."""
    op = node[0]
    if op == "int":
        return node[1]
    if op == "neg":
        return -_eval_int(node[1], at)
    if op in ("add", "sub", "mul", "pow"):
        inner = node[3] if op == "pow" else at
        a, b = _eval_int(node[1], inner), _eval_int(node[2], inner)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if b < 0:
            raise ParseError("negative exponent in an exponent", inner)
        # |a|^b > MAX_EXPONENT once |a| or b is too large, so the check
        # computes no power above MAX_EXPONENT^(bit length of MAX_EXPONENT)
        if b > 1 and abs(a) > 1 and (
            abs(a) > MAX_EXPONENT
            or b > MAX_EXPONENT.bit_length()
            or abs(a) ** b > MAX_EXPONENT
        ):
            raise ParseError(
                "power in an exponent above %d" % MAX_EXPONENT, inner
            )
        return a**b
    raise ParseError(
        "exponent must be an integer expression",
        node[-1] if op in ("sym", "sqrt") else at,
    )


def _degree(value):
    """The larger degree of value's numerator and denominator (total
    degree for bivariate values)."""
    if isinstance(value, RatFunc):
        return max(value.num.degree(), value.den.degree())
    return max(value.num.total_degree(), value.den.total_degree())


def _scalar_bits(s: Scalar) -> int:
    if s.is_rational():
        q = s.as_fraction()
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    return max(_scalar_bits(half) for half in s.val)


def _power_bits(base, exponent):
    """The size of base**exponent that MAX_POWER_BITS bounds; a bivariate
    result counts every monomial up to its total degree."""
    polys = [base.num, base.den]
    degree = abs(exponent) * _degree(base)
    if isinstance(base, RatFunc):
        terms = degree + 1
    else:
        polys = [p for b in polys for p in b.w_coeffs()]
        terms = (degree + 1) * (degree + 2) // 2
    bits = max(_scalar_bits(c) for p in polys for c in p.coeffs)
    return abs(exponent) * bits * terms


def _evaluate(node, env, coerce, to_scalar):
    op = node[0]
    if op == "int":
        return coerce(node[1])
    if op == "sym":
        if node[1] not in env:
            raise ParseError("unbound symbol %r" % node[1], node[2])
        return env[node[1]]
    if op == "neg":
        return -_evaluate(node[1], env, coerce, to_scalar)
    if op == "sqrt":
        arg = _evaluate(node[1], env, coerce, to_scalar)
        value = to_scalar(arg)
        if value is None:
            raise ParseError("sqrt of a non-constant expression", node[2])
        return coerce(value.sqrt())
    if op == "pow":
        _, base_node, exponent_node, at = node
        base = coerce(_evaluate(base_node, env, coerce, to_scalar))
        exponent = _eval_int(exponent_node, at)
        if abs(exponent) * max(_degree(base), 1) > MAX_EXPONENT:
            raise ParseError(
                "exponent or degree of a power above %d" % MAX_EXPONENT, at
            )
        if _power_bits(base, exponent) > MAX_POWER_BITS:
            raise ParseError(
                "size of a power above %d bits" % MAX_POWER_BITS, at
            )
        return base**exponent
    left = _evaluate(node[1], env, coerce, to_scalar)
    right = _evaluate(node[2], env, coerce, to_scalar)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    return left / right


def _ratfunc_to_scalar(v: RatFunc):
    if v.num.degree() > 0 or v.den.degree() > 0:
        return None
    if v.num.is_zero():
        return Scalar.coerce(0)
    return v.num.coeffs[0] / v.den.coeffs[0]


def _bivar_to_scalar(v: BivarRatFunc):
    if v.num.total_degree() > 0 or v.den.total_degree() > 0:
        return None
    if v.num.is_zero():
        return Scalar.coerce(0)
    return v.num.terms[(0, 0)] / v.den.terms[(0, 0)]


def _param_env(params, coerce):
    env = {}
    for name, value in (params or {}).items():
        env[name] = coerce(Scalar.coerce(value))
    return env


def parse_ratfunc(src, var="x", params=None) -> RatFunc:
    """Evaluate the expression as a rational function of `var`, with
    the remaining symbols bound through `params`."""
    env = _param_env(params, RatFunc.coerce)
    env[var] = RatFunc(Poly.x())
    return RatFunc.coerce(
        _evaluate(parse(src), env, RatFunc.coerce, _ratfunc_to_scalar)
    )


def parse_scalar(src, params=None) -> Scalar:
    """Evaluate a constant expression to an exact scalar."""
    value = _evaluate(
        parse(src),
        _param_env(params, RatFunc.coerce),
        RatFunc.coerce,
        _ratfunc_to_scalar,
    )
    scalar = _ratfunc_to_scalar(RatFunc.coerce(value))
    if scalar is None:
        raise ParseError("expected a constant expression", 0)
    return scalar


def _component_to_poly(value: BivarRatFunc, at) -> BivarPoly:
    if value.den.total_degree() > 0:
        raise ParseError("vector field components must be polynomial", at)
    # a nonzero denominator of total degree 0 is a nonzero constant
    unit = value.den.terms[(0, 0)]
    return value.num * BivarPoly.coerce(Scalar.coerce(1) / unit)


def _bivar_env(params):
    """Bindings for x, the fiber y (also w) and the parameters."""
    env = _param_env(params, BivarRatFunc.coerce)
    env["x"] = BivarRatFunc.coerce(BivarPoly.var_x())
    env["y"] = env["w"] = BivarRatFunc.coerce(BivarPoly.var_w())
    return env


def parse_bivarpoly(src, params=None) -> BivarPoly:
    """A polynomial in the variables x and y (fiber also accepted as
    w), e.g. an algebraic-curve equation."""
    env = _bivar_env(params)
    value = BivarRatFunc.coerce(
        _evaluate(parse(src), env, BivarRatFunc.coerce, _bivar_to_scalar)
    )
    return _component_to_poly(value, 0)


def parse_vectorfield(src, params=None) -> PlanarVectorField:
    """Two semicolon-separated polynomial components P; Q in the
    variables x and y (the fiber variable is also accepted as w)."""
    env = _bivar_env(params)
    parser = _Parser(_tokenize(src))
    first_at = parser.peek()[2]
    first = parser.expression()
    parser.expect_op(";")
    second_at = parser.peek()[2]
    second = parser.expression()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", at)
    components = []
    for node, at in ((first, first_at), (second, second_at)):
        value = BivarRatFunc.coerce(
            _evaluate(node, env, BivarRatFunc.coerce, _bivar_to_scalar)
        )
        components.append(_component_to_poly(value, at))
    return PlanarVectorField(components[0], components[1])


# -- printing --------------------------------------------------------------


def print_canonical(value) -> str:
    """Deterministic rendering; parsing the output reproduces the
    value."""
    if isinstance(value, PlanarVectorField):
        return "%s; %s" % (value.p, value.q)
    if isinstance(
        value, (Scalar, Poly, RatFunc, BivarPoly, BivarRatFunc)
    ):
        return str(value)
    if isinstance(value, (int, Fraction)):
        return str(Scalar.coerce(value))
    raise TypeError("no canonical rendering for %r" % type(value))
