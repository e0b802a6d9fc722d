"""Text grammar for scalars, rational functions and planar vector
fields.

Expressions are built from integer literals, bound symbols, the
operators + - * / ^ and sqrt(...).  Precedence, from strongest: ^
(right-associative, integer exponents), unary minus, * and /, then +
and -.  Parsing and evaluation are separate: parse() produces a small
tree, and the evaluators interpret it.  Printing is canonical: parsing a
printed value gives the value back.

parse_ratfunc and parse_scalar (and so every --param and criteria flag)
run _evaluate_form: a subtree whose value is a rational polynomial is
held as its integer form (ints, den), as in poly.py, so + - * and ^ with
an exponent >= 0 are integer list arithmetic, and the power bounds are
read off that form.  The first RatFunc, with its one canonicalisation,
is built at a division by a non-constant, a negative power or a tower
constant, and the first Scalar at a sqrt or for a constant result.  The
bivariate grammar runs _evaluate, with a value of its domain at every
node; over RatFunc that is the reference the tests hold the integer
route to.  Dividing by a value that is zero, or raising it to a negative
power, is a ParseError at the / or ^.
"""

from fractions import Fraction
from math import gcd as igcd

from .bivar import BivarPoly, BivarRatFunc, PlanarVectorField
from .poly import Poly, _rational_coeffs
from .ratfunc import RatFunc
from .scalars import QQ, Scalar


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
# ASCII only: str.isdigit also holds for superscripts and other scripts
_DIGITS = set("0123456789")


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
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
                if value == "*":
                    node = ("mul", node, right)
                else:
                    # the evaluators report a zero divisor at this position
                    node = ("div", node, right, at)
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
    degree for bivariate values; an integer form's denominator is 1)."""
    if type(value) is tuple:
        return max(len(value[0]) - 1, 0)
    if isinstance(value, RatFunc):
        return max(value.num.degree(), value.den.degree())
    return max(value.num.total_degree(), value.den.total_degree())


def _scalar_bits(s: Scalar) -> int:
    if s.is_rational():
        q = s.as_fraction()
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    return max(_scalar_bits(half) for half in s.val)


def _coeff_bits(p: Poly) -> int:
    """The bit size of p's largest coefficient in lowest terms."""
    zz = _rational_coeffs(p)
    if zz is None:
        return max(_scalar_bits(c) for c in p.coeffs)
    return _form_bits(*zz)


def _form_bits(ints, den) -> int:
    """_coeff_bits of ints / den; 1 for the zero polynomial, as for the
    denominator 1."""
    bits = 1
    for c in ints:
        g = igcd(c, den)
        bits = max(bits, (c // g).bit_length(), (den // g).bit_length())
    return bits


def _check_power(base, exponent, at):
    """Stop base**exponent before it is computed when its degree is above
    MAX_EXPONENT or its size above MAX_POWER_BITS: |exponent| times the
    bits of the largest coefficient times the number of coefficients of
    the result (every monomial up to its total degree when bivariate)."""
    n, degree = abs(exponent), _degree(base)
    if n * max(degree, 1) > MAX_EXPONENT:
        raise ParseError(
            "exponent or degree of a power above %d" % MAX_EXPONENT, at
        )
    terms = n * degree + 1
    if type(base) is tuple:
        bits = _form_bits(*base)
    elif isinstance(base, RatFunc):
        bits = max(_coeff_bits(base.num), _coeff_bits(base.den))
    else:
        polys = base.num.w_coeffs() + base.den.w_coeffs()
        bits = max(_coeff_bits(p) for p in polys)
        terms = terms * (terms + 1) // 2
    if n * bits * terms > MAX_POWER_BITS:
        raise ParseError("size of a power above %d bits" % MAX_POWER_BITS, at)
    if exponent < 0 and base.is_zero():
        raise ParseError("division by zero", at)


def _evaluate(node, env, coerce, to_scalar):
    """The value of a tree with every node a coerce()d value: the
    evaluator of the bivariate grammar, and with RatFunc the reference
    the tests hold _evaluate_form to."""
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
        _check_power(base, exponent, at)
        return base**exponent
    left = _evaluate(node[1], env, coerce, to_scalar)
    right = _evaluate(node[2], env, coerce, to_scalar)
    return _binary(node, left, right)


def _binary(node, left, right):
    """+ - * / of two values of one domain; node[3] is the position of
    a /."""
    op = node[0]
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if right.is_zero():
        raise ParseError("division by zero", node[3])
    return left / right


def _evaluate_form(node, env):
    """The value of a tree for parse_ratfunc and parse_scalar.

    A subtree whose value is a rational polynomial evaluates to an
    integer form (ints, den) as in poly.py, with no trailing zero but not
    necessarily in lowest terms, so + - * and ^ are integer list
    arithmetic with no gcd, and a division by a nonzero constant scales
    the form.  A RatFunc, with its one canonicalisation, is first built
    at a division by a non-constant, a negative power or a tower
    constant; from there on the value is a RatFunc, as in _evaluate.
    """
    op = node[0]
    if op == "int":
        return ([node[1]] if node[1] else []), 1
    if op == "sym":
        if node[1] not in env:
            raise ParseError("unbound symbol %r" % node[1], node[2])
        return env[node[1]]
    if op == "neg":
        value = _evaluate_form(node[1], env)
        if type(value) is tuple:
            return [-c for c in value[0]], value[1]
        return -value
    if op == "sqrt":
        value = _form_to_scalar(_evaluate_form(node[1], env))
        if value is None:
            raise ParseError("sqrt of a non-constant expression", node[2])
        return _scalar_form(value.sqrt())
    if op == "pow":
        _, base_node, exponent_node, at = node
        base = _evaluate_form(base_node, env)
        exponent = _eval_int(exponent_node, at)
        if type(base) is tuple and exponent >= 0:
            _check_power(base, exponent, at)
            return _form_pow(base, exponent)
        base = _as_ratfunc(base)
        _check_power(base, exponent, at)
        return base**exponent
    left = _evaluate_form(node[1], env)
    right = _evaluate_form(node[2], env)
    if type(left) is not tuple or type(right) is not tuple:
        return _binary(node, _as_ratfunc(left), _as_ratfunc(right))
    if op == "mul":
        return _form_mul(left, right)
    (f, df), (g, dg) = left, right
    if op == "div":
        if not g:
            raise ParseError("division by zero", node[3])
        if len(g) > 1:
            # the quotient's one canonicalisation
            return RatFunc(
                Poly._from_zz(list(f), df), Poly._from_zz(list(g), dg)
            )
        # times dg / g[0], over a positive denominator
        if g[0] < 0:
            dg = -dg
        return [c * dg for c in f], df * abs(g[0])
    if op == "sub":
        g = [-c for c in g]
    if df != dg:
        f, g, df = [c * dg for c in f], [c * df for c in g], df * dg
    n = min(len(f), len(g))
    out = [a + b for a, b in zip(f, g)] + f[n:] + g[n:]
    while out and not out[-1]:
        out.pop()
    return out, df


def _form_mul(a, b):
    """The product of two integer forms."""
    (f, df), (g, dg) = a, b
    if len(f) < len(g):
        f, g = g, f
    if len(g) <= 1:
        return ([c * g[0] for c in f] if g else []), df * dg
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(g):
        if c:
            for j, d in enumerate(f):
                out[i + j] += c * d
    return out, df * dg


def _form_pow(form, n):
    """form**n, n >= 0.  The form is first put in lowest terms, which
    _check_power's size bound assumes."""
    ints, den = form
    if den != 1:
        k = igcd(den, *ints)
        ints, den = [c // k for c in ints], den // k
    result, base = ([1], 1), (ints, den)
    while n:
        if n & 1:
            result = _form_mul(result, base)
        n >>= 1
        if n:
            base = _form_mul(base, base)
    return result


def _as_ratfunc(value):
    """A value of _evaluate_form as a RatFunc; a polynomial over 1 is
    canonical as it stands."""
    if type(value) is tuple:
        num = Poly._from_zz(list(value[0]), value[1])
        return RatFunc(num, 1, _canonical=True)
    return value


def _scalar_form(s: Scalar):
    """A constant as _evaluate_form holds it."""
    if s.tower is QQ:
        q = s.val
        return ([q.numerator] if q else []), q.denominator
    return RatFunc.coerce(s)


def _form_to_scalar(value):
    """The constant a value of _evaluate_form holds, or None."""
    if type(value) is not tuple:
        return _ratfunc_to_scalar(value)
    ints, den = value
    if len(ints) > 1:
        return None
    return Scalar(QQ, Fraction(ints[0] if ints else 0, den))


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
    env = _param_env(params, _scalar_form)
    env[var] = [0, 1], 1
    return _as_ratfunc(_evaluate_form(parse(src), env))


def parse_scalar(src, params=None) -> Scalar:
    """Evaluate a constant expression to an exact scalar."""
    env = _param_env(params, _scalar_form)
    scalar = _form_to_scalar(_evaluate_form(parse(src), env))
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
