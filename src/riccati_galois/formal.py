"""Formal closed-form expressions built from rational functions.

A FormalProduct is  const * prod base_i^exp_i * exp(int g dx)  with the
integral kept unevaluated.  Its derivative is itself times a rational
function (the logarithmic derivative), which is what every symbolic
verification in this package reduces to.  FormalIntegral wraps an
unevaluated integral of such a product; its only rewrite rule is
d/dx(int f) = f.
"""

from .ratfunc import RatFunc
from .scalars import Scalar


class FormalProduct:
    __slots__ = ("constant", "powers", "integrand")

    def __init__(self, constant=1, powers=(), integrand=0):
        self.constant = Scalar.coerce(constant)
        cleaned = []
        for base, exp in powers:
            base = RatFunc.coerce(base)
            exp = Scalar.coerce(exp)
            if base.is_zero():
                raise ValueError("zero base in a formal product")
            if not exp.is_zero() and not base == 1:
                cleaned.append((base, exp))
        self.powers = tuple(cleaned)
        self.integrand = RatFunc.coerce(integrand)

    def log_derivative(self) -> RatFunc:
        """f'/f as an honest rational function."""
        acc = self.integrand
        for base, exp in self.powers:
            acc = acc + base.derivative() / base * RatFunc.coerce(exp)
        return acc

    def __str__(self):
        parts = []
        if self.constant != 1 or (not self.powers and self.integrand.is_zero()):
            parts.append(str(self.constant))
        for base, exp in self.powers:
            bs = "(%s)" % base
            if exp == 1:
                parts.append(bs)
            else:
                parts.append("%s^(%s)" % (bs, exp))
        if not self.integrand.is_zero():
            parts.append("exp(int (%s) dx)" % self.integrand)
        return " * ".join(parts) if parts else "1"

    def __repr__(self):
        return "FormalProduct(%s)" % self


class FormalIntegral:
    """int inner dx, unevaluated; derivative() returns inner."""

    __slots__ = ("inner",)

    def __init__(self, inner: FormalProduct):
        self.inner = inner

    def derivative(self) -> FormalProduct:
        return self.inner

    def __str__(self):
        return "int (%s) dx" % self.inner

    def __repr__(self):
        return "FormalIntegral(%s)" % self
