"""Exact arithmetic in a tower of quadratic extensions of Q.

A Scalar is an element of Q(sqrt(d1), ..., sqrt(dk)) where each radicand is
either a square-free integer or a previously constructed Scalar that is not a
square in the field below.

A value has one representation.  Over QQ it is a Fraction; over a tower T it
is the pair (lo, hi) meaning lo + hi*sqrt(T.radicand), where lo and hi are
Scalars of the same form over ancestors of T.base and hi != 0.  Arithmetic
recurses on the two halves, and a result whose top half cancels is its lower
half, so every value sits in the lowest tower of its chain that holds it and
equality with zero is a structural check.
"""

from __future__ import annotations

import operator
import weakref
from fractions import Fraction
from math import isqrt


class UnsupportedFieldError(Exception):
    """The computation would need a field extension outside the configured tower."""


DEFAULT_TOWER_DEPTH = 2
_max_tower_depth = DEFAULT_TOWER_DEPTH


def set_max_tower_depth(depth: int) -> None:
    global _max_tower_depth
    if depth < 0:
        raise ValueError("tower depth must be non-negative")
    _max_tower_depth = depth


def get_max_tower_depth() -> int:
    return _max_tower_depth


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s * m**2 with s square-free (s carries the sign of n)."""
    if n == 0:
        return 0, 1
    sign = 1 if n > 0 else -1
    n = abs(n)
    s, m = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            m *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return sign * s * n, m


def binary_power(base, n: int, one, mul=operator.mul):
    """base**n for an int n >= 0 by repeated squaring; one is the
    identity of the product mul.  The one powering loop of Scalar, Poly,
    BivarPoly and the parser's integer lists."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    pn, pd = isqrt(q.numerator), isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None


class Tower:
    """One level of the extension chain; QQ is the trivial tower.

    Towers are interned so that identical chains are the same object and the
    ancestor test is a pointer walk.  The registry holds them weakly: a
    tower lives as long as a value, a child tower or a caller uses it.
    """

    __slots__ = ("base", "radicand", "depth", "key", "__weakref__")
    _registry = weakref.WeakValueDictionary()

    def __init__(self, base, radicand, key):
        self.base = base
        self.radicand = radicand  # Scalar over a prefix of base, or None for QQ
        self.depth = 0 if base is None else base.depth + 1
        self.key = key

    @classmethod
    def _intern(cls, base, radicand, radkey):
        key = (None if base is None else base.key, radkey)
        tw = cls._registry.get(key)
        if tw is None:
            tw = cls(base, radicand, key)
            cls._registry[key] = tw
        return tw

    def is_ancestor_of(self, other: "Tower") -> bool:
        while other is not None and other.depth >= self.depth:
            if other is self:
                return True
            other = other.base
        return False

    def chain(self):
        out = []
        tw = self
        while tw.base is not None:
            out.append(tw)
            tw = tw.base
        out.reverse()
        return out

    def __repr__(self):
        if self.base is None:
            return "QQ"
        return f"{self.base!r}(sqrt({self.radicand}))"


QQ = Tower._intern(None, None, None)


# Arithmetic on the halves.  Each helper takes operands whose towers lie on
# one chain and returns a result in the deeper of the two towers, or below it
# when the top halves cancel.  An operand from a lower tower is b + 0*sqrt(r)
# in the deeper one and is combined with the other operand's halves directly.

def _add(a: "Scalar", b: "Scalar") -> "Scalar":
    ta, tb = a.tower, b.tower
    if ta is tb:
        if ta is QQ:
            return Scalar(QQ, a.val + b.val)
        lo = _add(a.val[0], b.val[0])
        hi = _add(a.val[1], b.val[1])
        return lo if hi.is_zero() else Scalar(ta, (lo, hi))
    if ta.depth < tb.depth:
        a, b, ta = b, a, tb
    lo, hi = a.val
    return Scalar(ta, (_add(lo, b), hi))


def _neg(a: "Scalar") -> "Scalar":
    if a.tower is QQ:
        return Scalar(QQ, -a.val)
    lo, hi = a.val
    return Scalar(a.tower, (_neg(lo), _neg(hi)))


def _sub(a: "Scalar", b: "Scalar") -> "Scalar":
    return _add(a, _neg(b))


def _mul(a: "Scalar", b: "Scalar") -> "Scalar":
    ta, tb = a.tower, b.tower
    if ta is tb:
        if ta is QQ:
            return Scalar(QQ, a.val * b.val)
        alo, ahi = a.val
        blo, bhi = b.val
        lo = _add(_mul(alo, blo), _mul(_mul(ahi, bhi), ta.radicand))
        hi = _add(_mul(alo, bhi), _mul(ahi, blo))
        return lo if hi.is_zero() else Scalar(ta, (lo, hi))
    if ta.depth < tb.depth:
        a, b, ta = b, a, tb
    if b.is_zero():
        return b
    lo, hi = a.val
    return Scalar(ta, (_mul(lo, b), _mul(hi, b)))


def _inv(a: "Scalar") -> "Scalar":
    t = a.tower
    if t is QQ:
        if a.val == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(QQ, 1 / a.val)
    lo, hi = a.val
    # (lo + hi*sqrt(r))^-1 = (lo - hi*sqrt(r)) / (lo^2 - hi^2 r); the norm
    # is nonzero because r is not a square in the base field.
    norm = _sub(_mul(lo, lo), _mul(_mul(hi, hi), t.radicand))
    ninv = _inv(norm)
    return Scalar(t, (_mul(lo, ninv), _neg(_mul(hi, ninv))))


def _sqrt_in(s: "Scalar", tower: Tower):
    """Square root of s within tower (s.tower an ancestor of it), or None."""
    if tower is QQ:
        root = _fraction_sqrt(s.val)
        return None if root is None else Scalar(QQ, root)
    base, r = tower.base, tower.radicand
    if s.tower is not tower:
        p = _sqrt_in(s, base)
        if p is not None:
            return p
        # maybe s = q^2 * r, so sqrt(s) = q*sqrt(r)
        q = _sqrt_in(_mul(s, _inv(r)), base)
        return None if q is None else Scalar(tower, (ZERO, q))
    a, h = s.val
    # (p + q sqrt(r))^2 = a + h sqrt(r):  p^2 and q^2 r are the two roots of
    # z^2 - a z + h^2 r / 4 = 0.
    d = _sqrt_in(_sub(_mul(a, a), _mul(_mul(h, h), r)), base)
    if d is None:
        return None
    for sg in (d, _neg(d)):
        p = _sqrt_in(_mul(_add(a, sg), _HALF), base)
        if p is None or p.is_zero():
            continue
        cand = Scalar(tower, (p, _mul(_mul(h, _HALF), _inv(p))))
        if _sub(_mul(cand, cand), s).is_zero():
            return cand
    return None


class Scalar:
    """Element of Q or of a tower of quadratic extensions; immutable."""

    __slots__ = ("tower", "val", "_key")

    def __init__(self, tower: Tower, val):
        self.tower = tower
        self.val = val
        self._key = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        return cls(QQ, Fraction(q))

    @classmethod
    def coerce(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.tower is QQ and self.val == 0

    def is_rational(self) -> bool:
        return self.tower is QQ

    def as_fraction(self) -> Fraction:
        if self.tower is not QQ:
            raise ValueError(f"{self} is not rational")
        return self.val

    def is_integer(self) -> bool:
        return self.tower is QQ and self.val.denominator == 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.val >= 0

    def is_odd_integer(self) -> bool:
        return self.is_integer() and self.val.numerator % 2 != 0

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, op):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return op(*_on_one_chain(self, other))

    # purely rational operands dominate in practice, so the dunder
    # methods shortcut the tower recursion for that case

    def __add__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    return Scalar(QQ, self.val + other.val)
            elif isinstance(other, (int, Fraction)):
                return Scalar(QQ, self.val + other)
        return self._binary(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    return Scalar(QQ, self.val - other.val)
            elif isinstance(other, (int, Fraction)):
                return Scalar(QQ, self.val - other)
        return self._binary(other, _sub)

    def __rsub__(self, other):
        if self.tower is QQ and isinstance(other, (int, Fraction)):
            return Scalar(QQ, other - self.val)
        return self._binary(other, lambda a, b: _sub(b, a))

    def __mul__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    return Scalar(QQ, self.val * other.val)
            elif isinstance(other, (int, Fraction)):
                return Scalar(QQ, self.val * other)
        return self._binary(other, _mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    if other.val == 0:
                        raise ZeroDivisionError("division by zero Scalar")
                    return Scalar(QQ, self.val / other.val)
            elif isinstance(other, (int, Fraction)):
                if other == 0:
                    raise ZeroDivisionError("division by zero Scalar")
                return Scalar(QQ, self.val / other)
        return self._binary(other, lambda a, b: _mul(a, _inv(b)))

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: _mul(b, _inv(a)))

    def __neg__(self):
        if self.tower is QQ:
            return Scalar(QQ, -self.val)
        return _neg(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return binary_power(ONE / self, -n, ONE)
        return binary_power(self, n, ONE)

    def inverse(self) -> "Scalar":
        return _inv(self)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.key())

    def _rational_cmp(self, other, op):
        other = Scalar.coerce(other)
        if not (self.is_rational() and other.is_rational()):
            raise ValueError("ordering is only defined for rational Scalars")
        return op(self.val, other.val)

    def __lt__(self, other):
        return self._rational_cmp(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._rational_cmp(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._rational_cmp(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._rational_cmp(other, lambda a, b: a >= b)

    def __bool__(self):
        return not self.is_zero()

    # -- roots -------------------------------------------------------------

    def sqrt(self) -> "Scalar":
        """Square root, adjoining one extension level when necessary."""
        root = self.sqrt_in_field()
        if root is not None:
            return root
        return _adjoin_sqrt_in(self, self.tower)

    def sqrt_in_field(self, working: Tower | None = None):
        """Square root within the (given or own) tower, or None."""
        s, tower = self, self.tower
        if working is not None and working is not tower:
            if tower.is_ancestor_of(working):
                tower = working
            elif not working.is_ancestor_of(tower):
                tower, conv = _merge_into(working, tower)
                s = conv(s)
        return _sqrt_in(s, tower)

    # -- rendering ---------------------------------------------------------

    def key(self):
        """Canonical hashable form; equal canonical scalars share a key."""
        if self._key is None:
            if self.tower is QQ:
                self._key = ("q", self.val)
            else:
                lo, hi = self.val
                self._key = ("e", self.tower.key, lo.key(), hi.key())
        return self._key

    def sort_key(self):
        return repr(self.key())

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar.from_rational(0)
ONE = Scalar.from_rational(1)
_HALF = Scalar.from_rational(Fraction(1, 2))


def _on_one_chain(a: Scalar, b: Scalar):
    """a and b with their towers on one chain: when they are not, the
    operand in the shallower tower (b on a tie) is carried into a tower
    that extends the other's."""
    ta, tb = a.tower, b.tower
    if ta is tb or ta.is_ancestor_of(tb) or tb.is_ancestor_of(ta):
        return a, b
    if ta.depth >= tb.depth:
        return a, _merge_into(ta, tb)[1](b)
    return _merge_into(tb, ta)[1](a), b


def _merge_into(target: Tower, other: Tower):
    """Extend target so it contains other; returns (tower, converter)."""
    images = {}
    for level in other.chain():
        rad = level.radicand
        if images:
            rad = _apply_images(rad, images)
        if not (rad.tower is target or rad.tower.is_ancestor_of(target)):
            raise UnsupportedFieldError(
                "cannot merge extension towers with incompatible nested radicands")
        root = rad.sqrt_in_field(target)
        if root is None:
            root = _adjoin_sqrt_in(rad, target)
        target = root.tower if root.tower.depth > target.depth else target
        images[level] = root

    def convert(s: Scalar) -> Scalar:
        return _apply_images(s, images)

    return target, convert


def _apply_images(s: Scalar, images: dict) -> Scalar:
    if s.tower is QQ:
        return s
    gen = images.get(s.tower)
    if gen is None:
        if any(level in images for level in s.tower.chain()):
            raise UnsupportedFieldError("partially remapped extension chain")
        return s
    lo, hi = s.val
    return _apply_images(lo, images) + _apply_images(hi, images) * gen


def _adjoin_sqrt_in(s: Scalar, working: Tower) -> Scalar:
    limit = _max_tower_depth
    if s.is_zero():
        return ZERO
    if s.is_rational():
        sf, m = _squarefree_decompose(s.val.numerator * s.val.denominator)
        scale = Fraction(m, s.val.denominator)
        if sf == 1:
            return Scalar.from_rational(scale)
        if working.depth + 1 > limit:
            raise UnsupportedFieldError(
                f"sqrt({s}) needs tower depth {working.depth + 1} > {limit}")
        tw = Tower._intern(working, Scalar.from_rational(sf), ("q", Fraction(sf)))
        gen = Scalar(tw, (ZERO, ONE))
        return Scalar.coerce(scale) * gen
    if working.depth + 1 > limit:
        raise UnsupportedFieldError(
            f"sqrt of {s} needs tower depth {working.depth + 1} > {limit}")
    if not (working is s.tower or s.tower.is_ancestor_of(working)):
        raise UnsupportedFieldError("radicand lives outside the working tower")
    tw = Tower._intern(working, s, s.key())
    return Scalar(tw, (ZERO, ONE))


def render_scalar(s: Scalar) -> str:
    """Exact ASCII rendering; parseable back by the expression grammar."""
    if s.tower is QQ:
        return str(s.val)
    lo, hi = s.val
    rad = s.tower.radicand
    rad_txt = render_scalar(rad) if rad.tower is QQ else f"({render_scalar(rad)})"
    if hi == ONE:
        hi_txt = f"sqrt({rad_txt})"
    else:
        hi_txt = f"({render_scalar(hi)})*sqrt({rad_txt})"
    if lo.is_zero():
        return hi_txt
    return f"({render_scalar(lo)})+{hi_txt}"


def scalar_sqrt(x) -> Scalar:
    return Scalar.coerce(x).sqrt()
