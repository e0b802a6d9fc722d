"""Exact arithmetic in a tower of quadratic extensions of Q.

A Scalar is an element of Q(sqrt(d1), ..., sqrt(dk)) where each radicand is
either a square-free integer or a previously constructed Scalar that is not a
square in the field below.  Values are kept in a canonical minimal tower so
that equality with zero is a structural check.
"""

from __future__ import annotations

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
    ancestor test is a pointer walk.
    """

    __slots__ = ("base", "radicand", "depth", "key")
    _registry: dict = {}

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

    def _rad_nested(self):
        """The radicand as a nested value of the base tower."""
        return _materialize(self.radicand, self.base)

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


# Nested representations: a value materialized in a tower T is a Fraction when
# T is QQ, else a pair (lo, hi) of values materialized in T.base meaning
# lo + hi*sqrt(T.radicand).

def _nzero(tower):
    if tower.base is None:
        return Fraction(0)
    return (_nzero(tower.base), _nzero(tower.base))


def _niszero(tower, u):
    if tower.base is None:
        return u == 0
    return _niszero(tower.base, u[0]) and _niszero(tower.base, u[1])


def _nadd(tower, u, v):
    if tower.base is None:
        return u + v
    return (_nadd(tower.base, u[0], v[0]), _nadd(tower.base, u[1], v[1]))


def _nneg(tower, u):
    if tower.base is None:
        return -u
    return (_nneg(tower.base, u[0]), _nneg(tower.base, u[1]))


def _nmul(tower, u, v):
    if tower.base is None:
        return u * v
    b = tower.base
    r = tower._rad_nested()
    ac = _nmul(b, u[0], v[0])
    bd = _nmul(b, u[1], v[1])
    lo = _nadd(b, ac, _nmul(b, bd, r))
    hi = _nadd(b, _nmul(b, u[0], v[1]), _nmul(b, u[1], v[0]))
    return (lo, hi)


def _ninv(tower, u):
    if tower.base is None:
        if u == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return 1 / u
    b = tower.base
    r = tower._rad_nested()
    # (a + b*sqrt(r))^-1 = (a - b*sqrt(r)) / (a^2 - b^2 r); the norm is nonzero
    # because r is not a square in the base field.
    norm = _nadd(b, _nmul(b, u[0], u[0]),
                 _nneg(b, _nmul(b, _nmul(b, u[1], u[1]), r)))
    ninv = _ninv(b, norm)
    return (_nmul(b, u[0], ninv), _nneg(b, _nmul(b, u[1], ninv)))


def _materialize(s: "Scalar", tower: Tower):
    """Nested representation of s inside tower; s.tower must be an ancestor."""
    if tower.base is None:
        return s.val
    if s.tower is tower:
        lo, hi = s.val
        return (_materialize(lo, tower.base), _materialize(hi, tower.base))
    return (_materialize(s, tower.base), _nzero(tower.base))


def _canonical(tower, u) -> "Scalar":
    """Build a canonical (minimal-tower) Scalar from a nested value."""
    while tower.base is not None and _niszero(tower.base, u[1]):
        tower, u = tower.base, u[0]
    if tower.base is None:
        return Scalar(QQ, u)
    lo = _canonical(tower.base, u[0])
    hi = _canonical(tower.base, u[1])
    return Scalar(tower, (lo, hi))


def _nsqrt(tower, u):
    """Square root of a nested value within its tower, or None."""
    if tower.base is None:
        return _fraction_sqrt(u)
    b = tower.base
    a, h = u
    r = tower._rad_nested()
    if _niszero(b, h):
        p = _nsqrt(b, a)
        if p is not None:
            return (p, _nzero(b))
        # maybe a = q^2 * r, so sqrt(a) = q*sqrt(r)
        q2 = _nmul(b, a, _ninv(b, r))
        q = _nsqrt(b, q2)
        if q is not None:
            return (_nzero(b), q)
        return None
    # (p + q sqrt(r))^2 = a + h sqrt(r):  p^2 and q^2 r are the two roots of
    # z^2 - a z + h^2 r / 4 = 0.
    disc = _nadd(b, _nmul(b, a, a),
                 _nneg(b, _nmul(b, _nmul(b, h, h), r)))
    d = _nsqrt(b, disc)
    if d is None:
        return None
    half = _materialize(Scalar.from_rational(Fraction(1, 2)), b)
    for sg in (d, _nneg(b, d)):
        z = _nmul(b, _nadd(b, a, sg), half)
        p = _nsqrt(b, z)
        if p is None or _niszero(b, p):
            continue
        q = _nmul(b, _nmul(b, h, half), _ninv(b, p))
        cand = (p, q)
        if _niszero(tower, _nadd(tower, _nmul(tower, cand, cand), _nneg(tower, u))):
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
        tower, u, v = _common_nested(self, other)
        return _canonical(tower, op(tower, u, v))

    # purely rational operands dominate in practice, so the dunder
    # methods shortcut the nested-tower machinery for that case

    def __add__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    return Scalar(QQ, self.val + other.val)
            elif isinstance(other, (int, Fraction)):
                return Scalar(QQ, self.val + other)
        return self._binary(other, _nadd)

    __radd__ = __add__

    def __sub__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    return Scalar(QQ, self.val - other.val)
            elif isinstance(other, (int, Fraction)):
                return Scalar(QQ, self.val - other)
        return self._binary(other, lambda t, u, v: _nadd(t, u, _nneg(t, v)))

    def __rsub__(self, other):
        if self.tower is QQ and isinstance(other, (int, Fraction)):
            return Scalar(QQ, other - self.val)
        res = self._binary(other, lambda t, u, v: _nadd(t, v, _nneg(t, u)))
        return res

    def __mul__(self, other):
        if self.tower is QQ:
            if isinstance(other, Scalar):
                if other.tower is QQ:
                    return Scalar(QQ, self.val * other.val)
            elif isinstance(other, (int, Fraction)):
                return Scalar(QQ, self.val * other)
        return self._binary(other, _nmul)

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
        return self._binary(other, lambda t, u, v: _nmul(t, u, _ninv(t, v)))

    def __rtruediv__(self, other):
        return self._binary(other, lambda t, u, v: _nmul(t, v, _ninv(t, u)))

    def __neg__(self):
        if self.tower is QQ:
            return Scalar(QQ, -self.val)
        return _canonical(self.tower, _nneg(self.tower, _materialize(self, self.tower)))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Scalar":
        return ONE / self

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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

    def sqrt(self, max_depth: int | None = None) -> "Scalar":
        """Square root, adjoining one extension level when necessary."""
        root = self.sqrt_in_field()
        if root is not None:
            return root
        return _adjoin_sqrt(self, max_depth)

    def sqrt_in_field(self, working: Tower | None = None):
        """Square root within the (given or own) tower, or None."""
        s, tower = self, self.tower
        if working is not None and working is not tower:
            if tower.is_ancestor_of(working):
                tower = working
            elif not working.is_ancestor_of(tower):
                tower, conv = _merge_into(working, tower)
                s = conv(s)
        u = _materialize(s, tower)
        root = _nsqrt(tower, u)
        if root is None:
            return None
        return _canonical(tower, root)

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


def _common_nested(a: Scalar, b: Scalar):
    if a.tower is b.tower:
        t = a.tower
    elif a.tower.is_ancestor_of(b.tower):
        t = b.tower
    elif b.tower.is_ancestor_of(a.tower):
        t = a.tower
    elif a.tower.depth >= b.tower.depth:
        t, conv = _merge_into(a.tower, b.tower)
        b = conv(b)
    else:
        t, conv = _merge_into(b.tower, a.tower)
        a = conv(a)
    return t, _materialize(a, t), _materialize(b, t)


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


def _adjoin_sqrt(s: Scalar, max_depth: int | None = None) -> Scalar:
    return _adjoin_sqrt_in(s, s.tower, max_depth)


def _adjoin_sqrt_in(s: Scalar, working: Tower, max_depth: int | None = None) -> Scalar:
    limit = _max_tower_depth if max_depth is None else max_depth
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


def scalar_sqrt(x, max_depth: int | None = None) -> Scalar:
    return Scalar.coerce(x).sqrt(max_depth)
