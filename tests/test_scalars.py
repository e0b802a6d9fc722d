import json
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from riccati_galois.scalars import (
    QQ,
    Scalar,
    UnsupportedFieldError,
    ZERO,
    ONE,
    get_max_tower_depth,
    scalar_sqrt,
    set_max_tower_depth,
)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def S(x):
    return Scalar.coerce(x)


class TestRationalLayer:
    def test_basic_arithmetic(self):
        a = S(F(3, 4))
        b = S(F(-2, 5))
        assert a + b == F(7, 20)
        assert a * b == F(-3, 10)
        assert a - b == F(23, 20)
        assert a / b == F(-15, 8)

    def test_mixed_int_fraction_operands(self):
        a = S(F(1, 2))
        assert a + 1 == F(3, 2)
        assert 1 + a == F(3, 2)
        assert 2 * a == 1
        assert 1 - a == F(1, 2)
        assert 1 / a == 2
        assert a - 2 == F(-3, 2)

    def test_pow(self):
        a = S(F(2, 3))
        assert a**0 == 1
        assert a**3 == F(8, 27)
        assert a**-2 == F(9, 4)
        with pytest.raises(ZeroDivisionError):
            ZERO**-1

    def test_predicates(self):
        assert S(5).is_integer()
        assert S(5).is_nonneg_integer()
        assert S(5).is_odd_integer()
        assert not S(4).is_odd_integer()
        assert not S(-3).is_nonneg_integer()
        assert S(-3).is_odd_integer()
        assert not S(F(5, 2)).is_integer()
        assert S(0).is_zero()
        assert not ONE.is_zero()

    def test_ordering_is_rational_only(self):
        assert S(F(1, 2)) < 1
        assert S(2) >= F(3, 2)
        with pytest.raises(ValueError):
            scalar_sqrt(2) < 2

    @given(rationals, rationals)
    def test_field_axioms_sample(self, p, q):
        a, b = S(p), S(q)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a


class TestSquareRoots:
    def test_rational_perfect_square(self):
        assert scalar_sqrt(F(9, 4)) == F(3, 2)
        assert scalar_sqrt(0) == 0
        assert scalar_sqrt(F(9, 4)).is_rational()

    def test_squarefree_normalization(self):
        # sqrt(18) and 3*sqrt(2) must be the same element of the same field
        r2 = scalar_sqrt(2)
        assert scalar_sqrt(18) == 3 * r2
        assert scalar_sqrt(F(1, 2)) == r2 / 2

    def test_defining_identity(self):
        for n in [2, 3, 5, 7, -1, -3, F(2, 7)]:
            r = scalar_sqrt(n)
            assert r * r == n

    def test_conjugate_product_is_rational(self):
        r2 = scalar_sqrt(2)
        p = (S(F(3, 4)) + r2) * (S(F(3, 4)) - r2)
        assert p.is_rational()
        assert p == F(9, 16) - 2

    def test_inverse_in_extension(self):
        x = 1 + scalar_sqrt(2)
        assert x * x.inverse() == 1
        assert x.inverse() == scalar_sqrt(2) - 1

    def test_negative_radicand(self):
        i = scalar_sqrt(-1)
        assert i * i == -1
        assert (2 + i) * (2 - i) == 5

    def test_cross_tower_merge(self):
        r2, r3 = scalar_sqrt(2), scalar_sqrt(3)
        prod = r2 * r3
        assert prod * prod == 6
        assert prod == scalar_sqrt(6)
        assert (r2 + r3) * (r2 - r3) == -1

    def test_sqrt_in_field_detects_squares(self):
        r2 = scalar_sqrt(2)
        sq = (1 + r2) ** 2
        got = sq.sqrt()
        assert got == 1 + r2 or got == -(1 + r2)
        # no new adjunction happened
        assert got.tower is sq.tower or got.tower.depth <= sq.tower.depth

    def test_nested_radical(self):
        r5 = scalar_sqrt(5)
        n = scalar_sqrt(1 + r5)
        assert n * n == 1 + r5

    def test_depth_limit(self):
        assert get_max_tower_depth() == 2
        n = scalar_sqrt(1 + scalar_sqrt(5))
        with pytest.raises(UnsupportedFieldError):
            scalar_sqrt(1 + n)

    def test_depth_limit_configurable(self):
        n = scalar_sqrt(1 + scalar_sqrt(5))
        set_max_tower_depth(3)
        try:
            deep = scalar_sqrt(1 + n)
            assert deep * deep == 1 + n
        finally:
            set_max_tower_depth(2)


class TestEqualityAndHash:
    def test_structural_zero(self):
        r2 = scalar_sqrt(2)
        assert (r2 * r2 - 2).is_zero()
        assert ((1 + r2) * (1 - r2) + 1).is_zero()

    def test_hash_consistent_across_towers(self):
        two = scalar_sqrt(2) * scalar_sqrt(2)
        assert two == S(2)
        assert hash(two) == hash(S(2))

    def test_equality_with_python_numbers(self):
        assert S(3) == 3
        assert S(F(1, 3)) == F(1, 3)
        assert scalar_sqrt(2) != 1


class TestRendering:
    def test_rational_render(self):
        assert str(S(F(-3, 7))) == "-3/7"
        assert str(S(4)) == "4"

    def test_surd_render_mentions_radicand(self):
        assert "sqrt(2)" in str(scalar_sqrt(2))
        assert "sqrt(-1)" in str(scalar_sqrt(-1))

    def test_sort_key_total_order(self):
        vals = [scalar_sqrt(2), S(1), scalar_sqrt(3), S(F(1, 2))]
        ordered = sorted(vals, key=lambda s: s.sort_key())
        assert sorted(ordered, key=lambda s: s.sort_key()) == ordered


@contextmanager
def tower_depth(depth):
    previous = get_max_tower_depth()
    set_max_tower_depth(depth)
    try:
        yield
    finally:
        set_max_tower_depth(previous)


def assert_canonical(s):
    """The stored form: a rational, or lo + hi*sqrt(radicand) with
    hi != 0 and both halves canonical over ancestors of tower.base."""
    if s.tower is QQ:
        assert isinstance(s.val, F)
        return
    lo, hi = s.val
    assert not hi.is_zero()
    for half in (lo, hi):
        assert half.tower.is_ancestor_of(s.tower.base)
        assert_canonical(half)


def pinned_cases():
    """Named tower computations whose str() and key() are pinned."""
    r2, r3, r5, r6, i = (scalar_sqrt(n) for n in (2, 3, 5, 6, -1))
    n = scalar_sqrt(1 + r5)
    half = S(F(1, 2))

    def depth3(thunk):
        def run():
            with tower_depth(3):
                return thunk()
        return run

    return [
        ("sqrt2", lambda: r2),
        ("sqrt2_sum", lambda: F(1, 3) + r2),
        ("sqrt2_rsub", lambda: 1 - r2),
        ("sqrt2_product", lambda: (1 + r2) * (3 - 2 * r2)),
        ("sqrt2_quotient", lambda: (1 + r2) / (3 - 2 * r2)),
        ("sqrt2_rtruediv", lambda: 2 / (1 + r2)),
        ("sqrt2_inverse", lambda: (F(2, 3) - 5 * r2).inverse()),
        ("sqrt2_cancel", lambda: (1 + r2) - r2),
        ("sqrt2_pow", lambda: (1 - r2) ** 5),
        ("sqrt2_negative_pow", lambda: (1 - r2) ** -3),
        ("sqrt2_sqrt_square", lambda: ((1 + r2) ** 2).sqrt()),
        ("sqrt2_sqrt_nonsquare", lambda: (1 + r2).sqrt()),
        ("sqrt2_sqrt_times_radicand", lambda: (3 * r2).sqrt()),
        ("sqrt18", lambda: scalar_sqrt(18)),
        ("sqrt_half", lambda: scalar_sqrt(F(1, 2))),
        ("i", lambda: i),
        ("i_product", lambda: (2 + i) * (3 - 4 * i)),
        ("i_quotient", lambda: (2 + i) / (1 - i)),
        ("i_sqrt_square", lambda: (3 + 4 * i).sqrt()),
        ("i_sqrt_negative_rational", lambda: (-4 * (1 + 0 * i)).sqrt()),
        ("i_sqrt_nonsquare", lambda: i.sqrt()),
        ("merge_sum", lambda: r2 + r3),
        ("merge_sum_reversed", lambda: r3 + r2),
        ("merge_product", lambda: r2 * r3),
        ("merge_conjugates", lambda: (r2 + r3) * (r2 - r3)),
        ("merge_square", lambda: (r2 + r3) ** 2),
        ("merge_sqrt_square", lambda: ((r2 + r3) ** 2).sqrt()),
        ("merge_inverse", lambda: (1 + r2 + r3).inverse()),
        ("merge_quotient", lambda: (r2 + r3) / (r2 - r3)),
        ("merge_cancel_top", lambda: (r2 + r3) - r3),
        ("merge_sqrt6", lambda: r2 * r3 - r6 + r2),
        ("merge_sqrt6_first", lambda: r6 + r2 * r3),
        ("merge_sqrt_times_half", lambda: (half * (5 + 2 * r6)).sqrt()),
        ("nested", lambda: n),
        ("nested_square", lambda: n * n),
        ("nested_sum", lambda: n + r5),
        ("nested_product", lambda: (n + 1) * (n - r5)),
        ("nested_inverse", lambda: (1 + n).inverse()),
        ("nested_generator_inverse", lambda: n.inverse()),
        ("nested_sqrt_square", lambda: (n ** 2 + 2 * n + 1).sqrt()),
        ("nested_quotient", lambda: n ** 3 / (r5 * n)),
        ("depth3_merge", depth3(lambda: (r5 + r3) + ((r2 + r5) - r2))),
        ("depth3_triple", depth3(lambda: r2 + r3 + r5)),
        ("depth3_product", depth3(lambda: (r2 + r3 + r5) * (r2 - r3 + r5))),
        ("depth3_inverse", depth3(lambda: (1 + r2 + r3 + r5).inverse())),
        ("depth3_sqrt_square", depth3(lambda: ((r2 + r3 + r5) ** 2).sqrt())),
        ("depth3_i_merge", depth3(lambda: i * (r2 + r3))),
        ("depth3_nested_sqrt", depth3(lambda: (1 + n).sqrt())),
    ]


# str() and repr(key()) of each pinned case, recorded before tower
# arithmetic moved onto the canonical halves; the stored form must not
# change, so every key and rendering stays byte-identical
PINNED = json.loads(
    (Path(__file__).parent / "data" / "scalar_pinned.json").read_text()
)
CASES = pinned_cases()


def test_pinned_table_covers_every_case():
    assert [name for name, _ in CASES] == [r["name"] for r in PINNED]


@pytest.mark.parametrize("name,thunk", CASES, ids=[name for name, _ in CASES])
def test_pinned_scalars(name, thunk):
    row = next(r for r in PINNED if r["name"] == name)
    value = thunk()
    assert_canonical(value)
    assert str(value) == row["str"]
    assert repr(value.key()) == row["key"]


def test_depth3_merge_keeps_every_radical():
    # the operands of the outer sum live in Q(sqrt 5)(sqrt 3) and, after
    # the inner difference, Q(sqrt 2)(sqrt 5) reduced to Q(sqrt 5): the
    # merge adjoins sqrt 2 above both, and the sum belongs in the deeper
    # operand tower, not the merged one
    r2, r3, r5 = (scalar_sqrt(n) for n in (2, 3, 5))
    with tower_depth(3):
        value = (r5 + r3) + ((r2 + r5) - r2)
        assert value == 2 * r5 + r3
        assert value - 2 * r5 == r3
    assert_canonical(value)


small_coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)
biquadratic = st.tuples(small_coords, small_coords, small_coords, small_coords)


def _q23(coords):
    """c0 + c1 sqrt2 + c2 sqrt3 + c3 sqrt2 sqrt3, built by merging."""
    r2, r3 = scalar_sqrt(2), scalar_sqrt(3)
    c0, c1, c2, c3 = coords
    return c0 + c1 * r2 + c2 * r3 + c3 * r2 * r3


@given(biquadratic, biquadratic, biquadratic)
@settings(max_examples=60, deadline=None)
def test_biquadratic_field_laws(x, y, z):
    a, b, c = _q23(x), _q23(y), _q23(z)
    results = [
        a + b, a * b, a - b, -a, (a + b) + c, a + (b + c),
        (a * b) * c, a * (b * c), a * (b + c), a * b + a * c,
    ]
    for r in results + [a, b, c]:
        assert_canonical(r)
    assert a + b == b + a
    assert a * b == b * a
    assert results[4] == results[5]
    assert results[6] == results[7]
    assert results[8] == results[9]
    assert (a - b) + b == a
    assert (a + -a).is_zero()
    if not a.is_zero():
        inv = a.inverse()
        assert_canonical(inv)
        assert a * inv == 1
        quot = b / a
        assert_canonical(quot)
        assert quot * a == b
    square = a * a
    root = square.sqrt()
    assert_canonical(root)
    assert root * root == square
