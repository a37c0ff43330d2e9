import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polysum import descent
from polysum.descent import (
    PreconditionError,
    ZeroInputError,
    _is_sum_of_two_squares,
    descent_7_odd,
    descent_mod3,
    descent_mod5,
    realis_transform,
    split_3_into_6,
    split_two_n,
)
from polysum.qform import three_square_excluded


def test_realis_examples():
    assert realis_transform(1, 1, 1) == (-3, -3, -3)
    assert realis_transform(1, 0, 0) == (1, -2, -2)
    assert realis_transform(0, 0, 0) == (0, 0, 0)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500))
def test_realis_norm(x, y, z):
    u, v, w = realis_transform(x, y, z)
    assert u * u + v * v + w * w == 9 * (x * x + y * y + z * z)


def test_realis_sign_choice_mod3():
    # for 3 not dividing x, one of +-x avoids the class of 2y+2z mod 3
    for x in range(1, 3):
        for y in range(3):
            for z in range(3):
                assert any((e * x - 2 * y - 2 * z) % 3 != 0 for e in (1, -1))


@pytest.mark.parametrize("m,x,y,expected_w", [
    (2, 3, 3, 27),
    (5, 2, 1, 9),
    (8, 3, 3, 81),
])
def test_descent_mod3_examples(m, x, y, expected_w):
    u, v = descent_mod3(m, x, y)
    assert u * u + m * v * v == expected_w
    assert u % 3 or v % 3


def test_descent_mod3_zero_input():
    with pytest.raises(ZeroInputError):
        descent_mod3(2, 0, 0)
    with pytest.raises(ValueError):
        descent_mod3(3, 1, 1)


def test_descent_mod3_against_oracle():
    # every representation with w <= 10^4 rewrites; brute force agrees on
    # the existence of a 3-reduced representation
    for m in (2, 5, 8):
        seen = set()
        x = 0
        while x * x <= 10_000:
            y = 0
            while x * x + m * y * y <= 10_000:
                w = x * x + m * y * y
                if w:
                    u, v = descent_mod3(m, x, y)
                    assert u * u + m * v * v == w
                    assert u % 3 or v % 3
                    if w not in seen:
                        seen.add(w)
                        assert _oracle_mod3(m, w)
                y += 1
            x += 1


def _oracle_mod3(m, w):
    for u in range(isqrt(w) + 1):
        rest = w - u * u
        if rest % m == 0:
            v = isqrt(rest // m)
            if m * v * v == rest and (u % 3 or v % 3):
                return True
    return False


def test_split_3_into_6_examples():
    for (u, v) in [(5, 2), (1, 1), (1, 2)]:
        x, y = split_3_into_6(u, v)
        assert 3 * x * x + 6 * y * y == u * u + 2 * v * v
    with pytest.raises(PreconditionError):
        split_3_into_6(1, 0)


@pytest.mark.parametrize("x,y", [(5, 5), (1, 1), (10, 5), (25, 0), (0, 5)])
def test_descent_mod5_examples(x, y):
    u, v = descent_mod5(x, y)
    assert u * u + 4 * v * v == x * x + 4 * y * y
    assert u % 5 or v % 5


def test_descent_mod5_zero():
    with pytest.raises(ZeroInputError):
        descent_mod5(0, 0)


@pytest.mark.parametrize("x,y", [(1, 1), (2, 2), (6, 2), (4, 4), (8, 0)])
def test_descent_7_odd_examples(x, y):
    u, v = descent_7_odd(x, y)
    assert u * u + 7 * v * v == x * x + 7 * y * y
    assert u % 2 == 1 and v % 2 == 1


def test_descent_7_odd_precondition():
    with pytest.raises(PreconditionError):
        descent_7_odd(1, 2)  # 29 is not divisible by 8


@pytest.mark.parametrize("n,expected", [(5, 10), (2, 4), (11, 22)])
def test_split_two_n_examples(n, expected):
    x, y, z = split_two_n(n)
    assert x * x + 9 * y * y + 18 * z * z == expected


def test_split_two_n_precondition():
    with pytest.raises(PreconditionError):
        split_two_n(23)  # 23 = 2 (mod 3) but 23 = 8*2+7 has no three-square form
    with pytest.raises(PreconditionError):
        split_two_n(3)  # wrong residue class


def test_split_two_n_sweep():
    for n in range(2, 2000, 3):
        if three_square_excluded(n):
            continue
        x, y, z = split_two_n(n)
        assert x * x + 9 * y * y + 18 * z * z == 2 * n


def _reference_three_squares(n):
    # the w-then-u search without the two-square skip
    w = 0
    while w * w <= n:
        rest = n - w * w
        u = 0
        while 2 * u * u <= rest:
            v2 = rest - u * u
            v = isqrt(v2)
            if v * v == v2:
                return u, v, w
            u += 1
        w += 3
    return None


def _reference_split_two_n(n):
    u, v, w = _reference_three_squares(n)
    if (u - v) % 3 == 0:
        x, three_y = u + v, u - v
    else:
        x, three_y = u - v, u + v
    return x, three_y // 3, w // 3


def test_split_two_n_equals_unskipped_search():
    for n in range(2, 20_001, 3):
        if not three_square_excluded(n):
            assert split_two_n(n) == _reference_split_two_n(n), n


def _valid_split_ns(lo, hi):
    return [n for n in range(lo, hi)
            if n % 3 == 2 and not three_square_excluded(n)]


@pytest.fixture
def cold_table(monkeypatch):
    monkeypatch.setattr(descent, "_first_u", memoryview(np.empty(0, np.int16)))


@pytest.mark.parametrize("largest_first", [True, False])
def test_split_two_n_across_table_doublings(cold_table, largest_first):
    ns = sorted(_valid_split_ns(2**16 - 40, 2**16 + 40)
                + _valid_split_ns(2**17 - 40, 2**17 + 40),
                reverse=largest_first)
    for n in ns:
        assert split_two_n(n) == _reference_split_two_n(n), n
    assert len(descent._first_u) == 2**18


def test_split_two_n_above_table_cap(cold_table):
    cap = descent._TABLE_CAP
    for n in _valid_split_ns(cap - 10, cap + 30):
        assert split_two_n(n) == _reference_split_two_n(n), n
    assert len(descent._first_u) == cap


def test_first_witness_table_equals_brute_force():
    size = 2**12
    expected = [-1] * size
    for u in range(isqrt(size) + 1):
        for v in range(u, isqrt(size) + 1):
            if u * u + v * v < size and expected[u * u + v * v] < 0:
                expected[u * u + v * v] = u
    assert descent._first_witness_table(size).tolist() == expected


def test_split_two_n_refuses_n_above_limit():
    n = descent.MAX_SPLIT_N + 1
    assert n % 3 == 2 and not three_square_excluded(n)
    with pytest.raises(ValueError, match=str(descent.MAX_SPLIT_N)):
        split_two_n(n)


def test_two_square_test_equals_brute_force():
    top = 10_000
    sums = {a * a + b * b for a in range(isqrt(top) + 1)
            for b in range(a, isqrt(top - a * a) + 1)}
    assert [r for r in range(top + 1) if _is_sum_of_two_squares(r)] == \
        sorted(sums)


def _random_descent_inputs(count, seed):
    rng = random.Random(seed)
    while count:
        yield rng.randint(-200, 200), rng.randint(-200, 200)
        count -= 1


def test_postconditions_on_random_inputs():
    for x, y in _random_descent_inputs(10_000, 1):
        if x or y:
            for m in (2, 5, 8):
                u, v = descent_mod3(m, x, y)
                assert u * u + m * v * v == x * x + m * y * y
                assert u % 3 or v % 3
    for x, y in _random_descent_inputs(10_000, 2):
        if x or y:
            u, v = descent_mod5(x, y)
            assert u * u + 4 * v * v == x * x + 4 * y * y
            assert u % 5 or v % 5
    for x, y in _random_descent_inputs(10_000, 3):
        w = x * x + 7 * y * y
        if w and w % 8 == 0:
            u, v = descent_7_odd(x, y)
            assert u * u + 7 * v * v == w
            assert u % 2 == 1 and v % 2 == 1
    for x, y in _random_descent_inputs(10_000, 4):
        w = x * x + 2 * y * y
        if w % 3 == 0:
            a, b = split_3_into_6(x, y)
            assert 3 * a * a + 6 * b * b == w
