"""Constructive identity transforms on binary quadratic values.

Each transform rewrites a representation of a fixed value into one with an
extra divisibility or parity property, by composing explicit two-square
identities.  Sign choices ("without loss of generality" in the usual
arguments) are made deterministic: the second argument is negated when
needed, otherwise the first.  Outputs are not unique; callers should check
the stated postcondition, not a particular pair.

The split ``2n = x^2 + 9y^2 + 18z^2`` starts from a three-square form
n = u^2 + v^2 + w^2 with 3 | w, the first in the order "w up over the
multiples of 3, then u up from 0".  Below ``_TABLE_CAP`` the u search is one
lookup in a first-witness table over the two-square rests: entry r is the
least u with 2u^2 <= r and r - u^2 a square, or -1.  The table is built by
scattering u^2 + v^2 (v >= u) for u from the largest down, one slice per u,
so the smallest u is written last.  It is kept at module level, built on
first use with 2^16 entries, and rebuilt at the least doubling that covers
a larger n; at most it holds 2^22 int16 entries (8 MB).  From the cap up
the search runs instead: a two-square test of each rest, then u walks up.
An n above ``MAX_SPLIT_N`` is refused, since that search takes O(sqrt(n))
steps per w.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .qform import three_square_excluded

MAX_SPLIT_N = 10 ** 14
_TABLE_START = 1 << 16
_TABLE_CAP = 1 << 22


class ZeroInputError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


def realis_transform(x: int, y: int, z: int) -> tuple[int, int, int]:
    """(x-2y-2z, y-2x-2z, z-2x-2y); the output square sum is 9(x^2+y^2+z^2)."""
    return (x - 2 * y - 2 * z, y - 2 * x - 2 * z, z - 2 * x - 2 * y)


# multipliers (p, q, r, s) of the step 9(a^2+m b^2) = (pa+qb)^2 + m(ra+sb)^2
_MOD3_STEPS = {
    2: ((1, 4), (2, -1)),
    5: ((2, 5), (1, -2)),
    8: ((1, 8), (1, -1)),
}


def descent_mod3(m: int, x: int, y: int) -> tuple[int, int]:
    """Rewrite w = x^2 + m*y^2 > 0 as u^2 + m*v^2 with 3 dividing at most one
    of u, v.  m must be 2, 5 or 8."""
    if m not in _MOD3_STEPS:
        raise ValueError(f"m must be one of 2, 5, 8, got {m}")
    if x == 0 and y == 0:
        raise ZeroInputError("w must be positive")
    k = 0
    while x % 3 == 0 and y % 3 == 0:
        x //= 3
        y //= 3
        k += 1
    (p, q), (r, s) = _MOD3_STEPS[m]
    for _ in range(k):
        u_plus, v_plus = p * x + q * y, r * x + s * y
        if u_plus % 3 or v_plus % 3:
            x, y = u_plus, v_plus
        else:
            x, y = p * x - q * y, r * x - s * y
    return x, y


def split_3_into_6(u: int, v: int) -> tuple[int, int]:
    """Rewrite w = u^2 + 2v^2 with 3 | w as 3x^2 + 6y^2."""
    w = u * u + 2 * v * v
    if w % 3:
        raise PreconditionError(f"3 does not divide {w}")
    # u^2 = v^2 (mod 3) here, so u = +-v (mod 3); align by negating v
    if (u - v) % 3:
        v = -v
    x = (u + 2 * v) // 3
    y = (u - v) // 3
    return x, y


def descent_mod5(x: int, y: int) -> tuple[int, int]:
    """Rewrite w = x^2 + 4y^2 > 0 as u^2 + 4v^2 with 5 dividing at most one
    of u, v, via 5(a^2+4b^2) = (a+-4b)^2 + 4(a-+b)^2."""
    if x == 0 and y == 0:
        raise ZeroInputError("w must be positive")
    k = 0
    while x % 5 == 0 and y % 5 == 0:
        x //= 5
        y //= 5
        k += 1
    for _ in range(2 * k):
        u_plus, v_plus = x + 4 * y, x - y
        if u_plus % 5 or v_plus % 5:
            x, y = u_plus, v_plus
        else:
            x, y = x - 4 * y, x + y
    return x, y


def descent_7_odd(x: int, y: int) -> tuple[int, int]:
    """Rewrite w = x^2 + 7y^2 with 8 | w as u^2 + 7v^2 with u, v both odd.

    Strips the common power of two, fixes a mixed-parity base with
    16(s^2+7t^2) = (3s+7t)^2 + 7(s-3t)^2, then climbs back through
    4(s^2+7t^2) = ((3s+7t)/2)^2 + 7((s-3t)/2)^2 after normalizing
    s = t (mod 4).
    """
    w = x * x + 7 * y * y
    if w % 8:
        raise PreconditionError(f"8 does not divide {w}")
    k = 0
    while x % 2 == 0 and y % 2 == 0:
        x //= 2
        y //= 2
        k += 1
    if x % 2 == 0 or y % 2 == 0:
        # exactly one even: x^2+7y^2 is odd, so k >= 2 and one 16-step
        # restores odd parity
        if k < 2:
            raise PreconditionError(f"8 does not divide {w}")
        x, y = 3 * x + 7 * y, x - 3 * y
        k -= 2
    for _ in range(k):
        if (x - y) % 4:  # odd x, y satisfy x = -y (mod 4) here
            y = -y
        x, y = (3 * x + 7 * y) // 2, (x - 3 * y) // 2
    return x, y


def _is_sum_of_two_squares(r: int) -> bool:
    """Exact test that r >= 0 is u^2 + v^2: every prime 3 (mod 4) divides
    r to an even power.

    With the factors of 2 gone, an odd part 3 (mod 4) has such a prime to
    an odd power.  Otherwise each d = 3 (mod 4) with d^2 <= r is divided
    out, refusing r if it went an odd number of times; a composite d
    divides nothing, its smaller prime factors 3 (mod 4) being gone.
    What is left could hold a prime 3 (mod 4) only above its square root,
    to the first power, which would make it 3 (mod 4); dividing out even
    powers keeps it 1 (mod 4), so it holds none.  Integer arithmetic only.
    """
    if r == 0:
        return True
    while r % 2 == 0:
        r //= 2
    if r % 4 == 3:
        return False
    d = 3
    while d * d <= r:
        odd = False
        while r % d == 0:
            r //= d
            odd = not odd
        if odd:
            return False
        d += 4
    return True


def _three_squares_with_multiple_of_3(n: int) -> tuple[int, int, int] | None:
    """(u, v, w) with n = u^2+v^2+w^2 and 3 | w, by exhaustive search.

    w runs up over the multiples of 3 and, for each, u runs up from 0.  A
    rest n - w^2 that is not a sum of two squares is skipped without the
    u search; the first hit, and so the triple, is unchanged.
    """
    w = 0
    while w * w <= n:
        rest = n - w * w
        if _is_sum_of_two_squares(rest):
            u = 0
            while 2 * u * u <= rest:
                v2 = rest - u * u
                v = isqrt(v2)
                if v * v == v2:
                    return u, v, w
                u += 1
        w += 3
    return None


def _first_witness_table(size: int) -> memoryview:
    """Entry r < size: the least u with 2u^2 <= r and r - u^2 a square, or
    -1.  Each u scatters its own slice, because numpy promises no order
    among duplicate indices of one fancy assignment."""
    first = np.full(size, -1, dtype=np.int16)
    squares = np.arange(isqrt(size - 1) + 1, dtype=np.int64) ** 2
    for u in range(isqrt((size - 1) // 2), -1, -1):
        first[u * u + squares[u : isqrt(size - 1 - u * u) + 1]] = u
    # a memoryview reads entries as Python ints, three times faster than
    # numpy scalars and free of int16 overflow in u * u
    return memoryview(first)


_first_u = memoryview(np.empty(0, dtype=np.int16))


def _tabled_three_squares(n: int) -> tuple[int, int, int] | None:
    """The (u, v, w) of _three_squares_with_multiple_of_3 for n < _TABLE_CAP,
    with one table lookup per w."""
    global _first_u
    if n >= len(_first_u):
        size = _TABLE_START
        while size <= n:
            size *= 2
        _first_u = _first_witness_table(size)
    first = _first_u
    w = 0
    while w * w <= n:
        rest = n - w * w
        u = first[rest]
        if u >= 0:
            return u, isqrt(rest - u * u), w
        w += 3
    return None


def split_two_n(n: int) -> tuple[int, int, int]:
    """For n = 2 (mod 3) not of the form 4^k(8l+7): 2n = x^2 + 9y^2 + 18z^2.

    Found by locating a three-square representation of n whose multiple-of-3
    slot exists (exactly one slot is divisible by 3 in this residue class)
    and recombining the other two.  Below _TABLE_CAP the representation is
    read from the cached first-witness table, grown by doubling to cover n;
    from the cap up to MAX_SPLIT_N it is searched for.  Both give the same
    triple.  An n above MAX_SPLIT_N raises ValueError.
    """
    if n > MAX_SPLIT_N:
        raise ValueError(f"n {n} above supported {MAX_SPLIT_N}")
    if n % 3 != 2 or three_square_excluded(n):
        raise PreconditionError(f"{n} is not 2 mod 3 with a three-square form")
    if n < _TABLE_CAP:
        found = _tabled_three_squares(n)
    else:
        found = _three_squares_with_multiple_of_3(n)
    if found is None:  # unreachable: guaranteed by the precondition
        raise PreconditionError(f"no suitable three-square split of {n}")
    u, v, w = found
    z = w // 3
    # u, v are prime to 3 and u^2 = v^2 (mod 3), so 3 divides u+v or u-v
    if (u - v) % 3 == 0:
        x, three_y = u + v, u - v
    else:
        x, three_y = u - v, u + v
    return x, three_y // 3, z
