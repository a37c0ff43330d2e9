"""Arithmetic the benchmark checks program output with.

Nothing here imports polysum: every answer is made from the definitions
(polygonal values, the Legendre set, prime sieving, form values) by code
of its own, so a fault in a shared polysum path cannot hide in a check.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

Term = tuple[int, int]  # (coefficient, order)


def parse_sum(text: str) -> tuple[Term, ...]:
    """``p3+2p4+p9`` -> ((1, 3), (2, 4), (1, 9))."""
    out = []
    for piece in text.split("+"):
        match = re.fullmatch(r"(\d*)\*?p(\d+)", piece)
        if not match:
            raise ValueError(f"bad term {piece!r}")
        out.append((int(match.group(1) or 1), int(match.group(2))))
    return tuple(out)


def poly(m: int, x: int) -> int:
    return ((m - 2) * x * x - (m - 4) * x) // 2


@lru_cache(maxsize=4096)
def term_values(a: int, m: int, domain: str, bound: int) -> tuple[int, ...]:
    """Sorted distinct a*p_m(x) <= bound, x >= 0 (domain N) or any x (Z)."""
    vals = set()
    for step in ((1,) if domain == "N" else (1, -1)):
        x = 0
        while a * poly(m, x) <= bound:
            vals.add(a * poly(m, x))
            x += step
    return tuple(sorted(vals))


def gaps(value_sets, bound: int) -> list[int]:
    """Every n <= bound that is not a sum of one value from each set.

    Elimination: the sums over the two largest sets are marked in a bitmap;
    candidates start as every n, and each sum s over the other sets drops
    the candidates n with n - s in that bitmap.
    """
    sets = sorted(([v for v in vs if v <= bound] for vs in value_sets),
                  key=len, reverse=True)
    head = np.zeros(bound + 1, dtype=bool)
    head[0] = True
    for vals in sets[:2]:
        sums = (np.flatnonzero(head)[:, None]
                + np.array(vals, dtype=np.int64)[None, :]).ravel()
        head = np.zeros(bound + 1, dtype=bool)
        head[sums[sums <= bound]] = True
    shifts = {0}
    for vals in sets[2:]:
        shifts = {s + v for s in shifts for v in vals if s + v <= bound}
    return _eliminate(np.ones(bound + 1, dtype=bool), head, sorted(shifts), 0)


def sumset_exceptions(terms, domain: str, bound: int, offsets=(0,)) -> list[int]:
    """Every n <= bound that is not r + (one value per term), r in offsets."""
    return gaps([term_values(a, m, domain, bound) for a, m in terms]
                + [list(offsets)], bound)


def _eliminate(alive: np.ndarray, hits: np.ndarray, shifts, floor: int) -> list[int]:
    """Clear alive[n] for every n with hits[n - s] for some shift s, where
    n - s >= floor; returns the n still alive.

    While many n are alive each shift is one slice operation over the whole
    bitmap; once few are, the survivors are tested one array at a time.
    """
    misses = ~hits
    shifts = list(shifts)
    i = 0
    while i < len(shifts) and np.count_nonzero(alive) * 32 > len(alive):
        s = shifts[i]
        if s + floor < len(alive):
            alive[s + floor :] &= misses[floor : len(alive) - s]
        i += 1
    cand = np.flatnonzero(alive)
    for s in shifts[i:]:
        if not len(cand):
            break
        first = int(np.searchsorted(cand, s + floor))
        tail = cand[first:]
        cand = np.concatenate((cand[:first], tail[misses[tail - s]]))
    return cand.tolist()


def witness(terms, domain: str, n: int) -> tuple | None:
    """One value per term summing to n, or None: exhaustive search."""
    *outer, last = terms
    last_set = set(term_values(*last, domain, n))

    def rec(i, rest, picked):
        if i == len(outer):
            return picked + (rest,) if rest in last_set else None
        vals = term_values(*outer[i], domain, n)
        for v in vals[: bisect_right(vals, rest)]:
            found = rec(i + 1, rest - v, picked + (v,))
            if found is not None:
                return found
        return None

    return rec(0, n, ())


# ---------------------------------------------------------------------------
# x^2 + y^2 + z^2 and the Legendre set
# ---------------------------------------------------------------------------

def legendre(n: int) -> bool:
    """n = 4^k (8l + 7): exactly the n that are not three squares."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 == 7


def legendre_upto(bound: int) -> list[int]:
    marks = np.zeros(bound + 1, dtype=bool)
    scale = 1
    while 7 * scale <= bound:
        marks[7 * scale :: 8 * scale] = True
        scale *= 4
    return np.flatnonzero(marks).tolist()


def legendre_count(bound: int) -> int:
    count, scale = 0, 1
    while 7 * scale <= bound:
        count += (bound - 7 * scale) // (8 * scale) + 1
        scale *= 4
    return count


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def prime_table(bound: int) -> np.ndarray:
    """Sieve of Eratosthenes over [0, bound], one bool per integer."""
    table = np.ones(bound + 1, dtype=bool)
    table[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if table[p]:
            table[p * p :: p] = False
    return table


def prime_exceptions(table: np.ndarray, a: int, order: int | None, bound: int,
                     universe: str, prime_filter=None) -> list[int]:
    """Every n in [2, bound] of the universe ("coprime": gcd(n, a) = 1, or
    "odd") that is not p + a*x^2 (order None) or p + a*p_order(x), x >= 0,
    with p a prime of table (and p = r mod q for prime_filter (q, r)).

    Elimination over x = 0, 1, 2, ... while a*f(x) <= bound - 2.
    """
    usable = table[: bound + 1].copy()
    if prime_filter is not None:
        q, r = prime_filter
        mask = np.zeros(bound + 1, dtype=bool)
        mask[r::q] = True
        usable &= mask
    alive = np.zeros(bound + 1, dtype=bool)
    if universe == "odd":
        alive[3::2] = True
    else:
        alive[2:] = True
        for p in range(2, a + 1):
            if a % p == 0 and all(p % d for d in range(2, isqrt(p) + 1)):
                alive[::p] = False
    shifts = []
    x = 0
    while a * (x * x if order is None else poly(order, x)) <= bound - 2:
        shifts.append(a * (x * x if order is None else poly(order, x)))
        x += 1
    return _eliminate(alive, usable, shifts, 2)


# ---------------------------------------------------------------------------
# diagonal forms, families and reductions
# ---------------------------------------------------------------------------

def parse_condition(token: str):
    """'-' (free) or 'q:r1,r2' (allowed residues of the variable mod q)."""
    if token == "-":
        return None
    mod, residues = token.split(":")
    return int(mod), tuple(int(r) for r in residues.split(","))


def variable_values(coef: int, cond, top: int) -> np.ndarray:
    """Distinct coef*y^2 <= top over integers y allowed by cond."""
    r = isqrt(top // coef)
    ys = np.arange(-r, r + 1, dtype=np.int64)
    if cond is not None:
        ys = ys[np.isin(ys % cond[0], cond[1])]
    return np.unique(coef * ys * ys)


def form_bitmap(coeffs, conds, top: int) -> np.ndarray:
    """bitmap[v] = v <= top is a x^2 + b y^2 + c z^2 under the conditions."""
    vals = [variable_values(c, cond, top) for c, cond in zip(coeffs, conds)]
    vals.sort(key=len)
    out = np.zeros(top + 1, dtype=bool)
    pair = (vals[0][:, None] + vals[1][None, :]).ravel()
    pair = np.unique(pair[pair <= top])
    for w in vals[2].tolist():
        hit = pair[pair <= top - w] + w
        out[hit] = True
    return out


def form_represents(coeffs, conds, n: int) -> bool:
    """Exhaustive search for a x^2 + b y^2 + c z^2 = n under conditions."""
    (a, b, c), (ca, cb, cc) = coeffs, conds

    def allowed(cond, v):
        return cond is None or v % cond[0] in cond[1]

    def ys(coef, cond, top):
        r = isqrt(top // coef)
        return range(0, r + 1) if cond is None else (
            v for v in range(-r, r + 1) if allowed(cond, v))

    for x in ys(a, ca, n):
        rx = n - a * x * x
        for y in ys(b, cb, rx):
            rz = rx - b * y * y
            if rz % c:
                continue
            z = isqrt(rz // c)
            if z * z == rz // c and (allowed(cc, z) or allowed(cc, -z)):
                return True
    return False


def family_bitmap(description: str, bound: int) -> np.ndarray:
    """Members <= bound of families "ql+r" / "t^k(ql+r)" joined by ';'."""
    marks = np.zeros(bound + 1, dtype=bool)
    for token in description.split(";"):
        match = re.fullmatch(r"(?:(\d+)\^k\()?(\d+)l(?:\+(\d+))?\)?", token)
        if not match:
            raise ValueError(f"bad family {token!r}")
        ratio = int(match.group(1) or 1)
        q, r = int(match.group(2)), int(match.group(3) or 0)
        scale = 1
        while scale <= bound:
            marks[scale * r :: scale * q] = True
            if ratio == 1:
                break
            scale *= ratio
    return marks


def canonical_reduction(terms):
    """(multiplier, constant, coefficients, conditions) with n a sum of the
    terms over Z <=> multiplier*n + constant is represented.

    From 8(m-2) p_m(x) + (m-4)^2 = ((2m-4)x - (m-4))^2: with M the lcm of
    the stretches 8(m-2) of the non-square terms, a*p_m becomes the
    variable y = (2m-4)x - (m-4), y = +-(m-4) mod 2m-4, with coefficient
    M*a / (8(m-2)); a square term keeps a free variable with coefficient M*a.
    """
    mult = lcm(*(8 * (m - 2) for _, m in terms if m != 4))
    coeffs, conds, constant = [], [], 0
    for a, m in terms:
        if m == 4:
            coeffs.append(mult * a)
            conds.append(None)
            continue
        c = mult * a // (8 * (m - 2))
        coeffs.append(c)
        constant += c * (m - 4) ** 2
        step = 2 * m - 4
        conds.append((step, tuple(sorted({(m - 4) % step, -(m - 4) % step}))))
    return mult, constant, tuple(coeffs), tuple(conds)


# ---------------------------------------------------------------------------
# elimination certificates
# ---------------------------------------------------------------------------

def certificate_holds(cert: dict) -> bool:
    """Check the claim a certificate makes from the definitions alone.

    ``cert`` holds the certificate's fields (kind, domain, fixed,
    witnesses, open_coefficient, open_count, threshold, check_bound,
    gap_count, parametric_orders, coefficient_cap).  Terms of order m >= 3
    with coefficient a take only the values {0, a} below a*m over N
    (p_m(2) = m), which is what the tail kinds rely on.
    """
    kind, domain = cert["kind"], cert["domain"]
    fixed = [tuple(t) for t in cert["fixed"]]
    wit = list(cert["witnesses"])

    def streams(top):
        return [term_values(a, m, domain, top) for a, m in fixed]

    if kind == "direct":
        return bool(wit) and all(witness(fixed, domain, n) is None for n in wit)
    if kind == "coefficient-tail":
        top = max(wit)
        if cert["threshold"] < top:
            return False
        return set(wit) <= set(gaps(streams(top), top))
    if kind == "order-tail":
        a, k, top = cert["open_coefficient"], cert["threshold"], max(wit)
        # the smallest nonzero value of a*p_j other than a, over all j > k
        lowest = a * (k + 1) if domain == "N" else a * (k + 1 - 3)
        if lowest <= top:
            return False
        return set(wit) <= set(gaps(streams(top) + [(0, a)], top))
    if kind == "frontier-tail":
        q, count = cert["check_bound"], cert["gap_count"]
        if cert["threshold"] != q + 1:
            return False
        cap = min(cert["coefficient_cap"] or q, q)
        choices = [(0, a) for a in range(1, cap + 1)] + [(0,)]

        def rec(i, start, sets):  # every multiset of open_count choices
            if i == cert["open_count"]:
                return len(gaps(sets, q)[:count]) == count
            return all(rec(i + 1, j, sets + [choices[j]])
                       for j in range(start, len(choices)))

        return rec(0, 0, streams(q))
    if kind == "parametric-tail":
        q, limit = cert["check_bound"], cert["threshold"]
        base = streams(q)
        options = [[term_values(a, m, domain, q) for a in range(1, q + 1)] + [(0,)]
                   for m in cert["parametric_orders"]]

        def rec(i, sets):
            if i == len(options):
                found = gaps(sets, q)[: cert["gap_count"]]
                return len(found) == cert["gap_count"] and found[-1] <= limit
            return all(rec(i + 1, sets + [opt]) for opt in options[i])

        return rec(0, base)
    return False
