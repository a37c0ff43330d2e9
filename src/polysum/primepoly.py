"""Prime sieving and exception scans for n = p + a*x^2 and n = p + a*p_m(x).

``sieve_primes`` returns the primes as a ``sumset.RangeBitset``, the bitmap
type of the sums.  A scan eliminates candidates (``sumset.eliminate``):
every n of the universe starts alive, and each term value v, smallest first,
kills the alive n for which n - v is a prime passing the query's filter, so
the 10^7-scale runs take a fraction of a second.  The scan runs by residue
class: with Q = lcm(2, q) for a prime filter (q, r), or Q = 2 without one,
every odd prime that passes lies in one class s mod Q, so each class c of n
is eliminated on its own against the class-s primes, and a term value costs
one pass over the B/Q entries of the one class it reaches; ``sumset``'s
layout helpers clear its packed alive bitmap.  ``sumset.pack`` packs the
class-s primes, a strided view of the prime bitmap, once per (bound, s, Q);
they are inverted and cached read-only (``_class_miss``).  The n = 2 + v,
whose prime is 2, are killed by one scatter when 2 passes the filter.  A
filter with few candidates k = r (mod q) up to the bound for the bound and
its number of classes, such as a modulus above the bound, which leaves r
alone, scatters the sums of its passing primes and the term values, a chunk
at a time, over the classes mod 2, and eliminates nothing, so that its cost
no longer grows with Q.  The re-check ``decomposed_among`` splits the
listed n by the same classes but shares no code with the scan.  Bounds and
filter moduli above ``MAX_SIEVE_BOUND`` are refused: the cap keeps the
residue arithmetic mod Q in int64.  All outputs are complete up to the
scanned bound and nothing more: finiteness of the exception sets is a
conjecture, not an artifact claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .polycore import SumDomain, Term, poly_values_upto
from .sumset import (RangeBitset, bitmap, clear_bits, clear_every, eliminate,
                     pack, reached, set_bits, sorted_distinct)

_SEGMENT = 1 << 20
MAX_SIEVE_BOUND = 12_000_000

# A prime filter (q, r) scatters the sums of its passing primes and the term
# values instead of walking the classes mod Q = lcm(2, q) when its cells,
# candidates k = r (mod q) up to the bound times term values, number at
# most _INTEGER_CELLS per integer of [0, bound] plus _CLASS_CELLS per class:
# the walk's passes grow with the bound, and each class costs about 0.1 ms
# of set-up however few entries it holds, while a cell of the scatter reads
# one candidate's primality and adds sums only for the passing ones.  Walk
# against scatter, best of 3, 2-vCPU VM: the scatter stopped winning
# between 1.7 and 2.9 million cells at 2*10^5 (a = 1, Q = 106 and 62),
# 9.9 and 18.9 million at 10^6 (a = 1, Q = 202 and 106), 27 and 56 million
# at 4*10^6 (a = 2, Q = 422 and 202), 58 and 117 million at 1.2*10^7
# (a = 2, Q = 1006 and 502), and 77 and 146 million there for a = 29
# (Q = 202 and 106, a tie at the first); the budget picks the faster path
# at all 16 points of that sweep.  At 41 cells per
# class, a = 2 and q = 19001 at 1.2*10^7 took 3.8 s over 38 002 classes and
# 0.16 s as a scatter.
_INTEGER_CELLS = 8
_CLASS_CELLS = 1 << 14

# Most sums of passing primes and term values scattered at a time (int64,
# 512 KiB), so that the scatter's memory does not grow with its cells.
_SCATTER_CHUNK = 1 << 16


@dataclass(frozen=True)
class PrimePolyQuery:
    """One decomposition question n = p + coefficient * shape(x).

    shape: "square" (x in Z, no order) or "polygonal" of the given order
    (x in N).
    universe: "all", "odd", or "coprime" (gcd(coefficient, n) = 1).
    prime_filter: optional (modulus, residue) restriction on p.
    """

    coefficient: int
    shape: str = "square"
    order: int | None = None
    universe: str = "all"
    prime_filter: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.coefficient < 1:
            raise ValueError("coefficient must be >= 1")
        if self.shape not in ("square", "polygonal"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.shape == "polygonal" and (self.order is None or self.order < 3):
            raise ValueError("polygonal shape needs an order >= 3")
        if self.shape == "square" and self.order is not None:
            raise ValueError("square shape takes no order")
        if self.universe not in ("all", "odd", "coprime"):
            raise ValueError(f"unknown universe {self.universe!r}")
        if self.prime_filter is not None:
            q, r = self.prime_filter
            if q < 1 or not 0 <= r < q:
                raise ValueError("prime filter needs modulus >= 1, 0 <= r < q")
            if q > MAX_SIEVE_BOUND:
                raise ValueError(f"prime filter modulus {q} above supported "
                                 f"{MAX_SIEVE_BOUND}")

    def term_values(self, bound: int) -> list[int]:
        """Sorted term values <= bound over x >= 0 (squares are
        sign-symmetric).  p_m(x + 1) - p_m(x) = (m - 2)x + 1 > 0, so the
        values increase and each value's index is its x."""
        return poly_values_upto(Term(self.coefficient, self.order or 4),
                                SumDomain.NATURALS, bound)


@lru_cache(maxsize=4)
def sieve_primes(bound: int) -> RangeBitset:
    """Primality bitmap over [0, bound], by a segmented sieve of
    Eratosthenes; memory stays at one segment plus the output bitmap."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if bound > MAX_SIEVE_BOUND:
        raise ValueError(f"bound {bound} above supported {MAX_SIEVE_BOUND}")
    bits = bitmap(bound + 1, False)
    root = int(bound ** 0.5) + 1
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, int(root ** 0.5) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.flatnonzero(base)
    bits[: root + 1] = base
    lo = root + 1
    while lo <= bound:
        hi = min(lo + _SEGMENT, bound + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base_primes.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        bits[lo:hi] = seg
        lo = hi
    return RangeBitset(bound, bits)


def _prime_divisors(n: int) -> list[int]:
    found, d = [], 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return found + [n] if n > 1 else found


def _universe_classes(query: PrimePolyQuery, period: int,
                      bound: int) -> list[int]:
    """The classes c mod ``period``, c <= bound, that hold universe n:
    ``odd`` leaves out the even c, and ``coprime`` each c sharing a prime
    divisor d of period with the coefficient (n = c mod d for every n)."""
    shared = [d for d in _prime_divisors(query.coefficient)
              if query.universe == "coprime" and period % d == 0]
    return [c for c in range(min(period, bound + 1))
            if not (query.universe == "odd" and c % 2 == 0)
            and all(c % d for d in shared)]


def _class_alive(query: PrimePolyQuery, c: int, period: int, bound: int,
                 scattered: np.ndarray) -> np.ndarray:
    """Packed bitmap (``bitmap(..., packed=True)``) over i in
    [0, bound // period] of whether n = c + period*i is a universe n in
    [2, bound], for a class c from ``_universe_classes``, that is not in
    ``scattered`` (n that ``exception_scan`` kills by a scatter).  Every
    class has the length of the class-s prime bitmap, as ``eliminate``
    needs."""
    size = bound // period + 1
    alive = bitmap(size, True, packed=True)
    if query.universe == "coprime":
        for d in _prime_divisors(query.coefficient):
            if period % d:
                # c + period*i = 0 (mod d) at i = -c / period (mod d)
                clear_every(alive, -c * pow(period, -1, d) % d, d)
    # the entries past the class's last n, and entry 0 when n = c < 2
    clear_bits(alive, np.concatenate((
        np.arange((bound - c) // period + 1, size), np.arange(int(c < 2)))))
    _clear_class(alive, scattered, c, period)
    return alive


def _clear_class(alive: np.ndarray, ns: np.ndarray, c: int,
                 period: int) -> None:
    """Clear the n of class c mod ``period`` among ``ns`` in the packed
    bitmap of that class (``_class_alive``)."""
    clear_bits(alive, (ns[ns % period == c] - c) // period)


def _odd_class(q: int, r: int) -> int | None:
    """The odd class s mod lcm(2, q) of the k = r (mod q), or None when
    q and r are both even: r itself when r is odd, else r + q when q is
    odd."""
    if r % 2:
        return r
    return r + q if q % 2 else None


@lru_cache(maxsize=4)
def _class_miss(bound: int, s: int, period: int) -> np.ndarray:
    """Read-only packed bitmap (``bitmap(..., packed=True)``) over i in
    [0, bound // period] of whether s + period*i is no prime up to bound:
    the complement of the class-s primes, as ``eliminate`` takes it, of
    the length of every class of n (``_class_alive``): the class of primes
    may hold one entry fewer.  No code writes to it: ``eliminate`` shifts a
    copy."""
    miss = pack(sieve_primes(bound).bits[s::period], bound // period + 1)
    np.invert(miss, out=miss)
    miss.flags.writeable = False
    return miss


def exception_scan(query: PrimePolyQuery, bound: int) -> np.ndarray:
    """All n in the universe, 2 <= n <= bound, with no decomposition
    n = p + term(x) where p passes the prime filter, as a sorted int64
    array.

    With Q = lcm(2, q) for a prime filter (q, r), or Q = 2 without one,
    every odd prime that passes lies in the one odd class s = r (mod q) mod
    Q, if there is one.  Each class c of n is eliminated on its own against
    that class of primes (``_class_miss``, cached), walking only the term
    values v = c - s (mod Q) as shifts (v - c + s) / Q; n = 2 + v, whose
    prime is 2, is killed by one scatter when 2 passes the filter.

    A filter whose cells, candidates k = r (mod q) up to the bound times
    term values, are few for the bound and its number of classes
    (_INTEGER_CELLS, _CLASS_CELLS), such as a modulus above the bound, which
    leaves r alone, skips the classes mod Q: the sums p + v of the passing
    primes p are scattered over the classes mod 2, at most _SCATTER_CHUNK
    at a time, and nothing is eliminated."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    q, r = query.prime_filter or (1, 0)
    values = np.asarray(query.term_values(bound - 2), dtype=np.int64)
    cells = len(range(r, bound + 1, q)) * values.size
    if q > 1 and cells <= (_INTEGER_CELLS * bound
                           + math.lcm(2, q) * _CLASS_CELLS):
        passing = r + q * np.flatnonzero(sieve_primes(bound).bits[r::q])
        classes = _universe_classes(query, 2, bound)
        alive = [_class_alive(query, c, 2, bound, values[:0])
                 for c in classes]
        step = max(1, _SCATTER_CHUNK // values.size)
        for i in range(0, passing.size, step):
            sums = np.add.outer(passing[i : i + step], values).ravel()
            sums = sums[sums <= bound]
            for c, bits in zip(classes, alive):
                _clear_class(bits, sums, c, 2)
        found = [c + 2 * set_bits(bits) for c, bits in zip(classes, alive)]
    else:
        period, s = math.lcm(2, q), _odd_class(q, r)
        # the n = 2 + v, whose prime is 2
        scattered = values + 2 if 2 % q == r else values[:0]
        if s is not None:
            miss = _class_miss(bound, s, period)
            values = values[values <= bound - s]
        found = []
        for c in _universe_classes(query, period, bound):
            # the alive bitmap is passed inline, so that eliminate holds its
            # only reference and frees it once the class turns sparse
            if s is not None:
                shifts = values[(values - c + s) % period == 0]
                survivors = eliminate(
                    _class_alive(query, c, period, bound, scattered),
                    miss, ((shifts - c + s) // period).tolist())
            else:
                survivors = set_bits(
                    _class_alive(query, c, period, bound, scattered))
            found.append(c + period * survivors)
    if len(found) == 1:
        return found[0]
    # the classes are disjoint and each is sorted, so a merge of the runs
    # interleaves them
    found = np.concatenate(found)
    found.sort(kind="stable")
    return found


def max_exception(query: PrimePolyQuery, bound: int) -> int | None:
    """Maximum of exception_scan, or None when the scan is empty."""
    found = exception_scan(query, bound)
    return int(found[-1]) if found.size else None


def decomposition_witness(query: PrimePolyQuery, n: int,
                          bound: int) -> tuple[int, int] | None:
    """A concrete (p, x) with n = p + term(x), or None (exhaustive per n).

    The primes come from sieve_primes(bound), so bound must be at least n.
    """
    if bound < n:
        raise ValueError(f"sieve bound {bound} below n = {n}")
    sieve = sieve_primes(max(bound, 2))
    for x, v in enumerate(query.term_values(n - 2)):
        p = n - v
        if p in sieve and (query.prime_filter is None
                           or p % query.prime_filter[0] == query.prime_filter[1]):
            return p, x
    return None


def decomposed_among(query: PrimePolyQuery,
                     ns: Sequence[int] | np.ndarray, bound: int) -> np.ndarray:
    """The n <= bound in ns (an int sequence or array, as
    ``sumset.sorted_distinct`` takes) that have a decomposition, as a sorted
    int64 array.

    Independent of the scan: the table is the unfiltered sieve_primes(bound).
    The prime 2, when it passes a prime filter (q, r), is one membership
    test of each v + 2 among the n.  An odd p = n - v passes when
    n - v = t (mod lcm(2, q)) for an odd t among r, r + q.  The n of the
    classes that some v + t reaches are sorted by class once, and so are
    the v by the class v + t, so that each such class walks only its own v
    against its own slice of the n."""
    ns = sorted_distinct(ns)
    if ns.size and ns[-1] > bound:
        raise ValueError(f"sieve bound {bound} below n = {ns[-1]}")
    table = sieve_primes(bound).bits
    values = np.asarray(query.term_values(bound - 2), dtype=np.int64)
    q, r = query.prime_filter or (1, 0)
    period = math.lcm(2, q)
    found = [ns[:0]]
    if 2 % q == r and ns.size:
        twos = values + 2
        at = np.minimum(np.searchsorted(ns, twos), ns.size - 1)
        found.append(twos[ns[at] == twos])
    # per odd t, the class v + t of each v
    reach = [(values + t) % period for t in range(r, period, q) if t % 2]
    walked = np.zeros(period, dtype=bool)
    for targets in reach:
        walked[targets] = True
    # the listed n of the walked classes, each class a contiguous slice
    classes = ns % period
    keep = walked[classes]
    listed, classes = ns[keep], classes[keep]
    order = np.argsort(classes, kind="stable")
    listed, classes = listed[order], classes[order]
    starts = np.flatnonzero(np.diff(classes, prepend=-1))
    ends = np.append(starts[1:], classes.size)
    held = classes[starts]
    for targets in reach:
        # the v by the class v + t they reach, each class a contiguous slice
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        lo = np.searchsorted(targets, held)
        hi = np.searchsorted(targets, held, side="right")
        for i in np.flatnonzero(lo < hi).tolist():
            part = listed[starts[i] : ends[i]]
            found.append(part[reached(table, part,
                                      values[order[lo[i] : hi[i]]].tolist())])
    return sorted_distinct(np.concatenate(found))
