"""Prime sieving and exception scans for n = p + a*x^2 and n = p + a*p_m(x).

``sieve_primes`` returns the odd primes as a packed bitmap of the odd n,
bit j standing for n = 2j + 1, bound / 16 bytes; every reader handles the
prime 2 on its own.  A scan eliminates candidates (``sumset.eliminate``):
every n of the universe starts alive, and each term value v, smallest first,
kills the alive n for which n - v is a prime passing the query's filter, so
the 10^7-scale runs take a fraction of a second.  The universe is one list
of primes that divide no universe n (``_universe_primes``).  The scan runs
by residue class: with Q = lcm(2, q) for a prime filter (q, r), or Q = 2
without one, every odd prime that passes lies in one class s mod Q, so each
class c of n is eliminated on its own against the class-s primes, and a
term value costs one pass over the B/Q entries of the one class it reaches;
``sumset``'s layout helpers clear its packed alive bitmap.  The class-s
primes are every (Q/2)-th bit of the odd table (``_prime_class``), taken
once per scan by ``sumset.take_every`` and inverted (``_class_miss``);
``sumset.eliminate`` overwrites the table it is given, so every class but
the last walks a copy.  The classes' short lists are merged by one
sort; lists that would outgrow a packed bitmap over [0, bound] are marked
in one as each class finishes and freed, and the bitmap is listed once.
The n = 2 + v, whose prime is 2, are killed by one scatter when 2 passes the
filter.  A filter with few candidates k = r (mod q) up to the bound for the
bound and its number of classes, such as a modulus above the bound, which
leaves r alone, and a filter with q and r both even, which no odd prime
passes, go through the sieve's pair step instead: ``sumset.sumset_bits``
packs the sums of the passing primes, 2 and the same class s, and the term
values over [0, bound], as it packs a sum of two terms, and one elimination
of the universe against their complement lists the exceptions, so that the
cost no longer grows with Q.
The re-check ``decomposed_among`` walks the same one odd class of primes:
it picks out the listed n of the classes that the term values reach, a
slice of the list at a time, and tests bits of the same odd table, but
shares no code with the scan.
Bounds and filter moduli above ``MAX_SIEVE_BOUND`` are refused: the cap
keeps the residue arithmetic mod Q in int64.  All outputs are complete up
to the scanned bound and nothing more: finiteness of the exception sets is
a conjecture, not an artifact claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .polycore import SumDomain, Term, poly_values_upto
from .sumset import (bitmap, clear_bits, clear_every, copy_bits, eliminate,
                     invert, is_set, mark_bits, pack_into, reached, set_bits,
                     sorted_distinct, sumset_bits, take_every)

# Odd n per segment of the prime sieve, a multiple of 8, so that each
# segment packs into whole bytes: a bool buffer of 512 KiB, which stays in
# L2, for 2^20 integers.  Sieving 10^7, ms, the lowest of three runs of
# best of 7, 2-vCPU VM shared with other jobs:
#   odd n   2^15  2^16  2^17  2^18  2^19  2^20
#   ms        31    20    14    11   9.8   8.9
# Narrower segments pay one slice per odd prime up to the root and
# segment; wider ones gain little and hold more.
_SEGMENT = 1 << 19
MAX_SIEVE_BOUND = 12_000_000

# A prime filter (q, r) goes through the pair step instead of walking the
# classes mod Q = lcm(2, q) when its cells, candidates k = r (mod q) up to
# the bound times term values, number at most _INTEGER_CELLS per integer of
# [0, bound] plus _CLASS_CELLS per class: the walk's passes grow with the
# bound, and each class costs about 0.1 ms of set-up however few entries it
# holds, while a cell of the pair step reads one candidate's primality and
# adds sums only for the passing ones.  Walk against pair step, filters
# (q, 1), universe coprime, ms, best of 5, 2-vCPU VM; each row gives the
# last q timed whose walk was faster, then the next (cells in millions):
#   a   bound      q   cells   walk   pair     q   cells   walk   pair
#   1   2*10^5    11     8.1    2.9    3.5    13     6.9    3.6    2.8
#   1   10^6      23    43.5   12.3   12.8    29    34.5   15.3   11.3
#   2   4*10^6    61    92.8   24.8   26.7    71    79.7   26.7   25.0
#   2   1.2*10^7 101   291.1   73.2   77.7   131   224.4   82.9   67.7
#   29  1.2*10^7  13   594.5  111.9  140.2    17   454.6  152.0  124.8
# The crossover lies at 19-50 cells per integer, no single number for
# every a: on 25 points around it, budgets from 28 to 44 err alike, by at
# most 43 ms at a point, and 32 does.  It picks the pair step at all 19
# points of the old scatter's sweep from 2*10^5 to 1.2*10^7, where that is
# the faster path.  At 41 cells per class,
# a = 2 and q = 19001 at 1.2*10^7 took 1.23 s over 38 002 classes and
# 0.034 s through the pair step.
_INTEGER_CELLS = 32
_CLASS_CELLS = 1 << 14

# Listed n whose residues the prime re-check takes at a time: 0.5 MB of them.
_RECHECK_SLICE = 1 << 16


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
def sieve_primes(bound: int) -> np.ndarray:
    """Read-only packed bitmap (``bitmap``) of the odd n <= bound, bit j
    standing for n = 2j + 1: whether n is prime.  The prime 2 is left to the
    readers.

    A segmented sieve of Eratosthenes over the odd n alone: the odd
    multiples p*p, p*p + 2p, ... of an odd prime p are every p-th odd n, so
    each segment of _SEGMENT odd n is sieved in one bool buffer by the odd
    primes up to the root of bound and packed into the bitmap as soon as it
    is done.  Memory stays at the bitmap, bound / 16 bytes, one segment and
    the primes up to the root."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if bound > MAX_SIEVE_BOUND:
        raise ValueError(f"bound {bound} above supported {MAX_SIEVE_BOUND}")
    size = (bound + 1) // 2
    odd = bitmap(size, False)
    root = math.isqrt(bound)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    primes = (2 * np.flatnonzero(base[3::2]) + 3).tolist()
    seg = np.empty(min(_SEGMENT, size), dtype=bool)
    for lo in range(0, size, _SEGMENT):
        part = seg[: min(_SEGMENT, size - lo)]
        part.fill(True)
        for p in primes:
            j = p * p >> 1  # the odd multiples j = p*p >> 1 (mod p) on
            if j >= lo + part.size:
                break
            if j < lo:
                j = lo + (j - lo) % p
            part[j - lo :: p] = False
        if not lo:
            part[0] = False  # n = 1
        pack_into(odd, part, lo)
    odd.flags.writeable = False
    return odd


def _prime_divisors(n: int) -> list[int]:
    found, d = [], 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return found + [n] if n > 1 else found


def _universe_primes(query: PrimePolyQuery) -> list[int]:
    """The universe as the primes d that divide no universe n: [2] for
    ``odd``, the prime divisors of the coefficient for ``coprime`` and none
    for ``all``."""
    if query.universe == "coprime":
        return _prime_divisors(query.coefficient)
    return [2] if query.universe == "odd" else []


def _universe_classes(query: PrimePolyQuery, period: int,
                      bound: int) -> list[int]:
    """The classes c mod ``period``, c <= bound, that hold universe n: those
    sharing no prime d of ``_universe_primes`` that divides period (n = c
    mod d for every n of the class)."""
    shared = [d for d in _universe_primes(query) if period % d == 0]
    return [c for c in range(min(period, bound + 1))
            if all(c % d for d in shared)]


def _class_alive(query: PrimePolyQuery, c: int, period: int, bound: int,
                 scattered: np.ndarray) -> np.ndarray:
    """Packed bitmap (``bitmap``) over i in [0, bound // period] of whether
    n = c + period*i is a universe n in [2, bound], for a class c from
    ``_universe_classes``, that is not in ``scattered`` (n that
    ``exception_scan`` kills by a scatter).  Every class has the length of
    the class-s prime bitmap, as ``eliminate`` needs; with c = 0 and period
    1 it is the universe over [0, bound]."""
    size = bound // period + 1
    alive = bitmap(size, True)
    for d in _universe_primes(query):
        if period % d:
            # c + period*i = 0 (mod d) at i = -c / period (mod d)
            clear_every(alive, -c * pow(period, -1, d) % d, d)
    # the entries past the class's last n, the n below 2 and the scattered n
    clear_bits(alive, np.concatenate((
        np.arange((bound - c) // period + 1, size),
        np.arange(len(range(c, 2, period))),
        (scattered[scattered % period == c] - c) // period)))
    return alive


def _odd_class(q: int, r: int) -> int | None:
    """The odd class s mod lcm(2, q) of the k = r (mod q), or None when
    q and r are both even: r itself when r is odd, else r + q when q is
    odd."""
    if r % 2:
        return r
    return r + q if q % 2 else None


def _prime_class(bound: int, s: int, period: int) -> np.ndarray:
    """Packed bitmap (``bitmap``) over i in [0, bound // period] of whether
    s + period*i is a prime up to bound, for an odd class s of an even
    period: every (period / 2)-th bit of the odd table from bit (s - 1) / 2
    on (``sumset.take_every``), so that no bool array over the range is
    built.  It has the length of every class of n (``_class_alive``): the
    class of primes may hold one entry fewer."""
    return take_every(sieve_primes(bound), (s - 1) // 2, period // 2,
                      bound // period + 1)


def _class_miss(bound: int, s: int, period: int) -> np.ndarray:
    """Complement of ``_prime_class``, as ``eliminate`` takes it, in a fresh
    table that ``eliminate`` may overwrite; for the class 1 mod 2 an
    inverted copy of the odd table."""
    miss = _prime_class(bound, s, period)
    np.invert(miss, out=miss)
    return miss


def exception_scan(query: PrimePolyQuery, bound: int) -> np.ndarray:
    """All n in the universe, 2 <= n <= bound, with no decomposition
    n = p + term(x) where p passes the prime filter, as a sorted int64
    array.

    With Q = lcm(2, q) for a prime filter (q, r), or Q = 2 without one,
    every odd prime that passes lies in the one odd class s = r (mod q) mod
    Q.  Each class c of n is eliminated on its own against that class of
    primes (``_class_miss``), walking only the term values
    v = c - s (mod Q) as shifts (v - c + s) / Q; n = 2 + v, whose prime is
    2, is killed by one scatter when 2 passes the filter.

    A filter whose cells, candidates k = r (mod q) up to the bound times
    term values, are few for the bound and its number of classes
    (_INTEGER_CELLS, _CLASS_CELLS), such as a modulus above the bound, which
    leaves r alone, and a filter with q and r both even, which no odd prime
    passes, skip the classes mod Q: the sums p + v of the passing primes p
    are one ``sumset.sumset_bits``, and one elimination of the universe
    over [0, bound] against their complement lists the exceptions."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    q, r = query.prime_filter or (1, 0)
    period, s = math.lcm(2, q), _odd_class(q, r)
    values = np.asarray(query.term_values(bound - 2), dtype=np.int64)
    cells = len(range(r, bound + 1, q)) * values.size
    if s is None or (q > 1 and cells <= (_INTEGER_CELLS * bound
                                         + period * _CLASS_CELLS)):
        # the prime 2, when it passes, then the class s of odd primes
        passing = np.array([2] if 2 % q == r else [], dtype=np.int64)
        if s is not None:
            odd = set_bits(_prime_class(bound, s, period))
            odd *= period
            odd += s
            passing = np.concatenate((passing, odd))
        miss = sumset_bits([passing, values], bound)
        invert(miss, bound + 1)
        return eliminate(_class_alive(query, 0, 1, bound, values[:0]), miss,
                         [0])
    table = _class_miss(bound, s, period)
    # the n = 2 + v, whose prime is 2
    scattered = values + 2 if 2 % q == r else values[:0]
    values = values[values <= bound - s]
    classes = _universe_classes(query, period, bound)
    held, size, marks = [], 0, None
    for c in classes:
        shifts = values[(values - c + s) % period == 0]
        # the alive bitmap is passed inline, so that eliminate holds its
        # only reference and frees it once the class turns sparse; eliminate
        # overwrites its miss, so every class but the last takes a copy
        found = eliminate(_class_alive(query, c, period, bound, scattered),
                          table if c == classes[-1] else copy_bits(table),
                          ((shifts - c + s) // period).tolist())
        found *= period
        found += c
        held.append(found)
        size += found.size
        del found
        if len(classes) > 1 and 64 * size > bound:
            # the lists would outgrow a packed bitmap over [0, bound]: the
            # classes are disjoint, so each list is marked in one and freed
            if marks is None:
                marks = bitmap(bound + 1, False)
            while held:
                mark_bits(marks, held.pop())
    if marks is not None:
        return set_bits(marks)
    if len(held) == 1:
        return held[0]
    # short lists: the classes are disjoint and each is sorted, so a merge
    # of the runs interleaves them
    found = np.concatenate(held)
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
    odd = sieve_primes(max(bound, 2))
    for x, v in enumerate(query.term_values(n - 2)):
        p = n - v
        if (p == 2 or p & 1 and is_set(odd, p >> 1)) and (
                query.prime_filter is None
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
    test of each v + 2 among the n.  Every odd p that passes lies in one
    class t mod Q = lcm(2, q): t = r when r is odd, r + q when q is odd, and
    none when both are even.  So p = n - v passes when n = v + t (mod Q).
    The v are sorted once by the class v + t of the n they reach.  The
    listed n of those classes are picked out _RECHECK_SLICE n at a time, so
    that no residue of the whole list is held, and sorted by class, so that
    each class walks only its own v against its own n.  n and v differ in
    parity there, so p is bit (n - v - 1) / 2 = (n >> 1) - ((v + 1) >> 1)
    of the packed odd table: ``sumset.reached`` walks the (v + 1) >> 1
    against the n >> 1."""
    ns = sorted_distinct(ns)
    if ns.size and ns[-1] > bound:
        raise ValueError(f"sieve bound {bound} below n = {ns[-1]}")
    table = sieve_primes(bound)
    values = np.asarray(query.term_values(bound - 2), dtype=np.int64)
    q, r = query.prime_filter or (1, 0)
    period = math.lcm(2, q)
    found = [ns[:0]]
    if 2 % q == r and ns.size:
        twos = values + 2
        at = np.minimum(np.searchsorted(ns, twos), ns.size - 1)
        found.append(twos[ns[at] == twos])
    if r % 2 or q % 2:
        t = r if r % 2 else r + q
        # the v by the class v + t of the n they reach
        values = values[np.argsort((values + t) % period, kind="stable")]
        reach = (values + t) % period
        walked = np.zeros(period, dtype=bool)
        walked[reach] = True
        # the listed n of the walked classes, by class
        listed = np.concatenate([part[walked[part % period]] for part in
                                 np.split(ns, range(_RECHECK_SLICE, ns.size,
                                                    _RECHECK_SLICE))])
        listed = listed[np.argsort(listed % period, kind="stable")]
        # class held[i] holds the n cuts[i]:cuts[i + 1], the v lo[i]:lo[i + 1]
        held = np.flatnonzero(walked)
        cuts = np.searchsorted(listed % period, held).tolist() + [listed.size]
        lo = np.searchsorted(reach, held).tolist() + [values.size]
        for i in np.flatnonzero(np.diff(cuts)).tolist():
            part = listed[cuts[i] : cuts[i + 1]]
            halves = (values[lo[i] : lo[i + 1]] + 1) >> 1
            found.append(part[reached(table, part >> 1, halves.tolist())])
    return sorted_distinct(np.concatenate(found))
