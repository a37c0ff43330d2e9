"""Range sieves and membership tests for sums of weighted polygonal terms.

A range sieve builds a numpy bool bitmap over [0, bound] in two steps.  The
sums of the two longest value streams are scattered into the bitmap in
chunked outer products.  Each further stream is one fold, ``outside``: the n
outside the sumset of a bitmap and a stream, by candidate elimination
(``eliminate``) from an all-alive bitmap, so that a stream without 0, such as
a set of offsets, is exact too.  Bitmaps of 2^20 entries and more lie on
memory maps of their own (``bitmap``), so that the peak RSS does not turn on
the layout of the heap.

Every exception list is re-verified at construction, and downstream
elimination certificates rely on that.  The re-check shares no code with
the sieve, and the form and prime re-checks use it too: ``sum_table``
scatters the sums of some value streams into a bool table row by row, and
``reached`` subtracts each walked value from every listed n at once in one
gather from that table.
"""

from __future__ import annotations

import mmap
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .polycore import (
    SumDomain,
    Term,
    TripleSum,
    Witness,
    poly_values_upto,
    poly_values_with_args,
    term_argument,
)

# Largest bound a range sieve takes; its two bool bitmaps then hold 200 MB.
MAX_RANGE_BOUND = 100_000_000

# Most pair sums one outer product of the pair step holds (int64, 512 KiB).
_PAIR_CHUNK = 1 << 16

# Elimination leaves whole-bitmap passes for a candidate array once at most
# 1/_SPARSE_SHARE of [0, bound] is alive.  From there the int64 candidates
# (a quarter byte per n at 1/32) are fewer bytes than the bool bitmap that
# each pass would read and write.  Bitmaps shorter than _DENSE_ONLY_BELOW
# stay dense and are never counted: there one pass plus its count costs
# less than the half-dozen numpy calls of one gather.  A count costs about
# as much as a dense pass, so the bitmap is counted before the first pass
# and then only before every _COUNT_EVERY-th.
_SPARSE_SHARE = 32
_DENSE_ONLY_BELOW = 1 << 15
_COUNT_EVERY = 8

# Bitmaps of at least this many entries lie on a memory map of their own
# (``bitmap``); below it, numpy allocates them.
_MAPPED_FROM = 1 << 20


def bitmap(size: int, fill: bool) -> np.ndarray:
    """Bool bitmap of ``size`` entries, all ``fill``.

    A large bitmap lies on an anonymous memory map of its own, resident in
    full from the start and unmapped as soon as the last array on it is
    freed, so that the peak RSS is the sum of the bitmaps alive at once.
    From malloc, whether a freed bitmap's memory stays resident, and
    whether the next bitmap reuses it, turns on the layout of the whole
    heap: the peak RSS of two runs differed by 2-3 MB for bounds a few
    entries apart, or for one bound launched another way.  Fresh
    pages cost about 0.3 ms per MB (2-vCPU VM).  tracemalloc cannot see a
    memory map, so while it traces, numpy allocates the bitmap.
    """
    if size < _MAPPED_FROM or not hasattr(mmap, "MAP_POPULATE") \
            or tracemalloc.is_tracing():
        return np.ones(size, dtype=bool) if fill else np.zeros(size, dtype=bool)
    bits = np.frombuffer(mmap.mmap(-1, size, mmap.MAP_PRIVATE
                                   | mmap.MAP_POPULATE), dtype=bool)
    if fill:
        bits.fill(True)
    return bits


class ReverificationError(RuntimeError):
    """A reported exception n turned out to be representable."""

    def __init__(self, sum_: TripleSum, n: int):
        super().__init__(f"exception re-verification failed: {n} is "
                         f"representable by {sum_}")
        self.sum = sum_
        self.n = n


def sum_table(streams: Sequence[Sequence[int]], top: int) -> np.ndarray:
    """Bool table over [0, top] of the sums of one value from each sorted
    stream of values in [0, top]: the longest stream is scattered at once,
    then each value v of a later stream adds the row v + (sums so far)."""
    streams = sorted(streams, key=len, reverse=True)
    table = np.zeros(top + 1, dtype=bool)
    table[np.asarray(streams[0], dtype=np.int64)] = True
    for stream in streams[1:]:
        sums = np.flatnonzero(table)
        table.fill(False)
        for v in stream:
            table[v + sums[: np.searchsorted(sums, top - v, side="right")]] = True
    return table


def reached(table: np.ndarray, ns: np.ndarray, walked: Iterable[int]
            ) -> np.ndarray:
    """Mask over the sorted int64 ``ns``, all covered by ``table``, of the n
    with table[n - w] set for some w in the sorted ``walked``: one gather
    over the n >= w per w, up to the largest n."""
    hit = np.zeros(ns.size, dtype=bool)
    for w in walked:
        start = int(np.searchsorted(ns, w))
        if start == ns.size:
            break
        hit[start:] |= table[ns[start:] - w]
    return hit


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, sorted in place.  ``np.unique`` would
    import ``numpy.ma``, and an increasing ``a``, such as a sieve's exception
    list, skips the sort, whose first call costs about 0.3 MB of RSS."""
    if not (a[1:] > a[:-1]).all():
        a.sort()
        keep = np.ones(a.size, dtype=bool)
        keep[1:] = a[1:] != a[:-1]
        a = a[keep]
    return a


def eliminate(alive: np.ndarray, hit: np.ndarray,
              values: Sequence[int]) -> np.ndarray:
    """Sorted int64 indices n of ``alive`` with no v in ``values`` such that
    hit[n - v] is set.

    ``alive`` and ``hit`` are bool bitmaps of one length; every value lies
    in [0, len - 1].  ``alive`` is overwritten, and the caller should hold no
    other reference to it, so that its memory is freed when the scan turns
    sparse.  While many n are alive, each value costs one pass over the
    bitmap; once few are, each costs one gather over the survivors.
    """
    size = alive.size
    rest = len(values)
    for i, v in enumerate(values):
        if (size >= _DENSE_ONLY_BELOW and i % _COUNT_EVERY == 0
                and np.count_nonzero(alive) * _SPARSE_SHARE <= size):
            rest = i
            break
        # alive[v:] &= ~hit[:...] in place: for booleans a > b is a and not b
        np.greater(alive[v:], hit[: size - v], out=alive[v:])
    alive = np.flatnonzero(alive)
    for v in values[rest:]:
        if not alive.size:
            break
        start = int(np.searchsorted(alive, v))
        reached = hit[alive[start:] - v]
        if reached.any():
            alive = np.concatenate((alive[:start], alive[start:][~reached]))
    return alive


def outside(bits: np.ndarray, stream: Sequence[int]) -> np.ndarray:
    """Sorted int64 n in [0, len - 1] outside the sumset ``bits`` + ``stream``:
    every n starts alive, and each value v of ``stream``, all in [0, len - 1],
    kills the n with bits[n - v] set."""
    return eliminate(bitmap(bits.size, True), bits, stream)


@dataclass(frozen=True)
class RangeBitset:
    """Membership bitmap of a sumset restricted to [0, bound]."""

    bound: int
    bits: np.ndarray

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.bound and bool(self.bits[n])

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def missing(self) -> list[int]:
        """Sorted positions in [0, bound] with the bit unset, found
        _PAIR_CHUNK entries at a time rather than in a complement of the
        whole bitmap."""
        return np.concatenate([
            np.flatnonzero(~self.bits[i : i + _PAIR_CHUNK]) + i
            for i in range(0, self.bits.size, _PAIR_CHUNK)]).tolist()

    def first_missing(self, count: int = 1) -> list[int]:
        """The first ``count`` positions with the bit unset (fewer if the
        bitmap has fewer), scanned _PAIR_CHUNK entries at a time up to the
        chunk where the last of them lies."""
        found: list[int] = []
        for i in range(0, self.bits.size, _PAIR_CHUNK):
            if len(found) >= count:
                break
            chunk = np.flatnonzero(~self.bits[i : i + _PAIR_CHUNK])
            found += (chunk[: count - len(found)] + i).tolist()
        return found


@dataclass(frozen=True)
class ExceptionReport:
    """Non-representable n <= bound for a polygonal sum, re-verified."""

    sum: TripleSum
    bound: int
    exceptions: tuple[int, ...]
    offsets: tuple[int, ...] = field(default=(0,))


def check_bound(bound: int) -> None:
    """Refuse a bitmap over [0, bound] before anything is allocated."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound > MAX_RANGE_BOUND:
        raise ValueError(f"bound {bound} above supported {MAX_RANGE_BOUND}")


def _pair_bits(first: Sequence[int], second: Sequence[int],
               bound: int) -> np.ndarray:
    """Bitmap over [0, bound] of first + second, one outer product of at
    most _PAIR_CHUNK sums per chunk of ``second``."""
    bits = bitmap(bound + 1, False)
    row = np.asarray(first, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // row.size)
    for i in range(0, len(second), step):
        col = np.asarray(second[i : i + step], dtype=np.int64)
        # the chunk's smallest value decides which of ``first`` can fit
        cut = row[: np.searchsorted(row, bound - col[0], side="right")]
        sums = (col[:, None] + cut).ravel()
        bits[sums[sums <= bound]] = True
    return bits


def range_sieve(terms: Sequence[Term], domain: SumDomain,
                bound: int) -> RangeBitset:
    """Exact membership bitmap of {sum of one value per term} on [0, bound]."""
    check_bound(bound)
    if not terms:
        raise ValueError("range_sieve takes at least one term")
    streams = sorted((poly_values_upto(t, domain, bound) for t in terms),
                     key=len, reverse=True)
    bits = _pair_bits(streams[0], streams[1] if len(streams) > 1 else [0],
                      bound)
    for stream in streams[2:]:
        survivors = outside(bits, stream)
        bits.fill(True)
        bits[survivors] = False
    return RangeBitset(bound, bits)


def _verify_non_representable(terms: Sequence[Term], domain: SumDomain,
                              ns: Iterable[int],
                              offsets: Sequence[int] = (0,)) -> None:
    """Exhaustively re-check that no n in ns is (value sum + offset), for
    offsets >= 0; raise ReverificationError naming the smallest n that is.

    The sums of all terms but the last go into a ``sum_table`` over
    [0, max ns], and every v + r over the last term's values v and the
    offsets r is walked against it by ``reached``.  The check deliberately
    calls neither ``_pair_bits`` nor ``eliminate``, so that a fault in the
    sieve kernel cannot hide in its own re-check.
    """
    ns = sorted_distinct(np.fromiter(ns, dtype=np.int64))
    if not ns.size:
        return
    top = int(ns[-1])
    head = [poly_values_upto(t, domain, top) for t in terms[:-1]] or [[0]]
    walked = np.add.outer(poly_values_upto(terms[-1], domain, top),
                          np.asarray(offsets, dtype=np.int64)).ravel()
    hit = reached(sum_table(head, top), ns, sorted_distinct(walked).tolist())
    if hit.any():
        raise ReverificationError(TripleSum(terms, domain),
                                  int(ns[np.argmax(hit)]))


def exceptions(sum_: TripleSum, bound: int) -> ExceptionReport:
    """Exact list of non-representable n <= bound, mandatory re-verified."""
    bitset = range_sieve(sum_.terms, sum_.domain, bound)
    missing = tuple(bitset.missing())
    _verify_non_representable(sum_.terms, sum_.domain, missing)
    return ExceptionReport(sum_, bound, missing)


def member_with_witness(sum_: TripleSum, n: int) -> Witness | None:
    """A witness tuple for n, or None (exhaustive search, so None is proof).

    The sparsest value stream is enumerated outermost; the innermost term is
    resolved by the square-completion membership test.  The first witness in
    that enumeration order is returned.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = sum_.terms
    domain = sum_.domain
    if len(terms) == 1:
        x = term_argument(terms[0], n, domain)
        return Witness((x,)) if x is not None else None
    order = sorted(range(len(terms)),
                   key=lambda i: len(poly_values_upto(terms[i], domain, n)))
    # innermost slot: densest stream, resolved arithmetically
    inner = order[-1]
    outer_slots = order[:-1]

    def rec(slot_idx: int, remaining: int, args: dict[int, int]) -> Witness | None:
        if slot_idx == len(outer_slots):
            x = term_argument(terms[inner], remaining, domain)
            if x is None:
                return None
            args[inner] = x
            return Witness(tuple(args[i] for i in range(len(terms))))
        i = outer_slots[slot_idx]
        for v, x in poly_values_with_args(terms[i], domain, remaining):
            args[i] = x
            found = rec(slot_idx + 1, remaining - v, args)
            if found is not None:
                return found
        return None

    return rec(0, n, {})


def offset_universal_check(terms: Sequence[Term], domain: SumDomain,
                           offsets: Iterable[int],
                           bound: int) -> ExceptionReport:
    """Exceptions of union over r in offsets of (sumset + r) on [0, bound]."""
    offsets = tuple(sorted(set(offsets)))
    if not offsets or min(offsets) < 0:
        raise ValueError("offsets must be a nonempty set of integers >= 0")
    # the offsets are one more value stream over the sumset bitmap
    missing = tuple(outside(range_sieve(terms, domain, bound).bits,
                            [r for r in offsets if r <= bound]).tolist())
    _verify_non_representable(terms, domain, missing, offsets)
    return ExceptionReport(TripleSum(terms, domain), bound, missing, offsets)
