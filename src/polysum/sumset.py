"""Range sieves and membership tests for sums of weighted polygonal terms.

A sieve scatters the sums of the two longest value streams into a packed
bitmap over [0, bound] (``_pair_bits``): tile by tile into a bool window of
two tiles that stays in cache, each finished tile packed at once, so no
bool bitmap over [0, bound] is made.  It then folds in each further stream
with ``outside``: the n outside the sumset of a bitmap and a stream, found
by candidate elimination (``eliminate``), so a stream without 0 is exact
too.  ``eliminate`` takes the packed complement of the hit set, ``miss``:
its dense passes AND a shifted ``miss`` into the packed alive bitmap, and
its sparse phase tests bits of ``miss`` for a block of values at once.
An exception list is the survivors of one last ``outside``: the shortest
stream shifted by every offset walks the packed sieve of the other terms,
inverted in place as ``miss``, or for one or two terms the offsets alone
walk the pair bitmap.  ``inside``, the OR twin of ``outside``, takes a
packed bitmap and returns the packed sumset itself, for the form grids,
filling it one cache-sized window at a time.  ``unpack`` is the one way
back to bool, for ``range_sieve``'s ``RangeBitset``, whose short bitmaps
the screens fold by bool passes.
Only this module knows the packed layout and the memory maps (``bitmap``).

Every exception list is re-verified at construction, and elimination
certificates rely on that.  The re-check shares no code with the sieve, and
the form and prime re-checks use it too: ``sum_table`` scatters the sums of
some streams into a bool table, and ``reached`` subtracts each walked value
from every listed n at once, in one gather from that table.
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

# Largest bound a sieve takes; its packed bitmap then holds 12.5 MB, and so
# does each elimination's alive bitmap.  ``range_sieve``'s bool bitmap
# holds 100 MB.
MAX_RANGE_BOUND = 100_000_000

# Most pair sums one outer product of the pair step holds (int64, 512 KiB).
_PAIR_CHUNK = 1 << 16

# Value width W of the pair step's tiles: the sums of tiles k and l lie in
# [(k + l)W, (k + l + 2)W), the pair step's bool window of 512 KiB.
# Narrower tiles pay numpy calls per tile pair, wider ones leave L2.  The
# packed pair step of p4+p4, ms, median of five runs of best of 7 or 15
# (two runs of best of 3 at 10^8), 2-vCPU VM shared with other jobs:
#   W        2^17   2^18   2^19   2^20
#   4*10^6     16     15     20     25
#   10^7       55     49     52     60
#   10^8     2361    689    424    538
# 2^19 wins only near 10^8; the benchmark's bounds, up to 10^7, favour 2^18.
_PAIR_TILE = 1 << 18

# Bytes of the packed result that ``inside`` fills at a time, with every
# value below the window's end, before it moves on: the window stays in L2
# (2 MiB per core on the 2-vCPU VM) while the shifted copies stream through.
# Narrower windows pay numpy calls per value and window, wider ones leave
# L2.  x^2 + y^2 + z^2, s, best of 5 (10^7) or 2 (10^8), 2-vCPU VM; the
# last column is one pass over the whole result per value:
#   window  2^15   2^16   2^17   2^18   2^19   2^20   whole
#   10^7    0.24   0.19   0.12   0.10   0.11   0.17   0.17
#   10^8       -    6.1    4.3    3.6    3.2    5.0    9.6
_FOLD_WINDOW = 1 << 18

# Elimination leaves whole-bitmap passes for a candidate array once at most
# 1/_SPARSE_SHARE of [0, bound] is alive.  A packed pass moves three bits
# per n; a gather moves a few tens of bytes per value and survivor at or
# above it, and each block of values costs a handful of numpy calls.  Shares
# from 256 to 1024 timed alike on the prime scans and the large sieves
# (2-vCPU VM).  ``outside`` folds a bitmap shorter than _DENSE_ONLY_BELOW
# by one bool pass per value, and never counts it: the 3808 screen
# eliminations of under 2^11 entries took 0.27-0.31 s packed against
# 0.10-0.13 s as bool passes.  A count of a packed bitmap costs about three
# passes, so the bitmap is counted before the first pass and then only
# before every _COUNT_EVERY-th.
_SPARSE_SHARE = 512
_DENSE_ONLY_BELOW = 1 << 15
_COUNT_EVERY = 16

# Most cells (values times survivors) of one sparse gather of ``eliminate``.
# Smaller blocks pay numpy calls per value, larger ones waste cells below
# each value and leave L2.  Sparse phases of the prime-scan and sumset-sweep
# rounds, gathers and ms, best of 15, 2-vCPU VM:
#   cells          1   2^11  2^12  2^13  2^14  2^15  2^16  2^17
#   prime-scan  2816    596   420   270   166   112    80    62
#               49.9   17.8  16.7  16.0  14.9  17.0  22.1  42.2
#   sumset-sweep 832    132    90    68    48    38    32    26
#                9.9    3.2   3.7   4.2   4.2   6.2  15.2  29.1
_GATHER_CELLS = 1 << 14

# Nonzero 64-bit words that ``set_bits`` unpacks at a time: their bits and
# indices are the temporaries beside the result.  Packed bitmaps of 5*10^6
# entries, 10^4 set, and of 2*10^6 entries, 90 % set; ms, best of 7, and the
# tracemalloc peak over the result of the second (2-vCPU VM):
#   words      2^7   2^8   2^9  2^10  2^11  2^12  2^13  whole chunks
#   sparse    1.68  1.17  1.00  0.89  0.85  0.86  0.88      1.70
#   dense     6.98  5.04  4.70  4.36  4.55  5.08  6.29      5.76
#   peak      1.03  1.04  1.05  1.09  1.16  1.30  1.58      2.03
_UNPACK_WORDS = 1 << 10

# Bitmaps of at least this many entries lie on memory maps (``bitmap``).
_MAPPED_FROM = 1 << 20


def _buffer(length: int, dtype) -> np.ndarray:
    """A zeroed bool or uint8 array of ``length`` entries for ``bitmap``, on
    an anonymous memory map of its own when it holds _MAPPED_FROM bitmap
    entries or more."""
    if length * (8 if dtype is np.uint8 else 1) < _MAPPED_FROM \
            or not hasattr(mmap, "MAP_POPULATE") or tracemalloc.is_tracing():
        return np.zeros(length, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, length, mmap.MAP_PRIVATE
                                   | mmap.MAP_POPULATE), dtype=dtype)


def bitmap(size: int, fill: bool, packed: bool = False) -> np.ndarray:
    """Bitmap of ``size`` entries, all ``fill``.

    It is a bool array, or with ``packed`` a uint8 array holding eight
    entries per byte in little bit order (entry n is bit n % 8 of byte
    n // 8), padded with at least seven clear bits to whole 64-bit words, so
    that ``shift_up`` and ``eliminate`` can work on it a word at a time and
    a shift by fewer than 8 bits drops no entry.

    A bitmap of _MAPPED_FROM entries or more, packed or not, lies on an
    anonymous memory map of its own, resident in full from the start and
    unmapped as soon as the last array on it is freed, so that the peak RSS
    is the sum of the bitmaps alive at once.
    From malloc, whether a freed bitmap's memory stays resident, and
    whether the next bitmap reuses it, turns on the layout of the whole
    heap: the peak RSS of two runs differed by 2-3 MB for bounds a few
    entries apart, or for one bound launched another way.  Fresh
    pages cost about 0.3 ms per MB (2-vCPU VM).  tracemalloc cannot see a
    memory map, so while it traces, numpy allocates the bitmap.
    """
    bits = (_buffer(-(-(size + 7) // 64) * 8, np.uint8) if packed
            else _buffer(size, bool))
    if fill and packed:
        bits[: size // 8] = 0xFF
        if size % 8:
            bits[size // 8] = (1 << size % 8) - 1
    elif fill:
        bits.fill(True)
    return bits


def pack(bits: np.ndarray, size: int | None = None) -> np.ndarray:
    """The 1-D bool view ``bits`` as a packed bitmap from ``bitmap`` of
    ``size`` >= len(bits) entries, len(bits) by default, the entries past
    ``bits`` clear, packed _PAIR_CHUNK bytes at a time.  A strided view, such
    as a class of primes, is copied a chunk at a time into one buffer first:
    a strided ``packbits`` of a class at 10^7 took 8-12 ms, against 2.7 ms so
    (2-vCPU VM)."""
    step = 8 * _PAIR_CHUNK
    packed = bitmap(bits.size if size is None else size, False, packed=True)
    copy = (None if bits.flags.contiguous
            else np.empty(min(bits.size, step), dtype=bool))
    for i in range(0, bits.size, step):
        part = bits[i : i + step]
        if copy is not None:
            copy[: part.size] = part
            part = copy[: part.size]
        part = np.packbits(part, bitorder="little")
        packed[i // 8 : i // 8 + part.size] = part
    return packed


def shift_up(packed: np.ndarray, r: int) -> None:
    """Shift a packed bitmap from ``bitmap`` up by r bits in place, for
    0 <= r < 64: bit n moves to n + r, the top r bits fall off, and the r
    lowest come in clear.

    The little bit order is the order of the bits in a little-endian 64-bit
    word, so each word shifts up and takes the top r bits of the word below.
    The words are shifted _PAIR_CHUNK bytes at a time from the top down, so
    that each carry is read before its word moves and no temporary as large
    as the bitmap is made.
    """
    if r:
        words = packed.view("<u8")
        step = max(1, _PAIR_CHUNK // 8)
        for top in range(words.size, 0, -step):
            low = max(top - step, 0)
            carry = words[max(low - 1, 0) : top - 1] >> (64 - r)
            part = words[low:top]
            np.left_shift(part, r, part)
            part[part.size - carry.size :] |= carry


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


def sorted_distinct(ns: Sequence[int] | np.ndarray) -> np.ndarray:
    """The distinct entries of an int sequence or array as a sorted int64
    array.  An increasing int64 array, such as an exception list, is
    returned itself, and no array passed in is modified.  ``np.unique``
    would import ``numpy.ma``, and an increasing array skips the sort, whose
    first call costs about 0.3 MB of RSS."""
    a = np.asarray(ns, dtype=np.int64)
    if not (a[1:] > a[:-1]).all():
        a = np.sort(a)
        keep = np.ones(a.size, dtype=bool)
        keep[1:] = a[1:] != a[:-1]
        a = a[keep]
    return a


def set_bits(packed: np.ndarray, count: int | None = None) -> np.ndarray:
    """Sorted int64 indices of the set bits of a packed bitmap from
    ``bitmap``, of which there are ``count`` when the caller has counted
    them.  The result is allocated once, at its full size.  The nonzero
    64-bit words are found first, and only they are unpacked, _UNPACK_WORDS
    of them at a time, so that the unpacked bits and their indices stay
    small beside the result; a run of consecutive words is unpacked in
    place, others are gathered first."""
    words = packed.view("<u8")
    if count is None:
        count = count_bits(packed)
    found = np.empty(count, dtype=np.int64)
    nonzero = np.flatnonzero(words)
    at = 0
    for i in range(0, nonzero.size, _UNPACK_WORDS):
        held = nonzero[i : i + _UNPACK_WORDS]
        first = int(held[0])
        run = int(held[-1]) - first == held.size - 1
        part = words[first : first + held.size] if run else words[held]
        bits = np.flatnonzero(np.unpackbits(part.view(np.uint8),
                                            bitorder="little").view(bool))
        end = at + bits.size
        if run:
            np.add(bits, 64 * first, out=found[at:end])
        else:
            np.add(held[bits >> 6] << 6, bits & 63, out=found[at:end])
        at = end
    return found


# Bit b of a byte, for the sparse gathers of ``eliminate``.
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def eliminate(alive: np.ndarray, miss: np.ndarray,
              values: Sequence[int]) -> np.ndarray:
    """Sorted int64 indices n of ``alive`` with no v in ``values`` such that
    bit n - v of ``miss`` is clear.

    ``alive`` and ``miss`` are packed bitmaps of one length from ``bitmap``,
    ``alive``'s padding bits clear; ``miss`` is the complement of the hit
    set, and its padding bits do not matter.  Every value lies in
    [0, 8 * alive.size).  ``alive`` is overwritten, and so is ``miss``
    unless it is read-only, as a cached bitmap is: it is then copied before
    its first shift.  While many n are alive, a value v = 8q + r costs one
    byte-aligned pass ``alive[q:] &= miss[:...]`` with ``miss`` shifted up
    by r bits.  The values are walked by residue r, so ``miss`` moves up at
    most seven times; elimination does not depend on the order of the
    values.  Once at most 1/_SPARSE_SHARE of the n are alive, the survivors
    are unpacked, and the remaining values, smallest first, are tested in
    blocks: one 2-D gather of bits n - v + r of the shifted ``miss`` over
    the survivors n at or above the block's smallest v, for as many values
    as keep the block within _GATHER_CELLS cells, until no survivor is left
    at or above the next value.
    """
    size = 8 * alive.size
    # Python sorts: a numpy sort's first call in a process costs about
    # 0.4 MB of RSS, and an int64 copy of the values about 0.1 MB more on
    # the sumset-sweep workload
    values = sorted(values, key=lambda v: v & 7)
    rest = len(values)
    count = None
    r = 0
    for i, v in enumerate(values):
        if i % _COUNT_EVERY == 0:
            count = count_bits(alive)
            if _SPARSE_SHARE * count <= size:
                rest = i
                break
        if v & 7 != r:
            if not miss.flags.writeable:
                work = _buffer(miss.size, np.uint8)
                work[:] = miss
                miss = work
            shift_up(miss, (v & 7) - r)
            r = v & 7
            miss[0] |= (1 << r) - 1  # n < v is never hit
        # no view of alive outlives the loop, so that the packed bitmap is
        # freed once set_bits has read it
        q = v >> 3
        np.bitwise_and(alive[q:], miss[: alive.size - q], alive[q:])
    else:
        count = None  # passes ran after the last count
    alive = set_bits(alive, count)
    values = np.array(sorted(values[rest:]), dtype=np.int64)
    i = 0
    while i < values.size:
        start = int(np.searchsorted(alive, values[i]))
        if start == alive.size:
            break  # no n >= v is alive, so no later value reaches one
        part = alive[start:]
        # no value above the largest survivor reaches one
        stop = int(np.searchsorted(values, part[-1], side="right"))
        block = values[i : min(stop, i + max(1, _GATHER_CELLS // part.size))]
        i += block.size
        at = part - (block - r)[:, None]  # bit n - v + r of the shifted miss
        reach = at >= r  # n >= v
        np.maximum(at, 0, out=at)
        bit = _BIT[at & 7]
        bit &= miss[np.right_shift(at, 3, out=at)]
        killed = bit == 0
        killed &= reach
        dead = killed.any(axis=0)
        if dead.any():
            alive = np.concatenate((alive[:start], part[~dead]))
    return alive


def outside(bits: np.ndarray, stream: Sequence[int]) -> np.ndarray:
    """Sorted int64 n in [0, len - 1] outside the sumset ``bits`` + ``stream``
    for a bool bitmap ``bits``: every n starts alive, and each value v of
    ``stream``, all in [0, len - 1], kills the n with bits[n - v] set.

    A bitmap shorter than _DENSE_ONLY_BELOW takes one bool pass per value,
    which costs less there than the packed set-up; a longer one is packed
    for ``_outside_packed``."""
    size = bits.size
    if size >= _DENSE_ONLY_BELOW:
        return _outside_packed(pack(bits), size, stream)
    alive = np.ones(size, dtype=bool)
    for v in stream:
        # alive[v:] &= ~bits[:...] in place: for booleans a > b is a and
        # not b.  A positional ``out`` skips the keyword parsing, about
        # 0.7 of the 1.7 us a call takes on these short bitmaps.
        tail = alive[v:]
        np.greater(tail, bits[: size - v], tail)
    return np.flatnonzero(alive)


def _outside_packed(packed: np.ndarray, size: int,
                    stream: Sequence[int]) -> np.ndarray:
    """``outside`` of a packed bitmap from ``bitmap`` of ``size`` entries,
    which it overwrites: inverted in place, it is ``eliminate``'s ``miss``.
    Below _DENSE_ONLY_BELOW entries it is unpacked for the bool passes."""
    if size < _DENSE_ONLY_BELOW:
        return outside(unpack(packed, size), stream)
    np.invert(packed, out=packed)
    return eliminate(bitmap(size, True, packed=True), packed, stream)


def inside(packed: np.ndarray, size: int,
           stream: Sequence[int]) -> np.ndarray:
    """Packed bitmap over [0, size - 1] of the sumset ``packed`` + ``stream``,
    for a packed bitmap from ``bitmap`` of ``size`` entries, which it
    overwrites, and values in [0, size - 1]: each v = 8q + r ORs ``packed``,
    shifted up by r, into the result from byte q on.

    The values are walked by r as in ``eliminate``, so ``packed`` moves up
    at most seven times.  Within a residue the result is filled one window
    [lo, hi) of _FOLD_WINDOW bytes at a time, so that it stays in cache
    while every value with q < hi, smallest first, ORs into it:
    ``packed[lo - q : hi - q]`` for q <= lo, and from byte q on for
    lo < q < hi.  It suits a dense result, ``outside`` a sparse one:
    x^2 + y^2 + z^2 at 10^7 took 0.10-0.13 s here, 0.16-0.18 s as one pass
    over the whole result per value, and 0.22-0.26 s through ``outside``
    (2-vCPU VM)."""
    acc = bitmap(size, False, packed=True)
    classes: list[list[int]] = [[] for _ in range(8)]
    for v in sorted(stream):
        classes[v & 7].append(v)
    end = acc.size
    r = 0
    for cls, values in enumerate(classes):
        if not values:
            continue
        shift_up(packed, cls - r)
        r = cls
        for lo in range(0, end, _FOLD_WINDOW):
            hi = min(lo + _FOLD_WINDOW, end)
            window = acc[lo:hi]
            for v in values:
                q = v >> 3
                if q >= hi:
                    break
                if q <= lo:
                    np.bitwise_or(window, packed[lo - q : hi - q], window)
                else:
                    tail = acc[q:hi]
                    np.bitwise_or(tail, packed[: hi - q], tail)
    _clear_padding(acc, size)
    return acc


def _clear_padding(packed: np.ndarray, size: int) -> None:
    """Clear the bits at and above ``size`` of a packed bitmap from
    ``bitmap``."""
    packed[-(-size >> 3) :] = 0
    if size & 7:
        packed[size >> 3] &= (1 << (size & 7)) - 1


def invert(packed: np.ndarray, size: int) -> None:
    """Complement a packed bitmap from ``bitmap`` of ``size`` entries in
    place, its padding bits kept clear."""
    np.invert(packed, out=packed)
    _clear_padding(packed, size)


def unpack(packed: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` entries of a packed bitmap as a bool bitmap from
    ``bitmap``, unpacked _PAIR_CHUNK bytes at a time; the only way from a
    packed bitmap back to bool."""
    bits = bitmap(size, False)
    step = 8 * _PAIR_CHUNK
    for i in range(0, size, step):
        part = np.unpackbits(packed[i >> 3 : (i >> 3) + _PAIR_CHUNK],
                             count=min(step, size - i), bitorder="little")
        bits[i : i + step] = part.view(bool)
    return bits


def count_bits(packed: np.ndarray) -> int:
    """The number of set bits of a packed bitmap from ``bitmap``."""
    return int(np.bitwise_count(packed.view("<u8")).sum())


def first_bits(packed: np.ndarray, count: int) -> np.ndarray:
    """Sorted int64 indices of the first ``count`` set bits of a packed
    bitmap from ``bitmap`` (fewer if it holds fewer), allocated once and
    read by ``set_bits`` _UNPACK_WORDS words at a time up to the words that
    hold the last of them."""
    found = np.empty(count, dtype=np.int64)
    held = 0
    step = 8 * _UNPACK_WORDS
    for i in range(0, packed.size, step):
        if held == count:
            break
        part = set_bits(packed[i : i + step])[: count - held]
        np.add(part, 8 * i, out=found[held : held + part.size])
        held += part.size
    return found[:held]


def clear_bits(packed: np.ndarray, ns: np.ndarray) -> None:
    """Clear the entries ``ns`` (int64) of a packed bitmap from ``bitmap``.
    Several n may share a byte, so the ANDs are unbuffered."""
    np.bitwise_and.at(packed, ns >> 3,
                      ~np.left_shift(1, ns & 7).astype(np.uint8))


def clear_every(packed: np.ndarray, start: int, step: int) -> None:
    """Clear the entries start, start + step, ... of a packed bitmap from
    ``bitmap``, for 0 <= start < step: the cleared bits repeat every
    ``step`` bytes, so one ``step``-byte pattern is ANDed into each row."""
    keep = np.ones(8 * step, dtype=bool)
    keep[start::step] = False
    keep = np.packbits(keep, bitorder="little")
    whole = packed.size - packed.size % step
    rows = packed[:whole].reshape(-1, step)
    rows &= keep
    packed[whole:] &= keep[: packed.size - whole]


@dataclass(frozen=True)
class RangeBitset:
    """Membership bitmap of a sumset restricted to [0, bound]."""

    bound: int
    bits: np.ndarray

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.bound and bool(self.bits[n])

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def missing(self) -> np.ndarray:
        """Sorted int64 positions in [0, bound] with the bit unset."""
        return outside(self.bits, [0])

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


@dataclass(frozen=True, eq=False)
class ExceptionReport:
    """Non-representable n <= bound for a polygonal sum, re-verified, as a
    sorted int64 array.  Reports compare and hash by identity, as arrays
    do not compare by value."""

    sum: TripleSum
    bound: int
    exceptions: np.ndarray
    offsets: tuple[int, ...] = field(default=(0,))


def check_bound(bound: int) -> None:
    """Refuse a bitmap over [0, bound] before anything is allocated."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound > MAX_RANGE_BOUND:
        raise ValueError(f"bound {bound} above supported {MAX_RANGE_BOUND}")


def _pair_bits(first: Sequence[int], second: Sequence[int],
               bound: int) -> np.ndarray:
    """Packed bitmap (``bitmap(..., packed=True)``) over [0, bound] of
    first + second, sorted streams of values in [0, bound].  Both are cut
    into tiles of value width W = _PAIR_TILE, and the tile pairs (k, l) are
    walked by the anti-diagonal d = k + l, whose sums lie in
    [dW, (d + 2)W - 1): they are scattered into a bool window of two tiles
    and a byte, which starts at the first entry not yet packed.  Later
    diagonals write only at or above (d + 1)W, so once d is done the whole
    bytes below (d + 1)W are packed and the window moves up past them.  The
    window's base is subtracted from each row tile once per tile pair, and
    outer products of at most _PAIR_CHUNK sums share one buffer.  No sum is
    masked: the window also holds every sum above bound, of values up to
    bound, and only its entries up to bound are packed.  A mask made a
    temporary of up to 512 KiB and saved no time (2-vCPU VM)."""
    size = bound + 1
    packed = bitmap(size, False, packed=True)
    row = np.asarray(first, dtype=np.int64)
    col = np.asarray(second, dtype=np.int64)
    rows, cols = [row], [col]  # one tile, as for every screen's sieve
    if bound >= _PAIR_TILE:
        # tile t holds the values in [tW, (t + 1)W)
        cuts = np.arange(_PAIR_TILE, size, _PAIR_TILE)
        rows, cols = (np.split(v, np.searchsorted(v, cuts))
                      for v in (row, col))
    window = np.zeros(min(2 * _PAIR_TILE + 8, 2 * size), dtype=bool)
    buf = np.empty(min(max(_PAIR_CHUNK, row.size), row.size * col.size),
                   dtype=np.int64)
    base = 0  # the entry at window[0], a multiple of 8
    for d in range(len(rows)):
        for r, c in zip(rows[: d + 1], cols[d::-1]):
            if not (r.size and c.size):
                continue
            r = r - base
            step = max(1, _PAIR_CHUNK // r.size)
            for i in range(0, c.size, step):
                part = c[i : i + step]
                sums = buf[: part.size * r.size]
                np.add.outer(part, r, out=sums.reshape(part.size, r.size))
                window[sums] = True
        last = d == len(rows) - 1
        done = size - base if last else ((d + 1) * _PAIR_TILE - base) & ~7
        part = np.packbits(window[:done], bitorder="little")
        packed[base >> 3 : (base >> 3) + part.size] = part
        if not last:
            # one forward copy, which numpy makes without a temporary
            window[: window.size - done] = window[done:]
            window[window.size - done :] = False
            base += done
    return packed


def _sieve(terms: Sequence[Term], domain: SumDomain,
           bound: int) -> np.ndarray:
    """Packed bitmap over [0, bound] of {sum of one value per term}: the
    two longest streams by ``_pair_bits``, then each further stream by
    ``_outside_packed``, whose survivors are the clear entries."""
    check_bound(bound)
    if not terms:
        raise ValueError("range_sieve takes at least one term")
    streams = sorted((poly_values_upto(t, domain, bound) for t in terms),
                     key=len, reverse=True)
    bits = _pair_bits(streams[0], streams[1] if len(streams) > 1 else [0],
                      bound)
    for stream in streams[2:]:
        survivors = _outside_packed(bits, bound + 1, stream)
        bits = bitmap(bound + 1, True, packed=True)
        clear_bits(bits, survivors)
    return bits


def range_sieve(terms: Sequence[Term], domain: SumDomain,
                bound: int) -> RangeBitset:
    """Exact membership bitmap of {sum of one value per term} on [0, bound]."""
    return RangeBitset(bound, unpack(_sieve(terms, domain, bound), bound + 1))


def _verify_non_representable(terms: Sequence[Term], domain: SumDomain,
                              ns: Sequence[int] | np.ndarray,
                              offsets: Sequence[int] = (0,)) -> None:
    """Exhaustively re-check that no n in ns (an int sequence or array, as
    ``sorted_distinct`` takes) is (value sum + offset), for offsets >= 0;
    raise ReverificationError naming the smallest n that is.  An offset
    above max ns reaches none of them and is dropped.

    The sums of all terms but the last go into a ``sum_table`` over
    [0, max ns], and every v + r over the last term's values v and the
    offsets r is walked against it by ``reached``.  The check deliberately
    calls neither ``_pair_bits`` nor ``eliminate``, so that a fault in the
    sieve kernel cannot hide in its own re-check.
    """
    ns = sorted_distinct(ns)
    if not ns.size:
        return
    top = int(ns[-1])
    head = [poly_values_upto(t, domain, top) for t in terms[:-1]] or [[0]]
    near = np.asarray([r for r in offsets if r <= top], dtype=np.int64)
    walked = np.add.outer(poly_values_upto(terms[-1], domain, top),
                          near).ravel()
    hit = reached(sum_table(head, top), ns, sorted_distinct(walked).tolist())
    if hit.any():
        raise ReverificationError(TripleSum(terms, domain),
                                  int(ns[np.argmax(hit)]))


def _report(sum_: TripleSum, offsets: tuple, bound: int) -> ExceptionReport:
    """The re-verified survivors of one last ``outside`` (module docstring)."""
    check_bound(bound)
    domain = sum_.domain
    terms = sorted(sum_.terms,
                   key=lambda t: len(poly_values_upto(t, domain, bound)))
    walk = np.asarray([r for r in offsets if r <= bound], dtype=np.int64)
    if len(terms) > 2:
        walk = sorted_distinct(np.add.outer(
            poly_values_upto(terms.pop(0), domain, bound), walk).ravel())
    missing = _outside_packed(_sieve(terms, domain, bound), bound + 1,
                              walk[walk <= bound].tolist())
    _verify_non_representable(sum_.terms, domain, missing, offsets)
    return ExceptionReport(sum_, bound, missing, offsets)


def exceptions(sum_: TripleSum, bound: int) -> ExceptionReport:
    """Exact list of non-representable n <= bound, mandatory re-verified."""
    return _report(sum_, (0,), bound)


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
                           offsets: Iterable[int], bound: int
                           ) -> ExceptionReport:
    """Exceptions of union over r in offsets of (sumset + r) on [0, bound]."""
    offsets = tuple(sorted(set(offsets)))
    if not offsets or min(offsets) < 0:
        raise ValueError("offsets must be a nonempty set of integers >= 0")
    return _report(TripleSum(terms, domain), offsets, bound)
