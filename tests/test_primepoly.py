import contextlib
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polysum import primepoly, sumset
from polysum.primepoly import (
    PrimePolyQuery,
    decomposed_among,
    decomposition_witness,
    exception_scan,
    max_exception,
    sieve_primes,
)


def _reference_sieve(bound):
    """Plain sieve of Eratosthenes: a bool table over [0, bound]."""
    table = np.ones(bound + 1, dtype=bool)
    table[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if table[p]:
            table[p * p :: p] = False
    return table


def _odd_bits(odd, count):
    """The first ``count`` bits of a packed bitmap, as bools."""
    return np.unpackbits(odd, count=count, bitorder="little").view(bool)


def test_sieve_small():
    # bit j stands for n = 2j + 1: 1 and 9 are clear, and 2 is no bit
    odd = sieve_primes(10)
    assert (2 * sumset.set_bits(odd) + 1).tolist() == [3, 5, 7]
    assert odd.size == sumset.bitmap(5, False).size
    assert not sumset.is_set(odd, 0) and not odd.flags.writeable
    assert decomposition_witness(PrimePolyQuery(1), 2, 10) == (2, 0)
    assert decomposition_witness(PrimePolyQuery(1), 9, 10) == (5, 2)


def test_sieve_crosses_segments():
    # 3*10^6 holds three segments of odd n; its first 500 odd n are those
    # of 1000, and all of it is the plain sieve's
    big = sieve_primes(3_000_000)
    small = sieve_primes(1000)
    assert (3_000_000 + 1) // 2 > 2 * primepoly._SEGMENT
    assert np.array_equal(_odd_bits(big, 500), _odd_bits(small, 500))
    assert np.array_equal(_odd_bits(big, 8 * big.size),
                          np.append(_reference_sieve(3_000_000)[1::2],
                                    np.zeros(8 * big.size - 1_500_000, bool)))


def test_prime_count_to_a_million():
    # the odd primes and 2
    assert sumset.count_bits(sieve_primes(10**6)) + 1 == 78498


# The seams between segments: segment k starts at odd n = 2k*_SEGMENT + 1,
# and bounds on either side of it, even and odd, end a segment with an
# entry or two, or leave the last one whole; then segments of 8 to 64 odd
# n, so that bounds up to 4000 cross many seams.
_SEAM = 2 * primepoly._SEGMENT + 1


@pytest.mark.parametrize("bound", [2, 3, 4, 5, 9, 10, 11, 1000, 10**6]
                         + [k * _SEAM + d for k in (1, 2)
                            for d in (-2, -1, 0, 1, 2, 3)])
def test_sieve_equals_reference(bound):
    odd = sieve_primes(bound)
    size = (bound + 1) // 2
    assert odd.size == sumset.bitmap(size, False).size
    bits = _odd_bits(odd, 8 * odd.size)
    assert np.array_equal(bits[:size], _reference_sieve(bound)[1::2])
    assert not bits[size:].any()  # the padding is clear


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4000), st.sampled_from([8, 16, 24, 64]))
def test_sieve_with_short_segments_equals_reference(bound, segment):
    sieve_primes.cache_clear()
    try:
        with mock.patch.object(primepoly, "_SEGMENT", segment):
            odd = sieve_primes(bound)
    finally:
        sieve_primes.cache_clear()
    size = (bound + 1) // 2
    bits = _odd_bits(odd, 8 * odd.size)
    assert np.array_equal(bits[:size], _reference_sieve(bound)[1::2])
    assert not bits[size:].any()


def test_bounds_validation():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ValueError):
        sieve_primes(20_000_001)
    with pytest.raises(ValueError):
        PrimePolyQuery(2, "polygonal")  # missing order
    with pytest.raises(ValueError):
        PrimePolyQuery(2, "square", 5)  # an order the square shape ignores
    with pytest.raises(ValueError):
        PrimePolyQuery(0)


def test_scan_s12_prefix():
    query = PrimePolyQuery(12, "square", universe="coprime")
    assert exception_scan(query, 100_000).tolist() == [133]
    assert max_exception(query, 100_000) == 133


def test_scan_respects_universe():
    query = PrimePolyQuery(2, "polygonal", 5, "odd")
    found = exception_scan(query, 2000)
    assert found.tolist() == [135, 345, 539]
    assert all(n % 2 == 1 for n in found)


def test_filter_monotonicity():
    base = PrimePolyQuery(2, "polygonal", 5, "odd")
    filtered = PrimePolyQuery(2, "polygonal", 5, "odd", (4, 1))
    loose = set(exception_scan(base, 30_000))
    tight = set(exception_scan(filtered, 30_000))
    assert loose <= tight


def test_scan_soundness():
    rng = random.Random(7)
    query = PrimePolyQuery(3, "square", universe="coprime")
    bound = 50_000
    excluded = set(exception_scan(query, bound))
    prime = _reference_sieve(bound)
    probes = rng.sample(sorted(excluded), min(100, len(excluded)))
    for n in probes:
        x = 0
        while 3 * x * x <= n - 2:
            assert not prime[n - 3 * x * x]
            x += 1
    candidates = [n for n in rng.sample(range(2, bound), 300)
                  if n not in excluded and n % 3 != 0][:100]
    for n in candidates:
        witness = decomposition_witness(query, n, bound)
        assert witness is not None
        p, x = witness
        assert prime[p] and p + 3 * x * x == n


def test_empty_scan():
    query = PrimePolyQuery(6, "square", universe="coprime")
    assert max_exception(query, 100_000) is None


_FILTERS = st.none() | st.integers(1, 12).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, q - 1)))


@st.composite
def _queries(draw, filters=_FILTERS):
    coefficient = draw(st.sampled_from([4, 12, 18, 24, 29, 30])
                       | st.integers(1, 40))
    order = draw(st.none() | st.integers(3, 8))
    return PrimePolyQuery(
        coefficient, "square" if order is None else "polygonal", order,
        draw(st.sampled_from(["all", "odd", "coprime"])), draw(filters))


def _in_universe(query, n):
    if query.universe == "odd":
        return n % 2 == 1
    if query.universe == "coprime":
        return math.gcd(n, query.coefficient) == 1
    return True


@contextlib.contextmanager
def _scan_path(path, tile=8):
    """Send every prime filter to the class walk or to the scatter, whose
    pair step then runs packed at every bound, on tiles of ``tile`` values
    and outer products of 2 sums, or leave the choice to the scan."""
    with mock.patch.multiple(primepoly, **{
            "walk": {"_INTEGER_CELLS": 0, "_CLASS_CELLS": 0},
            "scatter": {"_CLASS_CELLS": 1 << 40},
            "choice": {"_CLASS_CELLS": primepoly._CLASS_CELLS}}[path]):
        if path == "scatter":
            with mock.patch.multiple(sumset, _PAIR_TILE=tile, _PAIR_CHUNK=2,
                                     _INT_BELOW=0):
                yield
        else:
            yield


# The share decides when the scan leaves whole-bitmap passes for a candidate
# array: 1 switches before the first term value, 2**40 never switches.  A
# gather block of 1 cell tests one term value at a time, 2**20 all at once.
# A filter with few candidates up to the bound scatters the sums of its
# passing primes: the examples take a modulus above the bound, which leaves
# at most the prime r itself, with r prime, r not prime, r = 2 and r above
# the bound, and moduli below the bound with one to six candidates.  Every
# filter also takes the class walk and the scatter by force, and the walk
# of filter (500, 7) has 1000 classes.
@settings(max_examples=100, deadline=None)
@given(_queries(), st.integers(2, 3000),
       st.sampled_from([1, sumset._SPARSE_SHARE, 1 << 40]),
       st.sampled_from([1, 3, 1 << 20]),
       st.sampled_from(["walk", "choice", "scatter"]))
@example(PrimePolyQuery(2, universe="all", prime_filter=(3001, 1999)), 3000,
         sumset._SPARSE_SHARE, 1, "choice")
@example(PrimePolyQuery(6, "polygonal", 5, "coprime", (4000, 2001)), 3000,
         1, 3, "choice")
@example(PrimePolyQuery(3, "polygonal", 7, "odd", (4096, 2)), 3000,
         1 << 40, 1 << 20, "choice")
@example(PrimePolyQuery(2, universe="all", prime_filter=(4096, 2)), 1000,
         1, 1, "choice")
@example(PrimePolyQuery(5, universe="all", prime_filter=(5000, 4001)), 3000,
         1, 1, "choice")
@example(PrimePolyQuery(1, universe="all", prime_filter=(500, 7)), 3000,
         1, 1, "choice")
@example(PrimePolyQuery(1, universe="all", prime_filter=(500, 7)), 3000,
         1, 1, "walk")
@example(PrimePolyQuery(4, "polygonal", 6, "odd", (1500, 2)), 3000, 1, 1,
         "choice")
@example(PrimePolyQuery(3, universe="coprime", prime_filter=(12, 7)), 3000,
         1, 1, "scatter")
def test_scan_equals_witness_sweep(query, bound, share, cells, path):
    brute = [n for n in range(2, bound + 1)
             if _in_universe(query, n)
             and decomposition_witness(query, n, bound) is None]
    with mock.patch.object(sumset, "_SPARSE_SHARE", share), \
            mock.patch.object(sumset, "_GATHER_CELLS", cells), \
            _scan_path(path):
        assert exception_scan(query, bound).tolist() == brute


def test_repeated_scans_agree_and_each_class_miss_is_fresh():
    # eliminate overwrites the table it is given: every class but the last
    # walks a copy, and each call builds a new, writable table, so a second
    # scan reads the same classes of primes as the first
    bound = 100_000
    query = PrimePolyQuery(3, universe="all")
    first = exception_scan(query, bound)
    assert np.array_equal(exception_scan(query, bound), first)
    miss = primepoly._class_miss(bound, 1, 2)
    again = primepoly._class_miss(bound, 1, 2)
    assert miss is not again and not np.shares_memory(miss, again)
    assert miss.flags.writeable and miss.tobytes() == again.tobytes()
    sumset.eliminate(sumset.bitmap(bound // 2 + 1, True), miss, [1, 2, 3])
    assert miss.tobytes() != again.tobytes()
    assert primepoly._class_miss(bound, 1, 2).tobytes() == again.tobytes()
    # the class 1 mod 2 is the odd table inverted, entry i being n = 2i + 1
    primes = _reference_sieve(bound)[1::2]
    assert np.array_equal(_odd_bits(again, primes.size), ~primes)
    assert again.size == sumset.bitmap(bound // 2 + 1, False).size


# The classes of primes against the plain sieve, bit by bit: periods 2, 4,
# 6 and 10, whose result bytes take several entries from one byte of the odd
# table, and 2q for large q, whose class holds a few entries or none; bounds
# small, even and odd, and on either side of a segment seam.  Each has the
# length of the classes of n, and ``_prime_class``, whose set bits the pair
# step lists, keeps its padding clear.
@pytest.mark.parametrize("bound", [2, 3, 10, 11, 1000, 99_999, _SEAM - 1,
                                   _SEAM, 2 * _SEAM + 2])
@pytest.mark.parametrize("period", [2, 4, 6, 10, 2 * 3001, 2 * 100_003,
                                    2 * 5_999_999])
def test_class_miss_equals_reference(bound, period):
    prime = _reference_sieve(bound)
    count = bound // period + 1
    size = sumset.bitmap(count, False).size
    for s in list(range(1, period, 2))[:12]:
        n = s + period * np.arange(8 * size)
        expected = np.zeros(n.size, dtype=bool)
        inside = n <= bound
        expected[inside] = prime[n[inside]]
        primes = primepoly._prime_class(bound, s, period)
        assert primes.size == size
        assert np.array_equal(_odd_bits(primes, n.size), expected)
        miss = primepoly._class_miss(bound, s, period)
        assert miss.size == size
        assert np.array_equal(_odd_bits(miss, count), ~expected[:count])


# Result chunks of one word, so that the class mod 4 of 10^5 is taken from
# the odd table in 390 pieces
def test_prime_class_across_chunks():
    bound = 100_000
    prime = _reference_sieve(bound)
    with mock.patch.object(sumset, "_PAIR_CHUNK", 8):
        for period, s in [(4, 1), (4, 3), (6, 5), (22, 7)]:
            primes = primepoly._prime_class(bound, s, period)
            expected = np.flatnonzero(prime)
            expected = expected[expected % period == s]
            assert (s + period * sumset.set_bits(primes)).tolist() == \
                expected.tolist()


def test_sieve_memory():
    # the packed odd table, bound / 16 bytes, one bool segment and its
    # packed copy; the bool table over [0, bound] was 10 MB
    bound = 10**7
    tracemalloc.start()
    try:
        sieve_primes.__wrapped__(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound // 16 + primepoly._SEGMENT + (1 << 17)


def test_class_merge_memory_per_integer():
    # the classes 0 and 1 mod 2 of p + 2x^2 over all n at 2*10^6: the list
    # of 999 002 n alone is 4.0 bytes per integer, each class's list is
    # marked in one bitmap over [0, bound] and freed, and the bitmap is
    # listed once; the concatenation and sort of the class lists took 8.0
    bound = 2_000_000
    query = PrimePolyQuery(2, universe="all")
    sieve_primes(bound)
    tracemalloc.start()
    try:
        found = exception_scan(query, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.size == 999_002 and (found[1:] > found[:-1]).all()
    # Stern's two odd exceptions to Goldbach's other conjecture
    assert found[found % 2 == 1].tolist() == [5777, 5993]
    assert peak < 5.5 * bound


def _check_class_alive(query, c, period, bound, picks):
    """The packed class bitmap against its definition, bit by bit, padding
    included, with ``twos`` at the entries ``picks`` of the class."""
    size = bound // period + 1
    twos = np.array(sorted({c + period * (i % size) for i in picks}),
                    dtype=np.int64)
    twos = np.concatenate([twos, twos + 1])  # another class: ignored
    alive = primepoly._class_alive(query, c, period, bound, twos)
    listed = set(twos.tolist())
    expected = [2 <= n <= bound and _in_universe(query, n) and n not in listed
                for n in range(c, c + period * alive.size * 8, period)]
    assert alive.dtype == np.uint8
    assert np.unpackbits(alive, bitorder="little").astype(bool).tolist() \
        == expected


# Coprime strides d of 3, 5, 7 and 29, bounds that leave a partial last
# byte, and n in ``twos`` that share one byte: the clears of one byte must
# not overwrite each other.
@pytest.mark.parametrize("coefficient,prime_filter,bound,picks", [
    (3, None, 2 * 8 * 3 * 5 + 3, [8, 9, 10, 13, 15]),
    (5, None, 999, [0, 1, 2, 3, 4, 5, 6, 7]),
    (7, (4, 1), 4 * 8 * 7 + 9, [16, 17, 23, 24]),
    (29, None, 2 * 8 * 29 * 3 - 1, [8, 9, 11, 15, -1]),
    (3 * 5 * 7 * 29, (4, 3), 30_011, [40, 41, 42, 47]),
])
def test_class_alive_cases(coefficient, prime_filter, bound, picks):
    query = PrimePolyQuery(coefficient, universe="coprime",
                           prime_filter=prime_filter)
    q, _ = prime_filter or (1, 0)
    period = math.lcm(2, q)
    for c in primepoly._universe_classes(query, period, bound):
        _check_class_alive(query, c, period, bound, picks)


@settings(max_examples=150, deadline=None)
@given(_queries(), st.integers(2, 3000), st.data())
def test_class_alive_equals_definition(query, bound, data):
    q, _ = query.prime_filter or (1, 0)
    period = math.lcm(2, q)
    classes = primepoly._universe_classes(query, period, bound)
    if classes:
        _check_class_alive(query, data.draw(st.sampled_from(classes)), period,
                           bound, data.draw(st.lists(st.integers(0, 400),
                                                     max_size=12)))
    # the one class mod 1, the universe over [0, bound] the scatter takes
    _check_class_alive(query, 0, 1, bound, [])


def _witness_sweep(query, bound):
    return [n for n in range(2, bound + 1)
            if _in_universe(query, n)
            and decomposition_witness(query, n, bound) is None]


# The scatter against the witness sweep, its pair step on tiles of 8 or 64
# values, so that bounds up to 3000 cross many tiles: filters with few
# candidates, with q and r both even, which no odd prime passes, and with a
# modulus above the bound, with r below or above it.
_FEW_CANDIDATES = (
    st.sampled_from([(4, 2), (6, 2), (6, 4)])
    | st.integers(100, 3000).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, q - 1)))
    | st.integers(3001, primepoly.MAX_SIEVE_BOUND).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, min(q - 1, 3100)))))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 6, 15, 30]), st.none() | st.integers(3, 8),
       st.sampled_from(["all", "odd", "coprime"]), _FEW_CANDIDATES,
       st.integers(2, 3000), st.sampled_from([8, 64]))
@example(2, None, "all", (4, 2), 2, 8)
@example(30, None, "coprime", (6, 4), 3000, 8)
@example(15, 5, "odd", (6, 2), 1000, 64)
@example(1, None, "all", (3001, 1999), 3000, 8)
@example(6, None, "coprime", (12_000_000, 2), 2999, 64)
def test_scatter_equals_witness_sweep(a, order, universe, prime_filter,
                                      bound, tile):
    query = PrimePolyQuery(a, "square" if order is None else "polygonal",
                           order, universe, prime_filter)
    with _scan_path("scatter", tile):
        found = exception_scan(query, bound).tolist()
    assert found == _witness_sweep(query, bound)
    assert 0 not in found and 1 not in found


# The pair step below 4096, where ``sumset.sumset_bits`` sums a pair as one
# Python int, against the witness sweep: through (10007, 1), whose one
# candidate below the bound is 1, and (6, 4) no prime passes, so that the
# pair's first stream is empty, and through (3, 2) pass 2 and the primes
# 5 mod 6.  An int size of 0 sends the same scans through the packed pair
# step, and 2**40 keeps them ints.
@pytest.mark.parametrize("prime_filter", [(10007, 1), (6, 4), (3, 2)])
@pytest.mark.parametrize("bound", [100, 4000])
def test_pair_step_on_both_sides_of_the_int_cutoff(prime_filter, bound):
    assert bound < sumset._INT_BELOW >> 2
    query = PrimePolyQuery(2, prime_filter=prime_filter)
    brute = _witness_sweep(query, bound)
    for int_below, packed in [(None, False), (0, True), (1 << 40, False)]:
        with mock.patch.object(sumset, "_pair_bits",
                               wraps=sumset._pair_bits) as spy, \
                mock.patch.object(primepoly, "_class_miss") as walk:
            if int_below is None:
                found = exception_scan(query, bound)
            else:
                with mock.patch.object(sumset, "_INT_BELOW", int_below):
                    found = exception_scan(query, bound)
        assert found.tolist() == brute, int_below
        assert spy.called == packed and not walk.called, int_below


def test_odd_class_equals_linear_search():
    for q in range(1, 61):
        period = math.lcm(2, q)
        for r in range(q):
            expected = next((k for k in range(1, period, 2) if k % q == r),
                            None)
            assert primepoly._odd_class(q, r) == expected, (q, r)


def test_prime_filter_modulus_cap():
    cap = primepoly.MAX_SIEVE_BOUND
    assert PrimePolyQuery(2, prime_filter=(cap, 1)).prime_filter == (cap, 1)
    with pytest.raises(ValueError, match="above supported"):
        PrimePolyQuery(2, prime_filter=(cap + 1, 1))


# Filters under which no odd prime passes: only p = 2 can reach any n.  No
# class of odd primes is there to walk, so the scan scatters even where the
# walk is forced, and then where it chooses.
@pytest.mark.parametrize("prime_filter", [(2, 0), (4, 2), (6, 0), (6, 2)])
@pytest.mark.parametrize("query_args", [
    (2, "square", None, "all"), (3, "square", None, "coprime"),
    (2, "polygonal", 5, "odd"), (6, "polygonal", 3, "all")])
def test_scan_without_odd_prime_class(prime_filter, query_args):
    query = PrimePolyQuery(*query_args, prime_filter)
    for path in ("walk", "choice"):
        with _scan_path(path):
            assert exception_scan(query, 1500).tolist() == \
                _witness_sweep(query, 1500), path


def test_scan_even_class_reached_only_by_two():
    # 2x^2 is even, so an even n = p + 2x^2 needs p = 2: the even class is
    # settled by the scatter of n = 2 + 2x^2 alone
    query = PrimePolyQuery(2)
    found = exception_scan(query, 3000)
    assert found.tolist() == _witness_sweep(query, 3000)
    assert [n for n in range(2, 3001, 2) if n not in found] == [
        2 + 2 * x * x for x in range(39)]


# Every bound from 2 up, so that n = bound meets the largest shift a class
# takes, (bound - c + s) / Q for the prime p = s of the odd class s; the
# classes are walked by force, and then the scan chooses
@pytest.mark.parametrize("query", [
    PrimePolyQuery(1, universe="all", prime_filter=(4, 3)),
    PrimePolyQuery(1, universe="all", prime_filter=(6, 5)),
    PrimePolyQuery(2, "polygonal", 5, "odd", (3, 2)),
    PrimePolyQuery(3, universe="all", prime_filter=(5, 3))])
def test_scan_at_every_small_bound(query):
    for path in ("walk", "choice"):
        with _scan_path(path):
            for bound in range(2, 160):
                assert exception_scan(query, bound).tolist() == \
                    _witness_sweep(query, bound), path


# Bounds where the class-s primes hold one entry fewer than the classes of
# n, across a 64-bit word edge of the packed layout: 121 against 122 entries
# mod 2, and 57 against 58 mod 4; the cached class is packed to the length
# of the classes of n all the same.
@pytest.mark.parametrize("query, bound, s, period", [
    (PrimePolyQuery(2, universe="all"), 242, 1, 2),
    (PrimePolyQuery(1, universe="all", prime_filter=(4, 3)), 230, 3, 4)])
def test_scan_where_the_class_of_primes_is_one_entry_short(query, bound, s,
                                                            period):
    assert len(range(s, bound + 1, period)) == bound // period
    assert primepoly._class_miss(bound, s, period).size == sumset.bitmap(
        bound // period + 1, False).size
    with _scan_path("walk"):
        assert exception_scan(query, bound).tolist() == \
            _witness_sweep(query, bound)


def test_filter_with_many_classes_scatters():
    # 500 candidates of 1 mod 2003 times 707 values are 353 500 cells, 88
    # for each of the 4006 classes: the sums are one pair step, and the
    # universe over [0, bound] is eliminated once against it, where the
    # classes took 0.1 ms each to walk, and the list is the walk's.  The
    # four filters of conjecture 1.7 walk their classes.
    def refuse(*args, **kwargs):
        raise AssertionError("a class walked")

    bound = 1_000_000
    query = PrimePolyQuery(2, prime_filter=(2003, 1))
    with _scan_path("walk"):
        walked = exception_scan(query, bound)
    with mock.patch.object(primepoly, "_class_miss", refuse), \
            mock.patch.object(primepoly, "eliminate",
                              wraps=sumset.eliminate) as spy:
        assert np.array_equal(exception_scan(query, bound), walked)
    assert spy.call_count == 1
    assert spy.call_args.args[0].size == sumset.bitmap(
        bound + 1, False).size
    assert spy.call_args.args[2] == [0]
    for prime_filter in [(4, 1), (4, 3), (6, 1), (6, 5)]:
        query = PrimePolyQuery(2, "polygonal", 5, "odd", prime_filter)
        with mock.patch.object(primepoly, "eliminate",
                               wraps=sumset.eliminate) as spy:
            exception_scan(query, bound)
        assert spy.call_count > 0, prime_filter


# The re-check against a per-n witness sweep over the scan's own list with
# some n injected, in any order and with repeats.
@settings(max_examples=100, deadline=None)
@given(_queries(_FILTERS | st.sampled_from([4, 6, 10007]).flatmap(
           lambda q: st.tuples(st.just(q), st.integers(0, q - 1)))),
       st.integers(2, 3000), st.data())
def test_decomposed_among_equals_witness_sweep(query, bound, data):
    listed = exception_scan(query, bound).tolist() + data.draw(
        st.lists(st.integers(0, bound), max_size=20))
    data.draw(st.randoms()).shuffle(listed)
    assert decomposed_among(query, listed, bound).tolist() == [
        n for n in sorted(set(listed))
        if decomposition_witness(query, n, bound) is not None]


@pytest.mark.parametrize("size", [1, 3, 64])
def test_recheck_slices_equal_a_witness_sweep(monkeypatch, size):
    # the listed n are kept a slice of _RECHECK_SLICE at a time: slices of
    # 1, 3 and 64 n give the witness sweep's answer, with filters whose
    # odd class is r, r + q or none
    monkeypatch.setattr(primepoly, "_RECHECK_SLICE", size)
    bound = 3000
    for prime_filter in [None, (3, 1), (4, 3), (10, 4), (6, 2), (101, 7)]:
        query = PrimePolyQuery(2, universe="all", prime_filter=prime_filter)
        listed = exception_scan(query, bound).tolist() + list(range(0, 400, 7))
        assert decomposed_among(query, listed, bound).tolist() == [
            n for n in sorted(set(listed))
            if decomposition_witness(query, n, bound) is not None]


def test_recheck_memory_per_integer():
    # the re-check of a = 2 over every n reads a list of about half of
    # [0, bound], and keeps only the odd n, a slice at a time: 0.50 bytes
    # per integer, where residues of the whole list took 4.51
    bound = 2_000_000
    query = PrimePolyQuery(2, universe="all")
    listed = exception_scan(query, bound)
    sieve_primes(bound)
    tracemalloc.start()
    try:
        assert decomposed_among(query, listed, bound).size == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert listed.size > 0.49 * bound
    assert peak < 1.5 * bound


def test_recheck_walks_only_classes_holding_a_listed_n():
    # a filter (q, 1) splits the n into 2q classes mod lcm(2, q); an empty
    # list walks none of them, and one listed n walks at most its own
    query = PrimePolyQuery(2, prime_filter=(100003, 1))
    with mock.patch.object(primepoly, "reached", wraps=sumset.reached) as spy:
        assert decomposed_among(query, [], 10**6).size == 0
        assert spy.call_count == 0
        # 1 + 2*7^2 is in the class of the primes 1 + v, but 1 is no prime
        assert decomposed_among(query, [1 + 2 * 7**2], 10**6).size == 0
        assert spy.call_count == 1


def test_decomposed_among_refuses_n_above_bound():
    with pytest.raises(ValueError):
        decomposed_among(PrimePolyQuery(2), [1001], 1000)
    assert decomposed_among(PrimePolyQuery(2), [], 1000).size == 0


def test_scan_memory_per_integer():
    # one int64 index array over [0, bound] alone would be 8 bytes per integer
    bound = 2_000_000
    sieve_primes(bound)
    tracemalloc.start()
    try:
        exception_scan(PrimePolyQuery(2, universe="coprime"), bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * bound


def test_filtered_scan_memory_per_integer():
    # a full-width filtered prime copy or universe mask alone would be one
    # byte per integer; the scan by class mod 4 holds a quarter of [0, bound]
    # of each at a time
    bound = 2_000_000
    sieve_primes(bound)
    tracemalloc.start()
    try:
        exception_scan(PrimePolyQuery(2, "polygonal", 5, "odd", (4, 1)), bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * bound


def test_scatter_memory_per_integer():
    # the list of 1.73 million n alone is 6.9 bytes per integer; the pair
    # step's hits and the universe are one packed bitmap over [0, bound]
    # each, and no merge copies the list
    bound = 2_000_000
    query = PrimePolyQuery(1, universe="all", prime_filter=(503, 1))
    sieve_primes(bound)
    tracemalloc.start()
    try:
        exception_scan(query, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * bound


def test_witness_rejects_bound_below_n():
    query = PrimePolyQuery(3, universe="coprime")
    with pytest.raises(ValueError):
        decomposition_witness(query, 1000, 999)
