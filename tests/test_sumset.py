import contextlib
import inspect
import math
import mmap
import random
import re
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polysum import primepoly, qform, sumset
from polysum.polycore import SumDomain, Term, TripleSum, parse_sum, poly_value
from polysum.sumset import (
    MAX_RANGE_BOUND,
    ReverificationError,
    _verify_non_representable,
    exceptions,
    member_with_witness,
    offset_universal_check,
    range_sieve,
)

N, Z = SumDomain.NATURALS, SumDomain.INTEGERS


def terms(text):
    return parse_sum(text, N).terms


def test_three_triangular_covers_everything():
    bits = range_sieve(terms("p3+p3+p3"), N, 100)
    assert bits.missing().size == 0


def test_single_term_stream():
    bits = range_sieve(terms("2p3"), N, 6)
    assert sorted(n for n in range(7) if n in bits) == [0, 2, 6]


def test_square_pentagonal_octagonal_misses_19():
    bits = range_sieve(terms("p4+p5+p8"), N, 10_000)
    assert bits.missing().tolist() == [19]


def test_exceptions_reports():
    report = exceptions(parse_sum("p3+p5+p32", N), 10_000)
    assert report.exceptions.tolist() == [31]
    report = exceptions(parse_sum("p5+p5+11p5", Z), 50)
    assert 43 in report.exceptions


@pytest.mark.parametrize("text,domain,n,expect_member", [
    ("p5+p5+7p5", Z, 25, False),
    ("p3+p3+5p3", N, 4, True),
    ("p4+p4+p4", N, 7, False),
    ("p4+p5+p8", N, 19, False),
])
def test_member_with_witness(text, domain, n, expect_member):
    sum_ = parse_sum(text, domain)
    witness = member_with_witness(sum_, n)
    assert (witness is not None) == expect_member
    if witness is not None:
        total = sum(t.coefficient *
                    ((t.order - 2) * x * x - (t.order - 4) * x) // 2
                    for t, x in zip(sum_.terms, witness.arguments))
        assert total == n
        if domain is N:
            assert all(x >= 0 for x in witness.arguments)


def test_member_with_witness_one_term():
    # one term is its own membership test: 3 p_5(x) over N and over Z,
    # against the values listed
    for domain, xs in [(N, range(30)), (Z, range(-30, 30))]:
        sum_ = parse_sum("3p5", domain)
        values = {3 * poly_value(5, x) for x in xs}
        for n in range(1000):
            witness = member_with_witness(sum_, n)
            assert (witness is not None) == (n in values), (domain, n)
            if witness is not None:
                (x,) = witness.arguments
                assert 3 * poly_value(5, x) == n and x in xs


def test_zero_witness():
    witness = member_with_witness(parse_sum("p3+2p4+p9", N), 0)
    assert witness is not None and witness.arguments == (0, 0, 0)


def test_offset_check():
    # oracle: {0,1,3} + {0,1,2} covers [0,5] (3+2=5), dropping the shift
    # by 2 leaves 5 uncovered
    report = offset_universal_check(terms("p3"), N, {0, 1, 2}, 5)
    assert report.exceptions.size == 0
    report = offset_universal_check(terms("p3"), N, {0, 1}, 5)
    assert report.exceptions.tolist() == [5]
    report = offset_universal_check(terms("p4+p5+p6"), N, {0}, 2000)
    assert report.exceptions.size == 0


def test_offset_requires_nonempty():
    with pytest.raises(ValueError):
        offset_universal_check(terms("p3"), N, set(), 10)


def test_sieve_witness_agreement():
    rng = random.Random(20260811)
    for text, domain in [("p3+p5+p9", N), ("p5+p5+3p5", Z), ("p3+2p4+2p11", N)]:
        sum_ = parse_sum(text, domain)
        bits = range_sieve(sum_.terms, domain, 2000)
        for _ in range(1000):
            n = rng.randrange(0, 2001)
            assert (n in bits) == (member_with_witness(sum_, n) is not None)


def test_domain_monotonicity():
    for text in ["p3+p5+p7", "p5+2p5+4p5", "p3+p4+p17"]:
        nat = range_sieve(terms(text), N, 3000)
        integ = range_sieve(terms(text), Z, 3000)
        assert not (nat.bits & ~integ.bits).any()


def test_pair_identity_sumsets_match():
    # {p3+p3} and {2p3+p4} generate identical triple sumsets
    for c in range(1, 5):
        for k in range(3, 13):
            lhs = exceptions(parse_sum(f"p3+p3+{c}p{k}", N), 10_000)
            rhs = exceptions(parse_sum(f"2p3+p4+{c}p{k}", N), 10_000)
            assert np.array_equal(lhs.exceptions, rhs.exceptions)


def test_hexagonal_triangular_sumset_over_z():
    lhs = range_sieve(terms("p6+p6+p6"), Z, 10_000)
    rhs = range_sieve(terms("p3+p3+p3"), Z, 10_000)
    assert (lhs.bits == rhs.bits).all()


def _brute_sumset(terms_, domain, bound):
    """Set sumset of the terms' values over [0, bound], argument by argument."""
    sums = {0}
    for t in terms_:
        values = set()
        for sign in ((1, -1) if domain is Z else (1,)):
            x = 0
            while (v := t.coefficient * poly_value(t.order, sign * x)) <= bound:
                values.add(v)
                x += 1
        sums = {s + v for s in sums for v in values if s + v <= bound}
    return sums


_TERMS = st.lists(st.builds(Term, st.integers(1, 30), st.integers(3, 40)),
                  min_size=1, max_size=6)


# Every example runs with an int size of 0, which sends every sieve through
# the packed steps, and of 2**40, which folds every sieve into one int.  The
# share decides when elimination leaves whole-bitmap passes for a candidate
# array: 1 switches before the first value, 2**40 never switches.
# A pair chunk of 1 sum scatters one row per value.  The examples give an
# offsets stream longer than every term's stream ({0, 30, 1200} and
# {0, 25, 950, 2775}), and offsets that all lie above the bound.
@settings(max_examples=100, deadline=None)
@given(_TERMS, st.sampled_from([N, Z]), st.integers(0, 3000),
       st.sets(st.integers(0, 40) | st.integers(0, 3500), min_size=1,
               max_size=4),
       st.sampled_from([1, sumset._SPARSE_SHARE, 1 << 40]),
       st.sampled_from([1, 64, sumset._PAIR_CHUNK]))
@example([Term(30, 40), Term(25, 38)], N, 3000, {1, 2, 5, 7, 30},
         sumset._SPARSE_SHARE, sumset._PAIR_CHUNK)
@example([Term(1, 5), Term(2, 7)], Z, 100, {101, 3500}, 1 << 40, 64)
@example([Term(1, 5), Term(2, 7)], Z, 100, {0, 3, 101}, 1, 64)
def test_kernel_equals_brute_sumset(terms_, domain, bound, offsets, share,
                                    chunk):
    sums = _brute_sumset(terms_, domain, bound)
    missing = [n for n in range(bound + 1) if n not in sums]
    offset_missing = [n for n in range(bound + 1)
                      if all(n - r not in sums for r in offsets)]
    for int_below in (0, 1 << 40):
        with mock.patch.object(sumset, "_SPARSE_SHARE", share), \
                mock.patch.object(sumset, "_INT_BELOW", int_below), \
                mock.patch.object(sumset, "_PAIR_CHUNK", chunk):
            bits = range_sieve(terms_, domain, bound)
            report = offset_universal_check(terms_, domain, offsets, bound)
            plain = exceptions(TripleSum(terms_, domain), bound)
        assert plain.exceptions.dtype == np.int64
        assert plain.exceptions.tolist() == missing
        # packed, with the padding bits clear
        assert bits.bits.size == sumset.bitmap(bound + 1, False).size
        assert sumset.set_bits(bits.bits).tolist() == sorted(sums)
        assert bits.missing().tolist() == missing
        assert bits.first_missing(2) == missing[:2]
        assert bits.count() == len(sums)
        assert report.exceptions.tolist() == offset_missing


def _packed(alive):
    """A bool bitmap as the packed bitmap ``sumset.bitmap`` makes."""
    packed = sumset.bitmap(alive.size, False)
    part = np.packbits(alive, bitorder="little")
    packed[: part.size] = part
    return packed


def _entries(packed, size):
    """The first ``size`` entries of a packed bitmap as a bool array."""
    return np.unpackbits(packed, count=size, bitorder="little").view(bool)


@st.composite
def _eliminations(draw):
    """An alive set, a hit set and values over [0, size), with sizes of
    every residue mod 8, values of every residue up to size - 1, hit sets
    all clear to all set, and value lists that are empty or of a single
    residue."""
    size = draw(st.integers(1, 70) | st.integers(100, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    alive = rng.random(size) < draw(st.sampled_from([0.1, 0.9, 1.0]))
    hit = rng.random(size) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    values = draw(st.lists(st.integers(0, size - 1), max_size=40)
                  | st.lists(st.just(size - 1), min_size=1, max_size=1))
    if draw(st.booleans()) and values:
        values = [v for v in values if v % 8 == values[0] % 8]
    return alive, hit, values


# Elimination against a set model, with the hit set passed as its packed
# complement.  A share of 1 turns sparse before the first value, 2**40
# never.  A gather block of 1 cell tests one value at a time, 3 cells three
# at a time once one n is left, 2**20 every value at once.
@settings(max_examples=300, deadline=None)
@given(_eliminations(),
       st.sampled_from([1, 4, sumset._SPARSE_SHARE, 1 << 40]),
       st.sampled_from([1, sumset._COUNT_EVERY]),
       st.sampled_from([1, 3, 1 << 20]))
@example((np.ones(64, dtype=bool), np.ones(64, dtype=bool), []), 1 << 40, 1,
         1)
@example((np.ones(9, dtype=bool), np.eye(9, dtype=bool)[8], [0, 8, 1, 7]),
         1 << 40, 1, 1)
@example((np.ones(64, dtype=bool), np.eye(64, dtype=bool)[0], [63, 7, 0]),
         1, 1, 1 << 20)
def test_eliminate_equals_set_model(case, share, every, cells):
    alive, hit, values = case
    expected = [n for n in np.flatnonzero(alive).tolist()
                if not any(v <= n and hit[n - v] for v in values)]
    miss = _packed(~hit)
    with mock.patch.object(sumset, "_SPARSE_SHARE", share), \
            mock.patch.object(sumset, "_COUNT_EVERY", every), \
            mock.patch.object(sumset, "_GATHER_CELLS", cells):
        found = sumset.eliminate(_packed(alive), miss, list(values))
    assert found.dtype == np.int64
    assert found.tolist() == expected


def test_packed_bitmap_layout():
    for size in (0, 1, 7, 8, 9, 63, 64, 65, sumset._MAPPED_FROM + 3):
        for fill in (False, True):
            packed = sumset.bitmap(size, fill)
            assert packed.dtype == np.uint8 and packed.size % 8 == 0
            assert packed.size * 8 - size in range(7, 71)
            bits = np.unpackbits(packed, bitorder="little")
            assert bits[:size].all() if fill else not bits[:size].any()
            assert not bits[size:].any()
            assert sumset.set_bits(packed).tolist() == (
                list(range(size)) if fill else [])


@st.composite
def _strided_views(draw):
    """A chunk of 1, 7 or 2^16 bytes, and a 1-D bool view with a step of 1
    to 7 and an offset into a longer array, its length often next to a
    multiple of the 8 * chunk entries that ``pack`` packs at a time."""
    chunk = draw(st.sampled_from([1, 7, 1 << 16]))
    step = draw(st.integers(1, 7))
    offset = draw(st.integers(0, 9))
    edge = 8 * chunk
    length = draw(st.integers(0, 300)
                  | st.builds(lambda k, d: k * edge + d, st.integers(1, 2),
                              st.integers(-1, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 2, offset + step * length + draw(st.integers(0, 9)),
                        dtype=np.uint8).astype(bool)
    return chunk, base[offset : offset + step * length : step]


# ``pack`` against ``np.packbits`` of a contiguous copy, with the padding
# bits and the entries up to ``size`` clear; bound 242 packs a class of 121
# primes to the 122 entries of a class of n, a length at which the packed
# size grows by a word.
@settings(max_examples=200, deadline=None)
@given(_strided_views(), st.none() | st.integers(0, 70))
@example((1, np.ones(242, dtype=bool)[1::2]), 1)
@example((7, np.ones(8 * 7 * 2 + 1, dtype=bool)), None)
def test_pack_of_a_strided_view_equals_packbits_of_its_copy(case, extra):
    chunk, bits = case
    size = bits.size if extra is None else bits.size + extra
    before = bits.copy()
    with mock.patch.object(sumset, "_PAIR_CHUNK", chunk):
        packed = (sumset.pack(bits) if extra is None
                  else sumset.pack(bits, size))
    expected = np.packbits(before, bitorder="little")
    assert packed.dtype == np.uint8
    assert packed.size == sumset.bitmap(size, False).size
    assert packed[: expected.size].tobytes() == expected.tobytes()
    assert not packed[expected.size :].any()
    assert np.array_equal(bits, before)


def test_packed_layout_stays_in_sumset():
    # every bit order, byte offset and packed pass is sumset's to know
    layout = re.compile(r"packbits|unpackbits|bitorder|bitwise_and\.at"
                        r"|shift_up|>> 3|& 7")
    found = [f"{path.name}:{i}" for path in
             sorted(Path(sumset.__file__).parent.rglob("*.py"))
             if path.name != "sumset.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if layout.search(line)]
    assert found == []


# ``pack`` of a bool bitmap is ``np.packbits`` of it in little bit order,
# padded with clear bytes to the size ``bitmap`` gives, with chunks of 1 and
# 7 bytes cutting it into many pieces.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=300),
       st.sampled_from([1, 7, sumset._PAIR_CHUNK]))
def test_pack_is_packbits_of_the_bitmap(bits, chunk):
    bits = np.array(bits, dtype=bool)
    with mock.patch.object(sumset, "_PAIR_CHUNK", chunk):
        packed = sumset.pack(bits)
    model = np.zeros(-(-(bits.size + 7) // 64) * 8, dtype=np.uint8)
    part = np.packbits(bits, bitorder="little")
    model[: part.size] = part
    assert packed.dtype == np.uint8 and np.array_equal(packed, model)
    assert np.array_equal(_entries(packed, bits.size), bits)


# ``invert`` keeps the padding clear, so ``count_bits`` counts the clear
# entries of the bitmap, and ``first_bits`` reads the first of them one to
# three words at a time, for counts up to past the last.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=300), st.integers(0, 310),
       st.sampled_from([1, 3, sumset._UNPACK_WORDS]))
def test_first_bits_of_an_inverted_bitmap(bits, count, words):
    bits = np.array(bits, dtype=bool)
    packed = _packed(bits)
    sumset.invert(packed, bits.size)
    clear = np.flatnonzero(~bits)
    assert sumset.count_bits(packed) == clear.size
    with mock.patch.object(sumset, "_UNPACK_WORDS", words):
        found = sumset.first_bits(packed, count)
    assert found.dtype == np.int64
    assert found.tolist() == clear[:count].tolist()


@given(st.lists(st.booleans(), max_size=300), st.integers(0, 63))
def test_shift_up_moves_every_bit(bits, r):
    bits = np.array(bits, dtype=bool)
    packed = sumset.pack(bits)
    top = packed.size * 8
    sumset.shift_up(packed, r)
    assert sumset.set_bits(packed).tolist() == [
        n + r for n in np.flatnonzero(bits).tolist() if n + r < top]


def test_clear_every_equals_a_bool_model():
    # steps 1-70 and every start, on bitmaps within one tiled row of about
    # 4 KiB (32 761 entries fill 4096 bytes), and over three rows and a
    # part; every other entry keeps its value and the padding stays clear
    rng = np.random.default_rng(7)
    for size in (1, 100, 30_000, 32_761, 100_003):
        bits = rng.integers(0, 2, size, dtype=np.uint8).astype(bool)
        at = np.arange(size)
        for step in range(1, 71):
            residues = at % step
            for start in range(step):
                packed = sumset.pack(bits)
                sumset.clear_every(packed, start, step)
                assert np.array_equal(packed,
                                      sumset.pack(bits & (residues != start)))


# Every step-th entry against a strided slice of the bool model: steps below
# 8, whose columns hold several entries of one result byte, and above; a
# count that reads past the source, whose entries come in clear; chunks of
# 1, 8 and 16 bytes of the result, so that the columns are cut many times.
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 40) | st.integers(41, 5000),
       st.data(), st.sampled_from([1, 8, 16, sumset._PAIR_CHUNK]))
@example(1, 1, None, sumset._PAIR_CHUNK)
@example(2000, 2, None, 8)
@example(2999, 3, None, 1)
def test_take_every_equals_a_bool_model(size, step, data, chunk):
    rng = np.random.default_rng(size * 7 + step)
    bits = rng.integers(0, 2, size, dtype=np.uint8).astype(bool)
    if data is None:
        start, count = step - 1, -(-size // step) + 3
    else:
        start = data.draw(st.integers(0, step - 1))
        count = data.draw(st.integers(1, -(-size // step) + 20))
    with mock.patch.object(sumset, "_PAIR_CHUNK", chunk):
        taken = sumset.take_every(sumset.pack(bits), start, step, count)
    expected = np.zeros(count, dtype=bool)
    part = bits[start::step][:count]
    expected[: part.size] = part
    assert taken.size == sumset.bitmap(count, False).size
    assert np.array_equal(taken, sumset.pack(expected, count))


# Marks ORed into a bitmap that holds bits already, against the bool model,
# with windows of 8 to 64 entries and the default, and the list left as it
# was.
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2000), st.data(),
       st.sampled_from([1, 2, 8, sumset._PAIR_CHUNK]))
def test_mark_bits_equals_a_bool_model(size, data, chunk):
    rng = np.random.default_rng(size)
    bits = rng.random(size) < data.draw(st.sampled_from([0.0, 0.01, 0.5]))
    ns = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1),
                                           max_size=size))),
                  dtype=np.int64)
    before = ns.copy()
    packed = sumset.pack(bits)
    with mock.patch.object(sumset, "_PAIR_CHUNK", chunk):
        sumset.mark_bits(packed, ns)
    bits[ns] = True
    assert np.array_equal(packed, sumset.pack(bits))
    assert np.array_equal(ns, before)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3000), st.data())
def test_reached_reads_a_packed_table_as_its_bool_table(size, data):
    rng = np.random.default_rng(size)
    table = rng.random(size) < 0.1
    ns = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1),
                                           max_size=60))), dtype=np.int64)
    walked = sorted(data.draw(st.sets(st.integers(0, size - 1),
                                      max_size=60)))
    assert np.array_equal(sumset.reached(sumset.pack(table), ns, walked),
                          sumset.reached(table, ns, walked))


# The dense fold against a set model, on the hit bitmaps and values of
# ``_eliminations``; a chunk of 8 bytes makes ``pack`` and ``shift_up`` work
# one word at a time, and a fold window of 8 or 16 bytes cuts a bitmap of
# 600 entries into up to 10 windows.
@settings(max_examples=300, deadline=None)
@given(_eliminations(), st.sampled_from([8, sumset._PAIR_CHUNK]),
       st.sampled_from([8, 16, sumset._FOLD_WINDOW]))
@example((None, np.ones(64, dtype=bool), []), sumset._PAIR_CHUNK,
         sumset._FOLD_WINDOW)
@example((None, np.zeros(9, dtype=bool), [0, 8, 1, 7]), 8, 8)
@example((None, np.ones(9, dtype=bool), [8, 0]), 8, sumset._FOLD_WINDOW)
# 40 packed bytes in windows of 16, the last one cut to 8; byte offsets
# q = 10, 21 and 37 inside the windows [0, 16), [16, 32) and [32, 40); and
# the classes 1 and 4-7 empty.  Then windows of 8 with only the classes 3
# and 6, each with a q inside a window, and the values out of order.
@example((None, np.eye(300, dtype=bool)[0] | np.eye(300, dtype=bool)[77],
          [170, 80, 0, 16, 2, 299]), 8, 16)
@example((None, np.ones(300, dtype=bool), [294, 3, 94, 11, 6, 51]), 8, 8)
def test_inside_equals_set_model(case, chunk, window):
    _, bits, values = case
    expected = sorted({n + v for n in np.flatnonzero(bits).tolist()
                       for v in values if n + v < bits.size})
    with mock.patch.object(sumset, "_PAIR_CHUNK", chunk), \
            mock.patch.object(sumset, "_FOLD_WINDOW", window):
        found = sumset.inside(_packed(bits), bits.size, list(values))
    assert found.dtype == np.uint8
    assert found.size == sumset.bitmap(bits.size, False).size
    # set_bits would list a set padding bit as an entry past the bitmap
    assert sumset.set_bits(found).tolist() == expected


@st.composite
def _pair_streams(draw):
    """A tile width, a bound up to 3000, often next to a tile edge, and two
    sorted streams of values in [0, bound], as lists or int64 arrays.  The
    second is {0}, a few values, as long as the first, or the squares; the
    values of a short or narrow stream leave whole tiles empty."""
    tile = draw(st.sampled_from([8, 13, 64]))
    bound = draw(st.integers(0, 3000)
                 | st.sampled_from([0, 1, tile - 1, tile, tile + 1,
                                    2 * tile - 1, 2 * tile, 2 * tile + 1,
                                    3000]))
    values = st.integers(0, bound)
    lo = draw(values)
    narrow = st.integers(lo, min(bound, lo + 2 * tile))
    first = draw(st.lists(values, max_size=200)
                 | st.lists(narrow, max_size=40))
    second = draw(st.just([0]) | st.lists(values, max_size=3)
                  | st.lists(values, max_size=200)
                  | st.just([k * k for k in range(math.isqrt(bound) + 1)]))
    streams = [sorted(set(first)), sorted(set(second))]
    if draw(st.booleans()):
        streams = [np.array(v, dtype=np.int64) for v in streams]
    return tile, bound, *streams


# The tile walk of the pair step against a set of pair sums, with tiles of
# 8 to 64 values so that bounds up to 3000 cross many of them, and outer
# products of 1 or 7 sums.  A tile of 13 values moves the packed window up
# by 8 or 16 entries, so that the window's base falls between tile edges.
@settings(max_examples=300, deadline=None)
@given(_pair_streams(), st.sampled_from([1, 7, sumset._PAIR_CHUNK]))
@example((8, 0, [0], [0]), sumset._PAIR_CHUNK)
@example((8, 1, [0, 1], [0, 1]), 1)
@example((8, 7, [0, 1, 4], [0]), 7)
@example((8, 8, [0, 1, 4, 8], np.array([0, 1, 4, 8])), 7)
@example((8, 9, np.array([0, 1, 4, 9]), np.array([0, 8])), sumset._PAIR_CHUNK)
@example((8, 3000, list(range(0, 3001, 3)), [2990]), 7)
@example((64, 3000, [], [0, 1]), 1)
def test_pair_bits_equals_set_model(case, chunk):
    tile, bound, first, second = case
    expected = sorted({int(a + b) for a in first for b in second
                       if a + b <= bound})
    with mock.patch.object(sumset, "_PAIR_TILE", tile), \
            mock.patch.object(sumset, "_PAIR_CHUNK", chunk):
        bits = sumset._pair_bits(first, second, bound)
    assert bits.dtype == np.uint8
    assert bits.size == sumset.bitmap(bound + 1, False).size
    assert np.flatnonzero(_entries(bits, bound + 1)).tolist() == expected
    # the padding bits stay clear
    assert not np.unpackbits(bits, bitorder="little")[bound + 1 :].any()


@pytest.mark.parametrize("share", [0, 0.01, 1 / 6, 0.9, 1])
@pytest.mark.parametrize("size", [1, 1001, 2 * 8 * sumset._PAIR_CHUNK + 13])
def test_set_bits_equals_flatnonzero(share, size):
    bits = np.random.default_rng(size).random(size) < share
    assert sumset.set_bits(_packed(bits)).tolist() == \
        np.flatnonzero(bits).tolist()


def test_set_bits_mixes_dense_and_sparse_chunks():
    # words of 64 entries each, from all clear to all set, unpacked three
    # nonzero words at a time, so that runs of consecutive words and
    # gathered words alternate within one bitmap; and the count a caller
    # took gives the same indices
    rng = np.random.default_rng(7)
    share = np.repeat(rng.permutation([0, 0.01, 0.5, 1 / 6, 0.9, 1] * 4), 64)
    bits = rng.random(share.size - 27) < share[27:]
    with mock.patch.object(sumset, "_UNPACK_WORDS", 3):
        found = sumset.set_bits(_packed(bits))
        counted = sumset.set_bits(_packed(bits), int(bits.sum()))
    assert found.dtype == np.int64
    assert found.tolist() == np.flatnonzero(bits).tolist()
    assert np.array_equal(counted, found)


def test_set_bits_memory():
    # the result is allocated once, at its size, and the words are unpacked
    # a few at a time: whole chunks and their concatenation peaked at twice
    # the result
    bits = np.random.default_rng(3).random(2_000_000) < 0.9
    packed = _packed(bits)
    tracemalloc.start()
    try:
        found = sumset.set_bits(packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.tolist() == np.flatnonzero(bits).tolist()
    assert peak < 1.25 * found.nbytes


def test_offset_check_memory_per_integer():
    # conjecture 1.2's first and last sums with their offsets at 2*10^6
    # peak at 1.6 bytes per integer: the sum's bool bitmap, and two packed
    # bitmaps of B/8 bytes for each fold.  Bool alive bitmaps for the
    # folds took 2.2.
    bound = 2_000_000
    peaks = []
    for m in (3, 10):
        sum_ = parse_sum(f"p{m + 1}+p{m + 2}+p{m + 3}", N)
        tracemalloc.start()
        try:
            report = offset_universal_check(sum_.terms, N, range(m - 2),
                                            bound)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.exceptions.size == 0
    assert max(peaks) < 1.75 * bound


def test_one_elimination_per_exception_list():
    # the shortest stream, shifted by the offsets, is walked in the one
    # elimination after the pair scatter; no bitmap is rebuilt from its
    # survivors, rescanned or eliminated again
    real = sumset.eliminate
    counts = []
    for run in (lambda: exceptions(parse_sum("p4+p5+p8", N), 100_000),
                lambda: offset_universal_check(terms("p4+p5+p6"), N,
                                               range(3), 100_000)):
        with mock.patch.object(sumset, "eliminate", wraps=real) as spy:
            run()
        counts.append(spy.call_count)
    assert counts == [1, 1]


def test_sieve_memory_per_integer():
    # an unchunked p3 x p4 outer product alone would be 11 bytes per integer
    bound = 2_000_000
    sum_ = parse_sum("p3+p4+p5", N)
    tracemalloc.start()
    try:
        range_sieve(sum_.terms, N, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * bound


def test_range_sieve_holds_no_bool_bitmap():
    # a bool copy of the sieve alone would be 9.5 MiB at 10^7
    tracemalloc.start()
    try:
        range_sieve(terms("p4+p5+p8"), N, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_bitmap_sizes_and_fills():
    # packed, in whole words with at least seven clear padding bits, mapped
    # or not, and writable
    for size in (0, 1, 5, sumset._MAPPED_FROM - 1, sumset._MAPPED_FROM,
                 sumset._MAPPED_FROM + 3):
        for fill in (False, True):
            bits = sumset.bitmap(size, fill)
            assert bits.dtype == np.uint8
            assert bits.size == -(-(size + 7) // 64) * 8
            entries = _entries(bits, 8 * bits.size)
            assert entries[:size].all() if fill else not entries[:size].any()
            assert not entries[size:].any()
            if size:
                bits[(size - 1) // 8] ^= 1 << (size - 1) % 8
            assert np.count_nonzero(_entries(bits, size) != fill) == \
                min(size, 1)


@pytest.mark.skipif(not hasattr(mmap, "MAP_POPULATE"),
                    reason="bitmaps are mapped where MAP_POPULATE exists")
def test_large_bitmap_is_unmapped_with_its_last_array():
    bits = sumset.bitmap(sumset._MAPPED_FROM, True)
    assert not bits.flags.owndata
    mapping = weakref.ref(bits.base.obj)
    view = bits[10:]
    del bits
    assert mapping() is not None
    del view
    assert mapping() is None


def test_bitmap_is_traced_under_tracemalloc():
    # a bitmap of _MAPPED_FROM entries, which would be mapped, holds
    # _MAPPED_FROM / 8 bytes
    tracemalloc.start()
    try:
        bits = sumset.bitmap(sumset._MAPPED_FROM, False)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert bits.flags.owndata and traced >= sumset._MAPPED_FROM // 8


def _bitset(bits):
    """A ``RangeBitset`` of the bool bitmap ``bits``."""
    return sumset.RangeBitset(bits.size - 1, sumset.pack(bits))


# A chunk is the 8 * _UNPACK_WORDS bytes that ``first_bits`` reads at a time
def test_missing_across_chunk_edges():
    chunk = 64 * sumset._UNPACK_WORDS
    bits = np.ones(2 * chunk + 5, dtype=bool)
    unset = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, 2 * chunk + 4]
    bits[unset] = False
    assert _bitset(bits).missing().tolist() == unset


def test_first_missing_across_chunk_edges():
    chunk = 64 * sumset._UNPACK_WORDS
    bits = np.ones(3 * chunk + 5, dtype=bool)
    unset = [chunk - 1, chunk, 2 * chunk - 1, 3 * chunk, 3 * chunk + 4]
    bits[unset] = False
    for count in range(len(unset) + 2):
        assert _bitset(bits).first_missing(count) == unset[:count]
    # a chunk with no unset bit in the middle of the scan
    bits[[chunk - 1, chunk, 2 * chunk - 1]] = True
    assert _bitset(bits).first_missing(2) == [3 * chunk, 3 * chunk + 4]
    bits[:] = True
    assert _bitset(bits).first_missing(3) == []


def test_bound_above_limit_is_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above supported"):
            range_sieve(terms("p4+p5+p8"), N, MAX_RANGE_BOUND + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reverification_error_carries_n():
    with pytest.raises(ReverificationError) as exc:
        _verify_non_representable(terms("p4+p5+p8"), N, [19, 20])
    assert exc.value.n == 20
    assert str(exc.value.sum) == "p4+p5+p8"


# The re-check against the brute sumset: the true exception list passes,
# and a list with representable n injected raises naming the smallest of
# them, also when the list comes in descending order.
@settings(max_examples=100, deadline=None)
@given(_TERMS, st.sampled_from([N, Z]), st.integers(0, 3000),
       st.sets(st.integers(0, 40) | st.integers(0, 3500), min_size=1,
               max_size=4),
       st.data())
def test_reverification_equals_brute_sumset(terms_, domain, bound, offsets,
                                            data):
    sums = _brute_sumset(terms_, domain, bound)
    covered = {n for n in range(bound + 1)
               if any(n - r in sums for r in offsets)}
    missing = [n for n in range(bound + 1) if n not in covered]
    offsets = sorted(offsets)
    _verify_non_representable(terms_, domain, missing, offsets)
    if not covered:
        return
    injected = data.draw(st.sets(st.sampled_from(sorted(covered)),
                                 min_size=1, max_size=3))
    listed = sorted(set(missing) | injected, reverse=True)
    with pytest.raises(ReverificationError) as exc:
        _verify_non_representable(terms_, domain, listed, offsets)
    assert exc.value.n == min(injected)


@pytest.mark.parametrize("text,ns,offsets,raised", [
    ("p4+p5+p8", [], (0,), None),
    ("p4+p5+p8", [0], (0,), 0),
    ("p4+p5+p8", [0, 1, 2], (3,), None),
    ("p3+p3+p3", [5, 6], (7, 9), None),
    ("p3+p3+p3", [5, 9], (7, 9), 9),
    ("p4", [2, 3, 5], (0,), None),
    ("p4", [2, 3, 4, 9], (0,), 4),
    ("p4", [7, 6], (1, 2), 6),
])
def test_reverification_edge_cases(text, ns, offsets, raised):
    if raised is None:
        _verify_non_representable(terms(text), N, ns, offsets)
        return
    with pytest.raises(ReverificationError) as exc:
        _verify_non_representable(terms(text), N, ns, offsets)
    assert exc.value.n == raised


def test_reverification_calls_no_kernel_function():
    def refuse(*args, **kwargs):
        raise AssertionError("re-verification reached the sieve kernel")

    missing = range_sieve(terms("p4+p4+p4"), N, 5000).missing()
    with mock.patch.object(sumset, "_pair_bits", refuse), \
            mock.patch.object(sumset, "eliminate", refuse), \
            mock.patch.object(sumset, "range_sieve", refuse):
        _verify_non_representable(terms("p4+p4+p4"), N, missing)
        with pytest.raises(ReverificationError):
            _verify_non_representable(terms("p4+p4+p4"), N,
                                      np.append(missing, 5000))


# What the sum, form and prime re-checks may call in the three modules: the
# re-checks, their table and walk, and the list, bound, value-stream and
# prime-table helpers they read
_RECHECK_CALLS = (
    sumset.sum_table, sumset.reached, sumset.sorted_distinct,
    sumset.check_bound, sumset._verify_non_representable,
    qform.represented_among, qform._streams, qform._variable_values,
    primepoly.decomposed_among, primepoly.sieve_primes)


def _kernel_functions():
    """(module, name) of every module-level function of sumset, qform and
    primepoly, lru-cached ones too, wherever one of the three binds it, but
    the allowed ``_RECHECK_CALLS``."""
    modules = (sumset, qform, primepoly)
    own = {module.__name__ for module in modules}
    return [(module, name) for module in modules
            for name, value in vars(module).items()
            if inspect.isfunction(getattr(value, "__wrapped__", value))
            and value.__module__ in own and value not in _RECHECK_CALLS]


def test_rechecks_call_no_kernel_function():
    # the sum, form and prime re-checks all pass their true lists and catch
    # an injected representable n with every kernel function refusing to run
    def refuse(*args, **kwargs):
        raise AssertionError("a re-check reached a sieve kernel")

    sum_terms = terms("p4+p5+p8")
    sum_missing = range_sieve(sum_terms, N, 5000).missing()
    form = qform.DiagonalTernaryForm((1, 1, 1))
    form_missing = qform.qf_exception_set(form, 5000)
    query = primepoly.PrimePolyQuery(2, "polygonal", 5, "odd", (4, 1))
    prime_missing = primepoly.exception_scan(query, 5000)
    prime_hit = next(n for n in range(3, 5000, 2)
                     if primepoly.decomposition_witness(query, n, 5000))
    kernels = _kernel_functions()
    assert {(sumset, "outside"), (sumset, "_pair_bits"), (qform, "inside"),
            (sumset, "sumset_bits"), (qform, "sumset_bits"),
            (primepoly, "sumset_bits"), (primepoly, "_class_miss")
            } <= set(kernels)
    with contextlib.ExitStack() as stack:
        for module, name in kernels:
            stack.enter_context(mock.patch.object(module, name, refuse))
        _verify_non_representable(sum_terms, N, sum_missing)
        with pytest.raises(ReverificationError) as exc:
            _verify_non_representable(sum_terms, N,
                                      np.append(sum_missing, 20))
        assert exc.value.n == 20
        assert qform.represented_among(form, form_missing).size == 0
        assert qform.represented_among(
            form, np.append(form_missing, 3)).tolist() == [3]
        assert primepoly.decomposed_among(query, prime_missing,
                                          5000).size == 0
        assert primepoly.decomposed_among(
            query, np.append(prime_missing, prime_hit),
            5000).tolist() == [prime_hit]


def test_rechecks_neither_copy_nor_change_their_lists():
    # an increasing int64 array is taken as it is, and any other list is
    # sorted in a copy, so a caller's array comes back unchanged
    increasing = np.array([3, 7, 19], dtype=np.int64)
    assert sumset.sorted_distinct(increasing) is increasing
    shuffled = np.array([19, 3, 7, 3], dtype=np.int64)
    assert sumset.sorted_distinct(shuffled).tolist() == [3, 7, 19]
    assert sumset.sorted_distinct((19, 3, 7, 3)).tolist() == [3, 7, 19]
    assert shuffled.tolist() == [19, 3, 7, 3]
    sum_missing = range_sieve(terms("p4+p4+p4"), N, 5000).missing()
    form = qform.DiagonalTernaryForm((1, 1, 1))
    form_missing = qform.qf_exception_set(form, 5000)
    query = primepoly.PrimePolyQuery(2, universe="all")
    prime_missing = primepoly.exception_scan(query, 5000)
    for listed, recheck in [
            (sum_missing, lambda ns: _verify_non_representable(
                terms("p4+p4+p4"), N, ns)),
            (form_missing, lambda ns: qform.represented_among(form, ns)),
            (prime_missing, lambda ns: primepoly.decomposed_among(
                query, ns, 5000))]:
        descending = listed[::-1].copy()
        recheck(descending)
        assert np.array_equal(descending, listed[::-1])


def test_sorted_distinct_checks_increase_without_a_bool_per_entry():
    # 5*10^6 increasing entries are returned as they are: a comparison of
    # the whole array held 4.77 MiB of bools
    increasing = np.arange(0, 10 ** 7, 2)
    tracemalloc.start()
    try:
        assert sumset.sorted_distinct(increasing) is increasing
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    # a repeat or a descent on either side of a slice border is sorted out
    chunk = sumset._PAIR_CHUNK
    for at in (chunk - 1, chunk, chunk + 1):
        for change in (0, -1):
            ns = np.arange(3 * chunk)
            ns[at] = ns[at - 1] + change
            assert sumset.sorted_distinct(ns).tolist() == sorted(set(
                ns.tolist())), (at, change)


def test_reverification_memory_per_integer():
    # the 333331 exceptions of p4+p4+p4 at 2*10^6 against a bool table of
    # the head sums; a Python set of those sums took 19 bytes per integer
    bound = 2_000_000
    missing = range_sieve(terms("p4+p4+p4"), N, bound).missing()
    tracemalloc.start()
    try:
        _verify_non_representable(terms("p4+p4+p4"), N, missing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(missing) == 333331
    assert peak < 5 * bound
