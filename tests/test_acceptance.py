"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s to stream them);
a failing assertion surfaces as a FAIL line plus the pytest report.
"""

import functools

import numpy as np

from polysum import catalog
from polysum.polycore import SumDomain, parse_sum
from polysum.primepoly import PrimePolyQuery, exception_scan, max_exception
from polysum.qform import (
    DiagonalTernaryForm,
    canonical_reduction,
    mapped_exception_scan,
    rep_count_constrained,
    rep_parity_counts,
    verify_catalog_form,
    verify_reduction,
)
from polysum.screening import (
    compare_with_catalog,
    format_triple,
    screen,
    triple_to_sum,
    unique_exception_scan,
)
from polysum.sumset import (
    exceptions,
    member_with_witness,
    offset_universal_check,
    range_sieve,
)

N, Z = SumDomain.NATURALS, SumDomain.INTEGERS


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:>2} FAIL  {label}")
                raise
            print(f"ACCEPTANCE {number:>2} PASS  {label}")
        return run
    return wrap


@criterion(1, "screening presets reproduce the 20/31/64/7 survivor lists")
def test_criterion_01_screening_lists():
    for preset, list_id, bound in [
        ("thm-1.1i", "thm-1.1i-20", 10_000),
        ("thm-1.3", "thm-1.3-31", 10_000),
        ("thm-1.4", "thm-1.4-64", 100_000),
        ("liouville", "liouville-7", 10_000),
    ]:
        report = screen(preset, bound)
        missing, extra = compare_with_catalog(report,
                                              catalog.load(list_id).entries)
        assert missing == [] and extra == [], (preset, missing, extra)


@criterion(2, "every transcribed witness validates as a direct certificate")
def test_criterion_02_witness_tables():
    total = 0
    for ident in ("witness-2", "witness-6.1", "witness-6.2", "witness-7.1",
                  "witness-7.2", "witness-8.1", "witness-8.2", "witness-8.3",
                  "witness-8.4"):
        table = catalog.load(ident)
        for triple, n in table.entries:
            assert member_with_witness(triple_to_sum(triple, table.domain),
                                       n) is None, (ident, triple, n)
            total += 1
    assert total >= 150


@criterion(3, "the 29 single-exception triples scan to their sole values")
def test_criterion_03_unique_exceptions():
    found = dict(unique_exception_scan("unique-29", bound=10_000))
    listed = catalog.load("unique-29").entries
    for triple in listed:
        assert triple in found, format_triple(triple)
    values = [found[t] for t in listed]
    assert max(values) == 468
    assert found[((1, 3), (1, 5), (1, 32))] == 31
    assert found[((1, 4), (1, 5), (1, 8))] == 19
    # the scan also reports p3+p5+p37 (sole exception 31 at this bound),
    # absent from the transcribed list
    extras = sorted(set(found) - set(listed))
    assert extras == [((1, 3), (1, 5), (1, 37))]


@criterion(4, "all 26 regular-form catalog entries verify at 1e5")
def test_criterion_04_regular_forms():
    for entry in catalog.regular_form_catalog():
        ok, sieve_only, family_only = verify_catalog_form(
            entry.form, entry.families, 100_000)
        assert ok, (entry.display, sieve_only[:5], family_only[:5])


@criterion(5, "counting ratio and parity inequalities hold for n <= 1e4")
def test_criterion_05_counting_identities():
    limit = 10_000
    # binary ratio: odd-x solutions of x^2+3y^2 = 8n+4 are exactly 2/3 of all
    odd, even = rep_parity_counts((1, 3), 8 * limit + 4)
    targets = 8 * np.arange(limit + 1) + 4
    assert (3 * odd[targets] == 2 * (odd[targets] + even[targets])).all()
    # ternary parity dominance at 12n+4 and 12n+8
    odd, even = rep_parity_counts((1, 3, 3), 12 * limit + 4)
    t4 = 12 * np.arange(limit + 1) + 4
    assert (odd[t4] >= even[t4]).all()
    odd, even = rep_parity_counts((3, 1, 1), 12 * limit + 8)
    assert (odd[t4] >= even[t4]).all()
    assert (odd[t4 + 4] >= even[t4 + 4]).all()
    # the bulk counter agrees with the per-value enumerator
    for n in (4, 100, 2020):
        assert rep_count_constrained((1, 3), 8 * n + 4, variable=0) == \
            rep_parity_counts((1, 3), 8 * n + 4)[0][8 * n + 4]


@criterion(6, "canonical and explicit reductions verify at 1e4")
def test_criterion_06_reductions():
    seventy = (catalog.load("thm-1.5-35").entries +
               catalog.load("remaining-35").entries)
    assert len(set(seventy)) == 70
    for triple in seventy:
        entry = canonical_reduction(triple_to_sum(triple, Z))
        ok, bad = verify_reduction(entry, 10_000)
        assert ok, (format_triple(triple), bad)
    for display, entry in catalog.explicit_reductions():
        ok, bad = verify_reduction(entry, 10_000)
        assert ok, (display, bad)
    # 4440n+2657 is attained by the unconditioned form for 9 <= n <= 1e4
    missed = mapped_exception_scan(DiagonalTernaryForm((185, 888, 120)),
                                   4440, 2657, 10_000)
    assert all(n < 9 for n in missed), missed[:5]


@criterion(7, "the three mixed sums stay exception-free up to 1e6")
def test_criterion_07_conjecture_11():
    for text in ("p4+p4+p5", "p3+4p4+p5", "p4+p5+p6"):
        report = exceptions(parse_sum(text, N), 1_000_000)
        assert report.exceptions.size == 0, (text, report.exceptions[:5])


@criterion(8, "shifted ladders cover 5e5; p20+p21+p22 tops out at 387904")
def test_criterion_08_conjecture_12():
    for m in range(3, 11):
        sum_ = parse_sum(f"p{m+1}+p{m+2}+p{m+3}", N)
        report = offset_universal_check(sum_.terms, N, range(0, m - 2),
                                        500_000)
        assert report.exceptions.size == 0, (m, report.exceptions[:5])
    report = exceptions(parse_sum("p20+p21+p22", N), 1_000_000)
    assert report.exceptions.size and report.exceptions[-1] == 387904


@criterion(9, "all 70 essential triples are exception-free over Z up to 1e5")
def test_criterion_09_seventy_over_z():
    seventy = (catalog.load("thm-1.5-35").entries +
               catalog.load("remaining-35").entries)
    for triple in seventy:
        bits = range_sieve(triple_to_sum(triple, Z).terms, Z, 100_000)
        assert bits.missing().size == 0, format_triple(triple)


@criterion(10, "prime-square and prime-polygonal scans match the tables")
def test_criterion_10_prime_scans():
    sq = lambda a: PrimePolyQuery(a, "square", universe="coprime")
    assert exception_scan(sq(2), 10_000_000).tolist() == [5777, 5993]
    assert exception_scan(sq(12), 1_000_000).tolist() == [133]
    assert exception_scan(sq(6), 1_000_000).tolist() == []
    assert exception_scan(sq(30), 1_000_000).tolist() == [121]
    assert exception_scan(sq(3), 1_000_000).tolist() == \
        [4, 28, 52, 133, 292, 892, 1588]
    assert exception_scan(sq(18), 1_000_000).tolist() == \
        [187, 1003, 5777, 5993]
    assert exception_scan(sq(24), 1_000_000).tolist() == \
        [25, 49, 145, 385, 745, 1081, 1139, 1561, 2119, 2449, 5299]
    assert max_exception(sq(10), 1_000_000) == 18031
    assert max_exception(sq(8), 1_000_000) == 39167
    assert max_exception(sq(29), 10_000_000) == 7824041
    for order, value in [(6, 9897), (7, 4313), (9, 81147), (11, 26405),
                         (14, 7327), (17, 15969)]:
        query = PrimePolyQuery(2, "polygonal", order, "odd")
        assert max_exception(query, 1_000_000) == value, order


@criterion(11, "property suites: identities, postconditions, agreements")
def test_criterion_11_property_suites():
    import random
    from polysum.descent import (descent_7_odd, descent_mod3, descent_mod5,
                                 split_3_into_6)
    from polysum.polycore import poly_value, square_completion

    # polygonal identities across the full stated grid
    for m in range(3, 61):
        stretch, offset, step, residue = square_completion(m)
        for x in range(-200, 201):
            assert stretch * poly_value(m, x) + offset == \
                (step * x - residue) ** 2

    # descent postconditions on 1e4 random inputs per transform
    rng = random.Random(20260811)
    for _ in range(10_000):
        x, y = rng.randint(-300, 300), rng.randint(-300, 300)
        if x or y:
            for m in (2, 5, 8):
                u, v = descent_mod3(m, x, y)
                assert u * u + m * v * v == x * x + m * y * y
                assert u % 3 or v % 3
            u, v = descent_mod5(x, y)
            assert u * u + 4 * v * v == x * x + 4 * y * y
            assert u % 5 or v % 5
        w = x * x + 7 * y * y
        if w and w % 8 == 0:
            u, v = descent_7_odd(x, y)
            assert u * u + 7 * v * v == w and u % 2 and v % 2
        w = x * x + 2 * y * y
        if w % 3 == 0:
            a, b = split_3_into_6(x, y)
            assert 3 * a * a + 6 * b * b == w

    # sieve membership agrees with the witness search on random probes
    sum_ = parse_sum("p3+2p4+p11", N)
    bits = range_sieve(sum_.terms, N, 2000)
    for _ in range(1000):
        n = rng.randrange(2001)
        assert (n in bits) == (member_with_witness(sum_, n) is not None)

    # pair-identity and hexagonal-triangular set equalities at 1e4
    for c in (1, 4):
        for k in (5, 12):
            lhs = range_sieve(parse_sum(f"p3+p3+{c}p{k}", N).terms, N, 10_000)
            rhs = range_sieve(parse_sum(f"2p3+p4+{c}p{k}", N).terms, N, 10_000)
            assert (lhs.bits == rhs.bits).all()
    for n in range(10_001):
        from polysum.polycore import is_generalized_polygonal
        assert (is_generalized_polygonal(6, n) is not None) == \
            (is_generalized_polygonal(3, n) is not None)
