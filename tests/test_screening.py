import dataclasses
import hashlib
from itertools import product
from typing import Iterable, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from polysum import catalog, screening, sumset
from polysum.polycore import SumDomain, Term, poly_values_upto
from polysum.sumset import outside, range_sieve
from polysum.screening import (
    DEFAULT_SEARCH_BOUND,
    PRESETS,
    EliminationCertificate,
    _FixedPair,
    _frontier_slots,
    _open_values,
    _scan_concrete,
    _screen,
    _sibling_slots,
    _worst_gaps,
    canonical_triple,
    certificate_covers,
    coefficient_tail_cutoff,
    compare_with_catalog,
    format_triple,
    order_tail_cutoff,
    report_covers,
    screen,
    unique_exception_scan,
    verify_certificate,
)

N, Z = SumDomain.NATURALS, SumDomain.INTEGERS


def test_order_tail_cutoff_triangular_pair():
    wit, cutoff = order_tail_cutoff([Term(1, 3), Term(1, 3)], 1, N)
    assert wit == [33] and cutoff == 36


def test_order_tail_cutoff_examples():
    wit, _ = order_tail_cutoff([Term(1, 3), Term(1, 4)], 1, N)
    assert wit == [34]
    assert order_tail_cutoff([Term(1, 3), Term(1, 3)], 1, N, search_bound=3) is None
    # a coefficient above the search bound leaves the pair's own gaps
    assert order_tail_cutoff([Term(1, 3), Term(1, 3)], 5000, N,
                             gap_count=2) == ([5, 8], 3)


def test_coefficient_tail_cutoff_examples():
    wit, cutoff = coefficient_tail_cutoff([Term(1, 5), Term(1, 5)], Z)
    assert wit == [11] and cutoff == 11
    wit, cutoff = coefficient_tail_cutoff([Term(1, 3), Term(1, 3)], N)
    assert wit == [5] and cutoff == 5
    wit, _ = coefficient_tail_cutoff([Term(1, 4), Term(1, 4)], N)
    assert wit == [3]


def test_liouville_screen():
    report = screen("liouville")
    got = [tuple(a for a, _ in t) for t in report.survivors]
    assert got == [(1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 1, 5),
                   (1, 2, 2), (1, 2, 3), (1, 2, 4)]
    missing, extra = compare_with_catalog(report, catalog.load("liouville-7").entries)
    assert missing == [] and extra == []


def test_mixed_34_screen():
    report = screen("mixed-34-list")
    missing, extra = compare_with_catalog(report,
                                          catalog.load("mixed-34-25").entries)
    assert missing == [] and extra == []


def test_same_order_screen_over_z():
    report = screen("thm-1.1i")
    assert len(report.survivors) == 20
    assert all(all(m == 5 for _, m in t) for t in report.survivors)
    missing, extra = compare_with_catalog(report, catalog.load("thm-1.1i-20").entries)
    assert missing == [] and extra == []


def test_certificates_verify():
    for preset in ("liouville", "mixed-34-list", "thm-1.3"):
        report = screen(preset)
        assert all(verify_certificate(c) for c in report.eliminations)


def test_weighted_screen_and_certificates():
    report = screen("thm-1.4")
    missing, extra = compare_with_catalog(report, catalog.load("thm-1.4-64").entries)
    assert missing == [] and extra == []
    kinds = {c.kind for c in report.eliminations}
    assert kinds == {"direct", "order-tail", "coefficient-tail", "frontier-tail"}
    assert all(verify_certificate(c) for c in report.eliminations)
    # the product floor: the threshold of the level-0 frontier tail, with
    # all three slots open
    [floor] = [c.threshold for c in report.eliminations
               if c.kind == "frontier-tail" and c.fixed == ()]
    assert floor >= 9


@pytest.mark.parametrize("preset",
                         ["unique-29", "liouville", "mixed-34-list", "thm-1.1i"])
def test_two_gap_certificates_verify(preset):
    report = _screen(preset, None, DEFAULT_SEARCH_BOUND, gap_count=2)
    assert report.eliminations
    # direct and order/coefficient tails carry two witnesses, frontier and
    # parametric tails a gap count of two
    assert all(max(len(c.witnesses), c.gap_count) == 2
               for c in report.eliminations)
    assert all(verify_certificate(c) for c in report.eliminations)


def _gaps_of_sets(value_sets: Sequence[Iterable[int]], bound: int,
                  count: int) -> list[int]:
    sums = {0}
    for vs in value_sets:
        sums = {s + v for s in sums for v in vs if s + v <= bound}
    out = []
    for n in range(bound + 1):
        if n not in sums:
            out.append(n)
            if len(out) == count:
                break
    return out


def _reference_assignment_gaps_ok(fixed_sets, open_count, bound, gap_count,
                                  coef_cap):
    """Every assignment of {0, a} profiles to the open slots leaves
    ``gap_count`` missing values <= bound (a in [1, cap] or above bound)."""
    choices = (list(range(1, (coef_cap or bound) + 1)) + [None])

    def rec(i, sets):
        if i == open_count:
            return len(_gaps_of_sets(sets, bound, gap_count)) == gap_count
        for a in choices:
            vals = (0,) if a is None else (0, a)
            if not rec(i + 1, sets + [vals]):
                return False
        return True

    return rec(0, fixed_sets)


def _reference_sibling_gaps(fixed, sibling_orders, domain, bound, gap_count):
    """Over every coefficient assignment (1..bound, or slot absent) to the
    sibling slots, the first gaps whose last gap is largest; None when some
    assignment leaves fewer gaps."""
    worst = []

    def rec(i, sets):
        nonlocal worst
        if i == len(sibling_orders):
            found = _gaps_of_sets(sets, bound, gap_count)
            if len(found) < gap_count:
                return False
            if not worst or found[-1] > worst[-1]:
                worst = found
            return True
        for a in list(range(1, bound + 1)) + [None]:
            extra = ([] if a is None else
                     [poly_values_upto(Term(a, sibling_orders[i]), domain,
                                       bound)])
            if not rec(i + 1, sets + extra):
                return False
        return True

    base = [poly_values_upto(t, domain, bound) for t in fixed]
    return worst if rec(0, base) else None


def _small_cases(fixed_choices, slot_choices, width):
    """(fixed, slot spec, bound, gap count) with at most about 1700
    assignments each, for bounds up to 40."""
    for fixed in fixed_choices:
        for spec in slot_choices:
            for bound in (2, 4, 7, 8, 12, 16, 24, 32, 40):
                if width(spec, bound) ** len(spec[0]) > 1700:
                    continue
                for gap_count in (1, 2):
                    yield fixed, spec, bound, gap_count


def test_worst_gaps_matches_the_frontier_reference():
    outcomes = set()
    fixed_choices = [(), ((1, 3),), ((1, 4),), ((2, 3),), ((1, 3), (1, 5))]
    slot_choices = [(range(k), cap) for k in (1, 2, 3) for cap in (None, 1, 2)]
    for fixed, (slots, cap), bound, gap_count in _small_cases(
            fixed_choices, slot_choices,
            lambda spec, bound: (spec[1] or bound) + 1):
        if len(fixed) + len(slots) > 3:
            continue
        sets = [poly_values_upto(Term(a, m), N, bound) for a, m in fixed]
        got = _worst_gaps(sets, _frontier_slots(len(slots), cap, bound),
                          bound, gap_count)
        want = _reference_assignment_gaps_ok(sets, len(slots), bound,
                                             gap_count, cap)
        assert (got is not None) == want, (fixed, len(slots), cap, bound)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_worst_gaps_matches_the_sibling_reference():
    outcomes = set()
    fixed_choices = [(), ((1, 3),), ((2, 3),), ((1, 4),), ((1, 3), (1, 3))]
    slot_choices = [(orders, domain) for orders in ((4,), (3,), (5,), (4, 4))
                    for domain in (N, Z)]
    for fixed, (orders, domain), bound, gap_count in _small_cases(
            fixed_choices, slot_choices, lambda spec, bound: bound + 1):
        terms = [Term(a, m) for a, m in fixed]
        sets = [poly_values_upto(t, domain, bound) for t in terms]
        got = _worst_gaps(sets, _sibling_slots(orders, domain, bound), bound,
                          gap_count)
        want = _reference_sibling_gaps(terms, orders, domain, bound, gap_count)
        assert got == want, (fixed, orders, domain, bound, gap_count)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _product_worst_gaps(sets, slots, bound, gap_count):
    """``_worst_gaps`` by the ordered product of all choices, each summed
    from scratch."""
    worst = None
    for choice in product(*slots):
        found = _gaps_of_sets([*sets, *choice], bound, gap_count)
        if len(found) < gap_count:
            return None
        if worst is None or found[-1] > worst[-1]:
            worst = found
    return worst


@pytest.mark.parametrize("fixed, slots", [
    # three open frontier slots; choices with equal last gaps but other
    # first gaps exist at gap count 2, so the earliest worst choice counts
    pytest.param((), lambda q: _frontier_slots(3, None, q), id="frontier-3"),
    pytest.param((), lambda q: _frontier_slots(3, 2, q), id="frontier-3-cap"),
    pytest.param(((2, 3),), lambda q: _frontier_slots(2, 3, q),
                 id="2p3-frontier-2-cap"),
    pytest.param(((7, 4),), lambda q: _frontier_slots(2, 3, q),
                 id="7p4-frontier-2-cap"),
    # sibling slots of one repeated order
    pytest.param((), lambda q: _sibling_slots((4, 4), N, q), id="siblings-44"),
    pytest.param(((5, 3),), lambda q: _sibling_slots((4, 4), N, q),
                 id="5p3-siblings-44"),
    pytest.param(((7, 4),), lambda q: _sibling_slots((3, 3), N, q),
                 id="7p4-siblings-33"),
    pytest.param((), lambda q: _sibling_slots((5, 5), Z, q),
                 id="siblings-55-over-z"),
    # sibling slots of two orders, whose choices are all walked
    pytest.param((), lambda q: _sibling_slots((4, 5), N, q), id="siblings-45"),
    pytest.param(((7, 4),), lambda q: _sibling_slots((5, 4), N, q),
                 id="7p4-siblings-54"),
])
def test_worst_gaps_matches_the_product_reference(fixed, slots):
    outcomes = set()
    for bound in (2, 5, 8, 11, 16, 24):
        sets = [poly_values_upto(Term(a, m), N, bound) for a, m in fixed]
        for gap_count in (1, 2):
            want = _product_worst_gaps(sets, slots(bound), bound, gap_count)
            assert _worst_gaps(sets, slots(bound), bound, gap_count) == want, \
                (bound, gap_count)
            outcomes.add(want is None)
    assert outcomes == {True, False}


_VALUE_SETS = st.lists(st.integers(0, 70), min_size=1, max_size=5,
                       unique=True).map(sorted)


@st.composite
def _gap_cases(draw):
    """Fixed value sets, and up to three slots of candidate value sets, a
    slot often repeating the list of the slot before it; values reach past
    the bound, and a slot may have no set to choose."""
    sets = draw(st.lists(_VALUE_SETS, max_size=2))
    slots: list = []
    for _ in range(draw(st.integers(0, 3))):
        if slots and draw(st.booleans()):
            slots.append(slots[-1])
        else:
            slots.append(draw(st.lists(_VALUE_SETS, max_size=4)))
    return sets, slots, draw(st.integers(0, 64)), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_gap_cases())
@example(([[0, 1]], [[[0, 3], [0, 5]]] * 3, 40, 2))
@example(([], [[[0, 2]], []], 10, 1))
def test_worst_gaps_matches_the_product_model_on_random_sets(case):
    sets, slots, bound, gap_count = case
    assert _worst_gaps(sets, slots, bound, gap_count) == \
        _product_worst_gaps(sets, slots, bound, gap_count)


_TERM_KEYS = st.tuples(st.integers(1, 6), st.integers(3, 14))


@settings(max_examples=150, deadline=None)
@given(st.lists(_TERM_KEYS, min_size=2, max_size=2), _TERM_KEYS,
       st.sampled_from([N, Z]), st.integers(0, 2500), st.integers(0, 3000),
       st.integers(1, 60))
@example([(1, 3), (1, 5)], (1, 32), N, 2000, 2500, 2)   # gap 31
@example([(1, 4), (1, 5)], (1, 8), N, 2000, 2500, 2)    # gap 19
@example([(1, 3), (1, 3)], (1, 3), N, 1000, 1000, 1)    # no gap at all
@example([(2, 5), (3, 7)], (1, 9), N, 511, 700, 60)     # gaps up to the stage
def test_int_reads_equal_the_full_staged_read(keys, third, domain, stage,
                                              extra, want):
    """The pair's int reads give the first gaps that ``outside`` gives on
    the packed staged sieve, for a third stream, for the {0, c} of an order
    tail and for the {0} of a coefficient tail; a scan that passes its stage
    reads the scan bound."""
    bound = stage + extra
    pair = _FixedPair(tuple(keys), domain)

    def stream(limit):
        return poly_values_upto(Term(*third), domain, limit)

    def whole(limit, values):
        with mock.patch.object(sumset, "_INT_BELOW", 0):  # the packed steps
            bits = range_sieve([Term(a, m) for a, m in keys], domain, limit)
        return outside(bits.bits, limit + 1, values)[:want].tolist()

    staged = whole(stage, stream(stage))
    assert pair.first_outside(stream(stage), stage, want) == staged
    c = third[0]
    assert pair.first_outside(_open_values(c, stage), stage, want) == \
        whole(stage, _open_values(c, stage))
    assert pair.first_outside((0,), stage, want) == whole(stage, (0,))
    scanned = staged if len(staged) >= want else whole(bound, stream(bound))
    triple = canonical_triple([*keys, third])
    assert _scan_concrete(triple, domain, bound, stage, want, pair, third) == \
        scanned


def test_weighted_screen_builds_one_int_per_pair_and_few_packed_sieves(
        monkeypatch):
    # each of the 540 pairs builds its sumset once, as an int over the
    # stage bound; only the 15 with a triple that passes its stage sieve
    # the pair packed at the scan bound
    ints, sieves = [], []
    fold, sieve = screening.int_fold, screening.range_sieve

    def counted_fold(values, size, start=1):
        if start == 1:  # a fold from {0} starts a sumset
            ints.append(size)
        return fold(values, size, start)

    def counted_sieve(terms, domain, bound):
        sieves.append((len(terms), bound))
        return sieve(terms, domain, bound)

    monkeypatch.setattr(screening, "int_fold", counted_fold)
    monkeypatch.setattr(screening, "range_sieve", counted_sieve)
    screen("thm-1.4")
    assert ints == [DEFAULT_SEARCH_BOUND + 1] * 540
    assert sieves == [(2, PRESETS["thm-1.4"].scan_bound)] * 15


# The five catalog presets at their default bounds, and unique-29's scan
# with two gaps per region: (preset, gap count).
DIGEST_SCREENS = (("liouville", 1), ("thm-1.1i", 1), ("mixed-34-list", 1),
                  ("thm-1.3", 1), ("thm-1.4", 1), ("unique-29", 2))
SCREENS_DIGEST = \
    "08fd31627082748d2baec35e857c8338d91c2ded496d5da2a3bbe2820e5a04da"


def screens_digest() -> str:
    """SHA-256 over every field of every certificate of DIGEST_SCREENS, in
    order, then each screen's survivors and unique entries."""
    digest = hashlib.sha256()
    for preset, gap_count in DIGEST_SCREENS:
        report = _screen(preset, None, DEFAULT_SEARCH_BOUND, gap_count)
        digest.update(f"{preset} {gap_count}\n".encode())
        for cert in report.eliminations:
            fields = [getattr(cert, f.name) for f in dataclasses.fields(cert)]
            fields = [v.value if isinstance(v, SumDomain) else v
                      for v in fields]
            digest.update(f"{fields!r}\n".encode())
        digest.update(f"{report.survivors!r}\n"
                      f"{report.unique_exceptions!r}\n".encode())
    return digest.hexdigest()


def test_every_certificate_is_pinned():
    assert screens_digest() == SCREENS_DIGEST


def test_worst_gaps_with_no_value_set_to_choose():
    # at check bound 0 a frontier slot has no {0, a}: nothing is closed
    assert _frontier_slots(1, None, 0) == [[]]
    assert _worst_gaps([], _frontier_slots(1, None, 0), 0, 1) is None
    assert _worst_gaps([], _sibling_slots((4,), N, 0), 0, 1) is None


@pytest.mark.parametrize("preset, bound, search_bound, gap_count", [
    ("thm-1.3", None, DEFAULT_SEARCH_BOUND, 1),
    ("unique-29", None, DEFAULT_SEARCH_BOUND, 2),
    ("thm-1.4", 10_000, DEFAULT_SEARCH_BOUND, 1),
    # small stage bounds, so that some triples fail only in the full pass
    ("unique-29", None, 100, 2),
    ("thm-1.4", 10_000, 100, 1),
    # the stage bound equals the scan bound: one bitmap per pair
    ("thm-1.3", 2000, DEFAULT_SEARCH_BOUND, 1),
    # fixed-order spaces scan their triples beside a fixed pair too
    ("mixed-34-list", None, DEFAULT_SEARCH_BOUND, 2),
    ("thm-1.1i", None, DEFAULT_SEARCH_BOUND, 1),
])
def test_pair_sieve_results_match_the_public_primitives(preset, bound,
                                                        search_bound,
                                                        gap_count):
    """Every certificate and survivor built from a fixed pair's shared
    bitmaps equals what the public primitives compute from scratch."""
    report = _screen(preset, bound, search_bound, gap_count)
    space, top = report.space, report.bound
    pair_tails = space.style == "term-multisets"

    def sieve(keys, limit):
        return range_sieve([Term(a, m) for a, m in keys], space.domain, limit)

    kinds = set()
    for cert in report.eliminations:
        terms = [Term(a, m) for a, m in cert.fixed]
        tail = (list(cert.witnesses), cert.threshold)
        if cert.kind == "direct":
            assert list(cert.witnesses) == \
                sieve(cert.fixed, top).first_missing(gap_count), cert
        elif cert.kind == "order-tail":
            assert tail == order_tail_cutoff(
                terms, cert.open_coefficient, space.domain,
                report.search_bound, gap_count), cert
        elif cert.kind == "coefficient-tail" and pair_tails:
            assert tail == coefficient_tail_cutoff(
                terms, space.domain, report.search_bound, gap_count), cert
        else:
            continue
        kinds.add(cert.kind)
    checked = {"direct"}
    if pair_tails:
        checked.add("order-tail")
        if space.coefficient_cap is None:  # a cap leaves no coefficient tail
            checked.add("coefficient-tail")
    assert kinds == checked
    for triple in report.survivors:
        assert sieve(triple, top).first_missing() == [], triple
    for triple, n in report.unique_exceptions:
        assert sieve(triple, top).first_missing(2) == [n], triple
    assert report.survivors or report.unique_exceptions


def test_space_not_closable_at_tiny_search_bound():
    from polysum.screening import SpaceNotClosable
    with pytest.raises(SpaceNotClosable):
        screen("thm-1.3", bound=10_000, search_bound=4)


def test_direct_certificates_resurvive_bound_increase():
    # raising the scan bound never adds survivors
    small = screen("liouville", bound=2000)
    large = screen("liouville", bound=10_000)
    assert set(large.survivors) <= set(small.survivors)


def test_compare_with_catalog_mutation():
    report = screen("liouville")
    mutated = list(catalog.load("liouville-7").entries)
    mutated[0] = ((1, 3), (1, 3), (7, 3))
    missing, extra = compare_with_catalog(report, mutated)
    assert len(missing) == 1 and len(extra) == 1


def test_unique_scan_contains_sole_exception_pairs():
    found = dict(unique_exception_scan("unique-29", bound=10_000))
    assert found[((1, 3), (1, 5), (1, 32))] == 31
    assert found[((1, 4), (1, 5), (1, 8))] == 19
    listed = catalog.load("unique-29").entries
    assert all(t in found for t in listed)
    assert max(found[t] for t in listed) == 468


def test_canonical_triple_and_format():
    triple = canonical_triple([(2, 4), (1, 3), (1, 4)])
    assert triple == ((1, 3), (1, 4), (2, 4))
    assert format_triple(triple) == "p3+p4+2p4"


def test_space_coverage_sampled():
    from polysum.screening import report_covers

    report = screen("thm-1.3")
    for triple in [((1, 3), (1, 4), (1, 27)),      # survivor
                   ((1, 3), (1, 3), (1, 9)),       # direct elimination
                   ((1, 3), (1, 5), (1, 1000)),    # order tail
                   ((1, 3), (1, 40), (1, 90)),     # pair frontier
                   ((1, 70), (1, 80), (1, 90))]:   # level-0 frontier
        assert report_covers(report, triple), triple

    report = screen("thm-1.4")
    for triple in [((1, 3), (2, 3), (1, 23)),          # survivor
                   ((1, 3), (1, 3), (3, 5)),           # direct elimination
                   ((1, 3), (2, 4), (2, 200)),         # order tail
                   ((1, 3), (1, 4), (555, 7)),         # coefficient tail
                   ((1, 3), (7, 30), (11, 40)),        # pair frontier
                   ((2, 11), (3, 12), (5, 13))]:       # level-0 frontier
        assert report_covers(report, triple), triple

    report = screen("liouville")
    for triple in [((1, 3), (1, 3), (4, 3)),
                   ((1, 3), (1, 3), (777, 3)),
                   ((1, 3), (5, 3), (9, 3)),
                   ((4, 3), (5, 3), (6, 3))]:
        assert report_covers(report, triple), triple

    report = screen("mixed-34-list")
    for triple in [((2, 3), (5, 3), (1, 4)),     # survivor
                   ((1, 3), (1, 3), (3, 4)),     # direct elimination
                   ((1, 3), (1, 3), (90, 4)),    # coefficient tail
                   ((1, 3), (44, 3), (2, 4)),    # parametric region
                   ((9, 3), (12, 3), (77, 4))]:  # outermost region
        assert report_covers(report, triple), triple


def test_space_membership():
    space = PRESETS["thm-1.4"]
    assert space.contains(((1, 3), (1, 3), (2, 5)))
    assert not space.contains(((1, 3), (1, 3), (1, 5)))  # no coefficient > 1
    assert not space.contains(((1, 3), (2, 3), (2, 4)))  # max order < 5


@pytest.fixture(scope="module")
def thm14_report():
    return screen("thm-1.4")


def _thm14_box(q):
    """Every thm-1.4 triple whose terms all have coefficient * order <= q."""
    terms = [(a, m) for a in range(1, q // 3 + 1) for m in range(3, q // a + 1)]
    triples = {canonical_triple((t1, t2, t3)) for t1 in terms for t2 in terms
               for t3 in terms}
    return sorted(t for t in triples if PRESETS["thm-1.4"].contains(t))


def _covered_linearly(report, triple):
    return (triple in report.survivors
            or any(certificate_covers(c, triple) for c in report.eliminations))


def test_report_covers_matches_linear_scan(thm14_report):
    box = _thm14_box(12)
    assert len(box) == 669
    for triple in box:
        assert report_covers(thm14_report, triple) == \
            _covered_linearly(thm14_report, triple)


def test_report_covers_without_the_only_covering_certificate(thm14_report):
    for triple in _thm14_box(12):
        covering = [c for c in thm14_report.eliminations
                    if certificate_covers(c, triple)]
        if len(covering) == 1 and triple not in thm14_report.survivors:
            break
    else:
        pytest.fail("no box triple is covered by exactly one certificate")
    assert report_covers(thm14_report, triple)
    pruned = dataclasses.replace(thm14_report, eliminations=tuple(
        c for c in thm14_report.eliminations if c is not covering[0]))
    assert not report_covers(pruned, triple)


def _cert(kind, fixed, **fields):
    return EliminationCertificate(kind=kind, domain=N, fixed=fixed, **fields)


def test_certificate_covers_direct():
    cert = _cert("direct", ((1, 3), (1, 3), (1, 9)), witnesses=(33,))
    assert certificate_covers(cert, ((1, 9), (1, 3), (1, 3)))
    assert not certificate_covers(cert, ((1, 3), (1, 3), (2, 9)))
    assert not certificate_covers(cert, ((1, 3), (1, 9), (1, 9)))


def test_certificate_covers_order_tail():
    cert = _cert("order-tail", ((1, 3), (1, 5)), witnesses=(40,),
                 open_coefficient=2, threshold=10)
    assert certificate_covers(cert, ((2, 11), (1, 5), (1, 3)))
    assert certificate_covers(cert, ((1, 3), (1, 5), (2, 500)))
    assert not certificate_covers(cert, ((1, 3), (1, 5), (2, 10)))
    assert not certificate_covers(cert, ((1, 3), (1, 5), (3, 11)))
    assert not certificate_covers(cert, ((1, 3), (1, 4), (2, 11)))


def test_certificate_covers_coefficient_tail():
    one = _cert("coefficient-tail", ((1, 3), (1, 4)), witnesses=(7,),
                open_count=1, threshold=7)
    assert certificate_covers(one, ((1, 3), (1, 4), (8, 5)))
    assert certificate_covers(one, ((1, 3), (1, 4), (8, 300)))
    assert not certificate_covers(one, ((1, 3), (1, 4), (7, 5)))
    two = _cert("coefficient-tail", ((1, 3),), witnesses=(2,), open_count=2,
                threshold=7)
    assert certificate_covers(two, ((1, 3), (8, 4), (9, 5)))
    assert not certificate_covers(two, ((1, 3), (8, 4), (7, 5)))


def test_certificate_covers_frontier_tail():
    free = _cert("frontier-tail", ((1, 3),), open_count=2, threshold=32,
                 check_bound=31)
    assert certificate_covers(free, ((1, 3), (1, 32), (2, 16)))
    assert not certificate_covers(free, ((1, 3), (1, 31), (2, 16)))
    assert not certificate_covers(free, ((1, 4), (1, 32), (2, 16)))
    capped = dataclasses.replace(free, coefficient_cap=1)
    assert certificate_covers(capped, ((1, 3), (1, 32), (1, 40)))
    assert not certificate_covers(capped, ((1, 3), (1, 32), (2, 16)))
    level0 = _cert("frontier-tail", (), open_count=3, threshold=9,
                   check_bound=8)
    assert certificate_covers(level0, ((3, 3), (2, 5), (1, 9)))
    assert not certificate_covers(level0, ((3, 3), (2, 4), (1, 9)))


def test_certificate_covers_parametric_tail():
    cert = _cert("parametric-tail", ((1, 3),), witnesses=(10,), open_count=1,
                 threshold=10, parametric_orders=(4,))
    assert certificate_covers(cert, ((1, 3), (5, 4), (11, 3)))
    # either order-4 term may fill the sibling slot
    assert certificate_covers(cert, ((1, 3), (11, 4), (5, 4)))
    assert not certificate_covers(cert, ((1, 3), (5, 4), (10, 3)))
    assert not certificate_covers(cert, ((1, 3), (5, 5), (11, 3)))
    assert not certificate_covers(cert, ((1, 4), (5, 4), (11, 3)))


def _first(preset, kind, **fields):
    return next(c for c in screen(preset).eliminations if c.kind == kind
                and all(getattr(c, k) == v for k, v in fields.items()))


# One field of a checked certificate changed so that its stated condition no
# longer holds: (preset, kind, the certificate's fields to match, the change).
_ALTERED = {
    "direct witness moved": (
        "thm-1.4", "direct", {},
        lambda c: {"witnesses": (c.witnesses[0] - 1,) + c.witnesses[1:]}),
    "order-tail threshold lowered": (
        "thm-1.4", "order-tail", {},
        lambda c: {"threshold": c.witnesses[-1] // c.open_coefficient - 1}),
    "order-tail open coefficient altered": (
        "thm-1.4", "order-tail", {},
        lambda c: {"open_coefficient": c.open_coefficient + 1}),
    "coefficient-tail threshold lowered": (
        "thm-1.4", "coefficient-tail", {},
        lambda c: {"threshold": c.witnesses[-1] - 1}),
    "direct witnesses dropped": (
        "thm-1.4", "direct", {}, lambda c: {"witnesses": ()}),
    "order-tail witnesses dropped": (
        "thm-1.4", "order-tail", {}, lambda c: {"witnesses": ()}),
    "coefficient-tail witnesses dropped": (
        "thm-1.4", "coefficient-tail", {}, lambda c: {"witnesses": ()}),
    "frontier-tail threshold lowered": (
        "thm-1.4", "frontier-tail", {"fixed": ()},
        lambda c: {"threshold": c.threshold - 1}),
    "frontier-tail check bound halved": (
        "thm-1.4", "frontier-tail", {"fixed": ()},
        lambda c: {"check_bound": c.check_bound // 2,
                   "threshold": c.check_bound // 2 + 1}),
    "parametric-tail threshold lowered": (
        "mixed-34-list", "parametric-tail", {"fixed": ((1, 3),)},
        lambda c: {"threshold": c.threshold - 1}),
    "parametric-tail check bound halved": (
        "mixed-34-list", "parametric-tail", {"fixed": ((1, 3),)},
        lambda c: {"check_bound": c.check_bound // 2}),
}


@pytest.mark.parametrize("name", list(_ALTERED))
def test_verify_certificate_rejects_one_changed_field(name):
    preset, kind, fields, change = _ALTERED[name]
    cert = _first(preset, kind, **fields)
    assert verify_certificate(cert)
    assert not verify_certificate(dataclasses.replace(cert, **change(cert)))


def test_verify_certificate_rejects_an_order_tail_over_z_below_its_values():
    # over Z an order m keeps a * p_m(-1) = a(m - 3) below the witness too,
    # so the threshold k needs a(k - 2) above it as well as a(k + 1)
    pair = [Term(1, 5), Term(1, 5)]
    (witness,), cutoff = order_tail_cutoff(pair, 1, Z)
    cert = EliminationCertificate(
        kind="order-tail", domain=Z, fixed=((1, 5), (1, 5)),
        witnesses=(witness,), open_coefficient=1, threshold=cutoff)
    assert verify_certificate(cert)
    # lowered by one, a(k + 1) still lies above the witness, a(k - 2) not
    assert cutoff > witness >= cutoff - 3
    assert not verify_certificate(dataclasses.replace(cert,
                                                      threshold=cutoff - 1))


def test_report_covers_a_recorded_single_exception_triple():
    report = _screen("unique-29", None, DEFAULT_SEARCH_BOUND, gap_count=2)
    triple, _ = report.unique_exceptions[0]
    assert triple not in report.survivors
    assert report_covers(report, tuple(reversed(triple)))
    # no certificate covers it: each claims two exceptions
    assert not report_covers(
        dataclasses.replace(report, unique_exceptions=()), triple)
