"""Frontier elimination over candidate spaces of weighted polygonal triples.

A screen walks an (a priori infinite) space of triples and splits it into
survivors (no exception up to the scan bound) and eliminated regions, each
carrying a machine-checkable certificate:

* ``direct``            -- one concrete triple with its first missing values.
* ``coefficient-tail``  -- beyond a coefficient threshold the open slots
                           contribute only 0 below the witness, so the
                           witness stays missing for every order at once.
* ``order-tail``        -- beyond an order cutoff the open slot contributes
                           only {0, a} below the witness.
* ``frontier-tail``     -- open slots whose coefficient*order product lies
                           above a floor Q + 1, so each contributes only
                           {0, a} (or {0}) below Q; every coefficient
                           assignment leaves a missing value <= Q (counting:
                           three two-element value sets cannot cover a long
                           initial segment, so the search always closes).
* ``parametric-tail``   -- a coefficient tail that holds for every choice of
                           the remaining slots' coefficients at their fixed
                           orders (each coefficient's stream up to the check
                           bound, or the slot absent).

Frontier and parametric tails are checked by one enumeration
(``_worst_gaps``): one value set is chosen per open slot from a candidate
list, and every choice must leave the gaps.  The {0} of a coefficient above
the check bound, or of an absent slot, is inside every candidate set, so its
gaps are a superset and it is no choice of its own.  A set of sums is one
Python int, a bitmask over [0, Q]: the fixed streams are summed once, each
chosen set is added to the sums of the slots before it as an OR of shifts,
and the gaps are the lowest clear bits.  Slots with equal candidate lists
(all frontier slots, sibling slots of one order) walk each multiset of
choices once, as its sorted index tuple.  The check bound doubles until that
enumeration closes.  A region still open at the search bound raises
``SpaceNotClosable``, which the CLI reports with exit status 2.
``verify_certificate`` reads its gaps through the same enumeration, and
never through ``sumset``.

Each concrete triple is scanned beside a fixed pair of its terms
(``_FixedPair``), whose sumset bitmaps are built on first use.  The pair's
coefficient tail, its order tails and the staged pass of each of its
triples read the first gaps they need on a prefix of the pair's sumset,
[0, 64) first and then eight times wider, up to the search bound; most
witnesses are small, so most pairs never build a bitmap at the search bound.
The triples that pass their stage read the pair's bitmap at the scan bound.
A triple's exceptions, and an order tail's gaps, are the n outside the
pair's sumset plus one more stream, read by ``sumset.outside``; whether n is
outside depends only on the entries and values up to n, so a prefix's gaps
are the first gaps on the whole range.  A sumset does not depend on which
two of its streams are summed first, so each scan is exact for the triple.

Tail thresholds come from the smallest checked witness, which may be looser
than a hand-optimized cutoff; certificates are validated against their own
stated condition, never against an external table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .polycore import SumDomain, Term, TripleSum, _values_upto
from .sumset import outside, range_sieve

DEFAULT_SEARCH_BOUND = 2000
DEFAULT_SCAN_BOUND = 100_000

TermKey = tuple[int, int]  # (coefficient, order)


class SpaceNotClosable(RuntimeError):
    """A tail cutoff could not be established below the search bound."""


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EliminationCertificate:
    """One eliminated region of a candidate space.

    ``fixed`` holds the concrete terms shared by the whole region.  The
    meaning of the remaining fields depends on ``kind``:

    direct:            fixed is the full triple; ``witnesses`` are missing.
    order-tail:        one open slot with coefficient ``open_coefficient``
                       and every order > ``threshold``.
    coefficient-tail:  ``open_count`` open slots, each with any order and
                       coefficient > ``threshold`` (sorted spaces only make
                       the first of them meaningful).
    frontier-tail:     ``open_count`` slots with product > ``threshold``;
                       for every coefficient assignment a gap of multiplicity
                       ``gap_count`` exists within [0, check_bound].
    parametric-tail:   ``open_count`` slots with coefficient > ``threshold``
                       at their listed ``parametric_orders`` siblings; the
                       check enumerated every sibling coefficient up to
                       ``check_bound`` plus the above-bound case.
    """

    kind: str
    domain: SumDomain
    fixed: tuple[TermKey, ...]
    witnesses: tuple[int, ...] = ()
    open_coefficient: int = 0
    open_count: int = 0
    threshold: int = 0
    check_bound: int = 0
    gap_count: int = 1
    parametric_orders: tuple[int, ...] = ()
    coefficient_cap: int | None = None


def _stream(key: TermKey, domain: SumDomain, bound: int) -> Sequence[int]:
    """``poly_values_upto`` of the term ``key``: its cached tuple itself,
    with no ``Term`` built and no copy made."""
    if key[0] < 1:  # the check a Term makes; the walk would never end
        raise ValueError(f"coefficient must be >= 1, got {key[0]}")
    return _values_upto(key[0], key[1], domain, bound)


def _worst_gaps(sets: Sequence[Iterable[int]],
                slots: Sequence[Sequence[Iterable[int]]], bound: int,
                gap_count: int) -> list[int] | None:
    """Over every choice of one value set per open slot, the first
    ``gap_count`` gaps on [0, bound] of ``sets`` plus the chosen sets whose
    last gap is largest (the earliest such choice); None as soon as some
    choice leaves fewer gaps, or when a slot has no value set to choose.

    Sums are one Python int each, bit n set for a reached n: a value set is
    added as the OR of the sums shifted by each of its values up to bound,
    masked once to [0, bound], and the gaps are the lowest clear bits.  The
    sums of ``sets`` are built once, and the walk adds one chosen set per
    slot, depth first.  Where a slot's candidate list equals the one before
    it, the walk takes only choices at or after the earlier slot's: a sumset
    does not depend on the order of its sets, and each multiset of choices
    first appears in ``product`` order as its sorted index tuple, so the
    earliest worst choice is among those walked."""
    mask = (1 << max(bound + 1, 0)) - 1

    def add(sums: int, values: Iterable[int]) -> int:
        out = 0
        for v in values:
            if v <= bound:
                out |= sums << v
        return out & mask

    sums = 1
    for values in sets:
        sums = add(sums, values)
    repeats = [i > 0 and slots[i] == slots[i - 1] for i in range(len(slots))]
    worst = None

    def walk(level: int, sums: int, first: int) -> bool:
        nonlocal worst
        if level == len(slots):
            free, found = ~sums & mask, []
            while free and len(found) < gap_count:
                low = free & -free
                found.append(low.bit_length() - 1)
                free ^= low
            if len(found) < gap_count:
                return False
            if worst is None or found[-1] > worst[-1]:
                worst = found
            return True
        for j in range(first if repeats[level] else 0, len(slots[level])):
            if not walk(level + 1, add(sums, slots[level][j]), j):
                return False
        return True

    return worst if walk(0, sums, 0) else None


def _frontier_slots(open_count: int, cap: int | None,
                    bound: int) -> list[list[tuple[int, ...]]]:
    """Per open slot: {0, a} for each coefficient a in [1, cap or bound].

    A coefficient above the bound contributes only {0}, but that choice
    needs no check: {0} is inside every {0, a}, so its gaps are a superset
    of theirs.  It never leaves fewer gaps, and its last gap is never
    larger, so it can never decide the result."""
    return [[(0, a) for a in range(1, (cap or bound) + 1)]] * open_count


def _sibling_slots(orders: Sequence[int], domain: SumDomain,
                   bound: int) -> list[list[Sequence[int]]]:
    """Per sibling order: the stream of each coefficient in [1, bound] at
    that order.

    An absent slot contributes only {0}, but that choice needs no check:
    every stream holds 0, so the gaps of {0} are a superset of a stream's.
    It never leaves fewer gaps, and its last gap is never larger, so it can
    never decide the result."""
    return [[_stream((a, m), domain, bound) for a in range(1, bound + 1)]
            for m in orders]


def _closing_search(fixed: Sequence[TermKey], slots, domain: SumDomain,
                    start: int, search_bound: int,
                    gap_count: int) -> tuple[int, list[int]] | None:
    """Double a check bound Q from ``start`` until every choice from
    ``slots(Q)`` leaves ``gap_count`` gaps <= Q beside the fixed streams.
    Returns (Q, the worst such gaps), or None past ``search_bound``."""
    limit = start
    while limit <= search_bound:
        sets = [_stream(key, domain, limit) for key in fixed]
        gaps = _worst_gaps(sets, slots(limit), limit, gap_count)
        if gaps is not None:
            return limit, gaps
        limit *= 2
    return None


def _closed(found, region: str, search_bound: int):
    """``found`` unless it is None, which means the region stays open."""
    if found is None:
        raise SpaceNotClosable(
            f"{region} not closable at search bound {search_bound}")
    return found


def verify_certificate(cert: EliminationCertificate) -> bool:
    """Re-check a certificate from scratch against its stated condition."""
    domain = cert.domain
    if cert.kind in ("direct", "order-tail", "coefficient-tail"):
        # the witnesses must be the first gaps of the fixed streams plus the
        # open slots' value sets below the last witness
        top = max(cert.witnesses)
        open_sets: list[tuple[int, ...]] = []
        if cert.kind == "order-tail":
            a, k = cert.open_coefficient, cert.threshold
            # every order above k keeps the slot's values in {0, a} below top
            if a * (k + 1) <= top:
                return False
            if domain is SumDomain.INTEGERS and a * (k + 1 - 3) <= top:
                return False
            open_sets = [(0, a)]
        elif cert.kind == "coefficient-tail":
            # a coefficient above top contributes only 0 below it
            if cert.threshold < top:
                return False
            open_sets = [(0,)] * cert.open_count
        sets = [_stream(key, domain, top) for key in cert.fixed] + open_sets
        # None, when the sets leave fewer gaps, fails the certificate too
        return list(cert.witnesses) == _worst_gaps(sets, [], top,
                                                   len(cert.witnesses))
    if cert.kind in ("frontier-tail", "parametric-tail"):
        q = cert.check_bound
        sets = [_stream(key, domain, q) for key in cert.fixed]
        if cert.kind == "frontier-tail":
            slots = _frontier_slots(cert.open_count, cert.coefficient_cap, q)
            return (cert.threshold == q + 1
                    and _worst_gaps(sets, slots, q, cert.gap_count) is not None)
        # every sibling assignment leaves its gaps at or below the threshold,
        # which closed slots with a larger coefficient cannot fill
        slots = _sibling_slots(cert.parametric_orders, domain, q)
        gaps = _worst_gaps(sets, slots, q, cert.gap_count)
        return gaps is not None and gaps[-1] <= cert.threshold
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


# ---------------------------------------------------------------------------
# tail cutoffs (public primitives)
# ---------------------------------------------------------------------------

def _open_values(c: int, bound: int) -> tuple[int, ...]:
    """The values up to bound of a slot of coefficient c and a large order:
    {0, c}, or {0} when c lies above the bound."""
    return (0, c) if c <= bound else (0,)


def _order_tail(found: list[int], c: int,
                gap_count: int) -> tuple[list[int], int] | None:
    """``order_tail_cutoff`` from the first gaps of the fixed terms' sumset
    plus ``_open_values(c, ...)``."""
    if len(found) < gap_count:
        return None
    return found, found[-1] // c + 3


def _coefficient_tail(found: list[int],
                      gap_count: int) -> tuple[list[int], int] | None:
    """``coefficient_tail_cutoff`` from the first gaps of the fixed terms'
    sumset."""
    if len(found) < gap_count:
        return None
    return found, found[-1]


def order_tail_cutoff(fixed_terms: Sequence[Term], third_coefficient: int,
                      domain: SumDomain, search_bound: int = DEFAULT_SEARCH_BOUND,
                      gap_count: int = 1) -> tuple[list[int], int] | None:
    """Witnesses and cutoff K eliminating every third-slot order > K.

    The smallest n <= search_bound outside (pair sumset + {0, c}) gives
    K = n // c + 3: for any order above K the third term contributes only
    {0, c} below n, so n stays missing.  None if the range is saturated.
    """
    if third_coefficient < 1:
        raise ValueError("coefficient must be >= 1")
    found = outside(range_sieve(fixed_terms, domain, search_bound).bits,
                    _open_values(third_coefficient, search_bound))
    return _order_tail(found[:gap_count].tolist(), third_coefficient,
                       gap_count)


def coefficient_tail_cutoff(fixed_terms: Sequence[Term], domain: SumDomain,
                            search_bound: int = DEFAULT_SEARCH_BOUND,
                            gap_count: int = 1) -> tuple[list[int], int] | None:
    """Witnesses and cutoff C eliminating every third coefficient > C.

    The smallest n outside the fixed-pair sumset works for every order at
    once: a third term with coefficient > n contributes only 0 below n.
    """
    return _coefficient_tail(
        range_sieve(fixed_terms, domain, search_bound).first_missing(gap_count),
        gap_count)


# ---------------------------------------------------------------------------
# candidate spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateSpace:
    """A screening space of term triples.

    ``fixed-orders`` style: finitely many order configurations, free
    coefficients sorted inside equal-order groups.  ``term-multisets``
    style: multisets of terms (a, m), orders unbounded, coefficients free
    or capped.
    """

    name: str
    domain: SumDomain
    style: str  # "fixed-orders" | "term-multisets"
    order_configs: tuple[tuple[int, ...], ...] = ()
    coefficient_cap: int | None = None
    min_max_order: int = 0
    min_max_coefficient: int = 1
    scan_bound: int = DEFAULT_SCAN_BOUND
    description: str = ""

    def contains(self, triple: Sequence[TermKey]) -> bool:
        if max(m for _, m in triple) < self.min_max_order:
            return False
        if max(a for a, _ in triple) < self.min_max_coefficient:
            return False
        if self.coefficient_cap is not None:
            if max(a for a, _ in triple) > self.coefficient_cap:
                return False
        if self.style == "fixed-orders":
            orders = tuple(sorted(m for _, m in triple))
            if orders not in {tuple(sorted(c)) for c in self.order_configs}:
                return False
        return True


PRESETS: dict[str, CandidateSpace] = {
    "liouville": CandidateSpace(
        name="liouville", domain=SumDomain.NATURALS, style="fixed-orders",
        order_configs=((3, 3, 3),), scan_bound=10_000,
        description="triples a*p3+b*p3+c*p3 over N"),
    "thm-1.1i": CandidateSpace(
        name="thm-1.1i", domain=SumDomain.INTEGERS, style="fixed-orders",
        order_configs=tuple((k, k, k) for k in [4, 5] + list(range(7, 41))),
        scan_bound=10_000,
        description="same-order triples a*pk+b*pk+c*pk over Z, k in {4,5,7..40}"),
    "mixed-34-list": CandidateSpace(
        name="mixed-34-list", domain=SumDomain.NATURALS, style="fixed-orders",
        order_configs=((3, 3, 4), (3, 4, 4)), scan_bound=10_000,
        description="coefficient triples with order multiset {3,3,4} or {3,4,4} over N"),
    "thm-1.3": CandidateSpace(
        name="thm-1.3", domain=SumDomain.NATURALS, style="term-multisets",
        coefficient_cap=1, min_max_order=5, scan_bound=10_000,
        description="unit triples p_i+p_j+p_k over N with max order >= 5"),
    "thm-1.4": CandidateSpace(
        name="thm-1.4", domain=SumDomain.NATURALS, style="term-multisets",
        coefficient_cap=None, min_max_order=5, min_max_coefficient=2,
        scan_bound=100_000,
        description="weighted triples over N, max order >= 5, some coefficient > 1"),
    "unique-29": CandidateSpace(
        name="unique-29", domain=SumDomain.NATURALS, style="term-multisets",
        coefficient_cap=1, scan_bound=10_000,
        description="unit triples over N screened for a single exception"),
}


@dataclass(frozen=True)
class ScreenReport:
    space: CandidateSpace
    bound: int
    search_bound: int
    survivors: tuple[tuple[TermKey, ...], ...]
    eliminations: tuple[EliminationCertificate, ...]
    unique_exceptions: tuple[tuple[tuple[TermKey, ...], int], ...] = ()

    @cached_property
    def eliminations_by_fixed(self) -> dict[tuple[TermKey, ...],
                                            list[EliminationCertificate]]:
        """The certificates keyed by their sorted ``fixed`` multiset."""
        index: dict = {}
        for cert in self.eliminations:
            index.setdefault(tuple(sorted(cert.fixed)), []).append(cert)
        return index


def canonical_triple(terms: Iterable[TermKey]) -> tuple[TermKey, ...]:
    """Display order: sorted by (order, coefficient)."""
    return tuple(sorted(terms, key=lambda t: (t[1], t[0])))


def _display_key(triple: Sequence[TermKey]) -> tuple:
    """Lexicographic on (orders..., coefficients...)."""
    canon = canonical_triple(triple)
    return tuple(m for _, m in canon) + tuple(a for a, _ in canon)


def triple_to_sum(triple: Sequence[TermKey], domain: SumDomain) -> TripleSum:
    return TripleSum(tuple(Term(a, m) for a, m in triple), domain)


def format_triple(triple: Sequence[TermKey]) -> str:
    return "+".join(str(Term(a, m)) for a, m in canonical_triple(triple))


# ---------------------------------------------------------------------------
# shared scanning helpers
# ---------------------------------------------------------------------------

# A pair's reads start on the prefix [0, _PREFIX_START) and grow it
# _PREFIX_GROWTH times until they find their gaps or reach the stage bound.
# Most first gaps are small: of the 4313 certificates with witnesses in the
# six screens (the five catalog presets and unique-29), the median last
# witness is 8, 160 lie at or above 64 and 2 at or above 512; thm-1.4 builds
# 15 of its 540 pair bitmaps at the stage bound 2000.  The six screens took
# a median 137 ms at 64 and 8, against 141-143 ms at start 32 or 128 and
# growth 4 or 16, and 171 ms with no prefix (15 fresh processes each, 2-vCPU
# VM); starts of 16 to 256 with growth 4 to 16 all read 140-156 ms in a
# coarser sweep.
_PREFIX_START = 64
_PREFIX_GROWTH = 8


class _FixedPair:
    """The fixed terms shared by a run of concrete triples, and their sumset
    bitmaps, one per bound read, each built on first use.  The tails under
    the pair and the staged pass of each triple (pair, third) read the
    pair's sumset on prefixes that grow up to the stage bound
    (``first_outside``), and the triples that pass their stage read it once
    at the scan bound: a sumset does not depend on which two of its streams
    are summed first."""

    def __init__(self, keys: tuple[TermKey, ...], domain: SumDomain):
        self.keys = keys
        self.domain = domain
        self._bits: dict[int, np.ndarray] = {}

    def bits(self, bound: int) -> np.ndarray:
        """The pair's bool sumset bitmap over [0, bound]."""
        bits = self._bits.get(bound)
        if bits is None:
            bits = self._bits[bound] = range_sieve(
                [Term(a, m) for a, m in self.keys], self.domain, bound).bits
        return bits

    def first_outside(self, values: Callable[[int], Sequence[int]], want: int,
                      top: int) -> list[int]:
        """The first ``want`` n in [0, top] outside the pair's sumset plus
        ``values(limit)`` (fewer if there are fewer), read on [0, limit] for
        limit = _PREFIX_START - 1, then each time _PREFIX_GROWTH times as
        many entries, up to top.  Whether n is outside depends only on
        entries and values up to n, so the gaps a prefix finds are the first
        gaps on [0, top] as well."""
        limit = min(_PREFIX_START - 1, top)
        while True:
            found = outside(self.bits(limit), values(limit))
            if found.size >= want or limit == top:
                return found[:want].tolist()
            limit = min((limit + 1) * _PREFIX_GROWTH - 1, top)


def _scan_concrete(triple: Sequence[TermKey], domain: SumDomain, bound: int,
                   stage: int, want: int, pair: _FixedPair,
                   third: TermKey) -> list[int]:
    """Up to `want` exceptions within [0, bound] of the triple, the pair's
    terms plus ``third``; a staged pass on prefixes up to `stage`
    short-circuits triples that fail early.  The first five parameters
    describe the scan for ``perfbench/spans.py``; the work reads the pair
    and ``third``."""
    def stream(limit: int) -> Sequence[int]:
        return _stream(third, domain, limit)

    found = pair.first_outside(stream, want, stage)
    if len(found) < want and stage < bound:
        found = outside(pair.bits(bound), stream(bound))[:want].tolist()
    return found


class _Collector:
    """Shared survivor/unique/elimination bookkeeping for both drivers."""

    def __init__(self, space: CandidateSpace, bound: int, search_bound: int,
                 gap_count: int):
        self.space = space
        self.bound = bound
        self.search_bound = search_bound
        self.gap_count = gap_count
        self.survivors: list[tuple[TermKey, ...]] = []
        self.uniques: list[tuple[tuple[TermKey, ...], int]] = []
        self.elims: list[EliminationCertificate] = []

    def concrete(self, pair: _FixedPair, third: TermKey) -> None:
        triple = canonical_triple([*pair.keys, third])
        if not self.space.contains(triple):
            return
        exc = _scan_concrete(triple, self.space.domain, self.bound,
                             self.search_bound, self.gap_count, pair, third)
        if len(exc) >= self.gap_count:
            self.elims.append(EliminationCertificate(
                kind="direct", domain=self.space.domain, fixed=triple,
                witnesses=tuple(exc[: self.gap_count])))
        elif not exc:
            if self.gap_count == 1:
                self.survivors.append(triple)
        elif len(exc) == 1:  # only reachable when gap_count == 2
            self.uniques.append((triple, exc[0]))

    def report(self) -> ScreenReport:
        return ScreenReport(
            self.space, self.bound, self.search_bound,
            tuple(sorted(set(self.survivors), key=_display_key)),
            tuple(self.elims),
            tuple(sorted(set(self.uniques), key=lambda e: _display_key(e[0]))))


# ---------------------------------------------------------------------------
# driver: fixed order configurations, free coefficients
# ---------------------------------------------------------------------------

def _screen_fixed_orders(space: CandidateSpace, bound: int, search_bound: int,
                         gap_count: int) -> ScreenReport:
    domain = space.domain
    col = _Collector(space, bound, search_bound, gap_count)

    for orders in space.order_configs:
        n_slots = len(orders)

        def close(prefix: list[int]) -> None:
            """Certify slot s and its later equal-order slots above a
            coefficient threshold C, for every coefficient assignment to the
            later slots of other orders; then recurse on each coefficient
            up to C."""
            s = len(prefix)
            fixed = tuple(zip(prefix, orders))
            same = [i for i in range(s, n_slots) if orders[i] == orders[s]]
            para = [orders[i] for i in range(s + 1, n_slots)
                    if orders[i] != orders[s]]
            check_bound, gaps = _closed(_closing_search(
                fixed, lambda q: _sibling_slots(para, domain, q), domain, 4,
                search_bound, gap_count),
                f"{space.name}: coefficient slot {s} of {orders}", search_bound)
            limit = gaps[-1]
            col.elims.append(EliminationCertificate(
                kind="parametric-tail" if para else "coefficient-tail",
                domain=domain, fixed=fixed,
                witnesses=tuple(gaps[-1:] if para else gaps),
                open_count=len(same), threshold=limit,
                check_bound=check_bound if para else 0, gap_count=gap_count,
                parametric_orders=tuple(para)))
            lo = prefix[-1] if (s > 0 and orders[s - 1] == orders[s]) else 1
            if s < n_slots - 1:
                for coef in range(lo, limit + 1):
                    close(prefix + [coef])
                return
            pair = _FixedPair(fixed, domain)
            for coef in range(lo, limit + 1):
                col.concrete(pair, (coef, orders[s]))

        close([])

    return col.report()


# ---------------------------------------------------------------------------
# driver: term multisets (orders unbounded, coefficients free or capped)
# ---------------------------------------------------------------------------

def _term_sort_key(t: TermKey) -> tuple[int, int, int]:
    a, m = t
    return (a * m, m, a)


def _terms_with_product_upto(q: int, cap: int | None) -> list[TermKey]:
    out = []
    for a in range(1, q // 3 + 1):
        if cap is not None and a > cap:
            break
        for m in range(3, q // a + 1):
            out.append((a, m))
    return sorted(out, key=_term_sort_key)


def _screen_term_multisets(space: CandidateSpace, bound: int, search_bound: int,
                           gap_count: int) -> ScreenReport:
    if space.domain is not SumDomain.NATURALS:
        raise ValueError("term-multiset screening is defined over N")
    domain = space.domain
    cap = space.coefficient_cap
    col = _Collector(space, bound, search_bound, gap_count)

    def frontier(fixed: tuple[TermKey, ...], start: int, label: str) -> int:
        """Close the open slots around ``fixed`` with a frontier-tail: every
        coefficient assignment whose products lie above a checked bound Q
        (streams within {0, a} below Q) leaves ``gap_count`` gaps <= Q.
        Returns Q; the product floor is Q + 1."""
        open_count = 3 - len(fixed)
        q, _ = _closed(_closing_search(
            fixed, lambda b: _frontier_slots(open_count, cap, b), domain,
            start, search_bound, gap_count),
            f"{space.name}: {label}", search_bound)
        col.elims.append(EliminationCertificate(
            kind="frontier-tail", domain=domain, fixed=fixed,
            open_count=open_count, threshold=q + 1, check_bound=q,
            gap_count=gap_count, coefficient_cap=cap))
        return q

    # level 0: all three slots with coefficient*order above a floor
    q0 = frontier((), 8, "product-floor")
    for t1 in _terms_with_product_upto(q0, cap):
        term1 = Term(*t1)
        # level 1: both remaining slots above a pair floor
        q1 = frontier((t1,), 32, f"pair-floor {term1}")
        for t2 in _terms_with_product_upto(q1, cap):
            if _term_sort_key(t2) < _term_sort_key(t1):
                continue
            term2 = Term(*t2)
            pair = _FixedPair((t1, t2), domain)
            # level 2: coefficient tail for the last slot
            coef_wit, C = _closed(_coefficient_tail(pair.first_outside(
                lambda q: (0,), gap_count, search_bound), gap_count),
                f"{space.name}: coefficient tail after {term1}+{term2}",
                search_bound)
            if cap is None or C < cap:
                col.elims.append(EliminationCertificate(
                    kind="coefficient-tail", domain=domain, fixed=(t1, t2),
                    witnesses=tuple(coef_wit), open_count=1, threshold=C,
                    gap_count=gap_count))
            for a3 in range(1, (min(C, cap) if cap else C) + 1):
                # level 3: order tail for the last slot
                wit, K = _closed(_order_tail(pair.first_outside(
                    lambda q: _open_values(a3, q), gap_count, search_bound),
                    a3, gap_count),
                    f"{space.name}: order tail after {term1}+{term2}+{a3}p_k",
                    search_bound)
                col.elims.append(EliminationCertificate(
                    kind="order-tail", domain=domain, fixed=(t1, t2),
                    witnesses=tuple(wit), open_coefficient=a3, threshold=K,
                    gap_count=gap_count))
                for m3 in range(3, K + 1):
                    t3 = (a3, m3)
                    if _term_sort_key(t3) < _term_sort_key(t2):
                        continue
                    col.concrete(pair, t3)

    return col.report()


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _screen(space: CandidateSpace | str, bound: int | None,
            search_bound: int, gap_count: int) -> ScreenReport:
    if isinstance(space, str):
        space = PRESETS[space]
    bound = bound if bound is not None else space.scan_bound
    search_bound = min(search_bound, bound)
    driver = (_screen_fixed_orders if space.style == "fixed-orders"
              else _screen_term_multisets)
    return driver(space, bound, search_bound, gap_count)


def screen(space: CandidateSpace | str, bound: int | None = None,
           search_bound: int = DEFAULT_SEARCH_BOUND) -> ScreenReport:
    """Split the space into survivors and certified eliminations."""
    return _screen(space, bound, search_bound, gap_count=1)


def unique_exception_scan(space: CandidateSpace | str, bound: int | None = None,
                          search_bound: int = DEFAULT_SEARCH_BOUND
                          ) -> list[tuple[tuple[TermKey, ...], int]]:
    """Triples of the space with exactly one exception <= bound.

    Tail regions are closed with two witnesses each, so every symbolically
    eliminated triple provably has at least two exceptions.
    """
    return list(_screen(space, bound, search_bound, gap_count=2)
                .unique_exceptions)


def compare_with_catalog(report: ScreenReport | Iterable[tuple[TermKey, ...]],
                         catalog: Iterable[tuple[TermKey, ...]]
                         ) -> tuple[list[tuple[TermKey, ...]], list[tuple[TermKey, ...]]]:
    """(missing, extra) relative to the catalog; empty diff is acceptance."""
    got = report.survivors if isinstance(report, ScreenReport) else report
    got_set = {canonical_triple(t) for t in got}
    want_set = {canonical_triple(t) for t in catalog}
    missing = sorted(want_set - got_set, key=_display_key)
    extra = sorted(got_set - want_set, key=_display_key)
    return missing, extra


def _remove_sub_multiset(triple: Sequence[TermKey],
                         fixed: Sequence[TermKey]) -> list[TermKey] | None:
    rest = list(triple)
    for key in fixed:
        if key not in rest:
            return None
        rest.remove(key)
    return rest


def certificate_covers(cert: EliminationCertificate,
                       triple: Sequence[TermKey]) -> bool:
    """Whether the certificate's eliminated region contains the triple."""
    triple = canonical_triple(triple)
    rest = _remove_sub_multiset(triple, cert.fixed)
    if rest is None:
        return False
    if cert.kind == "direct":
        return rest == []
    if cert.kind == "order-tail":
        return (len(rest) == 1 and rest[0][0] == cert.open_coefficient
                and rest[0][1] > cert.threshold)
    if cert.kind == "coefficient-tail":
        # a slot with coefficient above the witness contributes only 0 below
        # it, whatever its order
        return (len(rest) == cert.open_count
                and all(a > cert.threshold for a, _ in rest))
    if cert.kind == "frontier-tail":
        if len(rest) != cert.open_count:
            return False
        if cert.coefficient_cap is not None:
            if any(a > cert.coefficient_cap for a, _ in rest):
                return False
        return all(a * m > cert.check_bound for a, m in rest)
    if cert.kind == "parametric-tail":
        # open_count slots must exceed the threshold; the rest must sit at
        # the sibling orders the check enumerated
        if len(rest) != cert.open_count + len(cert.parametric_orders):
            return False
        for orders_used in _pick_parametric(rest, list(cert.parametric_orders)):
            if all(a > cert.threshold for a, _ in orders_used):
                return True
        return False
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


def _pick_parametric(rest: list[TermKey], orders: list[TermKey]):
    """Yield the open-slot remainders over ways to assign sibling orders."""
    if not orders:
        yield rest
        return
    target = orders[0]
    for i, (a, m) in enumerate(rest):
        if m == target:
            yield from _pick_parametric(rest[:i] + rest[i + 1:], orders[1:])


def report_covers(report: ScreenReport, triple: Sequence[TermKey]) -> bool:
    """Every in-space triple must be a survivor, a recorded single-exception
    entry, or inside some certificate's region."""
    triple = canonical_triple(triple)
    if triple in report.survivors:
        return True
    if any(t == triple for t, _ in report.unique_exceptions):
        return True
    # a certificate can only cover the triple when its fixed terms are a
    # sub-multiset of it
    index = report.eliminations_by_fixed
    keys = {tuple(sorted(sub)) for size in range(len(triple) + 1)
            for sub in combinations(triple, size)}
    return any(certificate_covers(c, triple)
               for key in keys for c in index.get(key, ()))
