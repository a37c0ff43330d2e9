"""Diagonal ternary quadratic forms with per-variable congruence conditions.

Exception sets are computed by explicit value-grid sieves (numpy), never by
local or genus reasoning.  The sums of the two longest value streams are
scattered into a packed bitmap in tiles, as ``sumset.range_sieve`` scatters
its pair; the shortest is folded in by ``sumset.inside``, packed shift-ors
into one cache-sized window of the result at a time.  The grid stays packed
to the answer: ``qf_exception_bits`` inverts it in place, the CLI counts
its set bits and reads only the listed head from it, and
``qf_exception_set`` lists every n for library callers.  A bitmap over
[0, top] is refused before allocating when top exceeds
``sumset.MAX_RANGE_BOUND``, and so is a progression's int64 pair grid of
more than ``_MAX_PAIR_CELLS`` sums.  A progression M*n + C is checked
without a bitmap over [0, M*bound + C]: the pair sums are bucketed by
residue mod M, each needed residue scatters its quotients by M into one
bool bitmap, and each third value ORs that bitmap, shifted, into the
bound + 1 results.
Geometric-arithmetic family sets give the closed descriptions the sieves are
compared against, as bitmaps built from strided slices.  The reduction
machinery converts polygonal sums into arithmetic progressions represented
by a conditioned form, via the square completion of each term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

from .polycore import SumDomain, TripleSum, square_completion
from .sumset import (MAX_RANGE_BOUND, _pair_bits, check_bound, inside, invert,
                     range_sieve, reached, set_bits, sorted_distinct,
                     sum_table, unpack)

# Most sums the int64 pair grid of a progression may hold: as many bytes as
# the largest supported bitmap.
_MAX_PAIR_CELLS = MAX_RANGE_BOUND // 8

# Each canonical reduction is verified on [0, this bound] when it is built.
_REDUCTION_CHECK_BOUND = 500


class ConstructionCheckError(AssertionError):
    """A reduction failed its range verification at construction."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceCondition:
    """Allowed residues of a form variable, with an optional one-sided bound.

    Over Z a symmetric condition carries residues closed under negation;
    the one-sided ``lower`` bound is used by naturals-domain reductions,
    whose substituted variable is bounded below instead.
    """

    modulus: int
    residues: tuple[int, ...]
    lower: int | None = None

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")

    def allows(self, value: int) -> bool:
        if self.lower is not None and value < self.lower:
            return False
        return value % self.modulus in self.residues


@dataclass(frozen=True)
class DiagonalTernaryForm:
    """a x^2 + b y^2 + c z^2 with optional per-variable conditions."""

    coefficients: tuple[int, int, int]
    conditions: tuple[CongruenceCondition | None, ...] = (None, None, None)

    def __post_init__(self) -> None:
        if len(self.coefficients) != 3 or min(self.coefficients) < 1:
            raise ValueError("need three positive coefficients")
        if len(self.conditions) != 3:
            raise ValueError("need one condition slot per variable")

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


@dataclass(frozen=True)
class Family:
    """The set {scale * ratio^k * (modulus*l + residue) : k, l >= 0}.

    ratio == 1 pins k = 0.  Membership divides out powers of the ratio and
    reduces; every power is tried, so families whose ratio divides the
    progression are still decided exactly.
    """

    scale: int
    ratio: int
    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.scale < 1 or self.modulus < 1:
            raise ValueError("scale and modulus must be >= 1")
        if self.ratio not in (1, 4, 9, 16, 25):
            raise ValueError("ratio must be one of 1, 4, 9, 16, 25")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in [0, modulus)")

    def contains(self, n: int) -> bool:
        if n < 0 or n % self.scale:
            return False
        m = n // self.scale
        while True:
            if m % self.modulus == self.residue:
                return True
            if self.ratio == 1 or m == 0 or m % self.ratio:
                return False
            m //= self.ratio


@dataclass(frozen=True)
class FamilySet:
    families: tuple[Family, ...]

    def contains(self, n: int) -> bool:
        return any(f.contains(n) for f in self.families)

    def bitmap(self, bound: int) -> np.ndarray:
        """Bool bitmap over [0, bound] of the members of any family: one
        strided slice per family and per power of its ratio."""
        bits = np.zeros(max(bound + 1, 0), dtype=bool)
        for f in self.families:
            if f.residue == 0 and bound >= 0:
                bits[0] = True  # k = l = 0, also when scale > bound
            base = f.scale
            while base <= bound:
                bits[base * f.residue :: base * f.modulus] = True
                if f.ratio == 1:
                    break
                base *= f.ratio
        return bits


@dataclass(frozen=True)
class ReductionEntry:
    """n in source  <=>  multiplier*n + constant represented by the form."""

    source: TripleSum
    multiplier: int
    constant: int
    form: DiagonalTernaryForm


# ---------------------------------------------------------------------------
# value grids
# ---------------------------------------------------------------------------

def _variable_values(coef: int, cond: CongruenceCondition | None,
                     top: int) -> np.ndarray:
    """Sorted distinct values coef * y^2 <= top over allowed y.  A coef
    above top admits only y = 0, and may not fit in int64."""
    if top < 0:
        return np.empty(0, dtype=np.int64)
    ymax = isqrt(top // coef)
    ys = np.arange(-ymax, ymax + 1, dtype=np.int64)
    if cond is not None:
        lo = -ymax if cond.lower is None else cond.lower
        ys = ys[(ys >= lo) & np.isin(np.mod(ys, cond.modulus), cond.residues)]
    mark = np.zeros(ymax + 1, dtype=bool)
    mark[np.abs(ys)] = True  # flatnonzero is then sorted and distinct
    squares = np.flatnonzero(mark) ** 2
    return coef * squares if ymax else squares


def _streams(form: DiagonalTernaryForm, top: int) -> list[np.ndarray]:
    """``_variable_values`` of each variable up to top, largest coefficient
    first: ``_progression_bitmap`` pairs the first two, whose int64 grid is
    capped, and ``represented_among`` walks the first."""
    order = sorted(range(3), key=lambda i: -form.coefficients[i])
    return [_variable_values(form.coefficients[i], form.conditions[i], top)
            for i in order]


def _reachable(form: DiagonalTernaryForm, top: int) -> np.ndarray:
    """Packed bitmap (``sumset.bitmap(..., packed=True)``) over [0, top] of
    the values represented by the form, by the pair rule of
    ``sumset.range_sieve``: the sums of the two longest value streams are
    scattered, and the shortest is folded in by ``sumset.inside``."""
    check_bound(top)
    s = sorted(_streams(form, top), key=len, reverse=True)
    return inside(_pair_bits(s[0], s[1], top), top + 1, s[2].tolist())


# ---------------------------------------------------------------------------
# representation and exception sets
# ---------------------------------------------------------------------------

def qf_represents(form: DiagonalTernaryForm, n: int) -> tuple[int, int, int] | None:
    """A solution (x, y, z) honoring the conditions, or None (exhaustive)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, c = form.coefficients
    ca, cb, cc = form.conditions

    def rng(coef: int, cond: CongruenceCondition | None, top: int):
        r = isqrt(top // coef)
        if cond is None:
            return range(0, r + 1)
        lo = -r if cond.lower is None else max(cond.lower, -r)
        return (v for v in range(lo, r + 1) if cond.allows(v))

    for x in rng(a, ca, n):
        rx = n - a * x * x
        for y in rng(b, cb, rx):
            rz = rx - b * y * y
            if rz % c:
                continue
            z2 = rz // c
            z = isqrt(z2)
            if z * z != z2:
                continue
            for cand in (z, -z):
                if cc is None:
                    if cand >= 0:
                        return (x, y, cand)
                elif cc.allows(cand):
                    return (x, y, cand)
    return None


def qf_exception_bits(form: DiagonalTernaryForm, bound: int) -> np.ndarray:
    """Packed bitmap (``sumset.bitmap(..., packed=True)``) over [0, bound]
    of the n not represented by the form: the value grid, inverted in
    place.  ``sumset.count_bits`` counts it and ``sumset.first_bits`` reads
    its head without listing every n."""
    missed = _reachable(form, bound)
    invert(missed, bound + 1)
    return missed


def qf_exception_set(form: DiagonalTernaryForm, bound: int) -> np.ndarray:
    """Sorted int64 array of the n <= bound not represented by the form."""
    return set_bits(qf_exception_bits(form, bound))


def represented_among(form: DiagonalTernaryForm,
                      ns: Sequence[int] | np.ndarray) -> np.ndarray:
    """The n in ns (an int sequence or array, as ``sumset.sorted_distinct``
    takes) that the form represents, as a sorted int64 array.

    Independent of ``_reachable``: the values of the two smaller
    coefficients go into a ``sum_table`` up to max(ns), and the values of
    the largest are walked against it by ``reached``.
    """
    ns = sorted_distinct(ns)
    if ns.size == 0:
        return ns[:0]
    top = int(ns[-1])
    check_bound(top)
    walked, *head = _streams(form, top)
    return ns[reached(sum_table(head, top), ns, walked.tolist())]


def verify_catalog_form(form: DiagonalTernaryForm, families: FamilySet,
                        bound: int) -> tuple[bool, np.ndarray, np.ndarray]:
    """Compare sieved exceptions with the family description on [0, bound].

    Returns (equal, sieve-only, family-only), the n listed by one side only
    as sorted int64 arrays.
    """
    missed = unpack(qf_exception_bits(form, bound), bound + 1)
    listed = families.bitmap(bound)
    sieve_only = np.flatnonzero(missed & ~listed)
    family_only = np.flatnonzero(listed & ~missed)
    return (sieve_only.size == 0 and family_only.size == 0, sieve_only,
            family_only)


def three_square_excluded(n: int) -> bool:
    """True iff n is 4^k (8l + 7), the numbers missed by x^2+y^2+z^2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 == 7


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def canonical_reduction(sum_: TripleSum) -> ReductionEntry:
    """Convert a polygonal sum into an equivalent conditioned-form statement.

    The multiplier is the lcm of the square-completion stretches 8(m-2) of
    the non-square terms (1 when every order is 4).  Each term a*p_m maps to
    form coefficient M*a/(8(m-2)) on the substituted variable
    y = (2m-4)x - (m-4), contributing c*(m-4)^2 to the constant; square
    terms keep a free variable with coefficient M*a.  The equivalence is
    verified on [0, _REDUCTION_CHECK_BOUND] at construction.
    """
    terms = sum_.terms
    domain = sum_.domain
    stretches = [square_completion(t.order)[0] for t in terms if t.order != 4]
    M = lcm(*stretches) if stretches else 1
    coeffs: list[int] = []
    conds: list[CongruenceCondition | None] = []
    constant = 0
    for t in terms:
        m = t.order
        if m == 4:
            coeffs.append(M * t.coefficient)
            conds.append(None)
            continue
        stretch, offset, step, residue = square_completion(m)
        c = M * t.coefficient // stretch
        coeffs.append(c)
        constant += c * offset
        if domain is SumDomain.INTEGERS:
            allowed = tuple(sorted({residue % step, (-residue) % step}))
            conds.append(CongruenceCondition(step, allowed))
        else:
            conds.append(CongruenceCondition(step, ((-residue) % step,),
                                             lower=-residue))
    if len(coeffs) != 3:
        raise ValueError("canonical_reduction expects a three-term sum")
    entry = ReductionEntry(sum_, M, constant,
                           DiagonalTernaryForm(tuple(coeffs), tuple(conds)))
    ok, counterexample = verify_reduction(entry, _REDUCTION_CHECK_BOUND)
    if not ok:
        raise ConstructionCheckError(
            f"reduction of {sum_} fails at n={counterexample}")
    return entry


def _progression_bitmap(form: DiagonalTernaryForm, multiplier: int,
                        constant: int, bound: int) -> np.ndarray:
    """bitmap[n] = (multiplier*n + constant is represented by the form).

    With M = multiplier and C = constant, a pair sum p = M*k + rho of the
    two largest coefficients and a third value w reach n = k + d, where
    d = (rho + w - C) / M, exactly when rho = (C - w) mod M.  The pair sums
    are bucketed by residue; each residue rho that some w needs scatters
    its quotients k into one bool bitmap over [0, top // M], and every w
    needing rho ORs that bitmap into the result shifted by d: one slice-OR
    of at most bound + 1 bytes per third value.
    """
    check_bound(bound)
    top = multiplier * bound + constant
    if top // multiplier > MAX_RANGE_BOUND:
        raise ValueError(f"quotient bitmap over [0, {top // multiplier}] "
                         f"above supported {MAX_RANGE_BOUND}")
    s = _streams(form, top)
    cells = s[0].size * s[1].size
    if cells > _MAX_PAIR_CELLS:
        raise ValueError(f"pair grid of {cells} sums above supported "
                         f"{_MAX_PAIR_CELLS}")
    pair = (s[0][:, None] + s[1][None, :]).ravel()
    pair = pair[pair <= top]
    # pair sums bucketed by residue.  Order within a bucket does not
    # matter; the stable sort is only faster on these many-duplicate keys
    pair = pair[np.argsort(pair % multiplier, kind="stable")]
    quotients, residues = np.divmod(pair, multiplier)
    # third values grouped by the residue they need
    groups: dict[int, list[int]] = {}
    for w in s[2].tolist():
        groups.setdefault((constant - w) % multiplier, []).append(w)
    rhos = np.fromiter(groups, dtype=np.int64, count=len(groups))
    starts = np.searchsorted(residues, rhos, side="left").tolist()
    ends = np.searchsorted(residues, rhos, side="right").tolist()
    width = top // multiplier + 1
    out = np.zeros(bound + 1, dtype=bool)
    hit = np.zeros(width, dtype=bool)
    for (rho, ws), lo, hi in zip(groups.items(), starts, ends):
        if lo == hi:
            continue
        ks = quotients[lo:hi]
        hit[ks] = True
        for w in ws:
            d = (rho + w - constant) // multiplier
            n0, n1 = max(d, 0), min(bound + 1, width + d)
            if n0 < n1:
                out[n0:n1] |= hit[n0 - d : n1 - d]
        hit[ks] = False
    return out


def verify_reduction(entry: ReductionEntry, bound: int
                     ) -> tuple[bool, int | None]:
    """Check both directions of the equivalence for all n <= bound."""
    right = _progression_bitmap(entry.form, entry.multiplier, entry.constant,
                                bound)
    left = range_sieve(entry.source.terms, entry.source.domain, bound).bits
    diff = np.flatnonzero(left != right)
    if len(diff) == 0:
        return True, None
    return False, int(diff[0])


def mapped_exception_scan(form: DiagonalTernaryForm, multiplier: int,
                          constant: int, bound: int) -> np.ndarray:
    """{n <= bound : multiplier*n + constant not represented by form}, as a
    sorted int64 array."""
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    hit = _progression_bitmap(form, multiplier, constant, bound)
    return np.flatnonzero(~hit)


# ---------------------------------------------------------------------------
# constrained counting
# ---------------------------------------------------------------------------

def rep_parity_counts(coefficients: Sequence[int], top: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-value solution counts of sum coef_i * x_i^2, split by the parity
    of the first variable.  Returns (odd_counts, even_counts), each indexed
    by value in [0, top].  Signs and zeros are counted in full.
    """
    if top < 0:
        raise ValueError("top must be >= 0")
    coefficients = list(coefficients)
    if len(coefficients) not in (2, 3):
        raise ValueError("need two or three coefficients")
    rest = coefficients[1:]
    ymax = isqrt(top // rest[0])
    ys = np.arange(-ymax, ymax + 1, dtype=np.int64)
    tail = rest[0] * ys * ys
    if len(rest) == 2:
        zmax = isqrt(top // rest[1])
        zs = np.arange(-zmax, zmax + 1, dtype=np.int64)
        tail = (tail[:, None] + (rest[1] * zs * zs)[None, :]).ravel()
    tail = tail[tail <= top]
    tail_counts = np.bincount(tail, minlength=top + 1)
    odd = np.zeros(top + 1, dtype=np.int64)
    even = np.zeros(top + 1, dtype=np.int64)
    a = coefficients[0]
    x = 0
    while a * x * x <= top:
        v = a * x * x
        mult = 1 if x == 0 else 2
        target = even if x % 2 == 0 else odd
        target[v:] += mult * tail_counts[: top + 1 - v]
        x += 1
    return odd, even


def rep_count_constrained(coefficients: Sequence[int], n: int,
                          variable: int | None = None, modulus: int = 2,
                          residues: Iterable[int] = (1,)) -> int:
    """Exact number of integer solution tuples of sum coef_i * x_i^2 = n.

    Works for two or three variables.  With ``variable`` set, only tuples
    whose ``variable``-th entry is congruent to one of ``residues`` modulo
    ``modulus`` are counted.  Signs and zeros are enumerated in full; no
    orbit shortcuts.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coefficients = list(coefficients)
    if len(coefficients) not in (2, 3):
        raise ValueError("need two or three coefficients")
    residues = {r % modulus for r in residues}

    def signed_range(coef: int, top: int) -> range:
        r = isqrt(top // coef) if top >= 0 else -1
        return range(-r, r + 1)

    count = 0

    def rec(i: int, remaining: int, tup: list[int]) -> None:
        nonlocal count
        if i == len(coefficients) - 1:
            coef = coefficients[i]
            if remaining % coef:
                return
            z2 = remaining // coef
            z = isqrt(z2)
            if z * z != z2:
                return
            for cand in ({z, -z} if z else {0}):
                full = tup + [cand]
                if variable is None or full[variable] % modulus in residues:
                    count += 1
            return
        for x in signed_range(coefficients[i], remaining):
            rec(i + 1, remaining - coefficients[i] * x * x, tup + [x])

    rec(0, n, [])
    return count
