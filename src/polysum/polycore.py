"""Exact arithmetic for (generalized) polygonal numbers.

Everything here is pure integer arithmetic on Python ints, so values are
exact at any size; perfect squares are tested with `math.isqrt` plus
re-multiplication, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt


class SumDomain(Enum):
    """Argument domain of a polygonal term: x ranges over N or over Z."""

    NATURALS = "N"
    INTEGERS = "Z"

    @classmethod
    def parse(cls, text: str) -> "SumDomain":
        t = text.strip().upper()
        if t in ("N", "NATURALS"):
            return cls.NATURALS
        if t in ("Z", "INTEGERS"):
            return cls.INTEGERS
        raise ValueError(f"unknown domain {text!r}")


@dataclass(frozen=True)
class Term:
    """A weighted polygonal term a * p_m, with order m >= 3."""

    coefficient: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 3:
            raise ValueError(f"polygonal order must be >= 3, got {self.order}")
        if self.coefficient < 1:
            raise ValueError(f"coefficient must be >= 1, got {self.coefficient}")

    def __str__(self) -> str:
        a, m = self.coefficient, self.order
        return f"p{m}" if a == 1 else f"{a}p{m}"


@dataclass(frozen=True)
class TripleSum:
    """A sum of one or more weighted polygonal terms over a common argument
    domain.  Three terms is the canonical shape of a screen; the sieve, its
    re-check and the witness search take any number."""

    terms: tuple[Term, ...]
    domain: SumDomain

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("expected at least one term")

    def __str__(self) -> str:
        return "+".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class Witness:
    """Arguments (one per term) realizing a representation."""

    arguments: tuple[int, ...]


def parse_terms(text: str) -> tuple[Term, ...]:
    """Parse a sum like ``p4+p5+p8`` or ``p3+2p4+p9`` (also ``2*p4``)."""
    out = []
    for piece in text.replace(" ", "").split("+"):
        body = piece.replace("*", "")
        if "p" not in body:
            raise ValueError(f"bad term {piece!r} in {text!r}")
        head, _, tail = body.partition("p")
        try:
            coefficient = int(head) if head else 1
            order = int(tail)
        except ValueError:
            raise ValueError(f"bad term {piece!r} in {text!r}") from None
        out.append(Term(coefficient, order))
    return tuple(out)


def parse_sum(text: str, domain: SumDomain) -> TripleSum:
    return TripleSum(parse_terms(text), domain)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def poly_value(m: int, x: int) -> int:
    """The x-th m-gonal value ((m-2)x^2 - (m-4)x) / 2; x may be negative."""
    if m < 3:
        raise ValueError(f"order must be >= 3, got {m}")
    return ((m - 2) * x * x - (m - 4) * x) // 2


def _first_arguments(coefficient: int, order: int, domain: SumDomain,
                     bound: int) -> dict[int, int]:
    """Each value <= bound, mapped to its first x in the order 0, 1, -1, 2,
    -2, ...; each direction stops at the first value above the bound."""
    seen: dict[int, int] = {}
    # x >= 0 first agrees with that order: two arguments share a value only
    # as x, -x (m = 4) or x, -1 - x (m = 3)
    for step in (1, -1) if domain is SumDomain.INTEGERS else (1,):
        x = 0
        while (v := coefficient * poly_value(order, x)) <= bound:
            seen.setdefault(v, x)
            x += step
    return seen


@lru_cache(maxsize=65536)
def _values_upto(coefficient: int, order: int, domain: SumDomain,
                 bound: int) -> tuple[int, ...]:
    return tuple(sorted(_first_arguments(coefficient, order, domain, bound)))


def poly_values_upto(term: Term, domain: SumDomain, bound: int) -> list[int]:
    """All values a*p_m(x) <= bound with x in the domain, sorted, deduped.

    Integer arguments are taken in the order 0, 1, -1, 2, -2, ... and each
    direction stops at the first value above the bound.
    """
    if bound < 0:
        return []
    return list(_values_upto(term.coefficient, term.order, domain, bound))


@lru_cache(maxsize=16384)
def _values_with_args(coefficient: int, order: int, domain: SumDomain,
                      bound: int) -> tuple[tuple[int, int], ...]:
    """(value, x) pairs sorted by value; first x in enumeration order wins."""
    return tuple(sorted(
        _first_arguments(coefficient, order, domain, bound).items()))


def poly_values_with_args(term: Term, domain: SumDomain,
                          bound: int) -> tuple[tuple[int, int], ...]:
    if bound < 0:
        return ()
    return _values_with_args(term.coefficient, term.order, domain, bound)


# ---------------------------------------------------------------------------
# membership and square completion
# ---------------------------------------------------------------------------

def square_completion(m: int) -> tuple[int, int, int, int]:
    """Return (stretch, offset, step, residue) with

        stretch * p_m(x) + offset == (step * x - residue)**2   for all x,

    namely (8(m-2), (m-4)^2, 2m-4, m-4).  The identity depends only on the
    order, not on a term's coefficient.
    """
    return 8 * (m - 2), (m - 4) ** 2, 2 * m - 4, m - 4


def is_generalized_polygonal(m: int, n: int,
                             domain: SumDomain = SumDomain.INTEGERS) -> int | None:
    """Return an argument x with p_m(x) == n, or None.

    Decided through the square completion: n is a generalized m-gonal value
    iff 8(m-2)n + (m-4)^2 is a perfect square whose root is congruent to
    +-(m-4) mod (2m-4).  With ``domain=NATURALS`` only x >= 0 qualifies.
    When both a nonnegative and a negative argument exist, the nonnegative
    one is returned.
    """
    if n < 0:
        return None
    stretch, offset, step, residue = square_completion(m)
    disc = stretch * n + offset
    w = isqrt(disc)
    if w * w != disc:
        return None
    candidates = []
    for root in (w, -w):
        num = root + residue
        if num % step == 0:
            x = num // step
            if poly_value(m, x) == n:
                candidates.append(x)
    if domain is SumDomain.NATURALS:
        candidates = [x for x in candidates if x >= 0]
    if not candidates:
        return None
    nonneg = [x for x in candidates if x >= 0]
    return min(nonneg) if nonneg else max(candidates)


def term_argument(term: Term, value: int, domain: SumDomain) -> int | None:
    """x with term.coefficient * p_m(x) == value, honoring the domain."""
    a = term.coefficient
    if value % a != 0:
        return None
    return is_generalized_polygonal(term.order, value // a, domain)
