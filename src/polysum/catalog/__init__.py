"""Machine-readable transcriptions of the reference lists and tables.

Assets live under ``data/`` as UTF-8 text, one record per line; comments
start with ``#``.  Cardinalities of the advertised lists are enforced at
load time, so a corrupted asset fails fast.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files

from ..polycore import SumDomain, TripleSum, parse_terms
from ..qform import (
    CongruenceCondition,
    DiagonalTernaryForm,
    Family,
    FamilySet,
    ReductionEntry,
)
from ..screening import TermKey, canonical_triple

_EXPECTED_COUNTS = {
    "liouville-7": 7,
    "thm-1.1i-20": 20,
    "mixed-34-25": 25,
    "thm-1.3-31": 31,
    "thm-1.4-64": 64,
    "unique-29": 29,
    "thm-1.5-35": 35,
    "remaining-35": 35,
    "proven-z-5": 5,
    "thm-1.7-6": 6,
    "conj-1.1-3": 3,
}

_WITNESS_TABLES = (
    "witness-2", "witness-6.1", "witness-6.2", "witness-7.1", "witness-7.2",
    "witness-8.1", "witness-8.2", "witness-8.3", "witness-8.4",
)


class UnknownIdentifierError(KeyError):
    pass


@dataclass(frozen=True)
class TranscribedList:
    identifier: str
    entries: tuple[tuple[TermKey, ...], ...]
    anchor: str


@dataclass(frozen=True)
class WitnessTable:
    identifier: str
    domain: SumDomain
    entries: tuple[tuple[tuple[TermKey, ...], int], ...]

    def as_dict(self) -> dict[tuple[TermKey, ...], int]:
        return dict(self.entries)


@dataclass(frozen=True)
class RegularFormEntry:
    display: str
    form: DiagonalTernaryForm
    families: FamilySet


def _lines(name: str):
    text = files(__package__).joinpath("data", name).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def _triple_key(text: str) -> tuple[TermKey, ...]:
    return canonical_triple((t.coefficient, t.order) for t in parse_terms(text))


@lru_cache(maxsize=1)
def _triple_lists() -> dict[str, TranscribedList]:
    grouped: dict[str, list] = {}
    anchors: dict[str, str] = {}
    for ident, triple, anchor in _lines("triples.txt"):
        grouped.setdefault(ident, []).append(_triple_key(triple))
        anchors[ident] = anchor
    out = {}
    for ident, entries in grouped.items():
        expected = _EXPECTED_COUNTS.get(ident)
        if expected is not None and len(entries) != expected:
            raise AssertionError(
                f"{ident}: expected {expected} entries, found {len(entries)}")
        out[ident] = TranscribedList(ident, tuple(entries), anchors[ident])
    return out


@lru_cache(maxsize=1)
def _witness_tables() -> dict[str, WitnessTable]:
    grouped: dict[str, list] = {}
    domains: dict[str, SumDomain] = {}
    for ident, domain, triple, witness in _lines("witnesses.txt"):
        grouped.setdefault(ident, []).append((_triple_key(triple), int(witness)))
        domains[ident] = SumDomain.parse(domain)
    if set(grouped) != set(_WITNESS_TABLES):
        raise AssertionError(
            f"witness tables: expected {sorted(_WITNESS_TABLES)}, "
            f"found {sorted(grouped)}")
    return {ident: WitnessTable(ident, domains[ident], tuple(entries))
            for ident, entries in grouped.items()}


_FAMILY_RE = re.compile(r"^(?:(\d+)\^k\()?(\d+)l(?:\+(\d+))?\)?$")


def parse_family(token: str) -> Family:
    match = _FAMILY_RE.match(token)
    if not match:
        raise ValueError(f"bad family token {token!r}")
    ratio = int(match.group(1)) if match.group(1) else 1
    modulus = int(match.group(2))
    residue = int(match.group(3)) if match.group(3) else 0
    return Family(scale=1, ratio=ratio, modulus=modulus, residue=residue)


@lru_cache(maxsize=1)
def regular_form_catalog() -> tuple[RegularFormEntry, ...]:
    out = []
    for display, coeffs, families in _lines("regular_forms.txt"):
        a, b, c = (int(v) for v in coeffs.split(","))
        fams = FamilySet(tuple(parse_family(tok) for tok in families.split(";")))
        out.append(RegularFormEntry(display, DiagonalTernaryForm((a, b, c)), fams))
    if len(out) != 26:
        raise AssertionError(f"expected 26 regular forms, found {len(out)}")
    return tuple(out)


def _parse_condition(token: str) -> CongruenceCondition | None:
    if token == "-":
        return None
    mod, residues = token.split(":")
    return CongruenceCondition(int(mod), tuple(int(r) for r in residues.split(",")))


@lru_cache(maxsize=1)
def explicit_reductions() -> tuple[tuple[str, ReductionEntry], ...]:
    out = []
    for display, triple, domain, mult, const, coeffs, conds in _lines("reductions.txt"):
        terms = parse_terms(triple)
        sum_ = TripleSum(terms, SumDomain.parse(domain))
        form = DiagonalTernaryForm(
            tuple(int(v) for v in coeffs.split(",")),
            tuple(_parse_condition(tok) for tok in conds.split(";")))
        out.append((display, ReductionEntry(sum_, int(mult), int(const), form)))
    if len(out) != 7:
        raise AssertionError(f"expected 7 explicit reductions, found {len(out)}")
    return tuple(out)


@lru_cache(maxsize=1)
def _conj18_list() -> TranscribedList:
    entries = []
    for parts in _lines("conj18.txt"):
        i, j = int(parts[0]), int(parts[1])
        krange = parts[2]
        excluded = set()
        if len(parts) > 3:
            if not parts[3].startswith("^"):
                raise ValueError(f"bad exclusion field {parts[3]!r}")
            excluded = {int(v) for v in parts[3][1:].split(",")}
        if "-" in krange:
            lo, hi = (int(v) for v in krange.split("-"))
            ks = [k for k in range(lo, hi + 1) if k not in excluded]
        else:
            ks = [int(krange)]
        for k in ks:
            entries.append(((1, i), (1, j), (1, k)))
    return TranscribedList("conj-1.8", tuple(entries), "conj-1.8")


def load(identifier: str) -> TranscribedList | WitnessTable:
    """Fetch a transcribed list or witness table by identifier."""
    if identifier in ("conj-1.8", "conj-1.9"):
        # the source text refers to this list under both numbers
        return _conj18_list()
    lists = _triple_lists()
    if identifier in lists:
        return lists[identifier]
    tables = _witness_tables()
    if identifier in tables:
        return tables[identifier]
    raise UnknownIdentifierError(identifier)


def identifiers() -> list[str]:
    names = set(_triple_lists()) | set(_witness_tables()) | {"conj-1.8"}
    return sorted(names)
