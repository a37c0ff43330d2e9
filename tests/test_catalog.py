import pytest

from polysum import catalog
from polysum.polycore import SumDomain
from polysum.screening import triple_to_sum
from polysum.sumset import member_with_witness


def test_cardinalities():
    for ident, count in [("liouville-7", 7), ("thm-1.1i-20", 20),
                         ("mixed-34-25", 25), ("thm-1.3-31", 31),
                         ("thm-1.4-64", 64), ("unique-29", 29),
                         ("thm-1.5-35", 35), ("remaining-35", 35),
                         ("proven-z-5", 5), ("thm-1.7-6", 6)]:
        assert len(catalog.load(ident).entries) == count, ident


def test_liouville_content():
    got = [tuple(a for a, _ in t) for t in catalog.load("liouville-7").entries]
    assert got == [(1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 1, 5),
                   (1, 2, 2), (1, 2, 3), (1, 2, 4)]


def test_thm_11i_orders():
    entries = catalog.load("thm-1.1i-20").entries
    assert all(all(m == 5 for _, m in t) for t in entries)


def test_witness_table_lookup():
    table = catalog.load("witness-7.1")
    assert table.as_dict()[((1, 3), (1, 3), (1, 26))] == 129
    assert table.domain is SumDomain.NATURALS
    assert catalog.load("witness-2").domain is SumDomain.INTEGERS


def test_missing_witness_table_fails_fast(monkeypatch):
    real_lines = catalog._lines

    def dropped(name):
        return (row for row in real_lines(name) if row[0] != "witness-8.4")

    monkeypatch.setattr(catalog, "_lines", dropped)
    catalog._witness_tables.cache_clear()
    try:
        with pytest.raises(AssertionError, match="witness-8.4"):
            catalog.load("witness-2")
    finally:
        catalog._witness_tables.cache_clear()
    monkeypatch.undo()
    assert catalog.load("witness-8.4").identifier == "witness-8.4"


def test_unknown_identifier():
    with pytest.raises(catalog.UnknownIdentifierError):
        catalog.load("no-such-list")


def test_conjecture_18_expansion():
    listed = catalog.load("conj-1.8")
    entries = set(listed.entries)
    assert ((1, 3), (1, 5), (1, 10)) in entries
    assert ((1, 3), (1, 5), (1, 11)) not in entries  # excluded from the interval
    assert ((1, 5), (1, 12), (1, 76)) in entries
    assert ((1, 7), (1, 13), (1, 16)) not in entries
    assert catalog.load("conj-1.9").entries == listed.entries
    assert len(entries) > 400


def _normalize(triple):
    """Order-6 terms become order 3 (equal value sets over Z); a (2p3, p4)
    pair collapses to (p3, p3) (equal pair sumsets)."""
    terms = sorted(((a, 3 if m == 6 else m) for a, m in triple),
                   key=lambda t: (t[1], t[0]))
    while (2, 3) in terms and (1, 4) in terms:
        terms.remove((2, 3))
        terms.remove((1, 4))
        terms += [(1, 3), (1, 3)]
        terms.sort(key=lambda t: (t[1], t[0]))
    return tuple(terms)


def test_essential_triple_reduction():
    all95 = (catalog.load("thm-1.3-31").entries +
             catalog.load("thm-1.4-64").entries)
    assert len(all95) == 95
    essential = [t for t in all95 if _normalize(t) == t]
    assert len(essential) == 75
    # the redundant twenty all collapse onto essentials or onto triples
    # whose universality over Z is already classical
    base = {_normalize(t) for t in catalog.load("liouville-7").entries}
    base |= {_normalize(t) for t in catalog.load("mixed-34-25").entries}
    for t in all95:
        assert _normalize(t) in set(essential) | base


def test_seventy_left_after_proven():
    all95 = (catalog.load("thm-1.3-31").entries +
             catalog.load("thm-1.4-64").entries)
    essential = {t for t in all95 if _normalize(t) == t}
    proven = set(catalog.load("proven-z-5").entries)
    seventy = essential - proven
    listed = (set(catalog.load("thm-1.5-35").entries) |
              set(catalog.load("remaining-35").entries))
    assert len(seventy) == 70
    assert seventy == listed


def test_witness_entries_spot_validate():
    # full validation happens in the acceptance suite; spot-check here
    for ident, triple, n in [
        ("witness-7.1", ((1, 3), (1, 3), (1, 9)), 41),
        ("witness-7.1", ((1, 3), (1, 4), (1, 19)), 412),
        ("witness-8.3", ((1, 3), (2, 4), (2, 11)), 826),
    ]:
        table = catalog.load(ident)
        assert table.as_dict()[triple] == n
        assert member_with_witness(triple_to_sum(triple, table.domain), n) is None


def test_conjecture_18_entries_hold_at_1e4():
    from polysum.sumset import range_sieve

    for triple in catalog.load("conj-1.8").entries:
        s = triple_to_sum(triple, SumDomain.INTEGERS)
        assert range_sieve(s.terms, SumDomain.INTEGERS, 10_000).missing().size == 0
        n = triple_to_sum(triple, SumDomain.NATURALS)
        assert range_sieve(n.terms, SumDomain.NATURALS, 10_000).missing().size > 0


def test_regular_forms_shape():
    entries = catalog.regular_form_catalog()
    assert len(entries) == 26
    displays = [e.display for e in entries]
    assert displays[0] == "4.1" and displays[-1] == "5.4"
    by_display = {e.display: e for e in entries}
    assert by_display["4.10"].form.coefficients == (2, 2, 3)
    assert by_display["5.1"].form.coefficients == (5, 1, 1)


def test_identifiers_listing():
    names = catalog.identifiers()
    assert "thm-1.3-31" in names and "witness-8.4" in names and "conj-1.8" in names
