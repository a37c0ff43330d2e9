"""Each benchmark check accepts a right output and rejects a perturbed one.

Run with ``python3 -m pytest perfbench``.  The right outputs here come from
the definitions (the Legendre set, Stern's numbers, hand-checked
certificates); the perturbations are the ones a faulty program would make:
one exception dropped or added, one survivor flipped, one certificate
witness changed.
"""

import random

import checks
import independent as ind
import published as pub


def errors(fn, *args):
    errs = checks.Errors()
    fn(errs, *args)
    return errs


def test_parse_records():
    text = ("kind=exceptions bound=30 count=2 domain=N offsets=[0] "
            "result=[7,15] sum=p4+p4+p4\nkind=x holds=true counterexample=\n")
    first, second = checks.parse_records(text)
    assert first["result"] == [7, 15] and first["sum"] == "p4+p4+p4"
    assert second == {"kind": "x", "holds": True, "counterexample": ""}


def _except_record(result, bound):
    return {"bound": bound, "count": len(result), "offsets": [0],
            "result": result}


def test_exception_list_rejects_drop_and_add():
    terms = ind.parse_sum("p4+p4+p4")
    right = ind.legendre_upto(3000)
    assert right[:4] == [7, 15, 23, 28]
    ok = errors(checks.check_exceptions_record, "p4+p4+p4",
                _except_record(right, 3000), terms, "N", 3000)
    assert ok == []
    dropped = right[:10] + right[11:]
    assert errors(checks.check_exceptions_record, "p4+p4+p4",
                  _except_record(dropped, 3000), terms, "N", 3000)
    added = sorted(right + [2999])  # 2999 = 49^2 + 29^2 + 3^2
    assert errors(checks.check_exceptions_record, "p4+p4+p4",
                  _except_record(added, 3000), terms, "N", 3000)


def test_completeness_claim_rejects_a_missed_exception():
    claim = {"holds": True, "result": [], "bound": 100}
    assert errors(checks.check_complete, "p4+p4+p5", claim,
                  ind.parse_sum("p4+p4+p5"), 100) == []
    # 7 is not a sum of three squares
    assert errors(checks.check_complete, "p4+p4+p4", claim,
                  ind.parse_sum("p4+p4+p4"), 100)


def test_survivor_check_rejects_a_flipped_survivor():
    listed = list(pub.SURVIVOR_LISTS["liouville-7"])
    rec = {"survivors": listed, "count": 7, "missing": [], "extra": []}
    assert errors(checks.check_survivors, "liouville", rec, listed) == []
    flipped = listed[:-1] + ["p3+2p3+5p3"]
    assert errors(checks.check_survivors, "liouville",
                  dict(rec, survivors=flipped), listed)
    assert errors(checks.check_survivors, "liouville",
                  dict(rec, survivors=listed[:-1], count=6), listed)


def test_unique_scan_check_rejects_a_wrong_exception():
    entries = []
    for text in pub.SURVIVOR_LISTS["unique-29"] + ("p3+p5+p37",):
        (exc,) = ind.sumset_exceptions(ind.parse_sum(text), "N", 10_000)
        entries.append(f"{text}:{exc}")
    assert entries[-1] == "p3+p5+p37:31"
    rec = {"survivors": entries, "count": len(entries), "bound": 10_000}
    assert errors(checks.check_unique_scan, rec) == []
    triple, _, exc = entries[0].rpartition(":")
    wrong = [f"{triple}:{int(exc) + 1}"] + entries[1:]
    assert errors(checks.check_unique_scan, dict(rec, survivors=wrong))
    assert errors(checks.check_unique_scan,
                  dict(rec, survivors=entries[1:], count=len(entries) - 1))


def _cert(kind, fixed, witnesses=(), **fields):
    cert = {"kind": kind, "domain": "N", "fixed": fixed,
            "witnesses": list(witnesses), "open_coefficient": 0,
            "open_count": 0, "threshold": 0, "check_bound": 0, "gap_count": 1,
            "parametric_orders": [], "coefficient_cap": None}
    cert.update(fields)
    return cert


def test_certificate_check_rejects_a_changed_witness():
    squares = [(1, 4), (1, 4)]
    good = [
        # 7 is not a sum of three squares
        _cert("direct", squares + [(1, 4)], [7]),
        # 3 is not a sum of two squares; a third slot with coefficient > 3
        # adds only 0 below it
        _cert("coefficient-tail", squares, [3], open_count=1, threshold=3),
        # 7 is not (two squares) + {0, 1}; orders above 10 add only {0, 1}
        _cert("order-tail", squares, [7], open_coefficient=1, threshold=10),
        # {0,a} + {0,b} + {0,c} cannot cover the nine values 0..8
        _cert("frontier-tail", [], open_count=3, threshold=9, check_bound=8),
    ]
    verdicts = [True] * len(good)
    assert errors(checks.check_certificates, good, verdicts) == []
    bad = [dict(good[0], witnesses=[8]), dict(good[1], witnesses=[4]),
           dict(good[2], witnesses=[6]), dict(good[3], threshold=8, check_bound=7)]
    for cert in bad:
        assert errors(checks.check_certificates, [cert], [True])
    assert errors(checks.check_certificates, good, [True, True, False, True])


def test_prime_check_rejects_drop_and_add():
    table = ind.prime_table(10**4)
    rec = {"a": 2, "bound": 10**4, "truncated": False, "count": 2,
           "max": 5993, "result": list(pub.STERN_A2)}
    assert errors(checks.check_prime_record, 2, rec, 10**4, table) == []
    assert errors(checks.check_prime_record, 2,
                  dict(rec, result=[5777], count=1, max=5777), 10**4, table)
    # 5779 is prime, so it is 5779 + 2*0^2
    assert errors(checks.check_prime_record, 2,
                  dict(rec, result=[5777, 5779, 5993], count=3), 10**4, table)


def test_conjecture_17_check_rejects_a_wrong_maximum():
    table = ind.prime_table(10**5)
    recs = []
    for label, order, pfilter, _, _ in pub.CONJ_17:
        want = ind.prime_exceptions(table, 2, order, 10**5, "odd", pfilter)
        recs.append({"check": label, "holds": True, "bound": 10**5,
                     "count": len(want), "max": want[-1]})
    assert errors(checks.check_conjecture_17, recs, 10**5, table) == []
    recs[1] = dict(recs[1], max=recs[1]["max"] + 2)
    assert errors(checks.check_conjecture_17, recs, 10**5, table)


def test_reduction_check_rejects_a_wrong_constant():
    display, text, _, mult, const, coeffs, conds = pub.EXPLICIT_REDUCTIONS[4]
    assert display == "64n+106"
    parsed = tuple(ind.parse_condition(c) for c in conds.split(";"))
    rec = {"holds": True, "bound": 2000, "multiplier": mult, "constant": const,
           "form": ",".join(map(str, coeffs))}
    want = (mult, const, coeffs, parsed)
    terms = ind.parse_sum(text)
    assert errors(checks.check_reduction, display, rec, terms, want, 2000,
                  random.Random(0)) == []
    shifted = (mult, const + 1, coeffs, parsed)
    assert errors(checks.check_reduction, display, dict(rec, constant=const + 1),
                  terms, shifted, 2000, random.Random(0))


def test_catalog_check_rejects_an_unequal_form():
    recs = [{"entry": d, "equal": True, "bound": 2000,
             "form": ",".join(map(str, c)), "sieve-only": [], "family-only": []}
            for d, c, _ in pub.REGULAR_FORMS]
    assert errors(checks.check_catalog_records, recs, 2000) == []
    recs[3] = dict(recs[3], equal=False)
    assert errors(checks.check_catalog_records, recs, 2000)


def test_split_check_rejects_a_broken_postcondition():
    ns = [2, 5, 11]
    right = [(2, 0, 0), (1, 1, 0), (2, 0, 1)]
    assert errors(checks.check_splits, ns, right) == []
    assert errors(checks.check_splits, ns, [(2, 0, 0), (1, 1, 0), (2, 1, 1)])
