"""Checks of every workload output against independent computations.

``check_round`` takes one round's operation records and returns a list of
error strings, empty when every output is right.  Answers come from
``independent`` (arithmetic of the benchmark's own, by other algorithms
than the program's) and ``published`` (values from the source paper),
never from a stored copy of program output.  Exception lists are checked
in full; only the reduction equivalences above a small exhaustive range
are checked on a seeded sample of n.
"""

from __future__ import annotations

import random

import independent as ind
import published as pub
from workloads import CATALOG_PRESETS


def parse_records(text: str) -> list[dict]:
    """Parse ``--format lines`` output: one ``key=value`` record per line."""
    out = []
    for line in text.splitlines():
        rec = {}
        for pair in line.split(" "):
            key, _, raw = pair.partition("=")
            rec[key] = _value(raw)
        out.append(rec)
    return out


def _value(raw: str):
    if raw.startswith("[") and raw.endswith("]"):
        return [_value(v) for v in raw[1:-1].split(",")] if raw != "[]" else []
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        return raw


def canon(text: str) -> tuple:
    """A triple as sorted (coefficient, order) pairs, display order."""
    return tuple(sorted(ind.parse_sum(text), key=lambda t: (t[1], t[0])))


class Errors(list):
    def expect(self, ok, message: str) -> None:
        if not ok:
            self.append(message)

    def same_list(self, label: str, got: list, want: list) -> None:
        if got != want:
            extra = sorted(set(got) - set(want))[:5]
            lost = sorted(set(want) - set(got))[:5]
            self.append(f"{label}: {len(got)} listed, {len(want)} expected; "
                        f"wrongly listed {extra}, missing {lost}")


# ---------------------------------------------------------------------------
# sums of polygonal terms
# ---------------------------------------------------------------------------

def check_exceptions_record(errs: Errors, label: str, rec: dict, terms,
                            domain: str, bound: int, offsets=(0,)) -> list[int]:
    """An ``except`` record must list exactly the n <= bound outside the
    sumset; returns the list."""
    result = rec.get("result", [])
    errs.expect(rec.get("bound") == bound and rec.get("count") == len(result)
                and rec.get("offsets") == list(offsets),
                f"{label}: malformed record")
    errs.same_list(label, result, ind.sumset_exceptions(terms, domain, bound,
                                                        offsets))
    return result


def check_complete(errs: Errors, label: str, rec: dict, terms, bound: int,
                   offsets=(0,)) -> None:
    """A conjecture record claims no exception up to bound."""
    errs.expect(rec.get("holds") is True and rec.get("result") == []
                and rec.get("bound") == bound, f"{label}: not complete up to B")
    errs.same_list(label, [], ind.sumset_exceptions(terms, "N", bound, offsets))


def check_sumset_sweep(ops, inputs, rng) -> Errors:
    errs = Errors()
    conj11, conj12, p20, p4 = (parse_records(op["output"]) for op in ops)
    errs.expect(sorted(r.get("sum") for r in conj11)
                == sorted(pub.SURVIVOR_LISTS["conj-1.1-3"]),
                "conjecture 1.1: wrong sums")
    for r in conj11:
        check_complete(errs, f"conjecture 1.1 {r.get('sum')}", r,
                       ind.parse_sum(str(r.get("sum"))), inputs["conj11_bound"])
    errs.expect([r.get("m") for r in conj12] == list(range(3, 11)),
                "conjecture 1.2: wrong m values")
    for r in conj12:
        m = r.get("m", 0)
        want = f"p{m + 1}+p{m + 2}+p{m + 3}"
        errs.expect(r.get("sum") == want and r.get("offsets") == list(range(m - 2)),
                    f"conjecture 1.2 m={m}: wrong sum or offsets")
        check_complete(errs, f"conjecture 1.2 m={m}", r, ind.parse_sum(want),
                       inputs["conj12_bound"], range(m - 2))
    result = check_exceptions_record(errs, "p20+p21+p22", p20[0],
                                     ind.parse_sum("p20+p21+p22"), "N",
                                     inputs["p20_bound"])
    errs.expect(result and result[-1] == pub.MAX_EXCEPTION_P20_P21_P22,
                "p20+p21+p22: largest exception is not 387904")
    result = check_exceptions_record(errs, "p4+p4+p4", p4[0],
                                     ind.parse_sum("p4+p4+p4"), "N",
                                     inputs["p4_bound"])
    errs.same_list("p4+p4+p4 against 4^k(8l+7)", result,
                   ind.legendre_upto(inputs["p4_bound"]))
    return errs


# ---------------------------------------------------------------------------
# screens and certificates
# ---------------------------------------------------------------------------

def check_survivors(errs: Errors, label: str, rec: dict, published) -> None:
    got = [canon(t) for t in rec.get("survivors", [])]
    want = {canon(t) for t in published}
    errs.expect(len(got) == len(set(got)) == rec.get("count")
                and set(got) == want and rec.get("missing") == []
                and rec.get("extra") == [],
                f"{label}: survivors differ from the transcribed list")


def check_unique_scan(errs: Errors, rec: dict) -> None:
    """Each reported triple has exactly its one reported exception up to the
    bound; the 29 transcribed triples must all be reported (extra triples
    with a single exception are allowed)."""
    found = {}
    for entry in rec.get("survivors", []):
        triple, _, exc = str(entry).rpartition(":")
        found[canon(triple)] = int(exc)
    missing = {canon(t) for t in pub.SURVIVOR_LISTS["unique-29"]} - set(found)
    errs.expect(not missing and rec.get("count") == len(found),
                f"unique-29: transcribed triples missing: {sorted(missing)[:3]}")
    for triple, exc in found.items():
        errs.same_list(f"unique-29 {triple}", [exc],
                       ind.sumset_exceptions(triple, "N", rec.get("bound", 0)))


def check_certificates(errs: Errors, certificates, verdicts) -> None:
    errs.expect(len(verdicts) == len(certificates),
                "verify_certificate: not one verdict per certificate")
    for cert, verdict in zip(certificates, verdicts):
        if isinstance(verdict, str):
            continue  # a call that raised is counted as failed
        errs.expect(verdict is True and ind.certificate_holds(cert),
                    f"certificate {cert['kind']} {cert['fixed']} "
                    f"{cert['witnesses']} does not hold")


def check_covers(errs: Errors, box, verdicts) -> None:
    """report_covers must accept every box triple, and every box triple that
    is not a published survivor must have an exception up to 10^5."""
    errs.expect(len(verdicts) == len(box),
                "report_covers: not one verdict per triple")
    survivors = {canon(t) for t in pub.SURVIVOR_LISTS["thm-1.4-64"]}
    for triple, verdict in zip(box, verdicts):
        if isinstance(verdict, str):
            continue
        triple = tuple(map(tuple, triple))
        errs.expect(verdict is True, f"report_covers: {triple} not covered")
        if triple not in survivors:
            errs.expect(ind.sumset_exceptions(triple, "N", 2000)
                        or ind.sumset_exceptions(triple, "N", 100_000),
                        f"report_covers: {triple} eliminated but has no "
                        f"exception up to 100000")


def check_screen_certify(ops, inputs, rng, certificates) -> Errors:
    errs = Errors()
    by_name = {op["name"]: op for op in ops}
    for preset, list_id in CATALOG_PRESETS.items():
        (rec,) = parse_records(by_name[f"screen --preset {preset}"]["output"])
        check_survivors(errs, f"screen {preset}", rec, pub.SURVIVOR_LISTS[list_id])
    (rec,) = parse_records(by_name["screen --preset unique-29"]["output"])
    check_unique_scan(errs, rec)
    check_certificates(errs, certificates, by_name["verify_certificate"]["output"])
    check_covers(errs, inputs["box"], by_name["report_covers"]["output"])
    return errs


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def checked_prime_table(errs: Errors, bound: int, rng: random.Random):
    """The benchmark's own sieve, checked against sympy and pi(10^7)."""
    import sympy

    table = ind.prime_table(max(bound, 10**7))
    errs.expect(int(table[: 10**7 + 1].sum()) == pub.PI_10_7
                == sympy.primepi(10**7), "own sieve: pi(10^7) != 664579")
    errs.expect(int(table[: bound + 1].sum()) == sympy.primepi(bound),
                "own sieve: pi(B) differs from sympy")
    for n in rng.sample(range(bound + 1), 200):
        errs.expect(bool(table[n]) == sympy.isprime(n), f"own sieve wrong at {n}")
    return table


def check_prime_record(errs: Errors, a: int, rec: dict, bound: int, table) -> list:
    result = rec.get("result", [])
    label = f"prime-scan a={a}"
    errs.expect(rec.get("a") == a and rec.get("bound") == bound
                and rec.get("truncated") is False
                and rec.get("count") == len(result)
                and rec.get("max") == (result[-1] if result else ""),
                f"{label}: malformed record")
    errs.same_list(label, result,
                   ind.prime_exceptions(table, a, None, bound, "coprime"))
    return result


def check_conjecture_17(errs: Errors, recs: list, bound: int, table) -> None:
    errs.expect([r.get("check") for r in recs] == [c[0] for c in pub.CONJ_17],
                "conjecture 1.7: wrong checks")
    for rec, (label, order, pfilter, full, top) in zip(recs, pub.CONJ_17):
        want = ind.prime_exceptions(table, 2, order, bound, "odd", pfilter)
        errs.expect(rec.get("holds") is True and rec.get("bound") == bound
                    and rec.get("count") == len(want)
                    and rec.get("max") == (want[-1] if want else ""),
                    f"conjecture 1.7 {label}: count or max differ from the "
                    f"enumeration")
        errs.expect(want and want[-1] == top and (full is None
                                                  or tuple(want) == full),
                    f"conjecture 1.7 {label}: published values not reproduced")


def check_prime_scan(ops, inputs, rng) -> Errors:
    errs = Errors()
    bound = inputs["bound"]
    table = checked_prime_table(errs, bound, rng)
    for a, op in zip(inputs["a"], ops):
        result = check_prime_record(errs, a, parse_records(op["output"])[0],
                                    bound, table)
        if a == 2:
            errs.expect(tuple(result) == pub.STERN_A2,
                        "prime-scan a=2: exceptions are not Stern's 5777, 5993")
        if a == 29:
            errs.expect(result and result[-1] == pub.MAX_EXCEPTION_A29,
                        "prime-scan a=29: largest exception is not 7824041")
    check_conjecture_17(errs, parse_records(ops[len(inputs["a"])]["output"]),
                        bound, table)
    return errs


# ---------------------------------------------------------------------------
# forms, reductions and descent
# ---------------------------------------------------------------------------

def check_catalog_records(errs: Errors, recs: list, bound: int) -> None:
    errs.expect([r.get("entry") for r in recs]
                == [d for d, _, _ in pub.REGULAR_FORMS],
                "qform-verify-catalog: wrong entries")
    for rec, (display, coeffs, families) in zip(recs, pub.REGULAR_FORMS):
        errs.expect(rec.get("equal") is True and rec.get("bound") == bound
                    and rec.get("form") == ",".join(map(str, coeffs))
                    and rec.get("sieve-only") == [] == rec.get("family-only"),
                    f"qform-verify-catalog {display}: not equal")
        missed = ~ind.form_bitmap(coeffs, (None,) * 3, bound)
        errs.expect(bool((missed == ind.family_bitmap(families, bound)).all()),
                    f"{display}: exceptions differ from {families}")


def check_reduction(errs: Errors, label: str, rec: dict, terms, want, bound,
                    rng: random.Random, cap: int = 500) -> None:
    """The record's reduction must be ``want`` and hold: exhaustively for
    n <= cap, on three seeded n above it."""
    mult, const, coeffs, conds = want
    errs.expect(rec.get("holds") is True and rec.get("bound") == bound
                and rec.get("multiplier") == mult and rec.get("constant") == const
                and rec.get("form") == ",".join(map(str, coeffs)),
                f"{label}: wrong reduction or it does not hold")
    right = ind.form_bitmap(coeffs, conds, mult * cap + const)
    errs.same_list(f"{label} below {cap}",
                   ind.sumset_exceptions(terms, "Z", cap),
                   [n for n in range(cap + 1) if not right[mult * n + const]])
    for n in rng.sample(range(cap + 1, bound + 1), 3):
        errs.expect((ind.witness(terms, "Z", n) is not None)
                    == ind.form_represents(coeffs, conds, mult * n + const),
                    f"{label}: the equivalence fails at {n}")


def check_splits(errs: Errors, ns, outputs) -> None:
    errs.expect(len(outputs) == len(ns), "split_two_n: not one answer per n")
    for n, out in zip(ns, outputs):
        if isinstance(out, str):
            continue
        x, y, z = out
        errs.expect(2 * n == x * x + 9 * y * y + 18 * z * z,
                    f"split_two_n({n}) = {out} breaks 2n = x^2+9y^2+18z^2")


def check_form_catalog(ops, inputs, rng) -> Errors:
    errs = Errors()
    check_catalog_records(errs, parse_records(ops[0]["output"]),
                          inputs["catalog_bound"])
    rb = inputs["reduction_bound"]
    explicit = parse_records(ops[1]["output"])
    errs.expect([r.get("display") for r in explicit]
                == [e[0] for e in pub.EXPLICIT_REDUCTIONS],
                "verify-reduction: wrong displays")
    for rec, (display, text, _, mult, const, coeffs, conds) in zip(
            explicit, pub.EXPLICIT_REDUCTIONS):
        parsed = tuple(ind.parse_condition(c) for c in conds.split(";"))
        errs.expect(rec.get("sum") == text, f"{display}: wrong sum")
        check_reduction(errs, display, rec, ind.parse_sum(text),
                        (mult, const, coeffs, parsed), rb, rng)
    sums = inputs["reduction_sums"]
    for text, op in zip(sums, ops[2 : 2 + len(sums)]):
        (rec,) = parse_records(op["output"])
        terms = ind.parse_sum(text)
        errs.expect(canon(str(rec.get("sum"))) == canon(text), f"{text}: wrong sum")
        check_reduction(errs, text, rec, terms,
                        ind.canonical_reduction(terms), rb, rng)
    (rec,) = parse_records(ops[2 + len(sums)]["output"])
    qb = inputs["qform_bound"]
    errs.expect(rec.get("form") == "1,1,1" and rec.get("bound") == qb
                and rec.get("count") == ind.legendre_count(qb)
                and rec.get("result") == ind.legendre_upto(1000)[:50]
                and rec.get("truncated") is True,
                "qform-except 1,1,1: not the Legendre set 4^k(8l+7)")
    check_splits(errs, inputs["split_ns"], ops[3 + len(sums)]["output"])
    return errs


def check_round(workload: str, seed: int, inputs: dict, result: dict) -> list[str]:
    """All check failures of one round's outputs (empty list: correct)."""
    rng = random.Random(f"check/{workload}/{seed}")
    ops = result["ops"]
    if workload == "sumset-sweep":
        return check_sumset_sweep(ops, inputs, rng)
    if workload == "screen-certify":
        return check_screen_certify(ops, inputs, rng, result["certificates"])
    if workload == "prime-scan":
        return check_prime_scan(ops, inputs, rng)
    if workload == "form-catalog":
        return check_form_catalog(ops, inputs, rng)
    raise ValueError(workload)
