"""Command-line surface.

Every subcommand prints deterministic, self-describing records to stdout
(timings go to stderr) so runs are scriptable and diffable.  Exit status:
0 success, 1 verification mismatch, 2 usage error.  A reported exception
that fails its independent re-check writes a ``kind=reverify-failed`` record
to stderr and exits with status 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import catalog, descent
from .polycore import SumDomain, parse_sum
from .primepoly import (
    PrimePolyQuery,
    decomposed_among,
    decomposition_witness,
    exception_scan as prime_exception_scan,
)
from .qform import (
    DiagonalTernaryForm,
    canonical_reduction,
    qf_exception_bits,
    represented_among,
    verify_catalog_form,
    verify_reduction,
)
from .screening import (
    PRESETS,
    SpaceNotClosable,
    compare_with_catalog,
    format_triple,
    screen,
    unique_exception_scan,
)
from .sumset import (
    ReverificationError,
    count_bits,
    exceptions,
    first_bits,
    offset_universal_check,
)

_CATALOG_FOR_PRESET = {
    "liouville": "liouville-7",
    "thm-1.1i": "thm-1.1i-20",
    "thm-1.3": "thm-1.3-31",
    "thm-1.4": "thm-1.4-64",
    "mixed-34-list": "mixed-34-25",
    "unique-29": "unique-29",
}


class UsageError(Exception):
    """Bad invocation arguments; exits with status 2."""


# Entries of an array that ``_fmt_value`` turns into Python ints at a time.
_FORMAT_SLICE = 1 << 16


@dataclass
class ReportRecord:
    kind: str
    fields: dict = field(default_factory=dict)


def _value_pieces(value):
    """The text of one field, in pieces.  An int64 array, such as an
    exception list, is the one kind of value formatted in slices of
    _FORMAT_SLICE entries, so that no Python list as long as the array is
    built."""
    if isinstance(value, np.ndarray):
        yield "["
        for i in range(0, value.size, _FORMAT_SLICE):
            yield ("," if i else "") + ",".join(
                map(str, value[i : i + _FORMAT_SLICE].tolist()))
        yield "]"
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif isinstance(value, (list, tuple)):
        # every listed element is an int or a str
        yield "[" + ",".join(map(str, value)) + "]"
    else:
        yield str(value)


def _fmt_value(value) -> str:
    """The text of one field, whole, as the csv writer takes it."""
    return "".join(_value_pieces(value))


def emit_report(records: list[ReportRecord], fmt: str, stream) -> None:
    """Write records to ``stream``: 'lines' = one sorted key=value record
    per line, written piece by piece, so that the text of a long field is
    never copied whole; 'csv' = header row plus one row per record."""
    if fmt == "lines":
        for rec in records:
            stream.write(f"kind={rec.kind}")
            for k, v in sorted(rec.fields.items()):
                stream.write(f" {k}=")
                for piece in _value_pieces(v):
                    stream.write(piece)
            stream.write("\n")
    elif fmt == "csv":
        keys = sorted({k for rec in records for k in rec.fields})
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["kind"] + keys)
        for rec in records:
            writer.writerow([rec.kind] +
                            [_fmt_value(rec.fields.get(k, "")) for k in keys])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _print(records: list[ReportRecord], fmt: str) -> None:
    emit_report(records, fmt, sys.stdout)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_except(args) -> int:
    sum_ = parse_sum(args.sum, SumDomain.parse(args.domain))
    if args.offsets:
        offsets = [int(v) for v in args.offsets.split(",")]
        report = offset_universal_check(sum_.terms, sum_.domain, offsets,
                                        args.bound)
    else:
        report = exceptions(sum_, args.bound)
    rec = ReportRecord("exceptions", {
        "sum": str(sum_), "domain": sum_.domain.value, "bound": report.bound,
        "offsets": list(report.offsets), "count": report.exceptions.size,
        "result": report.exceptions})
    _print([rec], args.format)
    return 0


def _cmd_screen(args) -> int:
    if args.preset not in PRESETS:
        raise UsageError(f"unknown preset {args.preset!r}; "
                         f"choose from {sorted(PRESETS)}")
    if args.preset == "unique-29":
        found = unique_exception_scan(args.preset, args.bound,
                                      args.search_bound)
        rec = ReportRecord("screen", {
            "preset": args.preset,
            "bound": args.bound or PRESETS[args.preset].scan_bound,
            "survivors": [f"{format_triple(t)}:{e}" for t, e in found],
            "count": len(found)})
        _print([rec], args.format)
        return 0
    report = screen(args.preset, args.bound, args.search_bound)
    fields = {
        "preset": args.preset, "bound": report.bound,
        "search-bound": report.search_bound,
        "survivors": [format_triple(t) for t in report.survivors],
        "count": len(report.survivors),
        "eliminations": len(report.eliminations)}
    status = 0
    if args.compare:
        cat = catalog.load(_CATALOG_FOR_PRESET[args.preset])
        missing, extra = compare_with_catalog(report, cat.entries)
        fields["missing"] = [format_triple(t) for t in missing]
        fields["extra"] = [format_triple(t) for t in extra]
        if missing or extra:
            status = 1
    _print([ReportRecord("screen", fields)], args.format)
    return status


def _parse_form(text: str) -> DiagonalTernaryForm:
    coeffs = tuple(int(v) for v in text.split(","))
    if len(coeffs) != 3:
        raise UsageError(f"form must be three comma-separated coefficients, "
                         f"got {text!r}")
    return DiagonalTernaryForm(coeffs)


def _cmd_qform_except(args) -> int:
    if args.limit < 0:
        raise UsageError(f"--limit must be >= 0, got {args.limit}")
    form = _parse_form(args.form)
    # counted and listed on the packed grid, freed before the re-check: the
    # int64 list of every exception would take 1.3 bytes per integer for
    # x^2 + y^2 + z^2
    missed = qf_exception_bits(form, args.bound)
    count = count_bits(missed)
    listed = first_bits(missed, min(count, args.limit))
    del missed
    # each listed exception is re-checked apart from the value-grid sieve
    failed = [ReportRecord("reverify-failed", {
        "form": str(form), "bound": args.bound, "n": n})
        for n in represented_among(form, listed).tolist()]
    if failed:
        emit_report(failed, "lines", sys.stderr)
        return 1
    rec = ReportRecord("qform-except", {
        "form": str(form), "bound": args.bound, "count": count,
        "result": listed, "truncated": count > args.limit})
    _print([rec], args.format)
    return 0


def _cmd_qform_verify_catalog(args) -> int:
    records = []
    status = 0
    for entry in catalog.regular_form_catalog():
        if args.entry and entry.display != args.entry:
            continue
        ok, sieve_only, family_only = verify_catalog_form(
            entry.form, entry.families, args.bound)
        records.append(ReportRecord("qform-verify", {
            "entry": entry.display, "form": str(entry.form),
            "bound": args.bound, "equal": ok,
            "sieve-only": sieve_only[:10], "family-only": family_only[:10]}))
        if not ok:
            status = 1
    if not records:
        raise UsageError(f"no catalog entry named {args.entry!r}")
    _print(records, args.format)
    return status


def _cmd_reduce(args) -> int:
    sum_ = parse_sum(args.sum, SumDomain.parse(args.domain))
    entry = canonical_reduction(sum_)
    conds = [("-" if c is None else
              f"{c.modulus}:{'|'.join(str(r) for r in c.residues)}")
             for c in entry.form.conditions]
    rec = ReportRecord("reduction", {
        "sum": str(sum_), "domain": sum_.domain.value,
        "multiplier": entry.multiplier, "constant": entry.constant,
        "form": str(entry.form), "conditions": conds})
    _print([rec], args.format)
    return 0


def _cmd_verify_reduction(args) -> int:
    records = []
    status = 0
    if args.display:
        entries = [(d, e) for d, e in catalog.explicit_reductions()
                   if d == args.display]
        if not entries:
            raise UsageError(f"unknown reduction display {args.display!r}; "
                             f"known: {[d for d, _ in catalog.explicit_reductions()]}")
    elif args.sum:
        sum_ = parse_sum(args.sum, SumDomain.parse(args.domain))
        entries = [(str(sum_), canonical_reduction(sum_))]
    else:
        entries = list(catalog.explicit_reductions())
    for display, entry in entries:
        ok, counterexample = verify_reduction(entry, args.bound)
        records.append(ReportRecord("reduction-verify", {
            "display": display, "sum": str(entry.source),
            "multiplier": entry.multiplier, "constant": entry.constant,
            "form": str(entry.form), "bound": args.bound, "holds": ok,
            "counterexample": "" if counterexample is None else counterexample}))
        if not ok:
            status = 1
    _print(records, args.format)
    return status


def _query_fields(query: PrimePolyQuery) -> dict:
    prime_filter = query.prime_filter
    return {
        "a": query.coefficient, "shape": query.shape,
        "order": query.order if query.order else "",
        "universe": query.universe,
        "prime-filter": (f"{prime_filter[0]}:{prime_filter[1]}"
                         if prime_filter else "")}


def _reverify_prime_exceptions(query: PrimePolyQuery, found: np.ndarray,
                               bound: int) -> int:
    """Re-check the reported exceptions with ``decomposed_among``; write a
    reverify-failed record, with a witness, to stderr for each one that has
    a decomposition.  Returns the exit status: 0 when all hold, 1 otherwise."""
    failed = []
    for n in decomposed_among(query, found, bound).tolist():
        p, x = decomposition_witness(query, n, bound)
        failed.append(ReportRecord("reverify-failed", {
            **_query_fields(query), "bound": bound, "n": n, "p": p, "x": x}))
    if failed:
        emit_report(failed, "lines", sys.stderr)
    return 1 if failed else 0


def _cmd_prime_scan(args) -> int:
    if args.limit < 0:
        raise UsageError(f"--limit must be >= 0, got {args.limit}")
    prime_filter = None
    if args.prime_mod:
        prime_filter = (args.prime_mod, args.prime_residue)
    elif args.prime_residue:
        raise UsageError("--prime-residue needs --prime-mod")
    query = PrimePolyQuery(
        coefficient=args.a, shape=args.shape, order=args.order,
        universe=args.universe, prime_filter=prime_filter)
    found = prime_exception_scan(query, args.bound)
    rec = ReportRecord("prime-scan", {
        **_query_fields(query), "bound": args.bound, "count": found.size,
        "max": found[-1] if found.size else "",
        "result": found[: args.limit], "truncated": found.size > args.limit})
    _print([rec], args.format)
    return _reverify_prime_exceptions(query, found, args.bound)


_DESCENT_OPS = {
    "realis": (3, lambda a: descent.realis_transform(*a)),
    "mod3": (3, lambda a: descent.descent_mod3(*a)),  # args: m, x, y
    "split36": (2, lambda a: descent.split_3_into_6(*a)),
    "mod5": (2, lambda a: descent.descent_mod5(*a)),
    "odd7": (2, lambda a: descent.descent_7_odd(*a)),
    "split2n": (1, lambda a: descent.split_two_n(*a)),
}


def _cmd_descent_check(args) -> int:
    if args.op not in _DESCENT_OPS:
        raise UsageError(f"unknown descent op {args.op!r}; "
                         f"choose from {sorted(_DESCENT_OPS)}")
    arity, fn = _DESCENT_OPS[args.op]
    values = [int(v) for v in args.args.split(",")]
    if len(values) != arity:
        raise UsageError(f"op {args.op} takes {arity} comma-separated arguments")
    try:
        result = fn(values)
    except ValueError as exc:
        _print([ReportRecord("descent-check", {
            "op": args.op, "args": values, "error": str(exc)})], args.format)
        return 2
    _print([ReportRecord("descent-check", {
        "op": args.op, "args": values, "result": list(result)})], args.format)
    return 0


def _conjecture_12(bound: int) -> tuple[list[ReportRecord], int]:
    records, status = [], 0
    for m in range(3, 11):
        sum_ = parse_sum(f"p{m+1}+p{m+2}+p{m+3}", SumDomain.NATURALS)
        report = offset_universal_check(sum_.terms, sum_.domain,
                                        range(0, m - 2), bound)
        ok = report.exceptions.size == 0
        records.append(ReportRecord("conjecture", {
            "preset": "1.2", "m": m, "sum": str(sum_), "bound": bound,
            "offsets": list(range(0, m - 2)), "holds": ok,
            "result": report.exceptions[:10]}))
        status |= 0 if ok else 1
    return records, status


def _conjecture_triples(preset: str, list_id: str, bound: int
                        ) -> tuple[list[ReportRecord], int]:
    records, status = [], 0
    for triple in catalog.load(list_id).entries:
        text = format_triple(triple)
        report = exceptions(parse_sum(text, SumDomain.NATURALS), bound)
        ok = report.exceptions.size == 0
        records.append(ReportRecord("conjecture", {
            "preset": preset, "sum": text, "bound": bound, "holds": ok,
            "result": report.exceptions[:10]}))
        status |= 0 if ok else 1
    return records, status


def _conjecture_17(bound: int) -> tuple[list[ReportRecord], int]:
    checks = [
        ("base", PrimePolyQuery(2, "polygonal", 5, "odd"), [135, 345, 539], None),
        ("p=1(4)", PrimePolyQuery(2, "polygonal", 5, "odd", (4, 1)), None, 16859),
        ("p=3(4)", PrimePolyQuery(2, "polygonal", 5, "odd", (4, 3)), None, 27695),
        ("p=1(6)", PrimePolyQuery(2, "polygonal", 5, "odd", (6, 1)), None, 12845),
        ("p=5(6)", PrimePolyQuery(2, "polygonal", 5, "odd", (6, 5)), None, 15865),
        ("octagonal", PrimePolyQuery(2, "polygonal", 8, "odd"),
         [51, 185, 377, 471, 555, 2865], None),
    ]
    records, status = [], 0
    for label, query, want_list, want_max in checks:
        found = prime_exception_scan(query, bound)
        status |= _reverify_prime_exceptions(query, found, bound)
        if want_list is not None:
            ok = np.array_equal(found, want_list)
        else:
            ok = found.size > 0 and int(found[-1]) == want_max
        records.append(ReportRecord("conjecture", {
            "preset": "1.7", "check": label, "bound": bound, "holds": ok,
            "count": found.size, "max": found[-1] if found.size else ""}))
        status |= 0 if ok else 1
    return records, status


def _conjecture_18_spot(bound: int) -> tuple[list[ReportRecord], int]:
    entries = catalog.load("conj-1.8").entries
    sample = entries[::25]  # deterministic spot sample
    records, status = [], 0
    for triple in sample:
        text = format_triple(triple)
        z_exc = exceptions(parse_sum(text, SumDomain.INTEGERS), bound).exceptions
        n_exc = exceptions(parse_sum(text, SumDomain.NATURALS), bound).exceptions
        ok = z_exc.size == 0 and n_exc.size > 0
        records.append(ReportRecord("conjecture", {
            "preset": "1.8-spot", "sum": text, "bound": bound, "holds": ok,
            "z-exceptions": z_exc[:5], "n-first-exception":
                n_exc[0] if n_exc.size else ""}))
        status |= 0 if ok else 1
    return records, status


# preset -> (default bound, runner)
_CONJECTURES = {
    "1.1": (1_000_000,
            lambda bound: _conjecture_triples("1.1", "conj-1.1-3", bound)),
    "1.2": (500_000, _conjecture_12),
    "1.3": (10_000,
            lambda bound: _conjecture_triples("1.3", "thm-1.3-31", bound)),
    "1.4": (10_000,
            lambda bound: _conjecture_triples("1.4", "thm-1.4-64", bound)),
    "1.7": (1_000_000, _conjecture_17),
    "1.8-spot": (10_000, _conjecture_18_spot),
}


def _cmd_conjecture(args) -> int:
    if args.preset not in _CONJECTURES:
        raise UsageError(f"unknown conjecture preset {args.preset!r}; "
                         f"choose from {sorted(_CONJECTURES)}")
    default_bound, run = _CONJECTURES[args.preset]
    records, status = run(args.bound or default_bound)
    _print(records, args.format)
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The argument parser; subcommand ``a-b`` runs ``_cmd_a_b``."""
    parser = argparse.ArgumentParser(
        prog="polysum",
        description="Sieves, screens and certificates for polygonal sums "
                    "and diagonal ternary forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("lines", "csv"), default="lines")

    p = sub.add_parser("except", help="exception list of a polygonal sum")
    p.add_argument("--sum", required=True, help='e.g. "p4+p5+p8" or "p3+2p4+p9"')
    p.add_argument("--domain", default="N", help="N or Z")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--offsets", default="", help="comma-separated shifts")
    add_format(p)

    p = sub.add_parser("screen", help="frontier screen of a candidate space")
    p.add_argument("--preset", required=True,
                   help=f"one of {sorted(PRESETS)}")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--search-bound", type=int, default=2000)
    p.add_argument("--compare", action=argparse.BooleanOptionalAction,
                   default=True, help="diff survivors against the catalog")
    add_format(p)

    p = sub.add_parser("qform-except", help="exception set of a diagonal form")
    p.add_argument("--form", required=True, help='coefficients "a,b,c"')
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--limit", type=int, default=50, help="max listed entries")
    add_format(p)

    p = sub.add_parser("qform-verify-catalog",
                       help="check catalog forms against their family sets")
    p.add_argument("--entry", default="", help="single display id, e.g. 4.10")
    p.add_argument("--bound", type=int, default=100_000)
    add_format(p)

    p = sub.add_parser("reduce", help="canonical form reduction of a sum")
    p.add_argument("--sum", required=True)
    p.add_argument("--domain", default="Z")
    add_format(p)

    p = sub.add_parser("verify-reduction", help="verify reduction equivalences")
    p.add_argument("--display", default="", help="explicit display id")
    p.add_argument("--sum", default="", help="canonical reduction of this sum")
    p.add_argument("--domain", default="Z")
    p.add_argument("--bound", type=int, default=10_000)
    add_format(p)

    p = sub.add_parser("prime-scan", help="n = p + a*x^2 / p + a*p_m(x) scan")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--shape", choices=("square", "polygonal"), default="square")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--universe", choices=("all", "odd", "coprime"),
                   default="coprime")
    p.add_argument("--prime-mod", type=int, default=0)
    p.add_argument("--prime-residue", type=int, default=0)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--limit", type=int, default=50)
    add_format(p)

    p = sub.add_parser("descent-check", help="run one descent transform")
    p.add_argument("--op", required=True, help=f"one of {sorted(_DESCENT_OPS)}")
    p.add_argument("--args", required=True, help="comma-separated integers")
    add_format(p)

    p = sub.add_parser("conjecture", help="bounded conjecture verifications")
    p.add_argument("--preset", required=True,
                   help=f"one of {sorted(_CONJECTURES)}")
    p.add_argument("--bound", type=int, default=0)
    add_format(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; a build takes about 2.4 ms (2-vCPU
    VM), and some callers run ``main`` dozens of times."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that a replaced command function takes effect
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    start = time.perf_counter()
    try:
        status = command(args)
    except (UsageError, ValueError, catalog.UnknownIdentifierError,
            SpaceNotClosable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReverificationError as exc:
        emit_report([ReportRecord("reverify-failed", {
            "sum": str(exc.sum), "domain": exc.sum.domain.value,
            "n": exc.n})], "lines", sys.stderr)
        return 1
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
