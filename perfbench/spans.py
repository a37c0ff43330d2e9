"""Spans and counters around the calls into each polysum layer.

``install`` wraps the functions in ``TRACED`` at run time and puts each
wrapper in place of the original in every polysum module that holds it
(``polysum.screening.range_sieve`` as well as ``polysum.sumset.range_sieve``),
so calls made inside the package are recorded too.  Every call becomes a
span (name, start, end, parent); hooks add counts at the same boundary.
Nothing in polysum changes on disk, and an untraced run imports none of this.

A layer's time is the self time of its spans: the span's duration minus the
durations of its child spans, so the layer times of one run add up to the
traced time spent inside polysum.  With ``alloc=True`` each span also records
its allocation peak above the level at its start, from ``tracemalloc``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

CERT_KINDS = ("direct", "order-tail", "coefficient-tail", "frontier-tail",
              "parametric-tail")


class Tracer:
    def __init__(self, alloc: bool = False):
        # one record per call: [name, start, end, parent index, extra, alloc]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.alloc = alloc
        self._frames: list[list[int]] = []  # [level at entry, running peak]
        self.originals: dict[str, object] = {}

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            if self.alloc:
                self._alloc_enter()
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if self.alloc:
                    rec[5] = self._alloc_exit()
            if hook is not None:
                hook(self, rec, args, result)
            return result

        return traced

    def _alloc_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        tracemalloc.reset_peak()
        self._frames.append([current, current])

    def _alloc_exit(self) -> int:
        base, running = self._frames.pop()
        _, peak = tracemalloc.get_traced_memory()
        top = max(running, peak)
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], top)
        tracemalloc.reset_peak()
        return top - base


# ---------------------------------------------------------------------------
# hooks: counts computed from arguments and results at the span boundary
# ---------------------------------------------------------------------------

def _sieve_hook(tr, rec, args, result):
    terms, domain, bound = args[:3]
    values = tr.originals["poly_values_upto"]
    passes = sum(len(values(t, domain, bound)) for t in terms)
    tr.counts["sumset.sieve_cells"] += bound + 1
    tr.counts["sumset.shift_passes"] += passes
    # each pass reads the accumulator and a shifted copy and writes one
    tr.counts["sumset.sieve_bytes_computed"] += passes * 3 * ((bound + 8) // 8)
    rec[4] = bound


def _reverify_hook(tr, rec, args, result):
    tr.counts["sumset.reverified_n"] += len(result.exceptions)


def _scan_concrete_hook(tr, rec, args, result):
    _, _, bound, stage, _ = args[:5]
    rec[4] = stage < bound


def _screen_hook(tr, rec, args, result):
    for cert in result.eliminations:
        tr.counts["screening.certificates"] += 1
        tr.counts[f"screening.certificates.{cert.kind}"] += 1


def _verify_cert_hook(tr, rec, args, result):
    rec[4] = args[0].kind


def _grid_sizes(tr, form, top):
    values = tr.originals["_variable_values"]
    order = sorted(range(3), key=lambda i: -form.coefficients[i])
    return [len(values(form.coefficients[i], form.conditions[i], top))
            for i in order]


def _exception_set_hook(tr, rec, args, result):
    form, bound = args[:2]
    n0, n1, n2 = _grid_sizes(tr, form, bound)
    tr.counts["qform.grid_cells"] += n0 * n1
    # int64 pair grid, then one read and one write of the bitmap per value
    tr.counts["qform.grid_bytes_computed"] += 8 * n0 * n1 + 2 * (bound + 1) * n2


def _verify_reduction_hook(tr, rec, args, result):
    entry, bound = args[:2]
    top = entry.multiplier * bound + entry.constant
    n0, n1, n2 = _grid_sizes(tr, entry.form, top)
    tr.counts["qform.grid_cells"] += n0 * n1
    # int64 pair grid, then a residue comparison over it per third value
    tr.counts["qform.grid_bytes_computed"] += 8 * n0 * n1 * (1 + n2)


def _prime_scan_hook(tr, rec, args, result):
    query, bound = args[:2]
    passes = len(query.term_values(bound - 2))
    tr.counts["primepoly.scan_passes"] += passes
    # one bool read of primes and one read and write of reach per pass
    tr.counts["primepoly.scan_bytes_computed"] += passes * 3 * (bound + 1)


# (module, attribute, span name, hook).  "Class.method" wraps a method.
TRACED = (
    ("polysum.polycore", "poly_values_upto", "polycore.values", None),
    ("polysum.polycore", "poly_values_with_args", "polycore.values", None),
    ("polysum.polycore", "term_argument", "polycore.membership", None),
    ("polysum.polycore", "is_generalized_polygonal", "polycore.membership", None),
    ("polysum.sumset", "range_sieve", "sumset.range_sieve", _sieve_hook),
    ("polysum.sumset", "RangeBitset.missing", "sumset.gap_scan", None),
    ("polysum.sumset", "RangeBitset.first_missing", "sumset.gap_scan", None),
    ("polysum.sumset", "exceptions", "sumset.reverify", _reverify_hook),
    ("polysum.sumset", "offset_universal_check", "sumset.reverify",
     _reverify_hook),
    ("polysum.sumset", "member_with_witness", "sumset.witness", None),
    ("polysum.screening", "screen", "screening.screen", _screen_hook),
    ("polysum.screening", "unique_exception_scan", "screening.screen", None),
    ("polysum.screening", "_scan_concrete", "screening.scan_concrete",
     _scan_concrete_hook),
    ("polysum.screening", "order_tail_cutoff", "screening.tail_cutoff", None),
    ("polysum.screening", "coefficient_tail_cutoff", "screening.tail_cutoff",
     None),
    ("polysum.screening", "verify_certificate", "screening.verify_cert",
     _verify_cert_hook),
    ("polysum.screening", "report_covers", "screening.covers", None),
    ("polysum.qform", "qf_exception_set", "qform.exception_set",
     _exception_set_hook),
    ("polysum.qform", "verify_catalog_form", "qform.verify_catalog", None),
    ("polysum.qform", "verify_reduction", "qform.verify_reduction",
     _verify_reduction_hook),
    ("polysum.qform", "canonical_reduction", "qform.canonical_reduction", None),
    ("polysum.primepoly", "sieve_primes", "primepoly.sieve", None),
    ("polysum.primepoly", "exception_scan", "primepoly.scan", _prime_scan_hook),
    ("polysum.descent", "split_two_n", "descent.split", None),
    ("polysum.catalog", "load", "catalog.load", None),
    ("polysum.catalog", "regular_form_catalog", "catalog.load", None),
    ("polysum.catalog", "explicit_reductions", "catalog.load", None),
    ("polysum.cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Replace every traced function, in every polysum module holding it."""
    polycore = importlib.import_module("polysum.polycore")
    qform = importlib.import_module("polysum.qform")
    primepoly = importlib.import_module("polysum.primepoly")
    tracer.originals["poly_values_upto"] = polycore.poly_values_upto
    tracer.originals["_variable_values"] = qform._variable_values
    tracer.originals["sieve_hits"] = primepoly.sieve_primes.cache_info().hits
    tracer.originals["sieve_primes"] = primepoly.sieve_primes
    modules = [m for n, m in list(sys.modules.items())
               if n == "polysum" or n.startswith("polysum.")]
    for module_name, attr, name, hook in TRACED:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], hook))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, solve_from: int) -> dict[str, float]:
    """Per-layer metrics; ``solve_from`` is the index of the first span of
    the timed operations (spans before it belong to set-up)."""
    spans = tracer.spans
    own = _self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    cert_s: dict[str, float] = defaultdict(float)
    alloc_mb: dict[str, float] = defaultdict(float)
    sieve_children: Counter = Counter()
    for i, (name, start, end, parent, extra, alloc) in enumerate(spans):
        self_s[name] += own[i]
        calls[name] += 1
        layer = name.split(".")[0]
        if name in ("sumset.range_sieve", "primepoly.sieve", "primepoly.scan") \
                or layer == "qform":
            key = "sumset" if layer == "sumset" else layer
            alloc_mb[key] = max(alloc_mb[key], alloc / 2**20)
        if name == "screening.verify_cert":
            cert_s[extra] += own[i]
        if name == "sumset.range_sieve" and parent >= 0 \
                and spans[parent][0] == "screening.scan_concrete":
            sieve_children[parent] += 1
    scans = [i for i, s in enumerate(spans) if s[0] == "screening.scan_concrete"]
    staged = sum(1 for i in scans if spans[i][4] and sieve_children[i] == 1)
    c = tracer.counts
    hits = tracer.originals["sieve_primes"].cache_info().hits
    m = {
        "polycore.values_s": self_s["polycore.values"],
        "polycore.values_calls": calls["polycore.values"],
        "polycore.membership_s": self_s["polycore.membership"],
        "sumset.sieve_s": self_s["sumset.range_sieve"],
        "sumset.sieve_calls": calls["sumset.range_sieve"],
        "sumset.sieve_cells": c["sumset.sieve_cells"],
        "sumset.shift_passes": c["sumset.shift_passes"],
        "sumset.sieve_bytes_computed": c["sumset.sieve_bytes_computed"],
        "sumset.alloc_peak_mb": alloc_mb["sumset"],
        "sumset.gap_scan_s": self_s["sumset.gap_scan"],
        "sumset.reverify_s": self_s["sumset.reverify"],
        "sumset.reverified_n": c["sumset.reverified_n"],
        "sumset.witness_s": self_s["sumset.witness"],
        "sumset.witness_calls": calls["sumset.witness"],
        "screening.screen_s": (self_s["screening.screen"]
                               + self_s["screening.scan_concrete"]),
        "screening.concrete_sieves": sum(sieve_children.values()),
        "screening.staged_exit_ratio": staged / len(scans) if scans else 0.0,
        "screening.tail_cutoff_s": self_s["screening.tail_cutoff"],
        "screening.tail_cutoff_calls": calls["screening.tail_cutoff"],
        "screening.certificates": c["screening.certificates"],
    }
    for kind in CERT_KINDS:
        m[f"screening.certificates.{kind}"] = c[f"screening.certificates.{kind}"]
    m["screening.verify_cert_s"] = self_s["screening.verify_cert"]
    for kind in CERT_KINDS:
        m[f"screening.verify_cert.{kind}_s"] = cert_s[kind]
    m.update({
        "screening.covers_s": self_s["screening.covers"],
        "screening.covers_calls": calls["screening.covers"],
        "qform.exception_set_s": self_s["qform.exception_set"],
        "qform.verify_catalog_s": self_s["qform.verify_catalog"],
        "qform.verify_reduction_s": self_s["qform.verify_reduction"],
        "qform.canonical_reduction_s": self_s["qform.canonical_reduction"],
        "qform.grid_cells": c["qform.grid_cells"],
        "qform.grid_bytes_computed": c["qform.grid_bytes_computed"],
        "qform.alloc_peak_mb": alloc_mb["qform"],
        "primepoly.sieve_s": self_s["primepoly.sieve"],
        "primepoly.sieve_calls": calls["primepoly.sieve"],
        "primepoly.sieve_cache_hits": hits - tracer.originals["sieve_hits"],
        "primepoly.scan_s": self_s["primepoly.scan"],
        "primepoly.scan_passes": c["primepoly.scan_passes"],
        "primepoly.scan_bytes_computed": c["primepoly.scan_bytes_computed"],
        "primepoly.alloc_peak_mb": alloc_mb["primepoly"],
        "descent.split_s": self_s["descent.split"],
        "descent.split_calls": calls["descent.split"],
        "catalog.load_s": self_s["catalog.load"],
        "cli.self_s": self_s["cli.main"],
        "trace.top_level_s": sum(end - start for _, start, end, parent, _, _
                                 in spans[solve_from:] if parent < 0),
    })
    return m
