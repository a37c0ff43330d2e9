"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed S
                                --mode plain|spans|alloc|setup --spawned-ns T

A fresh process per round keeps the lru_caches in polysum.polycore and on
polysum.primepoly.sieve_primes cold, as they are for every CLI command a
user runs.  ``--spawned-ns`` is the parent's time.monotonic_ns() just before
it started this process, so ``setup_s`` covers interpreter start, imports
and catalog parsing.  Prints one JSON object: timings, the peak RSS read
right after the operations, each operation's outputs, and in the traced modes the
per-layer metrics.  ``--mode setup`` stops when the operations are ready
and prints the set-up time alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _cli_op(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        return 1, (0 if status == 0 else 1), out.getvalue()
    return " ".join(argv), run


def _each(fn, items):
    """One call of fn per item; a call that raises counts as failed."""
    results, failed = [], 0
    for item in items:
        try:
            results.append(fn(item))
        except Exception as exc:  # the check sees the error text
            failed += 1
            results.append(f"error: {exc!r}")
    return len(items), failed, results


def build_ops(workload, inputs, captured):
    from polysum import cli, descent, screening

    if workload == "sumset-sweep":
        return [_cli_op(cli, argv) for argv in (
            ["conjecture", "--preset", "1.1", "--bound", str(inputs["conj11_bound"])],
            ["conjecture", "--preset", "1.2", "--bound", str(inputs["conj12_bound"])],
            ["except", "--sum", "p20+p21+p22", "--bound", str(inputs["p20_bound"])],
            ["except", "--sum", "p4+p4+p4", "--bound", str(inputs["p4_bound"])],
        )]
    if workload == "screen-certify":
        box = [tuple(map(tuple, t)) for t in inputs["box"]]
        return [_cli_op(cli, ["screen", "--preset", p]) for p in inputs["presets"]] + [
            ("verify_certificate",
             lambda: _each(screening.verify_certificate, certificates(captured))),
            ("report_covers",
             lambda: _each(lambda t: screening.report_covers(captured["thm-1.4"], t),
                           box))]
    if workload == "prime-scan":
        b = str(inputs["bound"])
        return [_cli_op(cli, ["prime-scan", "--a", str(a), "--bound", b,
                              "--limit", "1000000"]) for a in inputs["a"]] + [
            _cli_op(cli, ["conjecture", "--preset", "1.7", "--bound", b])]
    if workload == "form-catalog":
        rb = str(inputs["reduction_bound"])
        return ([_cli_op(cli, ["qform-verify-catalog", "--bound",
                               str(inputs["catalog_bound"])]),
                 _cli_op(cli, ["verify-reduction", "--bound", rb])]
                + [_cli_op(cli, ["verify-reduction", "--sum", s, "--domain", "Z",
                                 "--bound", rb])
                   for s in inputs["reduction_sums"]]
                + [_cli_op(cli, ["qform-except", "--form", "1,1,1", "--bound",
                                 str(inputs["qform_bound"])]),
                   ("split_two_n",
                    lambda: _each(descent.split_two_n, inputs["split_ns"]))])
    raise ValueError(workload)


def setup_catalog(workload):
    """Parse the catalog assets the workload reads."""
    from polysum import catalog

    if workload in ("sumset-sweep", "screen-certify"):
        catalog.load("conj-1.1-3")
    if workload == "form-catalog":
        catalog.regular_form_catalog()
        catalog.explicit_reductions()


def certificates(captured):
    """The certificates of the captured screens, in preset order."""
    return [c for report in captured.values() for c in report.eliminations]


def _capture_screens(captured):
    """Keep the ScreenReport each CLI ``screen`` call builds, so its
    certificates can be verified; costs one extra call per screen."""
    from polysum import cli

    inner = cli.screen

    def screen(preset, *args, **kwargs):
        report = inner(preset, *args, **kwargs)
        captured[preset] = report
        return report

    cli.screen = screen


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    VmHWM belongs to the address space the process runs in now.  On Linux
    ru_maxrss also keeps the high-water mark of the address space the
    process had before exec, a copy of its parent, so the parent's size
    would leak into it; ru_maxrss is the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cert_fields(cert):
    return {"kind": cert.kind, "domain": cert.domain.value,
            "fixed": cert.fixed, "witnesses": cert.witnesses,
            "open_coefficient": cert.open_coefficient,
            "open_count": cert.open_count, "threshold": cert.threshold,
            "check_bound": cert.check_bound, "gap_count": cert.gap_count,
            "parametric_orders": cert.parametric_orders,
            "coefficient_cap": cert.coefficient_cap}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "alloc", "setup"),
                        default="plain")
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args(argv)

    import polysum.cli  # noqa: F401

    inputs_start = time.monotonic_ns()
    from workloads import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    inputs_ns = time.monotonic_ns() - inputs_start

    tracer = None
    if args.mode in ("spans", "alloc"):
        import spans
        import tracemalloc

        tracer = spans.Tracer(alloc=args.mode == "alloc")
        spans.install(tracer)
    captured: dict = {}
    _capture_screens(captured)
    setup_catalog(args.workload)
    ops = build_ops(args.workload, inputs, captured)
    if args.mode == "alloc":
        tracemalloc.start()
    solve_from = len(tracer.spans) if tracer else 0
    ready_ns = time.monotonic_ns()
    # set-up time leaves out the benchmark's own input generation
    setup_s = (ready_ns - args.spawned_ns - inputs_ns) / 1e9
    if args.mode == "setup":
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    records = []
    solve = 0.0
    for name, run in ops:
        start = time.perf_counter()
        try:
            items, failed, output = run()
        except Exception as exc:  # one broken command must not end the round
            items, failed, output = 1, 1, f"error: {exc!r}"
        elapsed = time.perf_counter() - start
        solve += elapsed
        records.append({"name": name, "items": items, "failed": failed,
                        "seconds": elapsed, "output": output})
    peak_kb = peak_rss_kb()
    if args.mode == "alloc":
        tracemalloc.stop()

    result = {"setup_s": setup_s, "solve_s": solve,
              "peak_rss_mb": peak_kb / 1024, "ops": records}
    if captured:
        result["certificates"] = [_cert_fields(c) for c in certificates(captured)]
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, solve_from)
        result["layers"]["cli.report_bytes"] = sum(
            len(r["output"].encode()) for r in records
            if isinstance(r["output"], str))
    sys.stdout.write(json.dumps(result, default=list) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
