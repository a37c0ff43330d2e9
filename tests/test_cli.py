import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from polysum import catalog, cli, primepoly, qform, sumset
from polysum.polycore import SumDomain, parse_sum, poly_value


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def test_except_record(capsys):
    status, out = run(capsys, "except", "--sum", "p4+p5+p8",
                      "--domain", "N", "--bound", "10000")
    assert status == 0
    assert "result=[19]" in out and "kind=exceptions" in out
    # a five-term sum against its set sumset, built argument by argument
    sums = {0}
    for a, m in [(5, 8), (7, 9), (11, 10), (13, 12), (3, 20)]:
        values = {a * poly_value(m, x) for x in range(60)}
        sums = {s + v for s in sums for v in values if s + v <= 3000}
    brute = [n for n in range(3001) if n not in sums]
    status, out = run(capsys, "except", "--sum", "5p8+7p9+11p10+13p12+3p20",
                      "--bound", "3000")
    assert len(brute) == 91 and brute[:6] == [1, 2, 4, 6, 9, 17]
    assert status == 0 and "count=91 " in out
    assert f"result=[{','.join(map(str, brute))}]" in out


def test_except_empty_list(capsys):
    status, out = run(capsys, "except", "--sum", "p3+p3+p3",
                      "--domain", "N", "--bound", "500")
    assert status == 0
    assert "result=[]" in out


def test_screen_record(capsys):
    status, out = run(capsys, "screen", "--preset", "liouville")
    assert status == 0
    assert "count=7" in out and "missing=[]" in out and "extra=[]" in out


def test_screen_survivor_payload(capsys):
    status, out = run(capsys, "screen", "--preset", "thm-1.1i")
    assert status == 0
    assert "count=20" in out


def test_output_determinism(capsys):
    first = run(capsys, "screen", "--preset", "liouville", "--format", "csv")
    second = run(capsys, "screen", "--preset", "liouville", "--format", "csv")
    assert first == second
    assert first[1].splitlines()[0].startswith("kind,")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["except", "--sum", "p4+p5+p8", "--domain", "N"])
    assert exc.value.code == 2  # missing --bound
    status, _ = run(capsys, "except", "--sum", "junk",
                    "--domain", "N", "--bound", "10")
    assert status == 2
    status, _ = run(capsys, "screen", "--preset", "nope")
    assert status == 2


def test_mismatch_exit_code(capsys, monkeypatch):
    real_load = catalog.load

    def mutated(identifier):
        if identifier == "liouville-7":
            got = real_load(identifier)
            entries = list(got.entries)
            entries[0] = ((1, 3), (1, 3), (9, 3))
            return catalog.TranscribedList(got.identifier, tuple(entries), got.anchor)
        return real_load(identifier)

    monkeypatch.setattr(cli.catalog, "load", mutated)
    status, out = run(capsys, "screen", "--preset", "liouville")
    assert status == 1
    assert "missing=[p3+p3+9p3]" in out


def test_qform_verify_single_entry(capsys):
    status, out = run(capsys, "qform-verify-catalog", "--entry", "4.10",
                      "--bound", "2000")
    assert status == 0
    assert "equal=true" in out


def test_verify_reduction_all_explicit(capsys):
    status, out = run(capsys, "verify-reduction", "--bound", "500")
    assert status == 0
    assert out.count("holds=true") == 7


def test_verify_reduction_single_display(capsys):
    display = next(iter(catalog.explicit_reductions()))[0]
    status, out = run(capsys, "verify-reduction", "--display", display,
                      "--bound", "500")
    assert status == 0 and out.count("kind=reduction-verify") == 1
    assert f" display={display} " in out and "holds=true" in out


def test_unknown_catalog_ids_are_usage_errors(capsys):
    status = cli.main(["verify-reduction", "--display", "9n+9"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("error: unknown reduction display '9n+9'; "
                                   "known: ['120n+184', ")
    status = cli.main(["qform-verify-catalog", "--entry", "9.99"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "error: no catalog entry named '9.99'\n"


def test_catalog_mismatches_exit_1(capsys):
    # the verifiers are replaced by ones that report a mismatch: the record
    # is still printed, and the status is the 1 of a mismatch
    with mock.patch.object(cli, "verify_catalog_form",
                           return_value=(False, [7], [11])):
        status, out = run(capsys, "qform-verify-catalog", "--entry", "4.10",
                          "--bound", "100")
    assert status == 1
    assert "equal=false family-only=[11] form=" in out
    assert "sieve-only=[7]" in out
    display = next(iter(catalog.explicit_reductions()))[0]
    with mock.patch.object(cli, "verify_reduction", return_value=(False, 13)):
        status, out = run(capsys, "verify-reduction", "--display", display,
                          "--bound", "500")
    assert status == 1
    assert "counterexample=13 " in out and "holds=false" in out


def test_verify_reduction_refuses_a_bound_before_verifying(capsys,
                                                          monkeypatch):
    # five below the cap, the frame [0, bound + ceil(C / M)] of the first
    # entry (F = 2) fits and that of the last (4440n+2657, F = 10) does not:
    # the bound is refused before any entry is verified, with the message of
    # that entry's own frame
    def refuse(*args, **kwargs):
        raise AssertionError("an entry verified before the refusal")

    bound = sumset.MAX_RANGE_BOUND - 5
    entries = [e for _, e in catalog.explicit_reductions()]
    refused = []
    for entry in entries:
        try:
            qform._frame_shift(entry.multiplier, entry.constant, bound)
        except ValueError as exc:
            refused.append(str(exc))
    assert refused and refused[0].startswith("progression frame over ")
    assert entries[-1].multiplier == 4440 and len(refused) == 1
    monkeypatch.setattr(cli, "verify_reduction", refuse)
    status = cli.main(["verify-reduction", "--bound", str(bound)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {refused[0]}\n"


# The check builds nothing; it refuses exactly where the progression itself
# does, before its first sumset, for the explicit reductions and seven
# canonical ones (F from 1 to 10), from bounds that pass every frame to
# bounds that refuse every one.  The values M*bound + C of
# p3+p1000003+p1000033 over N fit int64 up to bound 902881 and no further.
@pytest.mark.parametrize("bound", [-1, 0, 10_000, 902_881, 902_882,
                                   1_000_000, 2_000_000,
                                   3_000_000, 10_000_000,
                                   sumset.MAX_RANGE_BOUND - 10,
                                   sumset.MAX_RANGE_BOUND - 2,
                                   sumset.MAX_RANGE_BOUND, 200_000_000])
def test_check_reduction_bound_refuses_as_the_grid_does(bound, monkeypatch):
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    sums = ["p3+p4+p5", "p5+p5+2p5", "p11+p13+p19", "p3+p3+p10",
            "p8+p8+2p8", "p3+2p4+p9"]
    entries = [e for _, e in catalog.explicit_reductions()] + [
        qform.canonical_reduction(parse_sum(s, SumDomain.INTEGERS))
        for s in sums] + [qform.canonical_reduction(
            parse_sum("p3+p1000003+p1000033", SumDomain.NATURALS))]
    monkeypatch.setattr(qform, "sumset_bits", built)
    for entry in entries:
        outcomes = []
        for check in (lambda: qform.check_reduction_bound(entry, bound),
                      lambda: qform._progression_bitmap(
                          entry.form, entry.multiplier, entry.constant,
                          bound)):
            try:
                check()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
            except Built:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1], (bound, entry)


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader takes 10 bytes of a record of about 1 MB and closes the
    # pipe: the write fails, and the CLI exits with 128 + SIGPIPE, not with
    # the 1 that means a mismatch
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # leaving the with block closes both pipes and waits for the child
    with subprocess.Popen(
            [sys.executable, "-m", "polysum.cli", "prime-scan", "--a", "2",
             "--universe", "all", "--bound", "300000", "--limit", "300000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.read(10) == b"kind=prime"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=300) == cli.STATUS_CLOSED_STDOUT == 141
        finally:
            proc.kill()
    assert b"Traceback" not in err and b"Error" not in err


# A list of integers that does not parse, or has the wrong length, is a
# usage error naming its flag: status 2 and nothing on stdout.
@pytest.mark.parametrize("argv,message", [
    ("except --sum p4+p4+p4 --bound 100 --offsets 1,x",
     "--offsets takes comma-separated integers, got 'x' in '1,x'"),
    ("qform-except --form 1,x,2 --bound 100",
     "--form takes comma-separated integers, got 'x' in '1,x,2'"),
    ("qform-except --form 1,2 --bound 100",
     "--form takes 3 comma-separated integers, got 2 in '1,2'"),
    ("descent-check --op mod5 --args 1,,2",
     "--args takes comma-separated integers, got '' in '1,,2'"),
    ("descent-check --op mod5 --args 3,4,5",
     "--args takes 2 comma-separated integers, got 3 in '3,4,5'"),
], ids=["offsets", "form-item", "form-count", "args-item", "args-count"])
def test_malformed_integer_list_names_its_flag(capsys, argv, message):
    status = cli.main(argv.split())
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_conjecture_bound_zero_runs_at_zero(capsys):
    # without --bound a preset runs at its own bound; --bound 0 runs at 0,
    # which the prime scans of 1.7 refuse
    status, out = run(capsys, "conjecture", "--preset", "1.8-spot")
    assert status == 0 and "bound=10000 " in out
    status, out = run(capsys, "conjecture", "--preset", "1.8-spot",
                      "--bound", "0")
    assert status == 1 and "bound=10000" not in out
    assert out.count("kind=conjecture bound=0 holds=false ") == out.count("\n")
    status = cli.main(["conjecture", "--preset", "1.7", "--bound", "0"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "error: bound must be >= 2\n"


def test_reduce_record(capsys):
    status, out = run(capsys, "reduce", "--sum", "p5+p5+2p5", "--domain", "Z")
    assert status == 0
    assert "multiplier=24" in out and "constant=4" in out


def test_prime_scan_record(capsys):
    status, out = run(capsys, "prime-scan", "--a", "2", "--shape", "polygonal",
                      "--order", "7", "--universe", "odd", "--bound", "10000")
    assert status == 0
    assert "max=4313" in out


def test_descent_check(capsys):
    status, out = run(capsys, "descent-check", "--op", "split2n", "--args", "11")
    assert status == 0
    assert "result=[2,0,1]" in out
    status, _ = run(capsys, "descent-check", "--op", "split2n", "--args", "3")
    assert status == 2


def test_descent_check_refuses_split_above_limit(capsys):
    status, out = run(capsys, "descent-check", "--op", "split2n",
                      "--args", "100000000000000000000001")
    assert status == 2
    assert out.count("error=") == 1 and "above supported" in out


def test_conjecture_spot(capsys):
    status, out = run(capsys, "conjecture", "--preset", "1.3", "--bound", "2000")
    assert status == 0
    assert out.count("holds=true") == 31


def test_conjecture_ladder(capsys):
    status, out = run(capsys, "conjecture", "--preset", "1.2", "--bound", "5000")
    assert status == 0
    assert out.count("holds=true") == 8


def test_conjecture_z_not_n_spot(capsys):
    status, out = run(capsys, "conjecture", "--preset", "1.8-spot")
    assert status == 0
    assert "holds=false" not in out
    assert out.count("kind=conjecture") >= 20


def test_csv_round_trip(capsys):
    import csv as csvmod
    import io
    status, out = run(capsys, "except", "--sum", "p3+p5+p32", "--domain", "N",
                      "--bound", "10000", "--format", "csv")
    assert status == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0][0] == "kind"
    record = dict(zip(rows[0], rows[1]))
    assert record["result"] == "[31]"


def test_unknown_catalog_id_is_usage_error(capsys, monkeypatch):
    monkeypatch.setitem(cli._CATALOG_FOR_PRESET, "liouville", "no-such-list")
    status, _ = run(capsys, "screen", "--preset", "liouville")
    assert status == 2


def test_internal_key_error_is_not_usage_error(monkeypatch):
    def broken(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "_cmd_descent_check", broken)
    with pytest.raises(KeyError):
        cli.main(["descent-check", "--op", "split2n", "--args", "11"])


def test_prime_scan_reverify_failure(capsys, monkeypatch):
    real_scan = cli.prime_exception_scan
    monkeypatch.setattr(cli, "prime_exception_scan",
                        lambda query, bound: np.append(real_scan(query, bound),
                                                       9999))
    status = cli.main(["prime-scan", "--a", "2", "--bound", "10000"])
    captured = capsys.readouterr()
    assert status == 1
    assert "kind=prime-scan" in captured.out
    assert "kind=reverify-failed" in captured.err and "n=9999" in captured.err
    status = cli.main(["conjecture", "--preset", "1.7", "--bound", "10000"])
    assert status == 1
    assert "kind=reverify-failed" in capsys.readouterr().err


def test_sum_reverify_failure(capsys, monkeypatch):
    # a kernel that drops the representable 20 from the sumset of p4+p5+p8,
    # caught below and above the size where the sieve turns packed
    real_outside = sumset.outside
    monkeypatch.setattr(sumset, "outside", lambda packed, size, stream:
                        np.union1d(real_outside(packed, size, stream), [20]))
    for bound in ("10000", "40000"):
        status = cli.main(["except", "--sum", "p4+p5+p8", "--bound", bound])
        captured = capsys.readouterr()
        assert status == 1, bound
        assert captured.out == ""
        assert captured.err.startswith("kind=reverify-failed ")
        assert "n=20" in captured.err and "sum=p4+p5+p8" in captured.err
        assert "Traceback" not in captured.err


def test_bound_above_sieve_limit_is_usage_error(capsys):
    status, out = run(capsys, "except", "--sum", "p4+p5+p8",
                      "--bound", str(sumset.MAX_RANGE_BOUND + 1))
    assert status == 2 and out == ""


def test_qform_except_reverify_failure(capsys, monkeypatch):
    # a value grid that drops the representable 3 = 1 + 1 + 1
    real_inside = qform.inside

    def dropped(packed, size, stream):
        bits = real_inside(packed, size, stream)
        sumset.clear_bits(bits, np.array([3]))
        return bits

    monkeypatch.setattr(qform, "inside", dropped)
    status = cli.main(["qform-except", "--form", "1,1,1", "--bound", "1000"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("kind=reverify-failed ")
    assert "n=3" in captured.err and "form=1,1,1" in captured.err
    assert "bound=1000" in captured.err
    assert "Traceback" not in captured.err


def test_qform_except_memory_per_integer(capsys):
    # the 333331 exceptions of x^2+y^2+z^2 as a list of Python ints would
    # take 8.6 bytes per integer, and bool grids and the int64 array of all
    # of them 2.37; counted and listed on the packed grid, 0.77
    bound = 2_000_000
    tracemalloc.start()
    try:
        status, out = run(capsys, "qform-except", "--form", "1,1,1",
                          "--bound", str(bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and "count=333331 " in out
    assert peak < 0.95 * bound


def test_except_memory_per_integer(capsys):
    # the one exception of p4+p5+p8 at 2*10^6: a packed sieve inverted in
    # place as the elimination's miss peaks at 0.81 bytes per integer, and
    # a bool sieve packed for it at 1.54
    bound = 2_000_000
    tracemalloc.start()
    try:
        status, out = run(capsys, "except", "--sum", "p4+p5+p8",
                          "--bound", str(bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and "count=1 " in out
    assert peak < 1.0 * bound


def _child_peak_mb(argv):
    """Exit status and peak RSS in MB of one CLI run, started from a small
    interpreter that imports neither numpy nor polysum: a child's ru_maxrss
    also counts the pages of the process it was forked from."""
    code = ("import resource, subprocess, sys\n"
            "status = subprocess.call([sys.executable, '-m', 'polysum.cli',"
            " *sys.argv[1:]], stdout=subprocess.DEVNULL)\n"
            "print(status, resource.getrusage("
            "resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    status, kib = proc.stdout.split()  # ru_maxrss is in KiB on Linux
    return int(status), int(kib) / 1024


# Peak RSS at 10^7 above the same command at 1000, which holds the
# interpreter and numpy (29 MB on a 2-vCPU VM): 2.4 MB for the form grid,
# 3.2 MB for the sieve and 1.6 MB for the prime scan, where bool bitmaps
# over [0, B] took 22.3, 12.6 and 10.5 MB.  At 10^8 the first two peak at
# 54 and 56 MB, against 253 and 152 MB.  The catalog check holds one bool
# scratch array over [0, B] for the family bitmaps, 10 MB: 12 MB in all,
# where unpacked grids and bool comparisons took 29 MB.
_PEAK_ABOVE_BASE_MB = {"qform-verify-catalog": 20}


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv", ["qform-except --form 1,1,1",
                                  "except --sum p4+p5+p8",
                                  "prime-scan --a 2",
                                  "qform-verify-catalog"])
def test_large_bound_peak_rss(argv):
    status, base = _child_peak_mb([*argv.split(), "--bound", "1000"])
    assert status == 0
    status, peak = _child_peak_mb([*argv.split(), "--bound", "10000000"])
    assert status == 0
    assert peak - base < _PEAK_ABOVE_BASE_MB.get(argv, 8), (base, peak)


# verify-reduction folds each progression into a packed frame of about
# bound + 1 entries: at 10^6, 4 MB above the run at 1000 on a 2-vCPU VM,
# where an int64 grid of pair sums, bucketed by an argsort, took 221 MB.
@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
def test_verify_reduction_peak_rss():
    status, base = _child_peak_mb(["verify-reduction", "--bound", "1000"])
    assert status == 0
    status, peak = _child_peak_mb(["verify-reduction", "--bound", "1000000"])
    assert status == 0
    assert peak - base < 16, (base, peak)


# p3+p3+p300000000 over N reduces to a progression whose constant is near
# 9*10^16, so the third variable's y reach about 3*10^8, of which one
# residue class mod 599999996 is allowed: stepped through that class, the
# stream holds a value or two, where an arange over [-y, y] asked for
# 4.5 GiB.  The child sets the address-space limit of 2 GB itself, so that
# such a stream fails here and takes no memory from the machine.
@pytest.mark.skipif(sys.platform != "linux",
                    reason="the address-space limit is measured on Linux")
def test_large_order_reduction_under_an_address_space_limit():
    code = ("import resource, sys\n"
            "limit = 2_000_000 * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from polysum.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify-reduction", "--sum",
         "p3+p3+p300000000", "--domain", "N", "--bound", "100"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert " holds=true " in proc.stdout


# prime-scan over every n lists about half of [0, 10^7], 38 MB as int64, and
# the re-check reads that list: 44 MB above the run at 1000 on a 2-vCPU VM,
# where residues of the whole list took 82 MB.
@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
def test_dense_prime_scan_peak_rss():
    argv = "prime-scan --a 2 --universe all --limit 10".split()
    status, base = _child_peak_mb([*argv, "--bound", "1000"])
    assert status == 0
    status, peak = _child_peak_mb([*argv, "--bound", "10000000"])
    assert status == 0
    assert peak - base < 50, (base, peak)


# Dense exception lists printed in full: the 249502 n missed by p + 2x^2 and
# the 388621 n missed by x^2 + y^2 took 56 and 92 bytes per integer as Python
# lists and tuples; as int64 arrays, formatted a slice at a time, 21 and 24.
@pytest.mark.parametrize("argv,count", [
    ("prime-scan --a 2 --universe all --bound 500000 --limit 500000", 249502),
    ("except --sum p4+p4 --bound 500000", 388621),
])
def test_dense_record_memory_per_integer(capsys, argv, count):
    bound = 500_000
    tracemalloc.start()
    try:
        status, out = run(capsys, *argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and f"count={count} " in out
    assert "truncated=true" not in out
    assert peak < 35 * bound


class _Length:
    """A stdout that keeps only the length of the text written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_record_text_is_never_copied_whole(monkeypatch):
    # the 999 002 n of a dense list at 2*10^6 are 7.4 MB of text, written in
    # slices: the command peaks at 8.8 bytes per integer, in the re-check's
    # residues of the list, and whole copies of the text took 16.3
    bound = 2_000_000
    stdout = _Length()
    monkeypatch.setattr(sys, "stdout", stdout)
    tracemalloc.start()
    try:
        status = cli.main(["prime-scan", "--a", "2", "--universe", "all",
                           "--bound", str(bound), "--limit", "1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and stdout.size == 7_437_627
    assert peak < 12 * bound


def test_qform_except_rechecks_a_large_limit(capsys):
    status, out = run(capsys, "qform-except", "--form", "1,1,1",
                      "--bound", "100000", "--limit", "1000000")
    assert status == 0 and "truncated=false" in out and "count=16664 " in out


def test_qform_coefficient_above_int64_runs(capsys):
    # a coefficient above the bound contributes only z = 0, so the form
    # misses what 1,1,11 misses on [0, 10]
    status, out = run(capsys, "qform-except", "--form",
                      "1,1,99999999999999999999", "--bound", "10")
    assert status == 0
    status, small = run(capsys, "qform-except", "--form", "1,1,11",
                        "--bound", "10")
    assert status == 0 and "count=3 " in small and "result=[3,6,7] " in small
    assert out == small.replace("form=1,1,11", "form=1,1,99999999999999999999")


def test_offset_above_int64_runs(capsys):
    # an offset above the bound reaches no n in [0, 10], in the sieve and
    # in the re-check
    status, out = run(capsys, "except", "--sum", "p4+p4+p4", "--offsets",
                      "99999999999999999999", "--bound", "10")
    assert status == 0
    assert "count=11 " in out and "result=[0,1,2,3,4,5,6,7,8,9,10] " in out


@pytest.mark.parametrize("argv", [
    ["verify-reduction", "--sum", "p11+p13+p19", "--domain", "Z"],
    ["reduce", "--sum", "p31+p33+p39"],
])
def test_large_multiplier_reductions_run(capsys, argv):
    # multipliers 13464 and 266104 put multiplier*bound + constant above
    # the bitmap limit, but only bound + 1 bools and small pair grids are
    # allocated
    status, out = run(capsys, *argv)
    assert status == 0 and "holds=false" not in out


# p3+p1000003+p1000033 over N maps n to M*n + C with M near 8*10^12 and C
# near 2*10^18: at bound 902881 the largest value fits int64, and the sum
# represents 1152921 = p3(1518), which a wrapped progression denied.  One
# bound further, the values would pass int64, and the bound is refused.
# p300001+p300007+p300017 passes it at the construction check's bound of
# 500, so its reduction is refused by both commands.
def test_progression_at_the_int64_edge_holds(capsys):
    status, out = run(capsys, "verify-reduction", "--sum",
                      "p3+p1000003+p1000033", "--domain", "N", "--bound",
                      "902881")
    assert status == 0 and " holds=true " in out
    sum_ = parse_sum("p3+p1000003+p1000033", SumDomain.NATURALS)
    assert sumset.member_with_witness(sum_, 1152921) is not None


@pytest.mark.parametrize("argv", [
    ["verify-reduction", "--sum", "p3+p1000003+p1000033", "--domain", "N",
     "--bound", "902882"],
    ["verify-reduction", "--sum", "p3+p1000003+p1000033", "--domain", "N",
     "--bound", "1200000"],
    ["reduce", "--sum", "p300001+p300007+p300017"],
    ["verify-reduction", "--sum", "p300001+p300007+p300017"],
])
def test_progression_past_int64_is_usage_error(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("error: progression top ")
    assert captured.err.endswith(" above int64\n")
    assert "Traceback" not in captured.err


def test_qform_bound_above_grid_limit_is_usage_error(capsys):
    status, out = run(capsys, "qform-except", "--form", "1,1,1",
                      "--bound", "1000000000")
    assert status == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["qform-except", "--form", "1,1,1", "--bound", "30", "--limit", "-2"],
    ["prime-scan", "--a", "2", "--bound", "1000", "--limit", "-3"],
])
def test_negative_limit_is_usage_error(capsys, argv):
    status, out = run(capsys, *argv)
    assert status == 2 and out == ""


def test_square_shape_with_order_is_usage_error(capsys):
    status = cli.main(["prime-scan", "--a", "2", "--shape", "square",
                       "--order", "5", "--bound", "100"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: square shape takes no order"


def test_prime_residue_without_modulus_is_usage_error(capsys):
    # a residue is never dropped silently; the defaults 0 and 0 still mean
    # no prime filter
    status = cli.main(["prime-scan", "--a", "2", "--prime-residue", "3",
                       "--bound", "1000"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: --prime-residue needs --prime-mod"
    status, out = run(capsys, "prime-scan", "--a", "2", "--prime-mod", "0",
                      "--prime-residue", "0", "--bound", "1000")
    assert status == 0 and "prime-filter= " in out


@pytest.mark.parametrize("modulus, residue", [
    ("99999999999999999999", "1"),  # past int64
    ("2000000000", "2"),  # past the cap but within int64
])
def test_prime_mod_above_sieve_limit_is_usage_error(capsys, modulus, residue):
    start = time.perf_counter()
    status = cli.main(["prime-scan", "--a", "2", "--prime-mod", modulus,
                       "--prime-residue", residue, "--bound", "10"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 2 and captured.out == "" and elapsed < 1.0
    (line,) = captured.err.splitlines()
    assert line == (f"error: prime filter modulus {modulus} above supported "
                    f"{primepoly.MAX_SIEVE_BOUND}")


def test_prime_mod_at_sieve_limit_runs(capsys):
    # 12000000 and 2 are both even, so no odd prime passes: every n is listed
    status, out = run(capsys, "prime-scan", "--a", "2", "--prime-mod",
                      "12000000", "--prime-residue", "2", "--bound", "10")
    assert status == 0
    assert "count=4 " in out and "result=[3,5,7,9] " in out


@pytest.mark.parametrize("argv, search_bound", [
    (["--preset", "liouville", "--bound", "0"], 0),
    # an order tail whose gaps lie past a search bound below the stage
    (["--preset", "thm-1.4", "--search-bound", "40"], 40),
    (["--preset", "thm-1.3", "--search-bound", "2"], 2),
    (["--preset", "unique-29", "--bound", "0"], 0),
])
def test_unclosable_search_bound_is_usage_error(capsys, argv, search_bound):
    status = cli.main(["screen", *argv])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert line.endswith(f"not closable at search bound {search_bound}")


@pytest.mark.parametrize("preset", ["thm-1.3", "liouville", "unique-29"])
@pytest.mark.parametrize("flag, value", [("--bound", "-5"),
                                         ("--search-bound", "-1")])
def test_negative_screen_bound_is_usage_error(capsys, monkeypatch, preset,
                                              flag, value):
    # refused before any screening starts
    def unreachable(*args, **kwargs):
        raise AssertionError("screened")

    monkeypatch.setattr(cli, "screen", unreachable)
    monkeypatch.setattr(cli, "unique_exception_scan", unreachable)
    status = cli.main(["screen", "--preset", preset, flag, value])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {flag} must be >= 0, got {value}"]


def test_clean_prime_scan_runs_no_witness_search(capsys, monkeypatch):
    # a witness is only looked up for an n the batched re-check found
    def refuse(*args, **kwargs):
        raise AssertionError("per-n witness search on a clean scan")

    monkeypatch.setattr(cli, "decomposition_witness", refuse)
    status, out = run(capsys, "prime-scan", "--a", "2", "--universe", "all",
                      "--bound", "100000")
    assert status == 0 and "count=49778 " in out
    status, out = run(capsys, "conjecture", "--preset", "1.7",
                      "--bound", "100000")
    assert status == 0 and "holds=false" not in out


def test_form_commands_do_not_import_numpy_ma():
    code = ("import sys\n"
            "from polysum import cli\n"
            "assert cli.main(['qform-except', '--form', '1,1,1',"
            " '--bound', '10000']) == 0\n"
            "assert cli.main(['verify-reduction']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
