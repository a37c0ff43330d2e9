import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polysum import catalog, cli, primepoly, qform, sumset
from polysum.polycore import poly_value


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
    # a kernel that drops the representable 20 from the sumset of p4+p5+p8
    real_outside = sumset.outside
    monkeypatch.setattr(sumset, "outside", lambda bits, stream:
                        np.union1d(real_outside(bits, stream), [20]))
    status = cli.main(["except", "--sum", "p4+p5+p8", "--bound", "10000"])
    captured = capsys.readouterr()
    assert status == 1
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
    real_reachable = qform._reachable

    def dropped(form, top):
        bits = real_reachable(form, top)
        sumset.clear_bits(bits, np.array([3]))
        return bits

    monkeypatch.setattr(qform, "_reachable", dropped)
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
# interpreter and numpy (29 MB on a 2-vCPU VM): 2.4 MB for the form grid
# and 3.2 MB for the sieve, where bool bitmaps over [0, B] took 22.3 and
# 12.6 MB.  At 10^8 they peak at 54 and 56 MB, against 253 and 152 MB.
@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv", ["qform-except --form 1,1,1",
                                  "except --sum p4+p5+p8"])
def test_large_bound_peak_rss(argv):
    status, base = _child_peak_mb([*argv.split(), "--bound", "1000"])
    assert status == 0
    status, peak = _child_peak_mb([*argv.split(), "--bound", "10000000"])
    assert status == 0
    assert peak - base < 8, (base, peak)


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


def test_record_text_is_never_copied_whole(monkeypatch):
    # the 999 002 n of a dense list at 2*10^6 are 7.4 MB of text, written in
    # slices: the scan's class lists and their merge peak at 9.7 bytes per
    # integer, and whole copies of the text took 16.3
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
    (["--preset", "liouville", "--bound", "-5"], -5),
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
