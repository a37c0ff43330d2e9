"""polysum benchmark: time to a verified answer, set-up time and peak memory.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --steady K [--seconds S]
    python3 perfbench/run.py --scaling

Run from the root of a polysum checkout; the program is imported from
``src/``.  Each round of a workload runs in a fresh process (see worker.py)
and is a closed loop: one operation at a time, each started when the last
has returned.  Rounds repeat until ``--seconds`` have passed, and every
metric is the median over the rounds.  The first round's outputs are
checked against independent computations (checks.py); every later round
must give the same outputs.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` the same object carries the
per-layer metrics of traced rounds instead (spans.py), plus the tracing
overhead.  ``--steady K`` runs the benchmark K times with seeds N..N+K-1
and prints each end-to-end metric's median and interquartile spread.
``--scaling`` times sumset.range_sieve at four bounds (reference only).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_inputs  # noqa: E402

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
# A run, set-up and checks included, must end within this many seconds.
RUN_LIMIT_S = 175
# setup_s is the median of at least this many process starts per run; runs
# with fewer rounds add processes that only set up.
SETUP_SAMPLES = 10


class RoundFailed(RuntimeError):
    pass


def spawn_round(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its JSON result."""
    spawned = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode,
           "--spawned-ns", str(spawned)]
    # POLYSUM_WORKERS stays unset: the sieve uses its default, the CPU count
    env = {k: v for k, v in os.environ.items() if k != "POLYSUM_WORKERS"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round ({mode}) ran past the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"{workload} round ({mode}) exited with "
                          f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def compile_sources() -> None:
    """Byte-compile polysum and the benchmark once, as an installed package
    is, so that set-up time measures imports and not compilation (which
    PYTHONDONTWRITEBYTECODE would otherwise repeat in every process)."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE],
                   check=True, capture_output=True, timeout=120)


def _outputs(result: dict) -> list:
    return [op["output"] for op in result["ops"]] + [result.get("certificates")]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Rounds until ``seconds`` have passed, then checks and metrics."""
    from checks import check_round

    compile_sources()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    first = None
    differing = 0

    def spawn(mode: str) -> dict:
        """One round; its outputs are kept for the first round only, the
        others are compared with them and dropped."""
        nonlocal first, differing
        result = spawn_round(workload, seed, mode, deadline)
        if first is None:
            first = result
            return result
        differing += _outputs(result) != _outputs(first)
        result.pop("certificates", None)
        for op in result["ops"]:
            del op["output"]
        return result

    plain: list[dict] = []
    traced: list[dict] = []
    alloc = None
    while not plain or time.monotonic() - start < seconds:
        plain.append(spawn("plain"))
        if trace:
            traced.append(spawn("spans"))
            if alloc is None:
                alloc = spawn("alloc")
    rounds = plain + traced + ([alloc] if alloc else [])
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn_round(workload, seed, "setup", deadline)["setup_s"])

    errors = check_round(workload, seed, make_inputs(workload, seed), first)
    if differing:
        errors.append(f"{differing} rounds gave other outputs than the first")
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(op["items"] for r in rounds for op in r["ops"])
    failed = sum(op["failed"] for r in rounds for op in r["ops"])

    if not trace:
        metrics = {"setup_s": _metric(statistics.median(setups), "s")}
        metrics.update({name: _metric(statistics.median(r[name] for r in plain),
                                      END_TO_END[name])
                        for name in ("solve_s", "peak_rss_mb")})
    else:
        metrics = layer_report(plain, traced, alloc)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_computed") or name.endswith("_bytes"):
        return "B"
    if name.endswith("ratio") or name.endswith("coverage"):
        return "ratio"
    return "count"


def layer_report(plain: list[dict], traced: list[dict], alloc: dict) -> dict:
    """Per-layer medians over the traced rounds, allocation peaks from the
    tracemalloc round, and what tracing cost."""
    names = [k for k in traced[0]["layers"] if k != "trace.top_level_s"]
    out = {}
    for name in names:
        source = [alloc] if name.endswith("alloc_peak_mb") else traced
        values = [r["layers"][name] for r in source]
        # counts repeat exactly from round to round; keep them whole
        median = statistics.median_low if _unit(name) in ("count", "B") \
            else statistics.median
        out[name] = _metric(median(values), _unit(name))
    untraced = statistics.median(r["solve_s"] for r in plain)
    solve = statistics.median(r["solve_s"] for r in traced)
    coverage = statistics.median(r["layers"]["trace.top_level_s"] / r["solve_s"]
                                 for r in traced)
    out["trace.solve_s"] = _metric(solve, "s")
    out["trace.overhead_s"] = _metric(solve - untraced, "s")
    out["trace.top_coverage"] = _metric(coverage, "ratio")
    return out


def steady(workload: str, seed: int, seconds: int, k: int) -> dict:
    """Run the benchmark k times with seeds seed..seed+k-1; report each
    end-to-end metric's median and interquartile spread over median."""
    values: dict[str, list[float]] = {name: [] for name in END_TO_END}
    failed = []
    for s in range(seed, seed + k):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(s), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        failed.append(result["failed"] / result["attempted"])
        for name in END_TO_END:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {s}: " + " ".join(f"{n}={v[-1]:.4f}"
                                       for n, v in values.items()), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals),
                         "iqr_share": (q3 - q1) / statistics.median(vals),
                         "values": vals}
        print(f"{name}: median {summary[name]['median']:.4f} "
              f"iqr/median {summary[name]['iqr_share']:.4f}")
    return {"workload": workload, "runs": k, "failed_share": failed,
            "metrics": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    parser.add_argument("--scaling", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polysum", "__init__.py")):
        print("error: no polysum sources under src/; run from the root of a "
              "polysum checkout", file=sys.stderr)
        return 2
    if args.scaling:
        from scaling import sweep
        print(json.dumps(sweep()))
        return 0
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and --seconds >= 1 are required")
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        print(json.dumps(steady(args.workload, args.seed, args.seconds,
                                args.steady)))
        return 0
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
