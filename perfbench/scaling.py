"""Reference scaling sweep of sumset.range_sieve (not a workload).

    python3 perfbench/run.py --scaling

Times the sieve kernel on p4+p5+p8 over N at B = 10^5, 10^6, 4*10^6 and
10^7, each bound in a fresh process so no value cache is warm.  The big-int
shift-or path costs about B*sqrt(B): sqrt(B) passes over a (B+1)-bit map.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from worker import peak_rss_kb

BOUNDS = (100_000, 1_000_000, 4_000_000, 10_000_000)
SUM = "p4+p5+p8"


def one(bound: int) -> dict:
    from polysum.polycore import SumDomain, parse_sum
    from polysum.sumset import range_sieve

    sum_ = parse_sum(SUM, SumDomain.NATURALS)
    start = time.perf_counter()
    bits = range_sieve(sum_.terms, sum_.domain, bound)
    seconds = time.perf_counter() - start
    return {"sum": SUM, "bound": bound, "seconds": seconds,
            "missing": bound + 1 - bits.count(),
            "peak_rss_mb": peak_rss_kb() / 1024}


def sweep() -> list[dict]:
    out = []
    for bound in BOUNDS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               str(bound)], capture_output=True, text=True,
                              check=True)
        out.append(json.loads(proc.stdout))
        print(f"B={bound}: {out[-1]['seconds']:.3f} s, "
              f"{out[-1]['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return out


if __name__ == "__main__":
    print(json.dumps(one(int(sys.argv[1]))))
