"""Workload inputs, made from the workload name and the seed alone.

The seed moves each bound down by less than 0.1 % and orders the
report_covers box, so different seeds give different inputs at the same
cost; it also picks the samples the checks draw.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random

from independent import legendre
from published import SURVIVOR_LISTS

WORKLOADS = ("sumset-sweep", "screen-certify", "prime-scan", "form-catalog")

# The five presets whose survivors the CLI diffs against a transcribed list.
CATALOG_PRESETS = {
    "liouville": "liouville-7",
    "thm-1.1i": "thm-1.1i-20",
    "thm-1.3": "thm-1.3-31",
    "thm-1.4": "thm-1.4-64",
    "mixed-34-list": "mixed-34-25",
}

# report_covers box: every thm-1.4 triple whose terms all have a*m <= BOX_Q.
BOX_Q = 12

PRIME_SCAN_A = (2, 3, 29)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _near(rng: random.Random, base: int) -> int:
    return base - rng.randrange(max(1, base // 1000))


def thm14_box(q: int) -> list[tuple[tuple[int, int], ...]]:
    """Triples of (coefficient, order) terms with a*m <= q, max order >= 5
    and some coefficient > 1 (the thm-1.4 space), in display order."""
    terms = sorted(((a, m) for a in range(1, q // 3 + 1)
                    for m in range(3, q // a + 1)), key=lambda t: (t[1], t[0]))
    out = []
    for i, t1 in enumerate(terms):
        for j in range(i, len(terms)):
            for k in range(j, len(terms)):
                triple = (t1, terms[j], terms[k])
                if (max(m for _, m in triple) >= 5
                        and max(a for a, _ in triple) >= 2):
                    out.append(tuple(sorted(triple, key=lambda t: (t[1], t[0]))))
    return out


def make_inputs(workload: str, seed: int) -> dict:
    rng = rng_for(workload, seed)
    if workload == "sumset-sweep":
        return {"conj11_bound": _near(rng, 4_000_000),
                "conj12_bound": _near(rng, 2_000_000),
                "p20_bound": _near(rng, 4_000_000),
                "p4_bound": _near(rng, 200_000)}
    if workload == "screen-certify":
        box = thm14_box(BOX_Q)
        rng.shuffle(box)
        return {"presets": list(CATALOG_PRESETS) + ["unique-29"], "box": box}
    if workload == "prime-scan":
        return {"bound": _near(rng, 10_000_000), "a": list(PRIME_SCAN_A)}
    if workload == "form-catalog":
        split_top = _near(rng, 50_000)
        return {"catalog_bound": _near(rng, 300_000),
                "reduction_bound": 10_000 - rng.randrange(10),
                "reduction_sums": list(SURVIVOR_LISTS["thm-1.5-35"]
                                       + SURVIVOR_LISTS["remaining-35"]),
                "qform_bound": _near(rng, 10_000_000),
                "split_ns": [n for n in range(2, split_top + 1, 3)
                             if not legendre(n)]}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
