"""Compare two reports of ``run.py --out`` against the bounds of BENCHMARK.json.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the parent (or the first of an A/A pair), ``B`` the change.  For
every (end-to-end metric, workload) pair prints one of

* ``ok``          B is not worse than A by more than the metric's bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the quartile spread of either file's own samples is wider
  than the bound, so the difference cannot be told from noise -- unless
  every sample of one side reads better than every sample of the other.

``failed_frac`` regresses on any increase.  Counts of the counted pass
(they repeat exactly for a seed) are listed when they differ.  Exits
non-zero on any ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: Per-layer metrics that come from counters and so repeat exactly.
COUNT_PREFIXES = ("netsim.", "core.", "multitenant.")
COUNT_EXCLUDED_SUFFIXES = (".self_ms_per_iter", ".calls_per_iter")


def spread(samples: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: float, b: float, bound: float, a_samples: List[float],
            b_samples: List[float], lower_is_better: bool = True) -> str:
    if not lower_is_better:
        a, b = -a, -b
        a_samples = [-x for x in a_samples]
        b_samples = [-x for x in b_samples]
    worse_by = (b - a) / abs(a)
    noisy = max(spread(a_samples), spread(b_samples)) > bound
    if noisy and a_samples and b_samples:
        if max(b_samples) < min(a_samples):
            return "ok"
        if min(b_samples) > max(a_samples) and worse_by > bound:
            return "regressed"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def is_count(name: str) -> bool:
    return name.startswith(COUNT_PREFIXES) and not name.endswith(
        COUNT_EXCLUDED_SUFFIXES
    )


def compare(a: dict, b: dict, spec: dict) -> int:
    regressed = 0
    print(f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A-1':>8s} "
          f"{'bound':>6s}  verdict")
    for workload, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(workload)
        if b_entry is None or "end_to_end" not in a_entry:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a_entry["end_to_end"][name], b_entry["end_to_end"][name]
            result = verdict(
                va, vb, bound,
                a_entry["samples"].get(name, []),
                b_entry["samples"].get(name, []),
                metric["better"] == "lower",
            )
            regressed += result == "regressed"
            print(f"{workload:14s} {name:18s} {va:12.4f} {vb:12.4f} "
                  f"{vb / va - 1:+8.1%} {bound:6.0%}  {result}")
        fa, fb = a_entry["failed_frac"], b_entry["failed_frac"]
        result = "regressed" if fb > fa else "ok"
        regressed += result == "regressed"
        print(f"{workload:14s} {'failed_frac':18s} {fa:12.4f} {fb:12.4f} "
              f"{'':8s} {'any':>6s}  {result}")
        differing = [
            f"{name}: {value!r} -> {b_entry['per_layer'].get(name)!r}"
            for name, value in a_entry.get("per_layer", {}).items()
            if is_count(name) and b_entry.get("per_layer", {}).get(name) != value
        ]
        for line in differing:
            print(f"{workload:14s} count differs  {line}")
    return regressed


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    spec = json.loads(BENCHMARK_JSON.read_text())
    regressed = compare(a, b, spec)
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
