#!/usr/bin/env python
"""What telemetry costs: the ``isw-small`` legs with it on and off.

Each pair runs the three ``isw-small`` legs of the reference benchmark
(``benchmarks/perf/workloads.py``: sync-isw n=4 and n=12, async-isw n=4)
once with ``telemetry=True`` and once with ``telemetry=False``, in one
process, alternating which goes first, and prints the median on/off wall
ratio over the pairs with both medians.  Informational only: the
benchmark's end-to-end mode never turns telemetry on.

    python tools/telemetry_ratio.py [--pairs 7] [--seed 7] [--out R.json]
    python tools/telemetry_ratio.py --src <other checkout>/src
    make telemetry-ratio
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--src", type=Path, default=REPO / "src",
        help="the source tree to time (default: this checkout's src/)",
    )
    parser.add_argument("--out", type=Path, help="write the result as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 5:
        parser.error("--pairs must be at least 5")
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(REPO / "benchmarks" / "perf"))
    from workloads import WORKLOADS

    from repro.distributed import ExperimentConfig, run

    legs = WORKLOADS["isw-small"].legs

    def wall(telemetry: bool) -> float:
        gc.collect()
        start = time.perf_counter()
        for leg in legs:
            run(ExperimentConfig(**leg.config, seed=args.seed, telemetry=telemetry))
        return time.perf_counter() - start

    wall(True)  # imports and first-call caches out of the pairs
    on, off = [], []
    for pair in range(args.pairs):
        for telemetry in ((True, False) if pair % 2 else (False, True)):
            (on if telemetry else off).append(wall(telemetry))
    ratios = [a / b for a, b in zip(on, off)]
    result = {
        "workload": "isw-small",
        "legs": [leg.name for leg in legs],
        "seed": args.seed,
        "pairs": args.pairs,
        "src": str(args.src),
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "wall_on_s": on,
        "wall_off_s": off,
        "median_on_s": statistics.median(on),
        "median_off_s": statistics.median(off),
        "median_ratio": statistics.median(ratios),
    }
    print(
        f"isw-small, {args.pairs} pairs: telemetry on "
        f"{result['median_on_s']:.3f} s, off {result['median_off_s']:.3f} s, "
        f"median on/off ratio {result['median_ratio']:.2f}"
    )
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
