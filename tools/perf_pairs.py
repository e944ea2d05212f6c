#!/usr/bin/env python
"""Interleaved parent/change pairs of the reference benchmark.

This host drifts 10-20% over minutes, so a number in a file says nothing
about a change; a same-session baseline does (ROADMAP aim 1, the
choosing-metrics guide §8).  For each pair this runs

    python3 benchmarks/perf/run.py --workload W --seed S --seconds 12 --trace 0

once in a checkout of ``--baseline-ref`` (made with ``git worktree add`` and
removed afterwards) and once in this tree, alternating which side goes
first, and prints per end-to-end metric: how many pairs the change won, both
medians, and the distance between the parent's quartiles.  Every run is
pyc-free (``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPYCACHEPREFIX`` at an empty
temporary directory), so neither tree imports a stale or a warm ``.pyc``:
both pay the same compile cost, as in a fresh checkout.  A gain counts
only when the change wins at least nine tenths of the pairs (ties count for
neither) and the medians differ by more than that distance.

    python tools/perf_pairs.py --baseline-ref HEAD~1 --workload isw-small
    python tools/perf_pairs.py --baseline-ref HEAD~1 --out benchmarks/results/PERF_PR15.json
    make perf-pairs BASELINE=HEAD~1

``--baseline-dir`` compares against an existing checkout instead (no
worktree is created or removed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run in ``tree``, pyc-free; the parsed last output
    line."""
    with tempfile.TemporaryDirectory(prefix="perf-pairs-pyc-") as pycache:
        env = {
            **os.environ,
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPYCACHEPREFIX": pycache,
        }
        proc = subprocess.run(
            [
                sys.executable, "benchmarks/perf/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=tree, capture_output=True, text=True, env=env,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartile_distance(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def summarise(parent: List[dict], change: List[dict]) -> Dict[str, dict]:
    """Per metric: wins, medians, the parent's quartile distance, verdict."""
    table = {}
    for name, spec in METRICS.items():
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        lower = spec["better"] == "lower"
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        losses = sum(1 for x, y in zip(a, b) if (y > x if lower else y < x))
        med_a, med_b = statistics.median(a), statistics.median(b)
        iqr = quartile_distance(a)
        gained = (med_a - med_b if lower else med_b - med_a) > iqr
        worse_by = (med_b - med_a if lower else med_a - med_b) / abs(med_a)
        if 10 * wins >= 9 * len(a) and gained:
            verdict = "gain"
        elif worse_by > spec["bound"]:
            verdict = "regressed"
        else:
            verdict = "within bound"
        table[name] = {
            "unit": spec["unit"],
            "wins": wins,
            "losses": losses,
            "pairs": len(a),
            "parent_median": med_a,
            "change_median": med_b,
            "ratio": med_b / med_a if med_a else None,
            "parent_quartile_distance": iqr,
            "bound": spec["bound"],
            "verdict": verdict,
            "parent_samples": a,
            "change_samples": b,
        }
    return table


def measure(parent_tree: Path, workload: str, pairs: int, seed: int,
            seconds: float) -> dict:
    parent: List[dict] = []
    change: List[dict] = []
    for pair in range(pairs):
        order = [(parent_tree, parent), (REPO, change)]
        if pair % 2:
            order.reverse()
        for tree, sink in order:
            sink.append(run_once(tree, workload, seed, seconds))
        done = change[-1]["metrics"]["iter_wall_ms"]["value"]
        base = parent[-1]["metrics"]["iter_wall_ms"]["value"]
        print(
            f"  {workload} pair {pair + 1}/{pairs}: iter_wall_ms "
            f"parent {base:.3f} change {done:.3f}",
            file=sys.stderr, flush=True,
        )
    return {
        "pairs": pairs,
        "seed": seed,
        "seconds": seconds,
        "failed": {
            "parent": sum(run["failed"] for run in parent),
            "change": sum(run["failed"] for run in change),
        },
        "attempted": {
            "parent": sum(run["attempted"] for run in parent),
            "change": sum(run["attempted"] for run in change),
        },
        "metrics": summarise(parent, change),
    }


def print_table(workload: str, report: dict) -> None:
    failed = report["failed"]
    print(
        f"\n{workload}: {report['pairs']} pairs, seed {report['seed']}, "
        f"failed parent {failed['parent']} / change {failed['change']}"
    )
    print(
        f"  {'metric':<16} {'wins':>7} {'parent':>10} {'change':>10} "
        f"{'ratio':>6} {'parent IQR':>10}  verdict"
    )
    for name, row in report["metrics"].items():
        print(
            f"  {name:<16} {row['wins']:>3}/{row['pairs']:<3} "
            f"{row['parent_median']:>10.3f} {row['change_median']:>10.3f} "
            f"{row['ratio']:>6.2f} {row['parent_quartile_distance']:>10.3f}  "
            f"{row['verdict']} ({row['unit']})"
        )


def git(*args: str, cwd: Path = REPO) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--baseline-ref", help="git ref of the parent commit")
    source.add_argument("--baseline-dir", type=Path,
                        help="an existing checkout of the parent commit")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all six")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    args = parser.parse_args(argv)

    worktree = None
    if args.baseline_ref:
        worktree = Path(tempfile.mkdtemp(prefix="perf-pairs-")) / "parent"
        git("worktree", "add", "--detach", str(worktree), args.baseline_ref)
        parent_tree = worktree
    else:
        parent_tree = args.baseline_dir.resolve()
    try:
        report = {
            "schema": "repro-perf-pairs-v1",
            "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "command": "benchmarks/perf/run.py --workload W --seed S "
                       "--seconds T --trace 0",
            "parent": git("rev-parse", "HEAD", cwd=parent_tree),
            "change": git("rev-parse", "HEAD"),
            "change_dirty": bool(git("status", "--porcelain")),
            "host": {
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "workloads": {},
        }
        for workload in args.workload or WORKLOADS:
            result = measure(
                parent_tree, workload, args.pairs, args.seed, args.seconds
            )
            report["workloads"][workload] = result
            print_table(workload, result)
            if args.out:  # after every workload: a long session may be cut
                args.out.write_text(json.dumps(report, indent=2) + "\n")
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", str(worktree))
            worktree.parent.rmdir()
    regressed = [
        f"{workload}.{name}"
        for workload, result in report["workloads"].items()
        for name, row in result["metrics"].items()
        if row["verdict"] == "regressed"
    ]
    failed = sum(r["failed"]["change"] for r in report["workloads"].values())
    if regressed or failed:
        print(f"\nregressed: {regressed or 'none'}; failed legs: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
