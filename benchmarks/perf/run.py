"""The reference benchmark: six user-level workloads, end to end and per layer.

    python3 benchmarks/perf/run.py [--seed 7] [--out report.json]

runs every workload, each in fresh subprocesses, prints every metric by
name with its unit, checks the outputs, and writes one JSON report.  The
driver's form

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload one way and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` for ``--trace 0`` (tracer never imported, telemetry
off), its per-layer metrics for ``--trace 1`` (counted and traced passes).

See README.md in this directory for the workloads, the metric
definitions and how to compare two reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from harness import EXPECTED_PATH, HERE, REPO
from workloads import WORKLOADS

BENCHMARK_JSON = REPO / "BENCHMARK.json"
HARNESS = HERE / "harness.py"

#: One measurement (all the children of one workload and one --trace value)
#: that has not finished by then is killed and the run fails.
MEASUREMENT_TIMEOUT_S = 170.0
#: Fresh processes timed for ``setup_s`` (the measuring child is one).
SETUP_SAMPLES = 3
#: The seed ``expected.json`` pins digests for.
PINNED_SEED = 7


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, deadline: float,
          *extra: str) -> dict:
    """Run ``harness.py`` in a fresh interpreter; return its report with
    ``setup_s``, the time from spawn to the end of its warm-up pass.

    The child gets its own process group, so that when ``deadline`` (on the
    monotonic clock) passes, it and any live workers it forked die together.
    """
    command = [sys.executable, str(HARNESS), "--workload", workload,
               "--seed", str(seed), "--mode", mode, *extra]
    # A fixed hash seed takes set-order effects out of run-to-run noise.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.time()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child of {workload} timed out") from exc
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise ChildFailed(
            f"{mode} child of {workload} exited with {process.returncode}"
        )
    report = json.loads(stdout.decode().strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned_at
    return report


def measure_end_to_end(workload: str, seed: int, seconds: float,
                       smoke: bool) -> dict:
    deadline = time.monotonic() + MEASUREMENT_TIMEOUT_S
    setups = []
    if not smoke:
        setups = [child(workload, seed, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    extra = ["--min-passes", "2"] if smoke else []
    report = child(workload, seed, "e2e", deadline, "--seconds", str(seconds),
                   *extra)
    setups.append(report["setup_s"])
    iterations = WORKLOADS[workload].iterations
    report["metrics"] = {
        "iter_wall_ms": report["iter_wall_ms"],
        "iter_wall_hi_ms": report["iter_wall_hi_ms"],
        "cpu_ms_per_iter": report["cpu_ms_per_iter"],
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    #: What each value is the median (or percentile) of, for compare.py.
    report["samples"] = {
        "iter_wall_ms": [w / iterations for w in report.pop("pass_wall_ms")],
        "cpu_ms_per_iter": [c / iterations for c in report.pop("pass_cpu_ms")],
        "setup_s": setups,
    }
    return report


def measure_per_layer(workload: str, seed: int, seconds: float, smoke: bool,
                      trace_out: Optional[str]) -> dict:
    extra = ["--seconds", str(seconds)]
    if smoke:
        extra += ["--min-passes", "2", "--max-traced", "1"]
    if trace_out:
        extra += ["--trace-out", trace_out]
    deadline = time.monotonic() + MEASUREMENT_TIMEOUT_S
    return child(workload, seed, "layers", deadline, *extra)


def update_expected(seed: int) -> None:
    legs: Dict[str, dict] = {}
    for name in WORKLOADS:
        deadline = time.monotonic() + MEASUREMENT_TIMEOUT_S
        legs.update(child(name, seed, "expected", deadline)["digests"])
    EXPECTED_PATH.write_text(
        json.dumps({"seed": seed, "legs": legs}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {EXPECTED_PATH} ({len(legs)} legs, seed {seed})")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_metrics(workload: str, metrics: Dict[str, float],
                  definitions: List[dict], note: str) -> Dict[str, dict]:
    """Print every defined metric by name with its unit; returns the
    ``{"name": {"value", "unit"}}`` form of the driver's contract."""
    print(f"== {workload}: {note}")
    out = {}
    for definition in definitions:
        name, unit = definition["name"], definition["unit"]
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        print(f"{workload:14s} {name:42s} {value:14.6g} {unit}")
    return out


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.decode().strip() or "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each measurement runs timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="two timed passes, one traced pass, one set-up "
                             "sample: for self-tests")
    parser.add_argument("--out", help="write the JSON report here (and the "
                        "last traced pass's spans next to it)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json for --seed and exit")
    args = parser.parse_args(argv)

    if args.update_expected:
        update_expected(args.seed)
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = 0.0 if args.smoke else args.seconds
    report = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    def measure(name: str):
        e2e = layers = None
        if args.trace in (None, 0):
            e2e = measure_end_to_end(name, args.seed, seconds, args.smoke)
        if args.trace in (None, 1):
            trace_out = None
            if args.out:
                trace_out = f"{args.out.removesuffix('.json')}.trace.{name}.json"
            layers = measure_per_layer(
                name, args.seed, seconds, args.smoke, trace_out)
        return name, e2e, layers

    correct, attempted, failed = True, 0, 0
    contract_metrics: Dict[str, dict] = {}
    # Timed runs measure one workload at a time; a smoke run times nothing
    # worth keeping, so it may as well use every core.
    workers = os.cpu_count() if args.smoke else 1
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for name, e2e, layers in pool.map(measure, names):
            entry = report["workloads"][name] = {"why": WORKLOADS[name].why}
            if name == "live-loopback":
                entry["network"] = "loopback"
            if e2e is not None:
                note = (f"{e2e['passes']} timed passes, iter_wall_hi_ms = "
                        f"{e2e['metrics']['iter_wall_hi_ms']:.6g} ms at "
                        f"p{e2e['hi_percentile']:.0f}")
                contract_metrics = print_metrics(
                    name, e2e["metrics"], spec["end_to_end"], note)
                entry.update(
                    end_to_end=e2e["metrics"], samples=e2e["samples"],
                    passes=e2e["passes"], hi_percentile=e2e["hi_percentile"],
                    legs=e2e["legs"],
                )
            if layers is not None:
                note = (f"{layers['passes']} untraced, 1 counted, "
                        f"{layers['traced_passes']} traced passes")
                contract_metrics = print_metrics(
                    name, layers["metrics"], spec["per_layer"], note)
                entry.update(
                    per_layer=layers["metrics"],
                    unresolved_names=layers["unresolved_names"],
                )
            parts = [p for p in (e2e, layers) if p is not None]
            entry["attempted"] = sum(p["attempted"] for p in parts)
            entry["failed"] = sum(p["failed"] for p in parts)
            entry["failed_frac"] = entry["failed"] / entry["attempted"]
            entry["failures"] = [f for p in parts for f in p["failures"]]
            print(f"{name:14s} {'failed_frac':42s} {entry['failed_frac']:14.6g} "
                  f"1 ({entry['failed']} of {entry['attempted']} iterations)")
            attempted += entry["attempted"]
            failed += entry["failed"]
            correct = correct and entry["failed"] == 0
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        pool.shutdown(cancel_futures=True)
    if args.out:
        report.update(host=host_info(), git_sha=git_sha())
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.workload and args.trace is not None:
        # The driver's contract: one result object as the last line.
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": contract_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
