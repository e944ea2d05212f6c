"""Measure one workload in this process (the child that ``run.py`` spawns).

Shape of a run: import ``repro`` -> build inputs (sim twins of the live
legs) -> one untimed warm-up pass -> timed passes with ``gc.collect()``
untimed before each.  ``--mode layers`` alternates those with traced passes
(wrappers installed from :mod:`tracing` for one pass at a time) and ends
with one counted pass (``telemetry=True``); the end-to-end mode never
imports the tracer and never turns telemetry on.

A *pass* runs every leg of the workload once.  Each leg's output is
checked after its clock stops; a leg that raises, times out or fails its
check fails all of its iterations and the run goes on.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from layers import LAYERS
from workloads import LEG_NAMES, WORKLOADS, Leg, Workload

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
EXPECTED_PATH = HERE / "expected.json"

#: Wall-clock ceiling for one leg; a leg past it fails all its iterations.
LEG_TIMEOUT_S = 60.0

#: Counted-pass metrics: name -> telemetry series summed over the legs.
COUNTED_SERIES = {
    "netsim.events": "sim.events_processed",
    "netsim.tx_packets": "link.tx_packets",
    "netsim.tx_bytes": "link.tx_bytes",
    "netsim.packets_dropped": "link.packets_dropped",
    "core.contributions": "switch.contributions",
    "core.segments_completed": "switch.segments_completed",
    "core.result_broadcasts": "switch.result_broadcasts",
    "core.help_requests": "client.help_requests",
    "core.retransmissions": "client.retransmissions",
    "core.duplicates_dropped": "switch.duplicates_dropped",
    "core.rounds_abandoned": "worker.updates_missed",
    "multitenant.jobs_completed": "job.completed",
    "multitenant.jobs_queued": "job.queued",
}
#: Counted metrics reported per iteration; the rest are totals of one pass.
PER_ITERATION = (
    "netsim.events", "netsim.tx_packets", "netsim.tx_bytes",
    "core.contributions", "core.segments_completed", "core.result_broadcasts",
)
LIVE_COUNTERS = (
    "frames_tx", "frames_rx", "help_sent", "retransmissions",
    "watchdog_timeouts", "decode_errors",
)


class CheckError(AssertionError):
    """A leg ran to completion but its output is wrong."""


class LegTimeout(RuntimeError):
    pass


def load_program():
    """Import the program under test from this checkout's ``src/``."""
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.distributed
    import repro.multitenant.soak

    return repro.distributed, repro.multitenant.soak


def run_leg(program, leg: Leg, seed: int, telemetry: bool = False):
    """One blocking user-level call.  Looked up through the module on every
    call so that an installed tracer sees it."""
    distributed, soak = program
    if leg.kind == "soak":
        return soak.run_soak(seed=seed, telemetry=telemetry, **leg.config)
    return distributed.run(
        distributed.ExperimentConfig(seed=seed, telemetry=telemetry, **leg.config)
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def weight_hash(weights) -> str:
    """The ``weight_hash`` recipe of ``tests/test_collectives.py``."""
    return hashlib.sha256(
        np.ascontiguousarray(weights, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def leg_digest(leg: Leg, outcome, twin=None) -> Dict[str, str]:
    """Check what one outcome can be checked for on its own and return the
    values that must repeat exactly from pass to pass."""
    if leg.kind == "soak":
        fabric, report = outcome
        if not report.ok:
            raise CheckError(f"soak report not ok: {report.summary_lines()}")
        weights = np.concatenate(
            [fabric.final_weights(job) for job in sorted(fabric.handles)]
        )
        return {"weights": weight_hash(weights), "elapsed": repr(report.sim_elapsed)}
    if leg.kind == "live":
        if not outcome.round_digests:
            raise CheckError("live run reported no agreed round digests")
        for rank, expected in enumerate(twin):
            if not np.array_equal(outcome.final_weights[rank], expected):
                raise CheckError(
                    f"live rank {rank} final weights differ from the "
                    "deterministic_aggregation=True simulated twin"
                )
        return {"weights": weight_hash(outcome.final_weights[0])}
    replicas = [w.algorithm.get_weights() for w in outcome.workers]
    if leg.kind == "sync":
        # Under loss a recovered round can reach the replicas with different
        # float32 summation orders (seen for 9 seeds in 10 at loss_rate=0.01),
        # so there they must agree to float32 rounding, not bit for bit.
        if leg.config.get("loss_rate"):
            tol = 16 * np.finfo(np.float32).eps
            same = functools.partial(np.allclose, rtol=tol, atol=tol)
        else:
            same = np.array_equal  # no temporaries: peak RSS stays the program's
        for rank, weights in enumerate(replicas[1:], start=1):
            if not same(weights, replicas[0]):
                raise CheckError(f"replica {rank} disagrees with replica 0")
    return {"weights": weight_hash(replicas[0]), "elapsed": repr(outcome.elapsed)}


def load_expected(seed: int) -> Dict[str, Dict[str, str]]:
    """Pinned digests for ``seed``, or nothing if that seed is not pinned."""
    try:
        pinned = json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}
    return pinned["legs"] if pinned["seed"] == seed else {}


# ----------------------------------------------------------------------
# Running legs and passes
# ----------------------------------------------------------------------
def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _on_alarm(signum, frame):
    raise LegTimeout(f"leg exceeded {LEG_TIMEOUT_S:.0f} s")


@dataclass
class PassSample:
    wall: Dict[str, float] = field(default_factory=dict)
    cpu: Dict[str, float] = field(default_factory=dict)

    @property
    def total_wall(self) -> float:
        return sum(self.wall.values())

    @property
    def total_cpu(self) -> float:
        return sum(self.cpu.values())


class Runner:
    """Runs passes of one workload and keeps the failure ledger."""

    def __init__(self, workload: Workload, seed: int, program=None,
                 leg_runner: Callable = run_leg) -> None:
        self.workload = workload
        self.seed = seed
        self.program = program
        self.leg_runner = leg_runner
        self.attempted = 0
        self.failed = 0
        self.failures: List[dict] = []
        #: leg -> digest every later pass must reproduce (pinned for the
        #: pinned seed, else taken from the first pass).
        self.reference: Dict[str, Dict[str, str]] = dict(load_expected(seed))
        self.observed: Dict[str, Dict[str, str]] = {}
        self.twins: Dict[str, list] = {}

    def build_inputs(self) -> None:
        """Simulated twins of the live legs: the weights they must reach."""
        for leg in self.workload.legs:
            if leg.kind != "live":
                continue
            config = {k: v for k, v in leg.config.items() if k != "backend"}
            twin = Leg(leg.name, leg.iterations, "sync",
                       dict(config, deterministic_aggregation=True))
            result = self.leg_runner(self.program, twin, self.seed)
            self.twins[leg.name] = [
                np.asarray(w.algorithm.get_weights(), dtype=np.float64)
                for w in result.workers
            ]

    def run_pass(self, telemetry: bool = False,
                 on_outcome: Optional[Callable] = None) -> PassSample:
        sample = PassSample()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            self._run_legs(sample, telemetry, on_outcome)
        finally:
            signal.signal(signal.SIGALRM, previous)
        return sample

    def _run_legs(self, sample: PassSample, telemetry: bool,
                  on_outcome: Optional[Callable]) -> None:
        for leg in self.workload.legs:
            self.attempted += leg.iterations
            error = None
            cpu0 = time.process_time() + _children_cpu()
            signal.setitimer(signal.ITIMER_REAL, LEG_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                outcome = self.leg_runner(self.program, leg, self.seed, telemetry)
            except Exception:  # the run must go on: record and count the leg
                outcome = None
                error = traceback.format_exc(limit=8)
            finally:
                wall = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            sample.wall[leg.name] = wall
            sample.cpu[leg.name] = time.process_time() + _children_cpu() - cpu0
            if error is None:
                error = self._check(leg, outcome)
            if error is None and on_outcome is not None:
                on_outcome(leg, outcome)
            del outcome
            if error is not None:
                self.failed += leg.iterations
                self.failures.append(
                    {"leg": leg.name, "config": leg.config, "seed": self.seed,
                     "telemetry": telemetry, "error": error}
                )
                print(
                    f"FAILED leg {leg.name} seed={self.seed} "
                    f"telemetry={telemetry} config={leg.config}\n{error}",
                    file=sys.stderr,
                )

    def _check(self, leg: Leg, outcome) -> Optional[str]:
        try:
            digest = leg_digest(leg, outcome, self.twins.get(leg.name))
        except CheckError as exc:
            return f"output check failed: {exc}"
        self.observed[leg.name] = digest
        reference = self.reference.setdefault(leg.name, digest)
        if digest != reference:
            return f"output check failed: got {digest}, expected {reference}"
        return None


def timed_passes(runner: Runner, seconds: float,
                 min_passes: int) -> List[PassSample]:
    """Timed passes until ``seconds`` have gone by, at least ``min_passes``."""
    samples: List[PassSample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        samples.append(runner.run_pass())
    return samples


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def high_percentile(values: List[float]) -> tuple:
    """``(value, percentile)`` of the highest order statistic that has ten
    samples beyond it, or a quarter of the samples when there are fewer
    than forty (the run length the driver allows fits 13 to 20 passes, for
    which "ten beyond" would fall below the median)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - min(10, n // 4)  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def end_to_end(workload: Workload, samples: List[PassSample]) -> dict:
    iterations = workload.iterations
    walls = [s.total_wall for s in samples]
    cpus = [s.total_cpu for s in samples]
    to_ms = 1e3 / iterations
    hi, percentile = high_percentile(walls)
    return {
        "passes": len(samples),
        "hi_percentile": percentile,
        "iter_wall_ms": statistics.median(walls) * to_ms,
        "iter_wall_hi_ms": hi * to_ms,
        "cpu_ms_per_iter": statistics.median(cpus) * to_ms,
        "peak_rss_mb": peak_rss_mb(),
        "pass_wall_ms": [w * 1e3 for w in walls],
        "pass_cpu_ms": [c * 1e3 for c in cpus],
        "legs": leg_walls(workload, samples),
    }


def leg_walls(workload: Workload, samples: List[PassSample]) -> Dict[str, float]:
    """leg -> median wall milliseconds per iteration of that leg."""
    return {
        leg.name: statistics.median(s.wall[leg.name] for s in samples)
        * 1e3 / leg.iterations
        for leg in workload.legs
    }


# ----------------------------------------------------------------------
# Per-layer measurement
# ----------------------------------------------------------------------
def counted_pass(runner: Runner, base_wall: float) -> Dict[str, float]:
    """One pass with telemetry on: counts that repeat exactly for a seed."""
    totals = dict.fromkeys(COUNTED_SERIES, 0.0)
    peak_concurrent = 0

    def collect(leg: Leg, outcome) -> None:
        nonlocal peak_concurrent
        if leg.kind == "soak":
            fabric, report = outcome
            snapshot = fabric.hub.snapshot()
            peak_concurrent = max(peak_concurrent, report.peak_concurrent)
        else:
            snapshot = outcome.telemetry
        if leg.kind == "live" or snapshot is None:
            return  # live children are not counted through telemetry
        for name, series in COUNTED_SERIES.items():
            totals[name] += snapshot.value(series)

    gc.collect()
    sample = runner.run_pass(telemetry=True, on_outcome=collect)
    iterations = runner.workload.iterations
    metrics = {}
    for name, total in totals.items():
        if name in PER_ITERATION:
            metrics[f"{name}_per_iter"] = total / iterations
        else:
            metrics[name] = total
    metrics["multitenant.peak_concurrent"] = float(peak_concurrent)
    metrics["telemetry.on_wall_ratio"] = sample.total_wall / base_wall
    return metrics


class LiveCounters:
    """Protocol counters of the latest run of each live leg, summed over
    its worker and server processes."""

    def __init__(self) -> None:
        self.latest: Dict[str, Dict[str, int]] = {}

    def __call__(self, leg: Leg, outcome) -> None:
        if leg.kind != "live":
            return
        counters = list(outcome.worker_counters.values())
        if outcome.server_stats:
            counters.append(outcome.server_stats)
        self.latest[leg.name] = {
            name: sum(c.get(name, 0) for c in counters) for name in LIVE_COUNTERS
        }


def live_metrics(runner: Runner, samples: List[PassSample],
                 counters: LiveCounters) -> Dict[str, float]:
    """Counters of one pass of the live legs, the wall of a one-iteration
    live run, and CPU seconds per wall second over the timed passes."""
    metrics = {
        f"live.{name}": float(sum(c[name] for c in counters.latest.values()))
        for name in LIVE_COUNTERS
    }
    metrics["live.spawn_teardown_ms"] = 0.0
    metrics["live.cpu_per_wall"] = 0.0
    live_legs = [leg for leg in runner.workload.legs if leg.kind == "live"]
    if not live_legs:
        return metrics
    first = live_legs[0]
    one = Leg(first.name, 1, "live", dict(first.config, iterations=1))
    t0 = time.perf_counter()
    runner.leg_runner(runner.program, one, runner.seed)
    metrics["live.spawn_teardown_ms"] = (time.perf_counter() - t0) * 1e3
    wall = sum(s.wall[leg.name] for s in samples for leg in live_legs)
    cpu = sum(s.cpu[leg.name] for s in samples for leg in live_legs)
    metrics["live.cpu_per_wall"] = cpu / wall
    return metrics


def interleaved_passes(runner: Runner, seconds: float, min_passes: int,
                       max_traced: Optional[int], trace_out: Optional[str],
                       on_outcome: Callable):
    """Alternate untraced and traced passes for ``seconds``.

    Interleaving keeps host drift out of ``traced wall - untraced wall``,
    which is what the overhead correction spreads over the layers.  The
    tracer is installed for one pass at a time, so untraced passes run the
    program exactly as the end-to-end mode does.  Returns ``(untraced
    samples, traced profiles, traced / untraced wall - 1, table names that
    did not resolve)``.
    """
    import tracing

    samples: List[PassSample] = []
    profiles: List["tracing.PassProfile"] = []
    cost = tracer = None
    untraced_leg_runner = runner.leg_runner
    deadline = time.perf_counter() + seconds
    while len(samples) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        samples.append(runner.run_pass(on_outcome=on_outcome))
        if max_traced is not None and len(profiles) >= max_traced:
            continue
        tracer = tracing.Tracer()
        tracer.install()
        runner.leg_runner = tracer.rooted(untraced_leg_runner)
        try:
            if cost is None:
                cost = tracer.calibrate()
            gc.collect()
            tracer.begin_pass()
            runner.run_pass()
            profiles.append(tracer.finish_pass())
        finally:
            runner.leg_runner = untraced_leg_runner
            tracer.uninstall()
    if trace_out:
        tracer.dump(trace_out)
    base_wall = statistics.median(s.total_wall for s in samples)
    overhead = statistics.median(p.wall for p in profiles) / base_wall - 1
    for profile in profiles:
        profile.subtract_overhead(cost, base_wall)
    return samples, profiles, overhead, tracer.missing


def layer_metrics(profiles, iterations: int) -> Dict[str, float]:
    """Per-layer self time and calls per iteration: medians over passes."""
    median = statistics.median
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_iter"] = (
            median(p.self_seconds[layer] for p in profiles) * 1e3 / iterations
        )
        metrics[f"{layer}.calls_per_iter"] = (
            median(p.calls[layer] for p in profiles) / iterations
        )
    batch = "core.accelerator:AggregationEngine.contribute_batch"
    metrics["core.accelerator.batch_calls_per_iter"] = (
        median(p.name_calls.get(batch, 0) for p in profiles) / iterations
    )
    metrics["trace.unattributed_frac"] = median(
        p.unattributed_frac for p in profiles
    )
    return metrics


def per_layer(runner: Runner, seconds: float, min_passes: int,
              max_traced: Optional[int], trace_out: Optional[str]) -> dict:
    counters = LiveCounters()
    samples, profiles, overhead, missing = interleaved_passes(
        runner, seconds, min_passes, max_traced, trace_out, counters
    )
    base_wall = statistics.median(s.total_wall for s in samples)
    metrics = layer_metrics(profiles, runner.workload.iterations)
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.unresolved_names"] = float(len(missing))
    metrics.update(counted_pass(runner, base_wall))
    metrics.update(live_metrics(runner, samples, counters))
    walls = leg_walls(runner.workload, samples)
    for name in LEG_NAMES:
        metrics[f"leg.{name}.iter_wall_ms"] = walls.get(name, 0.0)
    return {
        "metrics": metrics,
        "passes": len(samples),
        "traced_passes": len(profiles),
        "unresolved_names": missing,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "e2e", "layers", "expected"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--max-traced", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, load_program())
    if args.mode == "expected":
        runner.reference = {}
    runner.build_inputs()
    runner.run_pass()  # warm-up: every leg once, untimed
    report = {"workload": workload.name, "seed": args.seed,
              "ready_at": time.time()}
    if args.mode == "e2e":
        samples = timed_passes(runner, args.seconds, args.min_passes)
        report.update(end_to_end(workload, samples))
    elif args.mode == "layers":
        report.update(per_layer(runner, args.seconds, args.min_passes,
                                args.max_traced, args.trace_out))
    elif args.mode == "expected":
        report["digests"] = runner.observed
    report.update(
        attempted=runner.attempted, failed=runner.failed,
        failures=runner.failures,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
