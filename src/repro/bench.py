"""Wall-clock benchmark harness for the simulator itself.

Everything else in this repository measures *simulated* time; this module
measures how long the simulation takes to run on the host.  It drives a
fixed scenario matrix —

* every registered strategy (sync ps/ar/ar-hd/ps-shard/isw, async ps/isw)
  at 4 and 8 workers on the ``synth`` workload, whose near-zero local
  compute makes runs network-simulation-bound;
* one chaos run replaying ``examples/chaos_demo.json`` through the fault
  injector (worker crash + switch reset + loss burst);
* one multi-job soak run (32 mixed jobs through one shared fabric);
* DQN training runs on the real ``dqn`` workload (compute-bound, unlike
  ``synth``), so the compute tier (DESIGN.md §13) is timed end to end;
* six microbenchmarks isolating the hot paths: event-loop dispatch,
  link transmission, accelerator segment aggregation, and the three
  compute-side paths (vectorized env stepping, ring-buffer replay
  sampling, fused optimizer updates)

— and writes a schema'd JSON report (median/p90 wall seconds, events/sec,
packets/sec, host info).  Scenarios run whatever transport ``repro train``
would pick for the same config (trains where exact, per-packet for the
chaos and soak scenarios: DESIGN.md §11.2); the parameters are recorded
per scenario so reports stay self-describing.

``--baseline`` embeds a previous report plus per-scenario speedups; it
defaults to the newest checked-in result listed in
``benchmarks/results/MANIFEST.json`` (pass ``none`` to disable).
``--max-regression FRAC`` turns the run into a CI gate: exit 1 if the
``sync-isw-n4`` median regressed more than FRAC versus the baseline.
``--profile`` wraps the whole run in cProfile and writes the top
cumulative entries next to the JSON report.

Usage::

    python tools/bench.py --out benchmarks/results/BENCH_PR7.json
    python -m repro bench --smoke --out /tmp/bench.json
    make bench          # full matrix
    make bench-smoke    # one small scenario + tiny micros, CI-friendly

Determinism: simulated results are seeded and bit-reproducible; the wall
times of course are not.  Repeats with median/p90 keep the numbers stable
enough to compare across commits on the same host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "SCHEMA",
    "bench_scenarios",
    "run_benchmark",
    "default_baseline",
    "check_regression",
    "add_bench_arguments",
    "run_bench",
    "main",
]

SCHEMA = "repro-bench-v1"

#: The simulator-bound workload every training scenario uses.
BENCH_WORKLOAD = "synth"
BENCH_SEED = 7

#: Default fault plan for the chaos scenario (repo-relative).
CHAOS_PLAN = os.path.join("examples", "chaos_demo.json")

#: Checked-in bench reports live here; MANIFEST.json lists them oldest
#: first, so the last resolvable entry is the default --baseline.
RESULTS_DIR = os.path.normpath(
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..", "..", "benchmarks", "results",
    )
)

#: The scenarios the --max-regression CI gate compares (present in both
#: the smoke and full matrices, at identical sizes).
GATE_SCENARIO = "sync-isw-n4"
GATE_SCENARIOS = (GATE_SCENARIO, "micro-replay-sample")


def _median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _p90(values: Sequence[float]) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), 0.9))


def host_info() -> Dict[str, object]:
    """The machine the numbers were taken on (for honest comparisons)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


@dataclass
class Scenario:
    """One benchmark scenario: a callable timed ``repeats`` times.

    ``fn`` runs the scenario once and returns metadata for the report
    (simulated time, event/packet counts, ...); only its wall time is
    measured.  ``setup`` runs before each repeat, untimed.
    """

    name: str
    kind: str  # "training" | "chaos" | "micro"
    fn: Callable[[], Dict[str, object]]
    params: Dict[str, object] = field(default_factory=dict)

    def run(self, repeats: int) -> Dict[str, object]:
        walls: List[float] = []
        meta: Dict[str, object] = {}
        for _ in range(repeats):
            start = time.perf_counter()
            meta = self.fn()
            walls.append(time.perf_counter() - start)
        record: Dict[str, object] = {
            "kind": self.kind,
            **self.params,
            "repeats": repeats,
            "wall_s": [round(w, 6) for w in walls],
            "median_s": round(_median(walls), 6),
            "p90_s": round(_p90(walls), 6),
        }
        record.update(meta)
        median = _median(walls)  # unrounded: sub-µs scenarios round to 0
        for count_key, rate_key in (
            ("events", "events_per_s"),
            ("packets", "packets_per_s"),
            ("segments", "segments_per_s"),
        ):
            if count_key in record and median > 0:
                record[rate_key] = round(record[count_key] / median, 1)
        return record


# ----------------------------------------------------------------------
# Training scenarios
# ----------------------------------------------------------------------
def _training_fn(
    mode: str,
    strategy: str,
    n_workers: int,
    iterations: int,
    fault_plan: Optional[str] = None,
    recovery_timeout: Optional[float] = None,
    workload: str = BENCH_WORKLOAD,
    algorithm_overrides: Optional[Dict[str, object]] = None,
) -> Callable[[], Dict[str, object]]:
    from .distributed.config import ExperimentConfig
    from .distributed.runner import run

    def config(telemetry: bool) -> ExperimentConfig:
        return ExperimentConfig(
            strategy=strategy,
            workload=workload,
            mode=mode,
            n_workers=n_workers,
            iterations=iterations,
            seed=BENCH_SEED,
            telemetry=telemetry,
            fault_plan=fault_plan,
            recovery_timeout=recovery_timeout,
            algorithm_overrides=algorithm_overrides,
        )

    def once() -> Dict[str, object]:
        result = run(config(telemetry=False))
        meta: Dict[str, object] = {
            "sim_time_s": result.elapsed,
            "transport": result.transport,
        }
        if result.fault_report is not None:
            meta["fault_ok"] = result.fault_report.ok
        return meta

    def counted() -> Dict[str, object]:
        """One untimed instrumented run for event/packet totals."""
        snap = run(config(telemetry=True)).telemetry
        return {
            "events": int(snap.value("sim.events_processed")),
            "packets": int(snap.value("link.tx_packets")),
        }

    once.counted = counted  # type: ignore[attr-defined]
    return once


def _training_scenario(
    mode: str, strategy: str, n_workers: int, iterations: int
) -> Scenario:
    return Scenario(
        name=f"{mode}-{strategy}-n{n_workers}",
        kind="training",
        fn=_training_fn(mode, strategy, n_workers, iterations),
        params={
            "mode": mode,
            "strategy": strategy,
            "workload": BENCH_WORKLOAD,
            "n_workers": n_workers,
            "iterations": iterations,
            "seed": BENCH_SEED,
        },
    )


def _compute_training_scenario(
    workload: str, strategy: str, n_workers: int, iterations: int
) -> Scenario:
    """A real-workload (compute-bound) training run.

    Named ``{workload}-sync-{strategy}-n{N}``.  The replay warmup is
    shrunk so the measured window is the steady-state iteration loop, not
    a one-time env-step burst, and env stepping is trimmed to two steps
    per iteration so the gradient/update compute dominates.
    """
    overrides: Dict[str, object] = {"warmup": 64, "env_steps_per_iter": 2}
    return Scenario(
        name=f"{workload}-sync-{strategy}-n{n_workers}",
        kind="training",
        fn=_training_fn(
            "sync", strategy, n_workers, iterations,
            workload=workload, algorithm_overrides=overrides,
        ),
        params={
            "mode": "sync",
            "strategy": strategy,
            "workload": workload,
            "n_workers": n_workers,
            "iterations": iterations,
            "seed": BENCH_SEED,
            "algorithm_overrides": overrides,
        },
    )


def _chaos_scenario(iterations: int) -> Scenario:
    return Scenario(
        name="chaos-isw-n4",
        kind="chaos",
        fn=_training_fn(
            "sync",
            "isw",
            4,
            iterations,
            fault_plan=CHAOS_PLAN,
            recovery_timeout=2e-3,
        ),
        params={
            "mode": "sync",
            "strategy": "isw",
            "workload": BENCH_WORKLOAD,
            "n_workers": 4,
            "iterations": iterations,
            "seed": BENCH_SEED,
            "fault_plan": CHAOS_PLAN,
        },
    )


def _soak_scenario(n_jobs: int) -> Scenario:
    """Multi-job soak: a mixed job stream through one shared fabric."""

    def once() -> Dict[str, object]:
        from .multitenant.soak import run_soak

        fabric, report = run_soak(
            n_jobs=n_jobs,
            seed=BENCH_SEED,
            telemetry=False,
        )
        if not report.ok:
            raise RuntimeError(
                f"soak invariant violated: {report.failed} failed, "
                f"{report.completed} completed, {report.rejected} rejected "
                f"of {report.n_jobs}"
            )
        return {
            "sim_time_s": report.sim_elapsed,
            "transport": report.transport,
            "events": fabric.sim.processed_events,
            "jobs_completed": report.completed,
            "jobs_rejected": report.rejected,
            "peak_concurrent": report.peak_concurrent,
            "soak_ok": report.ok,
        }

    return Scenario(
        name=f"soak-multijob-n{n_jobs}",
        kind="soak",
        fn=once,
        params={
            "n_jobs": n_jobs,
            "seed": BENCH_SEED,
            "policy": "fair",
        },
    )


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------
def _micro_event_dispatch(n_events: int) -> Scenario:
    """Schedule + dispatch ``n_events`` no-op events through the heap."""
    from .netsim.events import Simulator

    def once() -> Dict[str, object]:
        sim = Simulator()
        noop = _noop
        schedule = sim.schedule_at
        for i in range(n_events):
            schedule(i * 1e-6, noop)
        sim.run()
        return {"events": sim.processed_events}

    return Scenario(
        name="micro-event-dispatch",
        kind="micro",
        fn=once,
        params={"n_events": n_events},
    )


def _noop() -> None:
    return None


class _Sink:
    """Minimal packet sink so a bare Link can be exercised in isolation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.received = 0

    def register_port(self, port) -> None:
        pass

    def handle_packet(self, packet, in_port) -> None:
        self.received += 1


def _micro_link_tx(n_packets: int) -> Scenario:
    """Serialize ``n_packets`` full data frames across one 10 Gb/s link."""
    from .netsim.events import Simulator
    from .netsim.link import Link
    from .netsim.packets import MAX_UDP_PAYLOAD, Packet

    def once() -> Dict[str, object]:
        sim = Simulator()
        link = Link(sim, name="bench")
        src, dst = _Sink("src"), _Sink("dst")
        link.attach(src, dst)
        end = link.ends[0]
        for i in range(n_packets):
            end.send(
                Packet(
                    src="src",
                    dst="dst",
                    payload_size=MAX_UDP_PAYLOAD,
                    packet_id=i,
                )
            )
        sim.run()
        if dst.received != n_packets:
            raise RuntimeError(
                f"link micro lost packets: {dst.received}/{n_packets}"
            )
        return {"packets": n_packets}

    return Scenario(
        name="micro-link-tx",
        kind="micro",
        fn=once,
        params={"n_packets": n_packets},
    )


def _micro_accel_agg(rounds: int, n_senders: int = 8) -> Scenario:
    """Aggregate ``rounds`` full synthetic vectors from ``n_senders``."""
    from .core.accelerator import AggregationEngine
    from .core.protocol import SegmentPlan
    from .rl.synthetic import SYNTH_N_PARAMS

    plan = SegmentPlan(SYNTH_N_PARAMS)
    rng = np.random.default_rng(BENCH_SEED)
    vectors = [
        rng.standard_normal(SYNTH_N_PARAMS).astype(np.float32)
        for _ in range(n_senders)
    ]

    def once() -> Dict[str, object]:
        engine = AggregationEngine(threshold=n_senders)
        completions = 0
        contributions = 0
        for round_index in range(rounds):
            for sender, vector in enumerate(vectors):
                for segment in plan.split(
                    vector, round_index, sender=f"w{sender}", commit_id=round_index
                ):
                    contributions += 1
                    if engine.contribute(segment) is not None:
                        completions += 1
        if completions != rounds * plan.n_chunks:
            raise RuntimeError(
                f"accel micro incomplete: {completions} completions"
            )
        return {"segments": contributions}

    return Scenario(
        name="micro-accel-agg",
        kind="micro",
        fn=once,
        params={
            "rounds": rounds,
            "n_senders": n_senders,
            "n_chunks": plan.n_chunks,
        },
    )


def _micro_env_step(steps: int, num_envs: int = 64) -> Scenario:
    """Step a ``num_envs``-wide GridPong batch (vectorized kernel) ``steps``
    times."""
    state: Dict[str, object] = {}

    def once() -> Dict[str, object]:
        from .rl.envs.vector import make_vector_env

        if "env" not in state:
            state["env"] = make_vector_env("gridpong", num_envs, seed=BENCH_SEED)
            rng = np.random.default_rng(BENCH_SEED)
            state["actions"] = rng.integers(0, 3, size=(steps, num_envs))
        env = state["env"]
        actions = state["actions"]
        env.reset()
        for t in range(steps):
            env.step(actions[t])
        return {"env_steps": steps * num_envs}

    return Scenario(
        name="micro-env-step",
        kind="micro",
        fn=once,
        params={"steps": steps, "num_envs": num_envs, "env": "gridpong"},
    )


def _micro_replay_sample(fill: int, draws: int, batch: int) -> Scenario:
    """Draw ``draws`` minibatches from a filled replay buffer.

    The buffer is filled lazily on the first repeat (untimed relative to
    the gate, which compares best samples); only sampling is in the loop.
    """
    state: Dict[str, object] = {}

    def once() -> Dict[str, object]:
        if "buf" not in state:
            from .rl.replay import ReplayBuffer, Transition

            rng = np.random.default_rng(BENCH_SEED)
            buf = ReplayBuffer(fill, rng)
            obs = rng.standard_normal((fill, 8))
            for i in range(fill):
                buf.push(
                    Transition(obs[i], i % 3, float(i), obs[(i + 1) % fill], False)
                )
            state["buf"] = buf
        buf = state["buf"]
        for _ in range(draws):
            buf.sample(batch)
        return {"samples": draws * batch}

    return Scenario(
        name="micro-replay-sample",
        kind="micro",
        fn=once,
        params={"fill": fill, "draws": draws, "batch": batch},
    )


def _micro_optim_step(steps: int) -> Scenario:
    """Apply ``steps`` fused Adam updates (``step_flat``) to an MLP from one
    flat gradient."""
    state: Dict[str, object] = {}

    def once() -> Dict[str, object]:
        from .nn import Adam, mlp
        from .nn.serialize import param_vector_size

        if "opt" not in state:
            model = mlp([64, 128, 128, 8], rng=np.random.default_rng(BENCH_SEED))
            opt = Adam(model.parameters(), lr=1e-3)
            total = param_vector_size(model)
            grad = np.random.default_rng(BENCH_SEED).standard_normal(total)
            state.update(opt=opt, grad=grad, total=total)
        opt, grad = state["opt"], state["grad"]
        for _ in range(steps):
            opt.step_flat(grad)
        return {"param_updates": steps * state["total"]}

    return Scenario(
        name="micro-optim-step",
        kind="micro",
        fn=once,
        params={"steps": steps, "layers": [64, 128, 128, 8]},
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def bench_scenarios(smoke: bool = False) -> List[Scenario]:
    """The scenario matrix, smallest-first inside each kind.

    Smoke mode keeps one small training scenario and shrunken micros so CI
    can exercise the whole harness path in seconds.
    """
    from .distributed.runner import ASYNC_STRATEGIES, SYNC_STRATEGIES

    if smoke:
        return [
            # 30 iterations — the same window as the full matrix — so the
            # --max-regression gate compares like against like.
            _training_scenario("sync", "isw", 4, 30),
            # 200 iterations minimum: the demo plan's worker rejoin lands at
            # t=60 ms and needs live rounds after it to observe recovery.
            _chaos_scenario(200),
            _micro_event_dispatch(5_000),
            _micro_link_tx(2_000),
            _micro_accel_agg(2),
            # Compute micros run full-size in smoke too: micro-replay-sample
            # is a gate scenario, so smoke and full must compare like
            # against like (they are already sub-second).
            _micro_env_step(200, 64),
            _micro_replay_sample(20_000, 2_000, 32),
            _micro_optim_step(2_000),
        ]
    scenarios: List[Scenario] = []
    for n_workers in (4, 8):
        for strategy in SYNC_STRATEGIES:
            scenarios.append(_training_scenario("sync", strategy, n_workers, 30))
        for strategy in ASYNC_STRATEGIES:
            scenarios.append(_training_scenario("async", strategy, n_workers, 60))
    scenarios.append(_chaos_scenario(200))
    scenarios.append(_soak_scenario(32))
    # Real-compute DQN runs (synth's near-zero local compute can't show the
    # compute tier).  120 iterations so the steady-state loop dominates the
    # one-time construction + warmup cost.
    for n_workers in (4, 8):
        scenarios.append(_compute_training_scenario("dqn", "isw", n_workers, 120))
    scenarios.append(_micro_event_dispatch(100_000))
    scenarios.append(_micro_link_tx(20_000))
    scenarios.append(_micro_accel_agg(20))
    scenarios.append(_micro_env_step(200, 64))
    scenarios.append(_micro_replay_sample(20_000, 2_000, 32))
    scenarios.append(_micro_optim_step(2_000))
    return scenarios


def run_benchmark(
    repeats: int = 5,
    smoke: bool = False,
    baseline_path: Optional[str] = None,
    progress: Callable[[str], None] = lambda msg: None,
) -> Dict[str, object]:
    """Run the matrix and return the full report dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    started = time.perf_counter()
    scenarios = bench_scenarios(smoke=smoke)
    results: Dict[str, Dict[str, object]] = {}
    for scenario in scenarios:
        progress(f"running {scenario.name} ...")
        record = scenario.run(repeats)
        counted = getattr(scenario.fn, "counted", None)
        if counted is not None:
            record.update(counted())
            median = record["median_s"]
            if median > 0:
                # Guarded per key: counted() variants (soak, future
                # scenarios) may report events without packet totals.
                if "events" in record:
                    record["events_per_s"] = round(record["events"] / median, 1)
                if "packets" in record:
                    record["packets_per_s"] = round(
                        record["packets"] / median, 1
                    )
        results[scenario.name] = record
        progress(
            f"  {scenario.name}: median {record['median_s']:.4f} s"
            + (
                f", {record['events_per_s']:.0f} events/s"
                if "events_per_s" in record
                else ""
            )
        )
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": smoke,
        "host": host_info(),
        "config": {
            "repeats": repeats,
            "workload": BENCH_WORKLOAD,
            "seed": BENCH_SEED,
        },
        "scenarios": results,
        "total_wall_s": round(time.perf_counter() - started, 6),
    }
    if baseline_path is not None:
        report.update(_embed_baseline(results, baseline_path))
    return report


def _embed_baseline(
    results: Dict[str, Dict[str, object]], baseline_path: str
) -> Dict[str, object]:
    """Fold a previous report in as ``baseline`` + per-scenario speedups."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        raise ValueError(
            f"baseline {baseline_path} has schema {baseline.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    speedups = {}
    for name, record in results.items():
        ref = baseline.get("scenarios", {}).get(name)
        if ref is None or not record.get("median_s"):
            continue
        speedups[name] = round(ref["median_s"] / record["median_s"], 3)
    return {
        "baseline": {
            "generated": baseline.get("generated"),
            "host": baseline.get("host"),
            "scenarios": baseline.get("scenarios", {}),
        },
        "speedups": speedups,
    }


def validate_report(report: Dict[str, object]) -> None:
    """Raise ``ValueError`` if ``report`` violates the bench schema."""
    if report.get("schema") != SCHEMA:
        raise ValueError(f"bad schema marker: {report.get('schema')!r}")
    for key in ("generated", "host", "config", "scenarios", "total_wall_s"):
        if key not in report:
            raise ValueError(f"report missing {key!r}")
    for name, record in report["scenarios"].items():  # type: ignore[union-attr]
        for key in ("kind", "repeats", "wall_s", "median_s", "p90_s"):
            if key not in record:
                raise ValueError(f"scenario {name!r} missing {key!r}")
        if record["kind"] not in ("training", "chaos", "soak", "micro"):
            raise ValueError(f"scenario {name!r} has kind {record['kind']!r}")
        if record["kind"] in ("training", "chaos"):
            for key in ("sim_time_s", "events", "events_per_s",
                        "packets", "packets_per_s"):
                if key not in record:
                    raise ValueError(f"scenario {name!r} missing {key!r}")
        elif record["kind"] == "soak":
            for key in ("sim_time_s", "events", "events_per_s", "soak_ok"):
                if key not in record:
                    raise ValueError(f"scenario {name!r} missing {key!r}")


# ----------------------------------------------------------------------
# Baseline resolution and the regression gate
# ----------------------------------------------------------------------
def default_baseline() -> Optional[str]:
    """The newest checked-in report per ``benchmarks/results/MANIFEST.json``.

    The manifest lists results oldest-first; the last entry whose file
    exists wins.  Returns ``None`` when there is no usable manifest, so
    callers degrade to a baseline-free run.
    """
    manifest = os.path.join(RESULTS_DIR, "MANIFEST.json")
    try:
        with open(manifest) as fh:
            entries = json.load(fh).get("results", [])
    except (OSError, ValueError):
        return None
    if not isinstance(entries, list):
        return None
    for entry in reversed(entries):
        name = entry.get("file") if isinstance(entry, dict) else None
        if not name:
            continue
        path = os.path.join(RESULTS_DIR, name)
        if os.path.isfile(path):
            return path
    return None


def check_regression(
    report: Dict[str, object],
    max_regression: float,
    scenario: Optional[str] = None,
) -> int:
    """CI gate: 1 if a gated scenario regressed beyond the tolerance.

    With ``scenario=None`` every entry in ``GATE_SCENARIOS`` is checked
    and the worst exit code wins.

    Compares the report's *best* (min) sample against the baseline's
    best for the same scenario.  Min, not median: in the smoke run the
    gate scenario executes first and still cold, and the shared CI host
    drifts ~15% day to day, so medians across separate runs false-alarm
    long before they catch real regressions.  The best sample filters
    both warmup and scheduler noise; pair it with a generous tolerance
    (the Makefile uses 50%) so only structural slowdowns trip the gate.
    A missing baseline or scenario passes with a note — the gate only
    ever fails on a *measured* regression.
    """
    if scenario is None:
        return max(
            check_regression(report, max_regression, name)
            for name in GATE_SCENARIOS
        )
    baseline = report.get("baseline")
    if not isinstance(baseline, dict):
        print(f"regression gate: no baseline report; skipping {scenario}")
        return 0
    ref = baseline.get("scenarios", {}).get(scenario)
    current = report.get("scenarios", {}).get(scenario)  # type: ignore[union-attr]
    if not ref or not current or not ref.get("median_s"):
        print(f"regression gate: {scenario} not in both reports; skipping")
        return 0

    def best(entry):
        samples = entry.get("wall_s")
        if isinstance(samples, list) and samples:
            return min(samples)
        return entry["median_s"]

    ref_best = best(ref)
    cur_best = best(current)
    limit = ref_best * (1.0 + max_regression)
    if cur_best > limit:
        print(
            f"perf regression: {scenario} best {cur_best:.4f} s "
            f"> {ref_best:.4f} s * {1.0 + max_regression:.2f} "
            f"(tolerance {max_regression:.0%})",
            file=sys.stderr,
        )
        return 1
    print(
        f"regression gate: {scenario} best {cur_best:.4f} s "
        f"within {ref_best:.4f} s * {1.0 + max_regression:.2f}"
    )
    return 0


def _write_profile(profiler, path: str, top: int = 20) -> None:
    """Dump the top ``top`` cumulative-time entries of a cProfile run."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    with open(path, "w") as fh:
        fh.write(stream.getvalue())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_PR7.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timed repeats per scenario (default: %(default)s)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny matrix for CI: one training scenario + shrunken micros",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default="auto",
        help="previous report to embed (adds baseline + speedups sections); "
        "'auto' (default) uses the newest entry in "
        "benchmarks/results/MANIFEST.json, 'none' disables",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) if the whole run exceeds this wall-time budget",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="FRAC",
        help="fail (exit 1) if a gated scenario "
        f"({', '.join(GATE_SCENARIOS)}) best sample regressed "
        "more than FRAC (e.g. 0.50 = 50%%) versus the baseline report",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap the run in cProfile; write the top-20 cumulative entries "
        "to <out>.profile.txt",
    )


def run_bench(args: argparse.Namespace) -> int:
    baseline_path = args.baseline
    if baseline_path == "auto":
        baseline_path = default_baseline()
    elif baseline_path == "none":
        baseline_path = None
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        report = run_benchmark(
            repeats=args.repeats,
            smoke=args.smoke,
            baseline_path=baseline_path,
            progress=lambda msg: print(msg, flush=True),
        )
    finally:
        if profiler is not None:
            profiler.disable()
    validate_report(report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"report written: {args.out} ({report['total_wall_s']:.1f} s total)")
    if profiler is not None:
        profile_path = args.out + ".profile.txt"
        _write_profile(profiler, profile_path)
        print(f"profile written: {profile_path}")
    speedups = report.get("speedups")
    if speedups:
        for name in sorted(speedups):
            print(f"  speedup {name}: {speedups[name]:.2f}x")
    code = 0
    if args.budget is not None and report["total_wall_s"] > args.budget:
        print(
            f"budget exceeded: {report['total_wall_s']:.1f} s > "
            f"{args.budget:.1f} s",
            file=sys.stderr,
        )
        code = 1
    if args.max_regression is not None:
        code = max(code, check_regression(report, args.max_regression))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="iSwitch reproduction wall-clock benchmark harness"
    )
    add_bench_arguments(parser)
    return run_bench(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
