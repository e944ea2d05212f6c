"""Command-line interface: regenerate paper artifacts and run trainings.

Usage::

    python -m repro list                      # what can I run?
    python -m repro exp table4                # regenerate a paper table
    python -m repro exp fig13 --iterations 500
    python -m repro train --strategy isw --workload dqn --iterations 50
    python -m repro train --mode async --strategy ps --workload ppo
    python -m repro jobs soak --jobs 32       # multi-tenant load generator
    python -m repro jobs submit --name mine --workers 3
    python -m repro jobs status

The command groups are ``exp`` (paper artifacts), ``train`` and ``jobs``
(the multi-tenant fabric).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .distributed.config import ExperimentConfig
from .distributed.registry import MODES, strategy_specs
from .distributed.runner import ASYNC_STRATEGIES, SYNC_STRATEGIES, run
from .multitenant.scheduler import POLICIES
from .experiments import (
    codec_ablation,
    fig4,
    fig8,
    fig12,
    fig13,
    fig14,
    fig15,
    table1,
    table3,
    table4,
    table5,
    utilization,
)

__all__ = ["main", "build_parser"]

#: Experiment subcommands: name -> (runner, iteration-knob name or None).
EXPERIMENTS = {
    "table1": (table1.run, None),
    "fig4": (fig4.run, "n_iterations"),
    "fig8": (fig8.run, None),
    "table3": (table3.run, "sync_iterations"),
    "table4": (table4.run, "n_iterations"),
    "table5": (table5.run, "n_updates"),
    "fig12": (fig12.run, "n_iterations"),
    "fig13": (fig13.run, "n_iterations"),
    "fig14": (fig14.run, "n_updates"),
    "fig15": (fig15.run, "n_iterations"),
    "utilization": (utilization.run, "n_iterations"),
    "codec_ablation": (codec_ablation.run, "n_iterations"),
}


def format_strategy_table() -> str:
    """A table of every registered (mode, strategy) pair and its needs."""
    rows = [
        (
            "mode",
            "strategy",
            "class",
            "needs server",
            "needs iswitch",
            "live",
            "multi-job",
            "codecs",
        )
    ]
    specs = sorted(strategy_specs(), key=lambda s: MODES.index(s.mode))
    for spec in specs:
        rows.append(
            (
                spec.mode,
                spec.name,
                spec.cls.__name__,
                "yes" if spec.requires_server else "no",
                "yes" if spec.requires_iswitch else "no",
                "yes" if spec.supports_live else "no",
                "yes" if spec.supports_multijob else "no",
                "all" if spec.requires_iswitch else "fp32",
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append("")
    lines.append(
        "In the simulator only iSwitch strategies accept --loss-rate > 0; on the "
        "live backend every strategy recovers from injected datagram loss."
    )
    lines.append(
        "'live' strategies can run for real over loopback UDP: "
        "repro train --backend live (see README, 'Live mode')."
    )
    lines.append(
        "'multi-job' strategies can share one switch tree between tenants: "
        "repro jobs submit|status|soak (see README, 'Multi-tenancy')."
    )
    lines.append(
        "'codecs': aggregation numerics accepted via --codec (fp16/int32-bs/"
        "topk/int8 model the switch dataplane, so they need an iSwitch "
        "strategy; see DESIGN.md §12)."
    )
    return "\n".join(lines)


class _ListStrategiesAction(argparse.Action):
    """``--list-strategies``: print the registry and exit (like --help)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(format_strategy_table())
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iSwitch (ISCA 2019) reproduction harness",
    )
    parser.add_argument(
        "--list-strategies",
        action=_ListStrategiesAction,
        help="list every registered training strategy and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    everything = subparsers.add_parser(
        "all", help="regenerate every table and figure (quick windows)"
    )
    everything.add_argument(
        "--full",
        action="store_true",
        help="use the full default measurement windows (slower)",
    )

    exp = subparsers.add_parser(
        "exp", help="regenerate one paper table or figure"
    )
    exp.add_argument(
        "experiment",
        choices=tuple(EXPERIMENTS),
        help="which artifact to regenerate",
    )
    exp.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="measurement window (iterations or updates)",
    )

    train = subparsers.add_parser("train", help="run one distributed training")
    train.add_argument(
        "--mode", choices=("sync", "async"), default="sync", help="training mode"
    )
    train.add_argument(
        "--strategy",
        default="isw",
        help=f"sync: {SYNC_STRATEGIES}; async: {ASYNC_STRATEGIES}",
    )
    train.add_argument(
        "--workload",
        choices=("dqn", "a2c", "ppo", "ddpg", "synth"),
        default="dqn",
    )
    train.add_argument(
        "--backend",
        choices=("sim", "live"),
        default="sim",
        help="sim: discrete-event simulator (default); live: real worker/"
        "server processes over loopback UDP (every registered strategy)",
    )
    train.add_argument("--workers", "-n", type=int, default=4)
    train.add_argument("--iterations", type=int, default=50)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--staleness-bound", type=int, default=3, help="async only: S"
    )
    train.add_argument(
        "--shards",
        type=int,
        default=None,
        help="ps-shard only: number of shard servers (default: min(4, workers))",
    )
    train.add_argument(
        "--codec",
        default="fp32",
        help="aggregation numerics / wire codec: fp32 (default), fp16, "
        "int32-bs (block-scaled int32, integer-summed on the switch), "
        "topk (sparsified frames), int8 (sim-only loss model); "
        "non-fp32 codecs require an iSwitch strategy",
    )
    train.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="per-packet drop probability on every link (sim: iSwitch "
        "strategies only; live: any strategy)",
    )
    train.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="inject faults from a FaultPlan JSON (see DESIGN.md §6)",
    )
    train.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    train.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write run metrics (.prom => Prometheus text, else JSON)",
    )

    _add_jobs_parser(subparsers)
    return parser


#: Default multi-tenant batch state file (``repro jobs submit/status``).
DEFAULT_JOBS_STATE = ".repro-jobs.json"


def _add_jobs_parser(subparsers) -> None:
    jobs = subparsers.add_parser(
        "jobs", help="multi-tenant fabric: submit jobs, check status, soak"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    submit = jobs_sub.add_parser(
        "submit",
        help="add a job to the batch state file and replay the batch "
        "through a fresh fabric",
    )
    submit.add_argument("--name", required=True, help="job name (unique-ish)")
    submit.add_argument(
        "--workload",
        choices=("dqn", "a2c", "ppo", "ddpg", "synth"),
        default="synth",
    )
    submit.add_argument("--workers", "-n", type=int, default=2)
    submit.add_argument("--iterations", type=int, default=4)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--priority", type=int, default=0, help="strict-priority policy only"
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--job-id", type=int, default=None, help="explicit wire job id (1..127)"
    )
    submit.add_argument(
        "--n-params",
        type=int,
        default=None,
        help="synth workload only: model size override",
    )
    submit.add_argument(
        "--arrival",
        type=float,
        default=0.0,
        help="simulated arrival time (seconds)",
    )
    submit.add_argument(
        "--policy", choices=sorted(POLICIES), default="fifo",
        help="scheduler policy for the replay",
    )
    submit.add_argument("--state", metavar="PATH", default=DEFAULT_JOBS_STATE)
    submit.add_argument(
        "--no-run",
        action="store_true",
        help="record the job without replaying the batch",
    )

    status = jobs_sub.add_parser(
        "status", help="show the batch state file as a job table"
    )
    status.add_argument("--state", metavar="PATH", default=DEFAULT_JOBS_STATE)

    soak = jobs_sub.add_parser(
        "soak", help="load generator: a mixed stream of jobs on one fabric"
    )
    soak.add_argument("--jobs", type=int, default=32, help="number of jobs")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--policy", choices=sorted(POLICIES), default="fair")
    soak.add_argument("--racks", type=int, default=4)
    soak.add_argument(
        "--engines", type=int, default=8, help="SRAM engines per switch"
    )
    soak.add_argument(
        "--segments", type=int, default=32, help="segment slots per engine"
    )
    soak.add_argument(
        "--window",
        type=float,
        default=2e-3,
        help="arrival window (simulated seconds)",
    )
    soak.add_argument(
        "--iterations", type=int, default=3, help="iterations per job"
    )
    soak.add_argument("--tenants", type=int, default=4)
    soak.add_argument(
        "--state",
        metavar="PATH",
        default=None,
        help="also dump per-job summaries to this JSON file",
    )


def _run_experiment(name: str, iterations: Optional[int]) -> int:
    runner, knob = EXPERIMENTS[name]
    kwargs = {}
    if iterations is not None:
        if knob is None:
            print(f"{name} takes no --iterations knob", file=sys.stderr)
            return 2
        kwargs[knob] = iterations
    runner(**kwargs)
    return 0


#: Quick measurement windows for `repro all` (experiment -> knob value).
_QUICK_WINDOWS = {
    "fig4": 6,
    "table3": 6,
    "table4": 6,
    "table5": 50,
    "fig12": 6,
    "fig13": 400,
    "fig14": 400,
    "fig15": 6,
    "utilization": 6,
}


def _run_all(full: bool = False) -> int:
    """Regenerate every artifact back to back."""
    for name in EXPERIMENTS:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        iterations = None if full else _QUICK_WINDOWS.get(name)
        code = _run_experiment(name, iterations)
        if code != 0:
            return code
    return 0


def _write_telemetry(result, args: argparse.Namespace) -> None:
    from .telemetry.exporters import (
        write_chrome_trace,
        write_json,
        write_prometheus,
    )

    snapshot = result.telemetry
    if args.trace_out:
        write_chrome_trace(snapshot, args.trace_out)
        print(f"trace written:      {args.trace_out}")
        if not snapshot.spans:
            print(
                f"  spans recorded:   0 (the {result.backend} backend records "
                "counters only; --metrics-out has them)"
            )
    if args.metrics_out:
        if args.metrics_out.endswith((".prom", ".txt")):
            write_prometheus(snapshot, args.metrics_out)
        else:
            write_json(snapshot, args.metrics_out)
        print(f"metrics written:    {args.metrics_out}")


def _run_training(args: argparse.Namespace) -> int:
    # Accept mode-qualified names ("sync-isw") like ExperimentConfig does.
    strategy, mode = args.strategy, args.mode
    for prefix in ("sync", "async"):
        if strategy.startswith(prefix + "-"):
            strategy = strategy[len(prefix) + 1 :]
            mode = prefix
            break
    if mode == "sync":
        if strategy not in SYNC_STRATEGIES:
            print(
                f"sync strategies: {', '.join(SYNC_STRATEGIES)}", file=sys.stderr
            )
            return 2
    else:
        if strategy not in ASYNC_STRATEGIES:
            print(
                f"async strategies: {', '.join(ASYNC_STRATEGIES)}", file=sys.stderr
            )
            return 2
    want_telemetry = bool(args.trace_out or args.metrics_out)
    try:
        config = ExperimentConfig(
            strategy=strategy,
            workload=args.workload,
            mode=mode,
            backend=args.backend,
            n_workers=args.workers,
            iterations=args.iterations,
            seed=args.seed,
            staleness_bound=args.staleness_bound,
            codec=args.codec,
            loss_rate=args.loss_rate,
            ps_shards=args.shards,
            telemetry=want_telemetry,
            fault_plan=args.fault_plan,
        )
        result = run(config)
    except (OSError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if want_telemetry:
        _write_telemetry(result, args)
    live = result.backend == "live"
    print(f"strategy:           {result.strategy}")
    print(f"workload:           {result.workload}")
    print(f"backend:            {'live (loopback UDP)' if live else 'sim'}")
    if not live:
        print(f"transport:          {result.transport}")
        if result.ingest:
            counts = " ".join(f"{k}={n}" for k, n in result.ingest.items())
            print(f"  train ingest:     {counts}")
    print(f"workers:            {result.n_workers}")
    print(f"iterations:         {result.iterations}")
    elapsed_label = "train wall time" if live else "simulated time"
    print(f"{elapsed_label + ':':<19} {result.elapsed:.3f} s")
    print(f"per-iteration time: {result.per_iteration_time * 1e3:.3f} ms")
    if result.mean_staleness is not None:
        print(f"mean staleness:     {result.mean_staleness:.2f}")
    if live:
        stats = result.server_stats
        counters = (result.worker_counters or {}).values()
        if stats is not None:
            frames_rx = stats.get("frames_rx", 0)
            frames_tx = stats.get("frames_tx", 0)
            print(f"switch frames:      {frames_rx} rx / {frames_tx} tx")
            drops = stats.get("drops_injected", 0)
        else:
            # Peer-to-peer collectives have no server process; the wire
            # activity (and any injected loss) lives on the workers.
            frames_rx = sum(c.get("frames_rx", 0) for c in counters)
            frames_tx = sum(c.get("frames_tx", 0) for c in counters)
            print(f"peer frames:        {frames_rx} rx / {frames_tx} tx")
            drops = sum(c.get("drops_injected", 0) for c in counters)
        if drops:
            helps = sum(
                c.get("help_sent", 0) + c.get("resend_requests_sent", 0)
                for c in counters
            )
            print(f"loss recovery:      {drops} drops injected, {helps} Helps sent")
        rewards = [
            r
            for r in (result.rewards or {}).values()
            if r != float("-inf")
        ]
        if rewards:
            print(f"avg episode reward: {sum(rewards) / len(rewards):.2f}")
    else:
        reward = result.final_average_reward
        if reward != float("-inf"):
            print(f"avg episode reward: {reward:.2f}")
    if result.fault_report is not None:
        for line in result.fault_report.summary():
            print(line)
        if not result.fault_report.ok:
            return 1
    return 0


def _load_jobs_state(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"specs": [], "last_run": []}


def _save_jobs_state(path: str, state: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state, handle, indent=2)
        handle.write("\n")


def _spec_from_dict(entry: dict):
    from .multitenant import JobSpec

    return JobSpec(
        name=entry["name"],
        workload=entry.get("workload", "synth"),
        n_workers=entry.get("n_workers", 2),
        iterations=entry.get("iterations", 4),
        seed=entry.get("seed", 0),
        priority=entry.get("priority", 0),
        tenant=entry.get("tenant", "default"),
        arrival_time=entry.get("arrival_time", 0.0),
        job_id=entry.get("job_id"),
        algorithm_overrides=entry.get("algorithm_overrides"),
    )


def _replay_jobs(state: dict) -> dict:
    """Run every recorded spec through a fresh fabric; record outcomes."""
    from .multitenant import SwitchFabric

    fabric = SwitchFabric(policy=state.get("policy", "fifo"), telemetry=False)
    for entry in state["specs"]:
        fabric.submit(_spec_from_dict(entry))
    handles = fabric.run()
    state["last_run"] = [
        handle.summary() for handle in handles.values()
    ]
    return state


_STATUS_COLUMNS = (
    "job_id",
    "name",
    "tenant",
    "status",
    "n_workers",
    "footprint",
    "wait_time",
    "run_time",
)


def _format_status_table(rows: List[dict]) -> str:
    header = tuple(c.replace("_", " ") for c in _STATUS_COLUMNS)
    table = [header]
    for row in rows:
        cells = []
        for column in _STATUS_COLUMNS:
            value = row.get(column)
            if value is None:
                cells.append("-")
            elif isinstance(value, float):
                cells.append(f"{value * 1e3:.2f}ms")
            else:
                cells.append(str(value))
        table.append(tuple(cells))
    widths = [
        max(len(row[col]) for row in table) for col in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _run_jobs(args: argparse.Namespace) -> int:
    if args.jobs_command == "soak":
        return _run_jobs_soak(args)
    if args.jobs_command == "submit":
        return _run_jobs_submit(args)
    return _run_jobs_status(args)


def _run_jobs_submit(args: argparse.Namespace) -> int:
    overrides = {"n_params": args.n_params} if args.n_params else None
    entry = {
        "name": args.name,
        "workload": args.workload,
        "n_workers": args.workers,
        "iterations": args.iterations,
        "seed": args.seed,
        "priority": args.priority,
        "tenant": args.tenant,
        "arrival_time": args.arrival,
        "job_id": args.job_id,
        "algorithm_overrides": overrides,
    }
    try:
        _spec_from_dict(entry)  # validate before persisting
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    state = _load_jobs_state(args.state)
    state["policy"] = args.policy
    state.setdefault("specs", []).append(entry)
    if args.no_run:
        _save_jobs_state(args.state, state)
        print(
            f"recorded {args.name!r} ({len(state['specs'])} job(s) in "
            f"{args.state}); run `repro jobs submit` without --no-run or "
            "`repro jobs status` after a replay to see outcomes"
        )
        return 0
    try:
        state = _replay_jobs(state)
    except (ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _save_jobs_state(args.state, state)
    print(_format_status_table(state["last_run"]))
    return 0


def _run_jobs_status(args: argparse.Namespace) -> int:
    state = _load_jobs_state(args.state)
    if not state.get("specs"):
        print(f"no jobs recorded in {args.state}")
        return 0
    rows = state.get("last_run") or []
    if not rows:
        rows = [
            {"name": entry["name"], "tenant": entry.get("tenant", "default"),
             "n_workers": entry.get("n_workers", 2), "status": "recorded"}
            for entry in state["specs"]
        ]
    print(_format_status_table(rows))
    return 0


def _run_jobs_soak(args: argparse.Namespace) -> int:
    from .multitenant import run_soak

    try:
        fabric, report = run_soak(
            n_jobs=args.jobs,
            seed=args.seed,
            policy=args.policy,
            n_racks=args.racks,
            sram_engines=args.engines,
            sram_segments_per_engine=args.segments,
            arrival_window=args.window,
            iterations=args.iterations,
            n_tenants=args.tenants,
            telemetry=False,
        )
    except (ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.state:
        _save_jobs_state(
            args.state,
            {
                "policy": report.policy,
                "specs": [],
                "last_run": [
                    h.summary() for h in fabric.handles.values()
                ],
            },
        )
        print(f"per-job summaries written: {args.state}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("experiments:  exp", "|".join(EXPERIMENTS))
        print(
            "training:     train --mode sync|async --strategy "
            f"{'|'.join(sorted(set(SYNC_STRATEGIES + ASYNC_STRATEGIES)))} ..."
        )
        print("multi-tenant: jobs submit|status|soak")
        print("strategies:   repro --list-strategies")
        return 0
    if args.command == "train":
        return _run_training(args)
    if args.command == "jobs":
        return _run_jobs(args)
    if args.command == "all":
        return _run_all(full=args.full)
    return _run_experiment(args.experiment, args.iterations)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
