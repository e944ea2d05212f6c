"""High-level entry points: build a cluster and run a training experiment.

The primary API is one config object plus one function:

>>> from repro.distributed import ExperimentConfig, run
>>> result = run(ExperimentConfig(strategy="isw", workload="dqn"))
>>> result.per_iteration_time   # doctest: +SKIP
>>> result.telemetry.value("link.tx_packets")   # doctest: +SKIP

Strategy names follow the paper's abbreviations: ``ps``, ``ar``, ``isw``
(synchronous, plus the ``ar-hd`` halving/doubling and ``ps-shard``
sharded-PS extensions) and ``ps``, ``isw`` (asynchronous); they are
looked up in the :mod:`repro.distributed.registry`, so new strategies
self-register via the ``@register_strategy`` decorator.  Worker counts above
``workers_per_rack`` automatically use the two-layer rack-scale topology
of Figure 10 with hierarchical aggregation.
"""

from __future__ import annotations

from typing import Optional

from ..core.hierarchy import make_iswitch_factory
from ..netsim.events import Simulator, make_simulator
from ..netsim.topology import build_rack_tree, build_star
from ..rl.a2c import A2C
from ..rl.base import Algorithm
from ..rl.ddpg import DDPG
from ..rl.dqn import DQN
from ..rl.envs import Cheetah1D, GridPong, GridQbert, Hopper1D
from ..rl.ppo import PPO
from ..rl.synthetic import SyntheticAlgorithm
from ..telemetry.hub import TelemetryHub
from ..workloads.profiles import WorkloadProfile, get_profile
from .asynchronous import AsyncISwitch, AsyncParameterServer  # noqa: F401
from .config import ExperimentConfig, choose_transport
from .registry import get_strategy, strategy_names
from .results import TrainingResult
from .sharded import ShardedParameterServer  # noqa: F401
from .sync import (  # noqa: F401
    HalvingDoublingAllReduce,
    RingAllReduce,
    SyncISwitch,
    SyncParameterServer,
    SyncStrategy,
)
from .worker import ComputeModel, SimWorker

__all__ = [
    "make_algorithm",
    "build_cluster",
    "run",
    "SimRunError",
    "SYNC_STRATEGIES",
    "ASYNC_STRATEGIES",
]

# Importing the strategy modules above populated the registry; the
# public tuples are derived from it (registration order == declaration
# order, matching the historical hard-coded values).
SYNC_STRATEGIES = strategy_names("sync")
ASYNC_STRATEGIES = strategy_names("async")

#: Default initialization seed shared by all replicas of a run.
INIT_SEED = 12345


class SimRunError(RuntimeError):
    """A simulated run went quiet before every replica finished training."""

    def __init__(self, worker: str, round_index: int, config) -> None:
        super().__init__(worker, round_index, config)
        self.worker = worker
        self.round_index = round_index
        self.config = config

    def __str__(self) -> str:
        return (
            f"{self.worker}: round {self.round_index} never completed; the "
            f"run went quiet after {self.round_index} of "
            f"{self.config.iterations} iterations\n{self.config.replay_line()}"
        )


def make_algorithm(
    workload: str,
    seed: int,
    init_seed: int = INIT_SEED,
    peer: Optional[Algorithm] = None,
    **overrides,
) -> Algorithm:
    """Instantiate the paper workload's algorithm on its stand-in env.

    ``seed`` drives exploration/environment randomness (unique per
    worker); ``init_seed`` drives weight init (shared by all replicas).
    ``peer`` is a replica already built from the same arguments for this
    cluster: a workload whose init is one large shared draw copies the
    peer's weights instead of drawing them again.
    """
    name = workload.lower()
    if name == "dqn":
        return DQN(GridPong(seed=seed), seed=seed, init_seed=init_seed, **overrides)
    if name == "a2c":
        return A2C(GridQbert(seed=seed), seed=seed, init_seed=init_seed, **overrides)
    if name == "ppo":
        return PPO(Hopper1D(seed=seed), seed=seed, init_seed=init_seed, **overrides)
    if name == "ddpg":
        return DDPG(
            Cheetah1D(seed=seed), seed=seed, init_seed=init_seed, **overrides
        )
    if name == "synth":
        # The benchmark harness's simulator-bound workload: near-zero
        # LGC cost so wall-clock timings measure the netsim, not NumPy.
        if peer is not None:
            return peer.replica(seed)
        return SyntheticAlgorithm(seed=seed, init_seed=init_seed, **overrides)
    raise KeyError(
        f"unknown workload {workload!r}; choose dqn/a2c/ppo/ddpg/synth"
    )


def build_cluster(
    n_workers: int,
    profile: WorkloadProfile,
    with_server: bool,
    use_iswitch: bool,
    workers_per_rack: int = 4,
    seed: int = 0,
    workload: Optional[str] = None,
    algorithm_overrides: Optional[dict] = None,
    loss_rate: float = 0.0,
    dedup: bool = False,
    telemetry: Optional[TelemetryHub] = None,
    canonical: bool = False,
    recovery_armed: bool = False,
    codec=None,
) -> tuple:
    """Build (network, workers) for one experiment.

    Up to ``workers_per_rack`` workers fit a single switch; beyond that
    the Figure 10 two-layer tree is used (three workers per rack, like
    the paper's NetFPGA-port-limited emulation).  ``loss_rate`` applies
    independent per-packet drops on every link (seeded reproducibly from
    ``seed``); ``dedup`` enables duplicate suppression in the iSwitch
    engines, which loss recovery requires.  ``telemetry`` attaches a
    :class:`~repro.telemetry.TelemetryHub` to the simulator so the hot
    paths record metrics and spans.  ``recovery_armed`` says packets can go
    missing (a loss rate, a fault plan, an explicit recovery timeout), which
    keeps the cluster on the per-packet transport
    (:func:`~repro.distributed.config.choose_transport`).
    """
    sim = make_simulator(telemetry=telemetry)
    sim.transport = choose_transport(recovery_armed=recovery_armed)
    kwargs = {}
    if use_iswitch:
        kwargs["switch_factory"] = make_iswitch_factory(
            dedup=dedup, canonical=canonical, codec=codec
        )
    if loss_rate > 0:
        kwargs["loss_rate"] = loss_rate
        kwargs["loss_seed"] = seed
    if n_workers <= workers_per_rack:
        net = build_star(sim, n_workers, with_server=with_server, **kwargs)
    else:
        net = build_rack_tree(
            sim, n_workers, workers_per_rack=3, with_server=with_server, **kwargs
        )
    workload = workload or profile.name
    overrides = algorithm_overrides or {}
    workers = []
    for index, host in enumerate(net.workers):
        algorithm = make_algorithm(
            workload,
            seed=seed + index,
            peer=workers[0].algorithm if workers else None,
            **overrides,
        )
        compute = ComputeModel(profile, seed=seed * 1000 + index)
        workers.append(SimWorker(index, host, algorithm, compute))
    return net, workers


def _register_network_collectors(hub: TelemetryHub, net) -> None:
    """Scrape cumulative component state into the registry at snapshot
    time, so baseline series (tx/drop counters per link, engine stats per
    switch) are always present — even when their live value never moved."""

    def collect(h: TelemetryHub) -> None:
        for link in net.links:
            dropped = h.metrics.counter("link.packets_dropped", link=link.name)
            missing = link.dropped_packets - dropped.value
            if missing > 0:
                # Drops that happened while no hub was attached (or before
                # instrumentation armed) still show up in the snapshot.
                dropped.inc(missing)
            for end in link.ends:
                owner = end.device.name if end.device is not None else "?"
                h.metrics.gauge(
                    "link.utilization", link=link.name, device=owner
                ).set(end.utilization(h.now()))
        for switch in net.switches:
            engine = getattr(switch, "engine", None)
            if engine is None:
                continue
            stats = engine.stats
            series = [
                (f"switch.{name}", {}, getattr(stats, name))
                for name in ("duplicates_dropped", "evictions")
            ]
            series += [
                ("switch.batch_bails", {"cause": cause}, count)
                for cause, count in stats.batch_bails.items()
            ]
            series += [
                ("switch.joins", {"kind": kind}, count)
                for kind, count in stats.joins.items()
            ]
            for name, labels, value in series:
                counter = h.metrics.counter(name, switch=switch.name, **labels)
                missing = value - counter.value
                if missing > 0:
                    counter.inc(missing)

    hub.add_collector(collect)


def _ingest_summary(net) -> dict:
    """Non-zero train-ingest counts summed over the switches' engines."""
    total: dict = {}
    for switch in net.switches:
        for state in switch.jobs:
            stats = state.engine.stats
            for key, count in (*stats.joins.items(), *stats.batch_bails.items()):
                if count:
                    total[key] = total.get(key, 0) + count
    return total


def run(config: ExperimentConfig) -> TrainingResult:
    """Run one experiment described by ``config``; the single entry point.

    Raises ``KeyError`` for unknown strategies (listing valid ones) and
    ``ValueError`` for configurations the strategy cannot honour (e.g.
    packet loss with a strategy that has no loss recovery).
    """
    if config.backend == "live":
        from ..live.runner import run_live

        return run_live(config)
    spec = get_strategy(config.mode, config.strategy)
    if config.loss_rate > 0 and not spec.requires_iswitch:
        raise ValueError(
            f"strategy {config.strategy!r} has no loss recovery; "
            "loss_rate > 0 requires an iSwitch strategy ('isw')"
        )
    if config.job_id and not spec.requires_iswitch:
        raise ValueError(
            f"strategy {config.strategy!r} has no per-job switch state; "
            "job_id > 0 requires an iSwitch strategy ('isw')"
        )
    if config.codec != "fp32" and not spec.requires_iswitch:
        raise ValueError(
            f"strategy {config.strategy!r} aggregates on hosts in fp32; "
            "codec != 'fp32' models the switch dataplane and requires an "
            "iSwitch strategy ('isw')"
        )
    profile = config.resolved_profile()
    plan = config.resolved_fault_plan()
    hub = TelemetryHub() if config.telemetry else None
    net, workers = build_cluster(
        config.n_workers,
        profile,
        with_server=spec.requires_server,
        use_iswitch=spec.requires_iswitch,
        workers_per_rack=config.workers_per_rack,
        seed=config.seed,
        workload=config.workload,
        algorithm_overrides=config.algorithm_overrides,
        loss_rate=config.loss_rate,
        dedup=spec.requires_iswitch and (config.loss_rate > 0 or plan is not None),
        telemetry=hub,
        canonical=config.deterministic_aggregation and spec.requires_iswitch,
        recovery_armed=config.resolved_recovery_timeout() is not None,
        # fp32 resolves to None: the exact pre-codec datapath.
        codec=config.resolved_codec(),
    )
    runner = spec.cls.create(net, workers, profile, config)
    injector = None
    if plan is not None:
        from ..faults.injector import FaultInjector

        injector = FaultInjector(
            net,
            workers,
            runner,
            plan,
            loss_tolerant=spec.requires_iswitch,
            poll_interval=profile.compute_time / 2,
        )
        injector.install()
    result = runner.run(config.iterations)
    if injector is None and isinstance(runner, (SyncStrategy, AsyncISwitch)):
        # The run went quiet; without a fault plan to report through, a
        # replica short of its iterations is an error, not a result.
        # (async-ps counts server updates, not iterations per worker.)
        for worker in workers:
            if worker.iterations_done < config.iterations:
                raise SimRunError(worker.name, worker.iterations_done, config)
    result.transport = net.sim.transport
    if spec.requires_iswitch:
        result.ingest = _ingest_summary(net)
    # Replicas the dead cluster no longer pins (SimWorker.detach).
    result.workers = [worker.detach() for worker in workers]
    if injector is not None:
        injector.finalize(result)
    if hub is not None:
        _register_network_collectors(hub, net)
        result.telemetry = hub.snapshot(
            meta={
                "strategy": result.strategy,
                "workload": config.workload,
                "mode": config.mode,
                "n_workers": config.n_workers,
                "iterations": config.iterations,
                "seed": config.seed,
                "loss_rate": config.loss_rate,
                "codec": config.codec,
                "transport": result.transport,
            }
        )
    return result
