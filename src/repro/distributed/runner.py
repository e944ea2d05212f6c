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
from ..telemetry import scrape
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
    the Figure 10 two-layer tree is used, racks laid out by
    :func:`~repro.netsim.topology.racks` (three workers each, like the
    paper's NetFPGA-port-limited emulation).  ``loss_rate`` applies
    independent per-packet drops on every link (seeded reproducibly from
    ``seed``); ``dedup`` enables duplicate suppression in the iSwitch
    engines, which loss recovery requires.  ``telemetry`` attaches a
    :class:`~repro.telemetry.TelemetryHub` to the simulator: the hot paths
    record spans, and the components' own counts are read when it takes a
    snapshot.  ``recovery_armed`` says packets can go missing (a loss
    rate, a fault plan, an explicit recovery timeout), which keeps the
    cluster on the per-packet transport
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
        net = build_rack_tree(sim, n_workers, with_server=with_server, **kwargs)
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


def _ingest_summary(net) -> dict:
    """Non-zero train-ingest counts summed over the switches' engines."""
    total: dict = {}
    for switch in net.switches:
        for state in getattr(switch, "jobs", ()):
            stats = state.engine.stats
            for key, count in (*stats.joins.items(), *stats.batch_bails.items()):
                if count:
                    total[key] = total.get(key, 0) + count
    return total


def check_switch_state(config: ExperimentConfig, spec) -> None:
    """The rules both backends share: per-job switch state and a codec
    live in the switch, so ``job_id > 0`` and a non-fp32 codec need an
    iSwitch strategy."""
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


def run(config: ExperimentConfig) -> TrainingResult:
    """Run one experiment described by ``config``; the single entry point.

    Raises ``KeyError`` for unknown strategies (listing valid ones) and
    ``ValueError`` for configurations the strategy cannot honour (e.g.
    packet loss with a strategy that has no loss recovery).
    """
    spec = get_strategy(config.mode, config.strategy)
    check_switch_state(config, spec)
    if config.backend == "live":
        from ..live.runner import run_live

        return run_live(config)
    if config.loss_rate > 0 and not spec.requires_iswitch:
        raise ValueError(
            f"strategy {config.strategy!r} has no loss recovery; "
            "loss_rate > 0 requires an iSwitch strategy ('isw')"
        )
    profile = config.resolved_profile()
    plan = config.resolved_fault_plan()
    hub = TelemetryHub() if config.telemetry else None
    armed = config.resolved_recovery_timeout() is not None
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
        dedup=spec.requires_iswitch and armed,
        telemetry=hub,
        # Rank-order sums: the live switch's, and the only order in which a
        # round re-made after loss sums to the bits it first had — which
        # async-isw's decentralised replicas need (DESIGN §6.2).
        canonical=spec.requires_iswitch
        and (config.deterministic_aggregation or (armed and config.mode == "async")),
        recovery_armed=armed,
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
        hub.watch(scrape.network, net)
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
