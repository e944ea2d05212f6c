"""The six reference workloads and their legs.

A *leg* is one blocking call a user could type: ``run(ExperimentConfig(...))``
or ``run_soak(...)``.  Every leg passes only what ``repro train`` builds
from plain flags — strategy, mode, workload, n_workers, iterations — plus
the one field the leg is about.  ``seed`` and ``telemetry`` are supplied by
the harness; ``transport``, ``scheduler`` and ``REPRO_COMPUTE`` are never
set, so the numbers are the defaults users get and move when those
defaults change.

Leg sizes are fixed (README, "Workloads"): shrinking one changes what the
pinned digests in ``expected.json`` mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: The paper's DQN gradient vector: 4,592 wire frames of 366 floats = 6.41 MB.
PAPER_DQN_PARAMS = 4592 * 366


@dataclass(frozen=True)
class Leg:
    name: str
    #: Training iterations (sync), weight updates (async), or for the soak
    #: leg jobs x iterations: the divisor of every per-iteration metric.
    iterations: int
    #: ``"sync"``/``"async"`` simulated runs, ``"soak"``, or ``"live"``.
    kind: str
    #: Keyword arguments of ``ExperimentConfig`` (or ``run_soak``), minus
    #: ``seed`` and ``telemetry``.
    config: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    legs: Tuple[Leg, ...]

    @property
    def iterations(self) -> int:
        return sum(leg.iterations for leg in self.legs)


def _sim(name, strategy, mode, n_workers, iterations, workload="synth", **extra):
    config = dict(
        strategy=strategy,
        mode=mode,
        workload=workload,
        n_workers=n_workers,
        iterations=iterations,
        **extra,
    )
    return Leg(name, iterations, mode, config)


def _live(name, strategy, n_workers, iterations):
    config = dict(
        strategy=strategy,
        mode="sync",
        workload="synth",
        n_workers=n_workers,
        iterations=iterations,
        backend="live",
    )
    return Leg(name, iterations, "live", config)


_PAPER = {"algorithm_overrides": {"n_params": PAPER_DQN_PARAMS}}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "isw-small",
            "smallest frames on the iSwitch datapath (flat, rack tree, async): "
            "per-packet cost in core.* and netsim.* dominates",
            (
                _sim("sync-isw-n4", "isw", "sync", 4, 30),
                _sim("sync-isw-n12", "isw", "sync", 12, 15),
                _sim("async-isw-n4", "isw", "async", 4, 60),
            ),
        ),
        Workload(
            "hostagg-small",
            "PS and AllReduce baselines: netsim.* and collectives only, zero "
            "calls into core.switch, so in-switch changes must leave it flat",
            (
                _sim("sync-ps-n8", "ps", "sync", 8, 10),
                _sim("sync-ar-n8", "ar", "sync", 8, 10),
                _sim("sync-ps-shard-n8", "ps-shard", "sync", 8, 10),
                _sim("sync-ar-hd-n8", "ar-hd", "sync", 8, 10),
                _sim("async-ps-n8", "ps", "async", 8, 60),
            ),
        ),
        Workload(
            "rl-train",
            "real DQN/A2C/PPO/DDPG training over sync-isw: compute-bound in "
            "rl.* and nn.*, where network-tier changes should move little",
            (
                _sim("dqn-n4", "isw", "sync", 4, 60, workload="dqn"),
                _sim("a2c-n4", "isw", "sync", 4, 20, workload="a2c"),
                _sim("ppo-n4", "isw", "sync", 4, 20, workload="ppo"),
                _sim("ddpg-n4", "isw", "sync", 4, 30, workload="ddpg"),
            ),
        ),
        Workload(
            "isw-robust",
            "loss recovery, int32-bs codec, rank-order sums and a 48-job soak: "
            "the iSwitch paths that leave the batched fast path",
            (
                _sim("loss1pct-n4", "isw", "sync", 4, 30, loss_rate=0.01),
                _sim("int32bs-n4", "isw", "sync", 4, 30, codec="int32-bs"),
                _sim(
                    "canonical-n4", "isw", "sync", 4, 30,
                    deterministic_aggregation=True,
                ),
                # 48 jobs: 64 or more overflow the switch job table
                # (README, "Known limits").
                Leg("soak-j48", 48 * 6, "soak", dict(n_jobs=48, iterations=6)),
            ),
        ),
        Workload(
            "paper-size",
            "the paper's 6.41 MB DQN vector on isw and ps: per-byte cost "
            "(copies, astype, split/assemble, server sums) and peak RSS",
            (
                _sim("paper-isw-n4", "isw", "sync", 4, 2, **_PAPER),
                _sim("paper-ps-n4", "ps", "sync", 4, 2, **_PAPER),
            ),
        ),
        Workload(
            "live-loopback",
            "backend=live over loopback UDP, isw and ps at N=2: real sockets "
            "and processes; sim-only changes must not move it",
            (
                _live("live-isw-n2", "isw", 2, 60),
                _live("live-ps-n2", "ps", 2, 30),
            ),
        ),
    )
}

LEG_NAMES = tuple(leg.name for w in WORKLOADS.values() for leg in w.legs)
