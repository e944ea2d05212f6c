"""The experiment-configuration facade: one object describes one run.

:class:`ExperimentConfig` is a single validated dataclass, consumed by
:func:`repro.distributed.run`::

    from repro.distributed import ExperimentConfig, run

    result = run(ExperimentConfig(strategy="isw", workload="dqn",
                                  n_workers=8, loss_rate=1e-4))

Fields mirror the paper's experiment knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..workloads.calibration import DEFAULT_COST_MODEL, CostModel
from ..workloads.profiles import WorkloadProfile, get_profile

__all__ = [
    "ExperimentConfig",
    "DEFAULT_RECOVERY_TIMEOUT",
    "choose_transport",
    "resolve_codec",
]

#: Worker watchdog period when loss recovery is armed and no explicit
#: ``recovery_timeout`` was given: comfortably above one aggregation
#: round-trip at 10 Gb/s, far below an iteration.
DEFAULT_RECOVERY_TIMEOUT = 0.5e-3

_WORKLOADS = ("dqn", "a2c", "ppo", "ddpg", "synth")
_BACKENDS = ("sim", "live")


def choose_transport(
    *, recovery_armed: bool = False, shared_fabric: bool = False
) -> str:
    """Pick a cluster's ``Simulator.transport``; the label says why.

    Senders burst packet trains — iSwitch clients their segments,
    ``send_vector`` its chunks — wherever that is proven bit-identical to
    one event per packet, and stay per-packet in the regimes measured as
    not equivalent (DESIGN.md §11.2).  The only place the choice is made —
    ``build_cluster`` and ``SwitchFabric`` call it, nothing user-settable
    overrides it.
    """
    if shared_fabric:
        return "packet (shared fabric)"  # jobs' bursts interleave on uplinks
    if recovery_armed:
        return "packet (loss recovery armed)"  # loss_rate, fault plan, timeout
    return "train"


@dataclass
class ExperimentConfig:
    """Everything needed to run one distributed-training experiment."""

    strategy: str = "isw"
    workload: str = "dqn"
    mode: str = "sync"
    #: Execution backend: ``"sim"`` (the discrete-event simulator) or
    #: ``"live"`` (worker/switch processes exchanging encoded frames over
    #: loopback UDP; see :mod:`repro.live`).
    backend: str = "sim"
    #: Sum contributions in canonical (rank) order instead of arrival
    #: order.  float32 addition is order-sensitive; the live backend is
    #: always canonical, so set this on a sim run to make the two
    #: bit-comparable.  Off by default — the golden regressions pin the
    #: paper's on-the-fly arrival-order numerics.
    deterministic_aggregation: bool = False
    n_workers: int = 4
    #: Iterations (sync) or weight updates (async) to simulate.
    iterations: int = 50
    seed: int = 0
    #: Training-job id for multi-tenant switches (0 = the default job).
    #: Only iSwitch strategies consume it; the wire protocol carries it in
    #: 7 reserved bits, hence the 0..127 range.
    job_id: int = 0
    #: Async only: the staleness bound S of Algorithm 1.
    staleness_bound: int = 3
    #: Aggregation numerics / wire codec (see
    #: :mod:`repro.core.compression`): ``"fp32"`` (the paper's datapath,
    #: default), ``"fp16"``, ``"int32-bs"`` (block-scaled int32, summed
    #: as integers on the switch), ``"topk"`` (sparsified index+value
    #: frames), or ``"int8"`` (simulator-only loss model, no wire
    #: format).  Non-fp32 codecs require an iSwitch strategy — they model
    #: what the switch dataplane aggregates.
    codec: str = "fp32"
    #: Independent per-packet drop probability on every host link.
    #: Only iSwitch strategies are loss-tolerant; ``run`` rejects
    #: ``loss_rate > 0`` for ps/ar.
    loss_rate: float = 0.0
    #: Worker watchdog period for loss recovery; ``None`` picks
    #: :data:`DEFAULT_RECOVERY_TIMEOUT` when ``loss_rate > 0``.
    recovery_timeout: Optional[float] = None
    profile: Optional[WorkloadProfile] = None
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    algorithm_overrides: Optional[dict] = None
    workers_per_rack: int = 4
    #: ``ps-shard`` only: number of shard servers (clamped to the worker
    #: count); ``None`` uses the strategy's default.
    ps_shards: Optional[int] = None
    #: Collect metrics/spans/events into ``TrainingResult.telemetry``.
    telemetry: bool = True
    #: Scenario-driven fault injection: a
    #: :class:`repro.faults.FaultPlan` instance, or a path (``str``) to a
    #: plan JSON file (see ``repro train --fault-plan``).  ``None``
    #: disables injection.
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        self.strategy = self.strategy.lower()
        self.mode = self.mode.lower()
        self.workload = self.workload.lower()
        self.backend = self.backend.lower()
        # Accept mode-qualified strategy names ("sync-isw", "async-ps"):
        # the prefix sets the mode, matching how results and docs label
        # strategies.
        for prefix in ("sync", "async"):
            if self.strategy.startswith(prefix + "-"):
                self.strategy = self.strategy[len(prefix) + 1 :]
                self.mode = prefix
                break
        if self.mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose {_WORKLOADS}"
            )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.job_id <= 127:
            raise ValueError(
                f"job_id must be in [0, 127] (7 wire bits), got {self.job_id}"
            )
        if self.staleness_bound < 0:
            raise ValueError(
                f"staleness_bound must be >= 0, got {self.staleness_bound}"
            )
        self.codec = self.codec.lower()
        from ..core.compression import CODECS

        if self.codec not in CODECS:
            raise ValueError(
                f"unknown codec {self.codec!r}; choose one of "
                f"{sorted(CODECS)}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.recovery_timeout is not None and self.recovery_timeout <= 0:
            raise ValueError(
                f"recovery_timeout must be > 0, got {self.recovery_timeout}"
            )
        if self.workers_per_rack < 1:
            raise ValueError(
                f"workers_per_rack must be >= 1, got {self.workers_per_rack}"
            )
        if self.ps_shards is not None and self.ps_shards < 1:
            raise ValueError(
                f"ps_shards must be >= 1, got {self.ps_shards}"
            )
        if self.ps_shards is not None and self.strategy != "ps-shard":
            raise ValueError(
                f"strategy {self.strategy!r} has no shard servers; "
                "ps_shards requires the sharded parameter server ('ps-shard')"
            )

    # ------------------------------------------------------------------
    def resolved_profile(self) -> WorkloadProfile:
        return self.profile if self.profile is not None else get_profile(
            self.workload
        )

    def resolved_recovery_timeout(self) -> Optional[float]:
        """The watchdog period to arm, or ``None`` for no recovery loop.

        Armed automatically whenever packets can go missing: explicit
        ``loss_rate`` *or* a fault plan (which may inject burst loss or
        a switch Reset mid-round).
        """
        if self.recovery_timeout is not None:
            return self.recovery_timeout
        if self.loss_rate > 0 or self.fault_plan is not None:
            return DEFAULT_RECOVERY_TIMEOUT
        return None

    def resolved_fault_plan(self):
        """The :class:`repro.faults.FaultPlan` to inject, or ``None``.

        Accepts a plan instance or a JSON path string (loaded lazily so
        configs without faults never import :mod:`repro.faults`).
        """
        if self.fault_plan is None:
            return None
        from ..faults.plan import FaultPlan

        if isinstance(self.fault_plan, FaultPlan):
            return self.fault_plan
        if isinstance(self.fault_plan, str):
            return FaultPlan.load(self.fault_plan)
        raise ValueError(
            "fault_plan must be a FaultPlan or a path to a plan JSON, "
            f"got {type(self.fault_plan).__name__}"
        )

    def resolved_codec(self):
        """The :class:`~repro.core.compression.GradientCodec` instance, or
        ``None`` for the fp32 datapath (which runs the exact pre-codec
        engine and plan geometry)."""
        if self.codec == "fp32":
            return None
        from ..core.compression import get_codec

        return get_codec(self.codec)

    def replay_line(self) -> str:
        """What a typed run failure ends in: enough to replay the run —
        every scalar field that is not at its default, after the five
        that are always worth reading."""
        shown = {"workload", "n_workers", "iterations", "seed", "loss_rate"}
        parts = [f"{self.mode}-{self.strategy}"]
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("mode", "strategy") or not (
                value is None or isinstance(value, (str, int, float))
            ):
                continue
            if spec.name in shown or value != spec.default:
                parts.append(f"{spec.name}={value}")
        return f"[replay: {' '.join(parts)}]"

    def with_overrides(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def resolve_codec(config) -> Optional[object]:
    """Duck-typed :meth:`ExperimentConfig.resolved_codec` for strategy
    ``create()`` hooks, which also accept plain config stand-ins."""
    resolved = getattr(config, "resolved_codec", None)
    return resolved() if callable(resolved) else None
