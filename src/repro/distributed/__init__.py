"""Distributed RL training strategies over the simulated cluster."""

from .asynchronous import AsyncISwitch, AsyncParameterServer
from .collectives import (
    CollectiveHandle,
    ISwitchStream,
    PsGather,
    PsScatter,
    RingExchange,
    RoundBarrier,
)
from .config import ExperimentConfig
from .metrics import BusyQueue, IterationBreakdown, split_compute_time
from .registry import (
    StrategySpec,
    get_strategy,
    register_strategy,
    strategy_names,
    strategy_specs,
    unregister_strategy,
)
from .results import TrainingResult
from .runner import (
    ASYNC_STRATEGIES,
    SYNC_STRATEGIES,
    SimRunError,
    build_cluster,
    make_algorithm,
    run,
)
from .sharded import ShardedParameterServer
from .sync import (
    HalvingDoublingAllReduce,
    RingAllReduce,
    SyncISwitch,
    SyncParameterServer,
    SyncStrategy,
    make_plan,
)
from .transport import VECTOR_PORT, VectorChunk, VectorReceiver, send_vector
from .worker import ComputeModel, SimWorker

__all__ = [
    "run",
    "SimRunError",
    "ExperimentConfig",
    "build_cluster",
    "make_algorithm",
    "SYNC_STRATEGIES",
    "ASYNC_STRATEGIES",
    "StrategySpec",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "strategy_specs",
    "unregister_strategy",
    "TrainingResult",
    "SyncStrategy",
    "SyncParameterServer",
    "RingAllReduce",
    "HalvingDoublingAllReduce",
    "ShardedParameterServer",
    "SyncISwitch",
    "AsyncParameterServer",
    "AsyncISwitch",
    "make_plan",
    "CollectiveHandle",
    "RoundBarrier",
    "PsGather",
    "PsScatter",
    "RingExchange",
    "ISwitchStream",
    "SimWorker",
    "ComputeModel",
    "IterationBreakdown",
    "BusyQueue",
    "split_compute_time",
    "VectorReceiver",
    "VectorChunk",
    "send_vector",
    "VECTOR_PORT",
]
