"""One live fleet: who runs a live experiment, where, and what it adds up to.

:func:`fleet` is a live run as a pure function of an
:class:`~repro.distributed.config.ExperimentConfig` and an address
source: each :class:`Member` is a name, an address and a builder of its
role (a :mod:`repro.live.driver` role, a worker already armed with the
run's iterations).  The strategy's servers come first — a flat
:class:`~repro.live.switch.SoftwareSwitch` for ``isw``, or an aggregation
switch over one ToR per rack when the workers overflow one
(:func:`repro.netsim.topology.racks`, the simulator's own layout); K
:class:`~repro.live.ps.PsServer` shards for ``ps-shard``, one for ``ps``;
a :class:`~repro.live.async_ps.LiveAsyncPsServer` for async ``ps``; none
for the peer-to-peer ``ar``/``ar-hd`` — then the ``n_workers`` workers,
each built with its servers' or peers' addresses.

Two carriers run the same fleet: :func:`repro.live.runner.run_live` binds
a loopback UDP socket per member and drives each role in a child process,
and the test suite's virtual-clock wire (``tests/live_wire.py``) plugs
every role into one event heap.  Each hands what its members
:func:`report` to :func:`_result`, which folds them into the
:class:`~repro.distributed.results.TrainingResult` the simulator returns
(``backend == "live"``, the live artifacts in ``final_weights`` /
``round_digests`` / ...).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.baselines import hd_schedule, ring_schedule
from ..distributed.registry import get_strategy, strategy_specs
from ..distributed.results import TrainingResult
from ..distributed.runner import check_switch_state, make_algorithm
from ..netsim.topology import racks
from ..telemetry import scrape
from ..telemetry.hub import TelemetryHub
from .async_ps import LiveAsyncPsServer, LiveAsyncPsWorker
from .collective import LiveHdWorker, LiveRingWorker
from .driver import DEFAULT_LIVE_RECOVERY_TIMEOUT, LiveWorkerBase
from .ps import LiveShardWorker, PsServer
from .switch import SoftwareSwitch
from .transport import Address
from .worker import LiveWorker

__all__ = ["LiveRunError", "Member", "fleet", "report"]


class LiveRunError(RuntimeError):
    """A live run could not start or did not complete."""


class Member(NamedTuple):
    """One process of a live run (``build`` pickles, for ``spawn``)."""

    name: str
    address: Address
    build: Callable[[], Any]


def _validate(config, spec, tree: bool) -> None:
    """Reject configurations the live backend cannot execute."""
    if not spec.supports_live:
        live_names = ", ".join(
            f"{s.mode}-{s.name}" for s in strategy_specs() if s.supports_live
        )
        raise LiveRunError(
            f"strategy {spec.name!r} has no live backend; choose {live_names}"
        )
    if config.fault_plan is not None:
        raise LiveRunError("fault injection is simulator-only")
    if config.strategy in ("ar", "ar-hd"):
        # The exchange schedule refuses a worker count it cannot run.
        schedule = ring_schedule if config.strategy == "ar" else hd_schedule
        schedule(config.n_workers, 0)
    if config.mode == "async" and tree:
        raise LiveRunError(
            "the live hierarchical tree only runs synchronous rounds; "
            f"async-isw supports up to {config.workers_per_rack} workers "
            "(one rack)"
        )
    codec = config.resolved_codec()
    if codec is not None:
        if config.mode != "sync" or tree:
            raise ValueError(
                f"codec {config.codec!r} models the switch dataplane; live "
                "codec runs require the flat single-switch 'sync-isw' "
                "strategy"
            )
        if codec.wire_tag is None:
            raise ValueError(
                f"codec {config.codec!r} is a simulator-only loss model with "
                "no wire format; live runs accept fp32, fp16, int32-bs, topk"
            )


def fleet(config, address: Callable[[], Address]) -> List[Member]:
    """The members of ``config``'s live run, servers first; ``address()``
    hands out each member's address."""
    spec = get_strategy(config.mode, config.strategy)
    check_switch_state(config, spec)
    n_workers, seed = config.n_workers, config.seed
    tree = spec.requires_iswitch and n_workers > config.workers_per_rack
    _validate(config, spec, tree)

    def member(name: str, *args, **kwargs) -> Member:
        return Member(name, address(), partial(*args, **kwargs))

    if tree:
        layout = racks(n_workers)
        agg = member("aggregator", _switch, config, n_members=len(layout))
        servers = [agg] + [
            member(
                f"tor{index}",
                _switch,
                config,
                n_members=len(ranks),
                loss_seed=seed + 101 * (index + 1),
                parent=agg.address,
                rank=index,
            )
            for index, ranks in enumerate(layout)
        ]
        upstream = [
            [tor.address] for tor, ranks in zip(servers[1:], layout) for _ in ranks
        ]
    else:
        if spec.requires_iswitch:
            servers = [member("aggregator", _switch, config, n_members=n_workers)]
        elif config.mode == "async":
            servers = [member("aggregator", _async_ps, config)]
        elif config.strategy == "ps":
            servers = [member("aggregator", _ps, config, seed)]
        elif config.strategy == "ps-shard":
            servers = [
                member(f"shard{index}", _ps, config, seed + 101 * (index + 1))
                for index in range(min(config.ps_shards or 4, n_workers))
            ]
        else:  # ar / ar-hd: peer to peer, no server at all
            servers = []
        upstream = [[server.address for server in servers]] * n_workers
    addrs = [address() for _ in range(n_workers)]
    if not servers:  # a collective worker's peers are every rank
        upstream = [addrs] * n_workers
    workers = [
        Member(f"worker {rank}", addr, partial(_worker, config, rank, to))
        for rank, (addr, to) in enumerate(zip(addrs, upstream))
    ]
    return servers + workers


def _switch(config, n_members, loss_seed=None, parent=None, rank=0):
    """A flat switch, an aggregation switch, or a ToR (``parent`` set)."""
    return SoftwareSwitch(
        n_members,
        config.loss_rate,
        config.seed if loss_seed is None else loss_seed,
        job=config.job_id,
        codec=config.resolved_codec(),
        parent_addr=parent,
        rank=rank,
    )


def _ps(config, loss_seed: int) -> PsServer:
    return PsServer(config.n_workers, config.loss_rate, loss_seed)


def _algorithm(config, seed: int):
    return make_algorithm(
        config.workload, seed=seed, **(config.algorithm_overrides or {})
    )


def _async_ps(config) -> LiveAsyncPsServer:
    # Same replica construction as the simulator's async PS server.
    replica = _algorithm(config, config.seed + 10_000)
    return LiveAsyncPsServer(config.n_workers, replica, config.loss_rate, config.seed)


def _worker(config, rank: int, addrs: List[Address]) -> LiveWorkerBase:
    """Worker ``rank``, to talk to ``addrs`` (its servers, or every rank's
    address for the peer-to-peer collectives), armed for the run."""
    common = dict(
        rank=rank,
        n_workers=config.n_workers,
        algorithm=_algorithm(config, config.seed + rank),
        recovery_timeout=config.recovery_timeout or DEFAULT_LIVE_RECOVERY_TIMEOUT,
    )
    if config.strategy == "isw":
        # sync-isw is async-isw with no rounds in flight ahead.
        bound = config.staleness_bound if config.mode == "async" else 0
        role = LiveWorker(
            **common,
            switch_addr=addrs[0],
            job=config.job_id,
            codec=config.resolved_codec(),
            staleness_bound=bound,
        )
    elif config.mode == "async":
        role = LiveAsyncPsWorker(**common, server_addr=addrs[0])
    elif config.strategy in ("ps", "ps-shard"):
        role = LiveShardWorker(**common, shard_addrs=addrs)  # ps: one shard
    else:
        cls = LiveRingWorker if config.strategy == "ar" else LiveHdWorker
        peers = dict(enumerate(addrs))
        loss = dict(loss_rate=config.loss_rate, loss_seed=config.seed)
        role = cls(**common, peers=peers, **loss)
    role.start(config.iterations)
    return role


def report(role, now: float, **cost) -> Dict[str, Any]:
    """What a member hands back once its carrier stopped driving it at
    time ``now``: a server its counters, a worker its rank, weights,
    digests, reward, training time and counters — each with the carrier's
    ``cost`` counters added."""
    if not isinstance(role, LiveWorkerBase):
        return dict(role.stats_snapshot(), **cost)
    if not role.done:
        raise RuntimeError(f"worker {role.rank}: not done within the deadline")
    role.counters.update(cost)
    return {
        "rank": role.rank,
        "final_weights": np.asarray(role.algorithm.get_weights(), dtype=np.float64),
        "round_digests": role.round_digests,
        "reward": role.algorithm.final_average_reward(),
        "train_seconds": now - role.started,
        "counters": role.counters,
    }


def _result(config, reports: List[Tuple[str, Dict[str, Any]]]) -> TrainingResult:
    """The :class:`~repro.distributed.results.TrainingResult` of a run
    whose members (in :func:`fleet` order) reported ``reports``:
    ``(name, report)`` pairs."""
    servers = reports[: len(reports) - config.n_workers]
    workers = [report for _, report in reports[len(servers) :]]
    by_rank = lambda key: {r["rank"]: r[key] for r in workers}

    # async-ps workers pull their *own* post-apply weight versions, so
    # each rank's digest stream is distinct by design; every other
    # strategy broadcasts one aggregate per round to all ranks.
    round_digests = worker_digests = None
    if config.mode == "async" and config.strategy == "ps":
        worker_digests = {rank: list(d) for rank, d in by_rank("round_digests").items()}
    else:
        digests = {tuple(r["round_digests"]) for r in workers}
        if len(digests) != 1:
            raise LiveRunError(
                "workers disagree on the per-round aggregated sums — "
                "the broadcast diverged"
            )
        round_digests = list(digests.pop())

    # The servers' counters, summed (maxima for high watermarks).
    server_stats: Optional[Dict[str, int]] = {} if servers else None
    for _, snapshot in servers:
        for key, value in snapshot.items():
            total = server_stats.get(key, 0)
            server_stats[key] = max(total, value) if "max" in key else total + value

    # Staleness, measured from the live run itself.
    mean_staleness = max_staleness = None
    if config.mode == "async" and config.strategy == "isw":
        gaps = [r["counters"] for r in workers]
        gap_count = sum(c.get("version_gap_count", 0) for c in gaps)
        gap_total = sum(c.get("version_gap_total", 0) for c in gaps)
        max_staleness = max(c.get("version_gap_max", 0) for c in gaps)
        mean_staleness = gap_total / gap_count if gap_count else 0.0
    elif config.mode == "async" and server_stats.get("updates"):
        mean_staleness = server_stats["staleness_total"] / server_stats["updates"]
        max_staleness = server_stats["staleness_max"]

    result = TrainingResult(
        strategy=get_strategy(config.mode, config.strategy).cls.name,
        workload=config.workload,
        n_workers=config.n_workers,
        iterations=config.iterations,
        # Elapsed is the slowest worker's training time; the simulator
        # reports modelled time, so live timings are only comparable with
        # other live timings.
        elapsed=max(r["train_seconds"] for r in workers),
        workers=[],
        backend="live",
        final_weights=by_rank("final_weights"),
        round_digests=round_digests,
        worker_digests=worker_digests,
        rewards=by_rank("reward"),
        worker_counters=by_rank("counters"),
        server_stats=server_stats,
        mean_staleness=mean_staleness,
        max_staleness=max_staleness,
    )
    if config.telemetry:
        hub = TelemetryHub()
        children = [(f"worker{rank}", c) for rank, c in by_rank("counters").items()]
        hub.watch(scrape.live, children + servers)
        shown = ("workload", "mode", "n_workers", "iterations", "seed")
        shown += ("loss_rate", "codec")
        result.telemetry = hub.snapshot(
            meta=dict(
                strategy=result.strategy,
                backend="live",
                **{key: getattr(config, key) for key in shown},
            )
        )
    return result
