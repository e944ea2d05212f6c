"""Orchestrate a live run: spawn aggregator + worker processes.

:func:`run_live` is the backend entry point dispatched to by
:func:`repro.distributed.run` when ``ExperimentConfig(backend="live")``.
It forks the strategy's server processes (a
:class:`~repro.live.switch.SoftwareSwitch` for ``isw`` — several of
them, ToR→AGG, when the worker count overflows one rack — K
:class:`~repro.live.ps.PsServer` shards for ``ps-shard``, one for ``ps``,
a :class:`~repro.live.async_ps.LiveAsyncPsServer` for async ``ps``, and
none at all for the peer-to-peer ``ar``/``ar-hd`` collectives) and
``n_workers`` worker processes — each child a role driven by the one
:func:`~repro.live.driver.serve` loop — all talking loopback UDP, and folds
their reports into the same :class:`~repro.distributed.results.TrainingResult`
shape the simulator returns (``result.backend == "live"``, with the live
artifacts in the typed fields ``final_weights``/``round_digests``/...).

Membership rendezvous runs over the child pipes: every child binds its
socket and reports ``("port", port)``; once all ports are known the
runner ships a :class:`~repro.live.transport.PeerTable` down the pipes
that need one (the peer-to-peer collectives).  Receiving the table is
the barrier — every address in it is already bound.

Every child ends with ``("ok", payload)`` or ``("error", traceback)``
over its pipe; any child failure terminates the fleet and raises
:class:`LiveRunError` carrying the child's traceback and the seed,
strategy, fleet size and loss rate needed to replay it.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.baselines import hd_schedule, ring_schedule

__all__ = ["LiveRunError", "run_live"]

#: Hard wall-clock ceiling for one live run.  Conformance runs finish in
#: seconds; this only bounds pathological hangs.
RUN_DEADLINE = 120.0

#: Per-pipe wait while collecting child reports.
REPORT_TIMEOUT = 90.0

#: Racks are 3 wide in the hierarchical tree, mirroring the simulator's
#: ``build_rack_tree`` default used by ``build_cluster``.
TREE_RACK_WIDTH = 3


class LiveRunError(RuntimeError):
    """A live run could not start or did not complete."""


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _rack_sizes(n_workers: int) -> List[int]:
    """Per-rack worker counts for the tree (rank ``r`` sits in rack
    ``r // TREE_RACK_WIDTH``, exactly like the simulator's contiguous
    assignment)."""
    return [
        min(TREE_RACK_WIDTH, n_workers - start)
        for start in range(0, n_workers, TREE_RACK_WIDTH)
    ]


# ---------------------------------------------------------------------------
# Child process entry points (top-level so the spawn method can pickle them)
# ---------------------------------------------------------------------------
def _resolve_live_codec(params: Dict[str, Any]):
    """Codec instance for a child process (``None`` = fp32 datapath).

    Children receive the codec *name* so the params dict stays trivially
    picklable under the spawn start method.
    """
    name = params.get("codec", "fp32")
    if name == "fp32":
        return None
    from ..core.compression import get_codec

    return get_codec(name)


def _build_server(params: Dict[str, Any]):
    """Construct the strategy-appropriate server role."""
    from .transport import LOOPBACK

    common = dict(
        n_workers=params.get("n_members", params["n_workers"]),
        loss_rate=params["loss_rate"],
        loss_seed=params["loss_seed"],
    )
    if params["strategy"] == "isw":
        # Flat star switch, tree aggregation switch, or tree ToR switch.
        from .switch import SoftwareSwitch

        parent_port = params.get("parent_port")
        return SoftwareSwitch(
            **common,
            job=params.get("job", 0),
            codec=_resolve_live_codec(params),
            parent_addr=(
                None if parent_port is None else (LOOPBACK, parent_port)
            ),
            rank=params.get("switch_rank", 0),
        )
    if params["mode"] == "async":
        from ..distributed.runner import make_algorithm
        from .async_ps import LiveAsyncPsServer

        # Same replica construction as the simulator's async PS server.
        replica = make_algorithm(
            params["workload"],
            seed=params["seed"] + 10_000,
            **(params["algorithm_overrides"] or {}),
        )
        return LiveAsyncPsServer(**common, replica=replica)
    from .ps import PsServer

    return PsServer(**common)


def _build_worker(rank: int, conn, params: Dict[str, Any]):
    """Construct the strategy-appropriate worker role."""
    from ..distributed.runner import make_algorithm
    from .transport import LOOPBACK, PeerTable

    mode = params.get("mode", "sync")
    strategy = params["strategy"]
    common = dict(
        rank=rank,
        n_workers=params["n_workers"],
        algorithm=make_algorithm(
            params["workload"],
            seed=params["seed"] + rank,
            **(params["algorithm_overrides"] or {}),
        ),
        recovery_timeout=params["recovery_timeout"],
    )
    if strategy == "isw":
        from .worker import LiveWorker

        switch_ports = params["switch_ports"]
        return LiveWorker(
            **common,
            switch_addr=(
                LOOPBACK,
                switch_ports[rank // TREE_RACK_WIDTH]
                if len(switch_ports) > 1
                else switch_ports[0],
            ),
            job=params.get("job", 0),
            codec=_resolve_live_codec(params),
            # sync-isw is async-isw with no rounds in flight ahead.
            staleness_bound=(
                params["staleness_bound"] if mode == "async" else 0
            ),
        )
    if strategy in ("ps", "ps-shard"):
        server_addrs = [(LOOPBACK, port) for port in params["server_ports"]]
        if mode == "async":
            from .async_ps import LiveAsyncPsWorker

            return LiveAsyncPsWorker(**common, server_addr=server_addrs[0])
        from .ps import LiveShardWorker

        # ps is ps-shard with one shard.
        return LiveShardWorker(**common, shard_addrs=server_addrs)
    if strategy in ("ar", "ar-hd"):
        # Peer-to-peer: block on the peer table — the rendezvous barrier
        # for the whole fleet.
        kind, table = conn.recv()
        if kind != "peers" or not isinstance(table, PeerTable):
            raise RuntimeError(f"expected peer table, got {kind!r}")
        kwargs = dict(
            common,
            peers=table.workers,
            loss_rate=params["loss_rate"],
            loss_seed=params["loss_seed"],
        )
        if strategy == "ar":
            from .collective import LiveRingWorker

            return LiveRingWorker(**kwargs)
        from .collective import LiveHdWorker

        return LiveHdWorker(**kwargs)
    raise RuntimeError(f"no live worker for strategy {strategy!r}")


def _child_main(conn, params: Dict[str, Any], rank: Optional[int]) -> None:
    """One live process: bind a socket, report its port, build the role
    (a server when ``rank`` is ``None``, else that rank's worker), drive
    it with :func:`~repro.live.driver.serve`, report what it did."""
    try:
        from .driver import serve
        from .transport import UdpEndpoint

        endpoint = UdpEndpoint()
        conn.send(("port", endpoint.port))
        if rank is None:
            role = _build_server(params)
        else:
            role = _build_worker(rank, conn, params)
            role.start(params["iterations"])
        cpu = time.process_time()
        serve(role, endpoint, time.monotonic() + params["deadline"])
        # The loop's process CPU and the receives that blocked in a poll.
        cost = {
            "cpu_ms": round((time.process_time() - cpu) * 1e3, 3),
            "waits": endpoint.waits,
        }
        if rank is None:
            conn.send(("ok", dict(role.stats_snapshot(), **cost)))
            return
        if not role.done:
            raise RuntimeError(f"worker {rank}: not done within the deadline")
        role.counters.update(cost)
        weights = np.asarray(role.algorithm.get_weights(), dtype=np.float64)
        report = {
            "rank": rank,
            "final_weights": weights,
            "round_digests": role.round_digests,
            "reward": role.algorithm.final_average_reward(),
            "train_seconds": time.monotonic() - role.started,
            "counters": role.counters,
        }
        conn.send(("ok", report))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side orchestration
# ---------------------------------------------------------------------------
def _recv(conn, what: str, timeout: float = REPORT_TIMEOUT) -> Tuple[str, Any]:
    if not conn.poll(timeout):
        raise LiveRunError(f"timed out waiting for {what}")
    try:
        return conn.recv()
    except (EOFError, OSError) as exc:
        raise LiveRunError(f"{what} died without reporting: {exc}") from exc


def _recv_port(conn, what: str, timeout: float = 30.0) -> int:
    kind, value = _recv(conn, f"{what} startup", timeout=timeout)
    if kind == "error":
        raise LiveRunError(f"{what} failed to start:\n{value}")
    if kind != "port":
        raise LiveRunError(f"unexpected {what} report: {kind!r}")
    return value


def _terminate(processes: List) -> None:
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=5)


def _merge_server_stats(
    snapshots: List[Tuple[str, Dict[str, int]]]
) -> Dict[str, int]:
    """Fold several servers' counters into one dict (sums; maxima for
    high-watermark counters)."""
    merged: Dict[str, int] = {}
    for _node, snap in snapshots:
        for key, value in snap.items():
            if "max" in key:
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def _validate(config, spec, tree: bool) -> str:
    """Reject configurations the live backend cannot execute; returns
    the codec name."""
    if not spec.supports_live:
        from ..distributed.registry import strategy_specs

        live_names = ", ".join(
            f"{s.mode}-{s.name}" for s in strategy_specs() if s.supports_live
        )
        raise LiveRunError(
            f"strategy {spec.name!r} has no live backend; choose {live_names}"
        )
    if config.fault_plan is not None:
        raise LiveRunError("fault injection is simulator-only")
    if getattr(config, "job_id", 0) and not spec.requires_iswitch:
        raise ValueError(
            f"strategy {config.strategy!r} has no per-job switch state; "
            "job_id > 0 requires an iSwitch strategy ('isw')"
        )
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
    codec_name = getattr(config, "codec", "fp32")
    if codec_name != "fp32":
        if not spec.requires_iswitch or config.mode != "sync" or tree:
            raise ValueError(
                f"codec {codec_name!r} models the switch dataplane; live "
                "codec runs require the flat single-switch 'sync-isw' "
                "strategy"
            )
        from ..core.compression import get_codec

        if get_codec(codec_name).wire_tag is None:
            raise ValueError(
                f"codec {codec_name!r} is a simulator-only loss model with "
                "no wire format; live runs accept fp32, fp16, int32-bs, topk"
            )
    return codec_name


def _spawn_servers(
    ctx, params: Dict[str, Any], config, spec, tree: bool
) -> Tuple[List, List[Tuple[str, Any]], Dict[str, Any]]:
    """Start the strategy's server processes; returns (processes,
    [(node_name, parent_conn)], params updated with the ports workers
    dial)."""
    processes: List = []
    server_conns: List[Tuple[str, Any]] = []

    def _spawn(name: str, child_params: Dict[str, Any]) -> int:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_child_main, args=(child_conn, child_params, None), daemon=True
        )
        processes.append(proc)
        proc.start()
        child_conn.close()
        server_conns.append((name, parent_conn))
        return _recv_port(parent_conn, name)

    if spec.requires_iswitch:
        if tree:
            sizes = _rack_sizes(config.n_workers)
            agg_port = _spawn(
                "aggregator", dict(params, n_members=len(sizes))
            )
            tor_ports = [
                _spawn(
                    f"tor{index}",
                    dict(
                        params,
                        n_members=size,
                        parent_port=agg_port,
                        switch_rank=index,
                        loss_seed=params["loss_seed"] + 101 * (index + 1),
                    ),
                )
                for index, size in enumerate(sizes)
            ]
            params = dict(params, switch_ports=tor_ports)
        else:
            port = _spawn("aggregator", params)
            params = dict(params, switch_ports=[port])
    elif config.strategy == "ps":
        params = dict(params, server_ports=[_spawn("aggregator", params)])
    elif config.strategy == "ps-shard":
        n_shards = min(config.ps_shards or 4, config.n_workers)
        server_ports = [
            _spawn(
                f"shard{index}",
                dict(
                    params,
                    loss_seed=params["loss_seed"] + 101 * (index + 1),
                ),
            )
            for index in range(n_shards)
        ]
        params = dict(params, server_ports=server_ports)
    # ar / ar-hd: no server processes at all.
    return processes, server_conns, params


def run_live(config) -> "TrainingResult":
    """Execute ``config`` for real over loopback UDP processes."""
    from ..distributed.registry import get_strategy
    from ..distributed.results import TrainingResult
    from ..telemetry.hub import TelemetryHub
    from .transport import LOOPBACK, PeerTable, loopback_available

    spec = get_strategy(config.mode, config.strategy)
    tree = spec.requires_iswitch and config.n_workers > config.workers_per_rack
    codec_name = _validate(config, spec, tree)
    if not loopback_available():
        raise LiveRunError(
            "loopback UDP is unavailable in this environment"
        )

    ctx = _mp_context()
    recovery_timeout = config.recovery_timeout
    if recovery_timeout is None:
        from .driver import DEFAULT_LIVE_RECOVERY_TIMEOUT

        recovery_timeout = DEFAULT_LIVE_RECOVERY_TIMEOUT
    params: Dict[str, Any] = {
        "mode": config.mode,
        "strategy": config.strategy,
        "workload": config.workload,
        "n_workers": config.n_workers,
        "iterations": config.iterations,
        "seed": config.seed,
        "loss_rate": config.loss_rate,
        "loss_seed": config.seed,
        "recovery_timeout": recovery_timeout,
        "algorithm_overrides": config.algorithm_overrides,
        "job": getattr(config, "job_id", 0),
        "codec": codec_name,
        "staleness_bound": config.staleness_bound,
        "deadline": RUN_DEADLINE,
    }

    peer_to_peer = config.strategy in ("ar", "ar-hd")
    wall_start = time.monotonic()
    processes: List = []
    try:
        processes, server_conns, params = _spawn_servers(
            ctx, params, config, spec, tree
        )

        worker_conns = []
        for rank in range(config.n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_child_main,
                args=(child_conn, params, rank),
                daemon=True,
            )
            processes.append(proc)
            proc.start()
            child_conn.close()
            worker_conns.append(parent_conn)

        table = PeerTable(
            workers={
                rank: (LOOPBACK, _recv_port(conn, f"worker {rank}"))
                for rank, conn in enumerate(worker_conns)
            }
        )
        if peer_to_peer:
            for conn in worker_conns:
                conn.send(("peers", table))

        worker_reports = []
        for rank, conn in enumerate(worker_conns):
            kind, value = _recv(conn, f"worker {rank}")
            if kind == "error":
                raise LiveRunError(f"worker {rank} failed:\n{value}")
            worker_reports.append(value)

        server_snapshots: List[Tuple[str, Dict[str, int]]] = []
        for name, conn in server_conns:
            kind, value = _recv(conn, f"{name} shutdown", timeout=30.0)
            if kind == "error":
                raise LiveRunError(f"{name} failed:\n{value}")
            server_snapshots.append((name, value))
    except LiveRunError as exc:
        raise LiveRunError(f"{exc}\n{config.replay_line()}") from exc
    finally:
        _terminate(processes)
    wall_elapsed = time.monotonic() - wall_start

    # async-ps workers pull their *own* post-apply weight versions, so
    # each rank's digest stream is distinct by design; every other
    # strategy broadcasts one aggregate per round to all ranks.
    per_worker_digests = config.mode == "async" and config.strategy == "ps"
    round_digests: Optional[List[str]] = None
    worker_digests: Optional[Dict[int, List[str]]] = None
    if per_worker_digests:
        worker_digests = {
            r["rank"]: list(r["round_digests"]) for r in worker_reports
        }
    else:
        digests = [tuple(r["round_digests"]) for r in worker_reports]
        if len(set(digests)) != 1:
            raise LiveRunError(
                "workers disagree on the per-round aggregated sums — "
                "the broadcast diverged"
            )
        round_digests = list(digests[0])

    server_stats: Optional[Dict[str, int]] = (
        _merge_server_stats(server_snapshots) if server_snapshots else None
    )

    # Staleness, measured from the live run itself.
    mean_staleness = max_staleness = None
    if config.mode == "async" and config.strategy == "isw":
        gap_total = sum(
            r["counters"].get("version_gap_total", 0) for r in worker_reports
        )
        gap_count = sum(
            r["counters"].get("version_gap_count", 0) for r in worker_reports
        )
        max_staleness = max(
            r["counters"].get("version_gap_max", 0) for r in worker_reports
        )
        mean_staleness = gap_total / gap_count if gap_count else 0.0
    elif config.mode == "async" and server_stats is not None:
        updates = server_stats.get("updates", 0)
        if updates:
            mean_staleness = server_stats["staleness_total"] / updates
            max_staleness = server_stats["staleness_max"]

    hub = TelemetryHub() if config.telemetry else None
    if hub is not None:
        children = [(f"worker{r['rank']}", r["counters"]) for r in worker_reports]
        for node, counters in children + server_snapshots:
            for name, amount in counters.items():
                if amount:
                    hub.inc(f"live.{name}", amount, node=node)

    result = TrainingResult(
        strategy=spec.cls.name,
        workload=config.workload,
        n_workers=config.n_workers,
        iterations=config.iterations,
        # Elapsed is the slowest worker's training wall time; the
        # simulator reports modelled time, so live timings are only
        # comparable with other live timings.
        elapsed=max(r["train_seconds"] for r in worker_reports),
        workers=[],
        backend="live",
        wall_elapsed=wall_elapsed,
        final_weights={
            r["rank"]: r["final_weights"] for r in worker_reports
        },
        round_digests=round_digests,
        worker_digests=worker_digests,
        rewards={r["rank"]: r["reward"] for r in worker_reports},
        worker_counters={
            r["rank"]: r["counters"] for r in worker_reports
        },
        server_stats=server_stats,
        mean_staleness=mean_staleness,
        max_staleness=max_staleness,
    )
    if hub is not None:
        result.telemetry = hub.snapshot(
            meta={
                "strategy": result.strategy,
                "workload": config.workload,
                "mode": config.mode,
                "backend": "live",
                "n_workers": config.n_workers,
                "iterations": config.iterations,
                "seed": config.seed,
                "loss_rate": config.loss_rate,
                "codec": codec_name,
            }
        )
    return result
