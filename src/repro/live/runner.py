"""Run a live fleet as processes over loopback UDP.

:func:`run_live` is the backend entry point dispatched to by
:func:`repro.distributed.run` when ``ExperimentConfig(backend="live")``.
It binds one loopback UDP socket per member of the config's
:func:`~repro.live.fleet.fleet` — so every address is known, and
datagrams to it queue, before any child starts — then starts one child
per member, servers first.  Each child builds only its own role and
drives it with the one :func:`~repro.live.driver.serve` loop; the pipes
carry only the final reports, which :func:`~repro.live.fleet._result`
folds into the :class:`~repro.distributed.results.TrainingResult`.

Every child ends with ``("ok", report)`` or ``("error", traceback)``
over its pipe; any child failure terminates the fleet and raises
:class:`LiveRunError` carrying the child's traceback and the seed,
strategy, fleet size and loss rate needed to replay it.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Dict, List, Tuple

from .fleet import LiveRunError, Member, _result, fleet, report
from .fleet import _validate  # noqa: F401  (the live rules, by the entry point)

__all__ = ["LiveRunError", "run_live"]

#: Hard wall-clock ceiling for one live run.  Conformance runs finish in
#: seconds; this only bounds pathological hangs.
RUN_DEADLINE = 120.0

#: Per-pipe wait while collecting child reports.
REPORT_TIMEOUT = 90.0


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _child_main(conn, member: Member, endpoint) -> None:
    """One live process: build the member's role, drive it from its
    already-bound ``endpoint`` with :func:`~repro.live.driver.serve`,
    report what it did."""
    try:
        from .driver import serve

        role = member.build()
        cpu = time.process_time()
        serve(role, endpoint, time.monotonic() + RUN_DEADLINE)
        # The loop's process CPU and the receives that blocked in a poll.
        cost = {
            "cpu_ms": round((time.process_time() - cpu) * 1e3, 3),
            "waits": endpoint.waits,
        }
        conn.send(("ok", report(role, time.monotonic(), **cost)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _recv(conn, what: str, timeout: float = REPORT_TIMEOUT) -> Tuple[str, Any]:
    if not conn.poll(timeout):
        raise LiveRunError(f"timed out waiting for {what}")
    try:
        return conn.recv()
    except (EOFError, OSError) as exc:
        raise LiveRunError(f"{what} died without reporting: {exc}") from exc


def _report_of(
    name: str, conn, what: str, timeout: float = REPORT_TIMEOUT
) -> Tuple[str, Dict[str, Any]]:
    """``(name, report)`` from member ``name``'s pipe."""
    kind, value = _recv(conn, what, timeout)
    if kind == "error":
        raise LiveRunError(f"{name} failed:\n{value}")
    return name, value


def _terminate(processes: List) -> None:
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=5)


def run_live(config) -> "TrainingResult":
    """Execute ``config`` for real over loopback UDP processes."""
    from . import transport

    endpoints: Dict[Any, Any] = {}

    def bind():
        if not endpoints and not transport.loopback_available():
            raise LiveRunError("loopback UDP is unavailable in this environment")
        endpoint = transport.UdpEndpoint()
        endpoints[endpoint.address] = endpoint
        return endpoint.address

    ctx = _mp_context()
    wall_start = time.monotonic()
    processes: List = []
    try:
        members = fleet(config, bind)
        n_servers = len(members) - config.n_workers
        try:
            conns = []
            for member in members:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, member, endpoints[member.address]),
                    daemon=True,
                )
                processes.append(proc)
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
            # Workers report once trained, their servers once all left.
            workers = [
                _report_of(member.name, conn, member.name)
                for member, conn in zip(members[n_servers:], conns[n_servers:])
            ]
            servers = [
                _report_of(member.name, conn, f"{member.name} shutdown", 30.0)
                for member, conn in zip(members[:n_servers], conns)
            ]
        except LiveRunError as exc:
            raise LiveRunError(f"{exc}\n{config.replay_line()}") from exc
    finally:
        _terminate(processes)
        for endpoint in endpoints.values():
            endpoint.close()
    wall_elapsed = time.monotonic() - wall_start
    result = _result(config, servers + workers)
    result.wall_elapsed = wall_elapsed
    return result

