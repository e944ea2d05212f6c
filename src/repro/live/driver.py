"""The one live driver: every loop of the live backend, exactly once.

The paper gives loss handling one rule — "offload the majority of tasks
of handling lossy packets to workers" (§3.4): a worker timeout, a
retransmission, a ``Help`` — and this module holds that rule, and every
other loop the live roles share, in one place:

* :func:`serve` — the server loop.  A *role* (``SoftwareSwitch``,
  ``PsServer``, ``LiveAsyncPsServer``) is an I/O-free state machine from
  (frame or timer expiry) to the frames to send: ``handle_frame(frame,
  addr)`` and ``on_timer(now)`` both return ``[(frame, addr), ...]``.
* :class:`MemberServer` — the membership barrier (Join→ack, go once all
  N joined, Leave, ``done``, sender identified by *joined address*) and
  the :class:`LossGate` ingress drop, shared by all three server roles.
* :class:`LiveWorkerBase` — the worker side: ``_join_until_go``, the
  deadline-based ``_collect`` watchdog, and the ``compute → exchange →
  digest → apply`` training template every worker family runs.
* :func:`split_chunks` / :func:`chunk_payload` — the 183-element chunker
  of every host-level frame, and :func:`shard_ranges`, the K-way split
  of ps-shard slices and ring chunks.

The host-level frame formats themselves are tabulated in DESIGN §9.4.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.protocol import Action, ControlMessage, ProtocolError, decode_frame
from ..rl.base import Algorithm
from .transport import Address, UdpEndpoint

__all__ = [
    "CHUNK_ELEMS",
    "DEFAULT_LIVE_RECOVERY_TIMEOUT",
    "LiveRoundAbandoned",
    "LiveWorkerBase",
    "LossGate",
    "MemberServer",
    "chunk_payload",
    "decode_control",
    "n_chunks",
    "serve",
    "shard_ranges",
    "split_chunks",
]

#: Base watchdog period for live receives.  The simulator's 0.5 ms models
#: a quiet 10 GbE round-trip; real processes contend with scheduling, so
#: the live default is far looser (backoff doubles it per attempt).
DEFAULT_LIVE_RECOVERY_TIMEOUT = 0.1
#: Ceiling of the exponential watchdog backoff.
MAX_BACKOFF = 2.0

JOIN_RESEND_PERIOD = 0.5
JOIN_DEADLINE = 30.0

#: Elements per host-level chunk; 183 float64 = 1464 B, matching the
#: iSwitch segment payload budget, so a float64 result chunk and a
#: float32 gradient chunk both fit one MTU-sized datagram and share
#: chunk indexing.
CHUNK_ELEMS = 183

Frames = List[Tuple[bytes, Address]]


class LiveRoundAbandoned(RuntimeError):
    """A worker's watchdog spent its whole recovery budget on one round."""

    def __init__(
        self, rank: int, round_index: int, attempts: int, missing: list
    ) -> None:
        super().__init__(rank, round_index, attempts, missing)
        self.rank = rank
        self.round_index = round_index
        self.attempts = attempts
        self.missing = missing

    def __str__(self) -> str:
        return (
            f"worker {self.rank}: round {self.round_index} abandoned after "
            f"{self.attempts} recovery attempts; missing {self.missing[:8]}"
        )


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------
def n_chunks(n_elements: int) -> int:
    return -(-n_elements // CHUNK_ELEMS)


def split_chunks(vector: np.ndarray) -> List[np.ndarray]:
    """``vector`` as consecutive :data:`CHUNK_ELEMS`-element slices."""
    return [
        vector[start : start + CHUNK_ELEMS]
        for start in range(0, vector.size, CHUNK_ELEMS)
    ]


def chunk_payload(
    frame: bytes, offset: int, dtype: str, chunk: int, n_elements: int
) -> np.ndarray:
    """The payload (``"<f4"`` or ``"<f8"``) of chunk ``chunk`` of an
    ``n_elements`` vector, as a read-only view of ``frame``.

    Raises :class:`ValueError` for a chunk index outside the vector or a
    payload of the wrong length, so a truncated chunk is rejected
    *before* anything stores it.
    """
    data = np.frombuffer(frame, dtype, -1, offset)  # keywords parse slowly
    expected = min(CHUNK_ELEMS, n_elements - chunk * CHUNK_ELEMS)
    if chunk >= n_chunks(n_elements) or data.size != expected:
        raise ValueError(
            f"chunk {chunk} carries {data.size} elements, expected {expected}"
        )
    return data


def decode_control(frame: bytes) -> ControlMessage:
    """An iSwitch control frame a live switch or worker acts on.  ``HELP``,
    ``FBCAST`` or ``SETH`` without a Value, or ``SETH`` 0, would kill it
    (``int(None)``, an engine with H = 0): a :class:`ProtocolError`."""
    message = decode_frame(frame)[1]
    action, value = message.action, message.value
    if action in (Action.HELP, Action.FBCAST, Action.SETH) and (
        value is None or action == Action.SETH and not value
    ):
        raise ProtocolError(f"{action.name} with Value {value!r}")
    return message


def shard_ranges(n_elements: int, n_shards: int) -> List[Tuple[int, int]]:
    """K contiguous element ranges; the first shards absorb the remainder.

    Matches the simulator's sharding (``np.array_split`` semantics).
    """
    base, extra = divmod(n_elements, n_shards)
    bounds = [base * index + min(index, extra) for index in range(n_shards + 1)]
    return list(zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------
class LossGate:
    """Seeded Bernoulli drop of incoming data frames (``loss_rate``).

    Exercises the watchdog/recovery path over real sockets — the live
    analogue of the simulator's lossy link.
    """

    def __init__(
        self, loss_rate: float, seed: int, counters: Dict[str, int]
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._counters = counters
        counters["drops_injected"] = 0

    def drops(self) -> bool:
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self._counters["drops_injected"] += 1
            return True
        return False


class MemberServer:
    """Membership barrier and ingress-loss gate of a live server role.

    ``ack`` answers every Join; ``go`` is sent to all members once the
    ``n_workers``-th distinct rank joined (and 1:1 to any later retry),
    doubling as the start-of-training signal.  After the Join a member
    *is* its address: :meth:`_rank_of` maps the datagram's source back to
    the joined rank (a rank that re-joined elsewhere loses its old one),
    and frames from anyone else are counted (``non_member``) and dropped,
    whatever rank they claim.
    """

    def __init__(
        self,
        n_workers: int,
        loss_rate: float,
        loss_seed: int,
        ack: bytes,
        go: bytes,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._ack = ack
        self._go = go
        self._members: Dict[int, Address] = {}
        self._ranks: Dict[Address, int] = {}
        self._left: set = set()
        #: Members that have not left, in rank order (what a broadcast
        #: reads once per result; rebuilt on the rare Join and Leave).
        self.addresses: List[Address] = []
        self._go_sent = False
        self.counters: Dict[str, int] = dict.fromkeys(
            (
                "frames_rx",
                "frames_tx",
                "joins",
                "leaves",
                "non_member",
                "decode_errors",
            ),
            0,
        )
        self._loss = LossGate(loss_rate, loss_seed, self.counters)

    def _all_left(self) -> bool:
        return len(self._members) == self.n_workers == len(self._left)

    @property
    def done(self) -> bool:
        """All expected members joined and all of them have left."""
        return self._all_left()

    def _refresh(self) -> None:
        """Rebuild what the rare Join and Leave change: ``addresses``, and
        address → rank (reversed, so an address two ranks joined from
        stays the first's; a member that left still owns its address)."""
        self.addresses = [
            a for r, a in sorted(self._members.items()) if r not in self._left
        ]
        self._ranks = {a: r for r, a in reversed(self._members.items())}

    def _rank_of(self, addr: Address) -> Optional[int]:
        rank = self._ranks.get(addr)
        if rank is None:
            self.counters["non_member"] += 1
        return rank

    def _admit(self, rank: int, addr: Address) -> Frames:
        """A Join.  Idempotent: a retry (our ack or the go may have raced
        the member's resend timer) re-admits at the latest address."""
        if rank not in self._members:
            self.counters["joins"] += 1
        self._members[rank] = addr
        self._refresh()
        out = [(self._ack, addr)]
        if self._go_sent:
            out.append((self._go, addr))
        elif len(self._members) == self.n_workers:
            self._go_sent = True
            out.extend((self._go, a) for a in self.addresses)
        return out

    def _depart(self, rank: int) -> None:
        if rank not in self._left:
            self._left.add(rank)
            self.counters["leaves"] += 1
            self._refresh()

    def on_timer(self, now: float) -> Frames:
        """Timer expiry: frames due at monotonic time ``now`` (none here)."""
        return []

    def stats_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)


def serve(
    role, endpoint: UdpEndpoint, deadline: float, poll_interval: float = 0.2
) -> None:
    """Drive ``role`` from ``endpoint`` until it is done or time runs out.

    ``deadline`` is an absolute :func:`time.monotonic` timestamp — a hard
    stop so an orphaned server process can never outlive the experiment.
    """

    def transmit(frames: Frames) -> None:
        for frame, addr in frames:
            endpoint.send(frame, addr)
            role.counters["frames_tx"] += 1

    while not role.done and (now := time.monotonic()) < deadline:
        transmit(role.on_timer(now))
        got = endpoint.recv(
            timeout=min(poll_interval, max(deadline - now, 0.01))
        )
        if got is not None:
            transmit(role.handle_frame(*got))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
class LiveWorkerBase:
    """Join, watchdog and training template of every live worker family.

    Subclasses supply the strategy: ``_submit`` (send one round's
    gradient), ``_complete`` (collect that round's result), ``_ingest``
    (one received datagram; removes what it satisfied from
    ``self._missing``), ``_recover`` (the watchdog fired) and ``_leave``.
    Their constructors take the strategy's own arguments and pass the
    watchdog's (``recovery_timeout``, ``max_recovery_attempts``) through.
    """

    #: Rounds a worker may submit ahead of its own applied weights.
    staleness_bound = 0

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        endpoint: UdpEndpoint,
        recovery_timeout: float = DEFAULT_LIVE_RECOVERY_TIMEOUT,
        max_recovery_attempts: int = 12,
    ) -> None:
        if recovery_timeout <= 0:
            raise ValueError(
                f"recovery_timeout must be > 0, got {recovery_timeout}"
            )
        self.rank = rank
        self.n_workers = n_workers
        self.algorithm = algorithm
        self.endpoint = endpoint
        self.recovery_timeout = recovery_timeout
        self.max_recovery_attempts = max_recovery_attempts
        self.n_elements = algorithm.get_weights().size
        self.round_digests: List[str] = []
        self.counters: Dict[str, int] = dict.fromkeys(
            (
                "frames_tx",
                "frames_rx",
                "watchdog_timeouts",
                "stale_frames",
                "decode_errors",
            ),
            0,
        )
        self._joined = False
        #: What the round being collected still waits for.
        self._missing: set = set()

    def _send(self, frame: bytes, addr: Address) -> None:
        self.endpoint.send(frame, addr)
        self.counters["frames_tx"] += 1

    def _join_until_go(
        self,
        join_frame: bytes,
        addr: Address,
        is_go: Callable[[bytes, Address], bool],
    ) -> None:
        """Send ``join_frame`` to ``addr`` until its go signal arrives.

        The go broadcast doubles as the start-of-training barrier — the
        server only sends it once all expected members joined.  Join is
        idempotent at the server, so resending on a quiet socket covers
        a lost Join, a lost ack, and a lost go alike.
        """
        deadline = time.monotonic() + JOIN_DEADLINE
        while time.monotonic() < deadline:
            self._send(join_frame, addr)
            resend_at = time.monotonic() + JOIN_RESEND_PERIOD
            while (wait := resend_at - time.monotonic()) > 0:
                got = self.endpoint.recv(timeout=max(wait, 0.01))
                if got is None:
                    break
                self.counters["frames_rx"] += 1
                if is_go(*got):
                    self._joined = True
                    return
        raise RuntimeError(
            f"worker {self.rank}: {addr} did not admit within "
            f"{JOIN_DEADLINE:.0f}s"
        )

    def _collect(self, missing: set, round_index: int) -> None:
        """Receive until ``_ingest`` has emptied ``missing``.

        Deadline-based watchdog: unrelated traffic (peers' Helps, resend
        requests, stale rebroadcasts) must not starve recovery, so the
        timer runs on wall clock, not on the socket going quiet.  Each
        expiry calls ``_recover`` and doubles the period; progress on the
        awaited keys rewinds it — escalating while results are streaming
        in would only add stalls.
        """
        self._missing = missing
        attempts, left = 0, len(missing)
        recover_at = time.monotonic() + self.recovery_timeout
        while missing:
            now = time.monotonic()
            if len(missing) < left:
                attempts, left = 0, len(missing)
                recover_at = now + self.recovery_timeout
            if now >= recover_at:
                attempts += 1
                self.counters["watchdog_timeouts"] += 1
                if attempts > self.max_recovery_attempts:
                    raise LiveRoundAbandoned(
                        self.rank, round_index, attempts - 1, sorted(missing)
                    )
                self._recover(missing, round_index)
                recover_at = time.monotonic() + min(
                    self.recovery_timeout * 2**attempts, MAX_BACKOFF
                )
                continue
            got = self.endpoint.recv(timeout=recover_at - now)
            if got is not None:
                self.counters["frames_rx"] += 1
                self._ingest(*got)

    def train(self, iterations: int) -> None:
        """compute → exchange → digest → apply, ``iterations`` times.

        A worker submits round ``k`` as soon as ``k ≤ applied +
        staleness_bound`` and always applies in order; with the bound at
        0 (every family but async-isw) that is the plain synchronous
        loop.
        """
        if not self._joined:
            raise RuntimeError("join() the job before training")
        submitted = 0
        for applied in range(iterations):
            while (
                submitted < iterations
                and submitted <= applied + self.staleness_bound
            ):
                gradient = np.asarray(
                    self.algorithm.compute_gradient(), dtype=np.float32
                )
                self._submit(gradient, submitted)
                submitted += 1
            total = self._complete(applied)
            self.round_digests.append(
                hashlib.sha256(
                    np.ascontiguousarray(total).tobytes()
                ).hexdigest()[:16]
            )
            self._apply(total, applied)
        self._leave()

    def _apply(self, total: np.ndarray, round_index: int) -> None:
        self.algorithm.apply_update(
            total.astype(np.float64) / self.n_workers
        )
