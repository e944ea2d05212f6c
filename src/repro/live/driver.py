"""The one live driver: every loop of the live backend, exactly once.

The paper gives loss handling one rule — "offload the majority of tasks
of handling lossy packets to workers" (§3.4): a worker timeout, a
retransmission, a ``Help`` — and this module holds that rule, and every
other rule the live roles share, in one place.  Every live process is a
*role*: an I/O-free state machine from (frame or timer expiry) to the
frames to send — ``handle_frame(frame, addr)`` and ``on_timer(now)`` both
return ``[(frame, addr), ...]`` — that names when its next timer is due
(``next_timer``) and when it is ``done``.  A role owns no socket and
reads no clock:

* :func:`serve` — the one loop, driving one role from a UDP endpoint and
  the monotonic clock; every live child process runs it.
* :class:`MemberServer` — the membership barrier (Join→ack, go once all
  N joined, Leave, ``done``, sender identified by *joined address*) and
  the :class:`LossGate` ingress drop, shared by all three server roles.
* :class:`JoinTimer` — the Join resend of a worker and of a ToR's
  parent Join, one rule.
* :class:`LiveWorkerBase` — the worker role: the join, the submit window,
  the deadline watchdog, in-order apply and digest, and the leave, for
  every worker family.
* :func:`split_chunks` / :func:`chunk_payload` — the 183-element chunker
  of every host-level frame, and :func:`shard_ranges`, the K-way split
  of ps-shard slices and ring chunks.

The host-level frame formats themselves are tabulated in DESIGN §9.4.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.protocol import Action, ControlMessage, ProtocolError, decode_frame
from ..rl.base import Algorithm
from .transport import Address, UdpEndpoint

__all__ = [
    "CHUNK_ELEMS",
    "DEFAULT_LIVE_RECOVERY_TIMEOUT",
    "LiveRoundAbandoned",
    "JoinTimer",
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

    #: A server answers frames; it has no timer of its own (a ToR's parent
    #: Join is :class:`~repro.live.switch.SoftwareSwitch`'s).
    next_timer = math.inf

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
        """Timer expiry: frames due at time ``now`` (none here)."""
        return []

    def stats_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)


class JoinTimer:
    """Send a Join until its go arrives: one rule for a worker's Join and
    a ToR's parent Join.  Join is idempotent at the server, so resending
    covers a lost Join, ack and go alike."""

    def __init__(self, frame: bytes, addr: Address, member: str) -> None:
        self.frame, self.addr, self.member = frame, addr, member
        self.due = -math.inf  # when the next Join goes
        self._first: Optional[float] = None

    def on_timer(self, now: float) -> Frames:
        if now < self.due:
            return []
        if self._first is None:
            self._first = now
        elif now - self._first >= JOIN_DEADLINE:
            raise RuntimeError(
                f"{self.member}: {self.addr} did not admit within "
                f"{JOIN_DEADLINE:.0f}s"
            )
        self.due = now + JOIN_RESEND_PERIOD
        return [(self.frame, self.addr)]


def serve(role, endpoint: UdpEndpoint, deadline: float) -> None:
    """Drive ``role`` from ``endpoint`` until it is done or time runs out.

    The role's ``on_timer`` runs when its ``next_timer`` is due, and a
    receive waits no longer than that.  ``deadline`` is an absolute
    :func:`time.monotonic` timestamp — a hard stop so an orphaned process
    can never outlive the experiment.
    """

    def transmit(frames: Frames) -> None:
        for frame, addr in frames:
            endpoint.send(frame, addr)
            role.counters["frames_tx"] += 1

    while not role.done and (now := time.monotonic()) < deadline:
        if now >= role.next_timer:
            transmit(role.on_timer(now))
            continue
        got = endpoint.recv(timeout=min(role.next_timer, deadline) - now)
        if got is not None:
            transmit(role.handle_frame(*got))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
class LiveWorkerBase:
    """The worker role of every live family.  :meth:`handle_frame` only
    lands frames, and only from the servers or peers it joined
    (``_senders``: address → index; any other source is a
    ``non_member``); :meth:`on_timer` does the rest (DESIGN §9.4).

    Subclasses supply the strategy: ``_submit`` (one round out; it sets
    what the round awaits, ``self._missing``, and the array its result
    fills, ``self._result``), ``_receive`` (a frame from a known sender;
    discards what it satisfied from ``self._missing``), ``_recover``
    (the watchdog fired), and may override ``_collected``.
    """

    #: Rounds a worker may submit ahead of its own applied weights.
    staleness_bound = 0

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
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
                "non_member",
            ),
            0,
        )
        self._senders: Dict[Address, int] = {}
        self._joins: Dict[int, JoinTimer] = {}  # by sender index, until its go
        self.iterations = self.submitted = self.applied = 0
        self.next_timer = math.inf  # -inf: due at once
        self.done = False
        #: The ``now`` of the first training step (after the join).
        self.started: Optional[float] = None
        self._outbox: Frames = []
        #: What the round being collected still waits for, and the array
        #: its result fills.
        self._missing: set = set()
        self._result = np.empty(0)
        #: The watchdog over it: the set watched, its size when (re)armed,
        #: the attempts so far and the next expiry.
        self._watched: Optional[set] = None
        self._left = self._attempts = 0
        self._recover_at = math.inf

    def _join(self, addrs: List[Address], frames: List[bytes], leave: bytes) -> None:
        """Join the servers at ``addrs`` with ``frames`` (and leave them
        with ``leave``); only they may send to this worker."""
        self._senders = {addr: index for index, addr in enumerate(addrs)}
        self._joins = {
            index: JoinTimer(frame, addr, f"worker {self.rank}")
            for index, (addr, frame) in enumerate(zip(addrs, frames))
        }
        self._leave_frame = leave

    def start(self, iterations: int) -> None:
        """Arm the role for ``iterations`` rounds; its first timer is due
        at once."""
        self.iterations = iterations
        self.next_timer = -math.inf

    def _send(self, frame: bytes, addr: Address) -> None:
        self._outbox.append((frame, addr))

    def _flush(self) -> Frames:
        out, self._outbox = self._outbox, []
        return out

    def handle_frame(self, frame: bytes, addr: Address) -> Frames:
        self.counters["frames_rx"] += 1
        self._ingest(frame, addr)
        if len(self._missing) < self._left:
            self.next_timer = -math.inf  # apply, or rewind the watchdog
        return self._flush()

    def _ingest(self, frame: bytes, addr: Address) -> None:
        sender = self._senders.get(addr)
        if sender is None:
            self.counters["non_member"] += 1
        else:
            self._receive(frame, sender)

    def _admitted(self, sender: int) -> None:
        """A go from ``sender``; the last one starts training."""
        join = self._joins.pop(sender, None)
        if join is not None and not self._joins:
            self.next_timer = -math.inf

    def on_timer(self, now: float) -> Frames:
        if self._missing:  # the round still waits: only the watchdog runs
            self._watch(now)
        elif self._joins:
            for join in self._joins.values():
                self._outbox += join.on_timer(now)
            self.next_timer = min(join.due for join in self._joins.values())
        else:
            self._advance(now)
        return self._flush()

    def _advance(self, now: float) -> None:
        """Submit while the window allows, digest and apply completed
        rounds in order, watch the one awaited — or finish."""
        if self.started is None:
            self.started = now
        while self.applied < self.iterations:
            while self.submitted < min(
                self.iterations, self.applied + self.staleness_bound + 1
            ):
                gradient = np.asarray(
                    self.algorithm.compute_gradient(), dtype=np.float32
                )
                self._submit(gradient, self.submitted)
                self.submitted += 1
            total = self._collected(self.applied)
            if total is None:
                self._watch(now)
                return
            self._left = 0  # the watch ends with its round
            self.round_digests.append(
                hashlib.sha256(
                    np.ascontiguousarray(total).tobytes()
                ).hexdigest()[:16]
            )
            self._apply(total, self.applied)
            self.applied += 1
        self._finish(now)

    def _watch(self, now: float) -> None:
        """The deadline watchdog over ``self._missing``: only a new awaited
        set or progress on it (a frame that makes progress makes the timer
        due at once) rearms it — unrelated traffic never does; each expiry
        recovers and doubles the period up to :data:`MAX_BACKOFF`."""
        missing = self._missing
        if missing is not self._watched or len(missing) < self._left:
            self._watched, self._left, self._attempts = missing, len(missing), 0
            self._recover_at = now + self.recovery_timeout
        elif now >= self._recover_at:
            self._attempts += 1
            self.counters["watchdog_timeouts"] += 1
            if self._attempts > self.max_recovery_attempts:
                raise LiveRoundAbandoned(
                    self.rank, self.applied, self._attempts - 1, sorted(missing)
                )
            self._recover(missing, self.applied)
            self._recover_at = now + min(
                self.recovery_timeout * 2**self._attempts, MAX_BACKOFF
            )
        self.next_timer = self._recover_at

    def _collected(self, round_index: int) -> Optional[np.ndarray]:
        return None if self._missing else self._result

    def _finish(self, now: float) -> None:
        """Every round is applied: leave, and be done."""
        for addr in self._senders:
            self._send(self._leave_frame, addr)
        self.done = True
        self.next_timer = math.inf

    def _apply(self, total: np.ndarray, round_index: int) -> None:
        self.algorithm.apply_update(
            total.astype(np.float64) / self.n_workers
        )
