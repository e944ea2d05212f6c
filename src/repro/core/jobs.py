"""The iSwitch switch role, one per training job (paper §3.3–3.4).

The paper specifies one switch: a membership table, an aggregation
accelerator, ``Help``/``FBcast`` loss handling, and ToR→root forwarding.
:class:`JobState` is that switch as a state machine independent of the
wire that carries it — protocol objects in (:class:`DataSegment`,
:class:`ControlMessage`, plus the opaque address they came from),
protocol objects out — so the simulator's
:class:`~repro.core.switch.ISwitch` (``Packet``s on the event loop) and
the live :class:`~repro.live.switch.SoftwareSwitch` (UDP frames) are two
drivers of the same rules and cannot diverge.  Every method returns
*routes*: ``[(destination, [message, ...]), ...]`` in send order; a route
to :attr:`JobState.parent` travels up the tree (data as a contribution),
any other route down.  The Help rules are tabulated in DESIGN §6.2.

Join/Leave stay with the drivers — a ``MembershipTable`` with ACKs and job
eviction on one side, an N-member go/done barrier on the other — and the
role only *reads* ``members.addresses`` (ordered), at the moment it routes.

A production switch also hosts *several* training jobs at once;
:class:`JobTable` gives each job its own role, keyed by the job id carried
in the data/control payloads.  Job 0 always exists (the single-job
default), so all single-tenant code paths work unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .accelerator import AcceleratorTiming, AggregationEngine, trim_result_cache
from .control_plane import MembershipTable
from .protocol import Action, ControlMessage, DataSegment, SegmentRun, cached_segment

__all__ = ["JobState", "JobTable", "DEFAULT_JOB", "Routes"]

DEFAULT_JOB = 0
MAX_JOB_ID = 0xFFFF

#: What a role asks its driver to send, in order: every message of a route
#: goes to that route's destination.  Routes of one broadcast share their
#: messages — a list, or the one :class:`SegmentRun` a round completed as.
Routes = List[Tuple[Any, Any]]


class JobState:
    """One job's switch role: engine, H, result routing and loss handling.

    ``parent`` is the address of the switch above (``None``: this switch
    completes the global sum), ``name`` the sender identity its partials
    carry there, ``members`` anything with an ordered ``addresses``, and
    ``counters`` the dict protocol decisions are counted into (a driver
    passes its own).
    """

    def __init__(
        self,
        job_id: int,
        dedup: bool = False,
        timing: Optional[AcceleratorTiming] = None,
        canonical: bool = False,
        codec=None,
        name: str = "",
        parent: Any = None,
        members=None,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        if not 0 <= job_id <= MAX_JOB_ID:
            raise ValueError(f"job id must fit 16 bits, got {job_id}")
        self.job_id = job_id
        self.name = name
        self.parent = parent
        self.engine = AggregationEngine(
            threshold=1,
            dedup=dedup,
            timing=timing,
            canonical_order=canonical,
            codec=codec,
        )
        self.members = MembershipTable() if members is None else members
        #: Below the root only: the parent's final results by Seg, for
        #: member Help — the engine's own cache holds this rack's
        #: *partials*, and serving one as a final would double-count it.
        #: Bounded like the engine's cache (``engine.cache_size``), and
        #: like it holding segments or the run a whole round came as.
        self._finals: Dict[int, Any] = {}
        self.counters = {} if counters is None else counters
        self.counters.update(
            dict.fromkeys(
                (
                    "results_broadcast",
                    "parent_relays",
                    "upstream_forwards",
                    "retransmissions_up",
                    "help_cache_hits",
                    "help_relayed",
                ),
                0,
            )
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def contribute(self, segment: DataSegment) -> List[DataSegment]:
        """Sum one contribution; the segments it completed (usually none).

        The driver hands them to :meth:`emit` once they leave the
        accelerator — destinations are read then, not now.
        """
        result = self.engine.contribute(segment)
        if result is None:
            return []
        if isinstance(result, list):  # a vector-granularity engine's round
            return self._stamp(result)
        result.job = self.job_id
        return [result]

    def emit(self, completed: List[DataSegment]) -> Routes:
        """Route segments this switch completed.

        The root's sums are final and go to every member; below it they
        are this subtree's *partials* and go up as fresh contributions.
        """
        if not completed:
            return []
        if self.parent is None:
            return self.deliver(completed)
        self.counters["upstream_forwards"] += len(completed)
        if isinstance(completed, SegmentRun):
            return [(self.parent, self._partial(completed))]
        return [(self.parent, [self._partial(s) for s in completed])]

    def deliver(self, finals: List[DataSegment]) -> Routes:
        """Final results — the root's own, or its parent's — to every member."""
        if self.parent is None:
            self.counters["results_broadcast"] += len(finals)
        else:
            self.counters["parent_relays"] += len(finals)
            if isinstance(finals, SegmentRun):
                segs = range(finals.seg, finals.seg + len(finals))
                self._finals.update(dict.fromkeys(segs, finals))
            else:
                for final in finals:
                    self._finals[final.seg] = final
            trim_result_cache(self._finals, self.engine.cache_size)
        return [(member, finals) for member in self.members.addresses]

    def _partial(self, result):
        # A read-only view: the parent's engine must copy on first arrival
        # rather than adopt this array, because it also backs this
        # switch's Help cache.
        data = result.data.view()
        data.flags.writeable = False
        if isinstance(result, SegmentRun):
            return replace(result, data=data, sender=self.name, commit_id=None)
        seg = result.seg  # also the commit id: one partial per Seg
        return DataSegment.trusted(
            seg, data, self.name, seg, self.job_id,
            result.wire_payload, result.wire_frames,
        )

    def _stamp(self, completed: List[DataSegment]) -> List[DataSegment]:
        for segment in completed:
            segment.job = self.job_id
        return completed

    # ------------------------------------------------------------------
    # Control plane (everything but Join/Leave)
    # ------------------------------------------------------------------
    def set_threshold(self, threshold: int) -> List[DataSegment]:
        """Change H; the segments a *lowered* H completed, for :meth:`emit`.

        Lowering H never triggers the engine's completion check, so a
        segment already at ``count >= H`` would otherwise wait forever for
        a contribution that is not coming — the stall a departing member
        leaves behind mid-round.
        """
        self.engine.set_threshold(threshold)
        return self._stamp(self.engine.sweep_completed())

    def control(
        self, message: ControlMessage, src: Any
    ) -> Tuple[Routes, List[DataSegment]]:
        """A control message from ``src`` (a member, or :attr:`parent`).

        Returns the routes to send now and the segments the message
        completed, which the driver emits like any other completion.
        """
        action = message.action
        if action == Action.HELP:
            return self._help(message, src), []
        if action == Action.FBCAST:
            forced = self.engine.force_broadcast(int(message.value))
            return [], [] if forced is None else self._stamp([forced])
        if action == Action.SETH:
            return [self.ack(src)], self.set_threshold(int(message.value))
        if action == Action.RESET:
            self.engine.reset()
            self._finals.clear()
            return [self.ack(src)], []
        if action == Action.HALT:
            # Relay the suspension to every member (and down the tree).
            return [(m, [message]) for m in self.members.addresses], []
        return [], []  # ACK is terminal; Join/Leave are the driver's

    def ack(self, dst: Any, success: bool = True) -> Tuple[Any, list]:
        """The route acknowledging a control message (drivers: Join/Leave)."""
        return dst, [ControlMessage(Action.ACK, success, job=self.job_id)]

    def _help(self, message: ControlMessage, requester: Any) -> Routes:
        """Retransmit a lost result or get it re-made (DESIGN §6.2).

        The switch keeps only "simple tasks such as accepting/forwarding
        control messages" (§3.3): it answers from a cache or passes the
        request on — at most one Help per level up the tree, and none a
        parent's Help could bounce back.
        """
        seg = int(message.value)
        counters = self.counters
        # What this switch summed for Seg: the final at the root, its
        # subtree's partial below it.
        final = partial = self.engine.cached_result(seg)
        if self.parent is None:
            partial = None
        elif requester == self.parent:
            # The switch above lost (or never got) this subtree's partial.
            if partial is None:
                return []  # a member's Help will complete it
            counters["retransmissions_up"] += 1
            return [(self.parent, [self._partial(partial)])]
        else:
            final = cached_segment(self._finals, seg)
        if final is not None:
            # The downstream copy was what got lost: resend it 1:1.
            counters["help_cache_hits"] += 1
            return [(requester, [final])]
        counters["help_relayed"] += 1
        if partial is not None:
            # This subtree is complete but the final never came back:
            # re-offer the partial and ask the parent.
            return [(self.parent, [self._partial(partial), message])]
        # The aggregation itself is incomplete — some member's
        # contribution was lost, maybe the requester's own — so every
        # member is asked to retransmit; engine dedup makes it idempotent.
        return [(member, [message]) for member in self.members.addresses]


class JobTable:
    """All jobs' roles on one switch, created on demand."""

    def __init__(
        self,
        dedup: bool = False,
        timing: Optional[AcceleratorTiming] = None,
        max_jobs: int = 64,
        canonical: bool = False,
        codec=None,
        name: str = "",
    ) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self._options = dict(
            dedup=dedup, timing=timing, canonical=canonical, codec=codec, name=name
        )
        self.max_jobs = max_jobs
        #: The switch above, shared by every job's role (``None`` = root).
        self.parent: Any = None
        self._jobs: Dict[int, JobState] = {}
        self.get(DEFAULT_JOB)  # job 0 always exists

    def set_parent(self, address: Any) -> None:
        self.parent = address
        for state in self._jobs.values():
            state.parent = address

    @property
    def full(self) -> bool:
        """Whether creating one more job's state would overflow the table."""
        return len(self._jobs) >= self.max_jobs

    def get(self, job_id: int) -> JobState:
        """Fetch (or lazily create) a job's role."""
        state = self._jobs.get(job_id)
        if state is None:
            if self.full:
                raise RuntimeError(
                    f"switch job table full ({self.max_jobs} jobs); "
                    "Leave an existing job first"
                )
            state = JobState(job_id, parent=self.parent, **self._options)
            self._jobs[job_id] = state
        return state

    def register(self, job_id: int) -> JobState:
        """Create a job's state, rejecting duplicates.

        Unlike :meth:`get` (lazy creation for the datapath), ``register``
        is the control-plane spelling: submitting the same job id twice is
        a tenant error, not an idempotent lookup.
        """
        if job_id in self._jobs:
            raise ValueError(
                f"job {job_id} is already registered on this switch"
            )
        return self.get(job_id)

    def peek(self, job_id: int) -> Optional[JobState]:
        """Fetch without creating."""
        return self._jobs.get(job_id)

    def remove(self, job_id: int) -> bool:
        """Drop a job's state entirely (its last member left).

        Job 0 is never removed — it is the default-job anchor.
        """
        if job_id == DEFAULT_JOB:
            return False
        return self._jobs.pop(job_id, None) is not None

    def __iter__(self) -> Iterator[JobState]:
        return iter(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs
