"""The in-switch gradient-aggregation accelerator (paper §3.3, Figure 7).

The hardware pipeline — Separator → Seg Decoder → Seg Counter / Addr
Generator → parallel fp32 adders → Buffers → Output Module — reduces to a
simple invariant we model exactly:

    For every ``Seg`` index the accelerator keeps an accumulation buffer
    and a counter.  Each arriving contribution is summed into the buffer
    and bumps the counter; when the counter reaches the aggregation
    threshold **H**, the summed segment is emitted, the buffer is zeroed,
    and the counter resets.

This is aggregation **on the fly at packet granularity** (Figure 8b):
a segment can complete and ship downstream while later segments of the
same gradient vectors are still in flight.

Timing model
------------
The NetFPGA implementation processes one 256-bit bus burst per cycle at
200 MHz, with eight fp32 adders consuming a burst per cycle (§3.5).  A
packet with ``B`` payload bytes therefore occupies the accelerator for
``ceil(B / 32)`` cycles of 5 ns, plus a small fixed pipeline depth.  At
1464-byte segments this is ~235 ns — far below a 10 GbE serialization
time of ~1.2 µs, which is why the accelerator is a "bump in the wire"
that never backs up the ingress (the model still accounts the latency).

Resource note: the real accelerator consumed an extra 18.6 % LUTs,
17.3 % FFs, 44.5 % BRAM and 17 DSP slices over the NetFPGA reference
switch; a software model has no analogue, so those figures live only in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .protocol import DataSegment, SegmentRun, cached_segment

__all__ = [
    "AcceleratorTiming",
    "AggregationEngine",
    "AggregationStats",
    "VectorGranularityEngine",
    "trim_result_cache",
]

#: 256-bit internal AXI4-Stream bus → 32 bytes per burst (§3.5).
BUS_BYTES_PER_CYCLE = 32
#: 200 MHz accelerator clock (§3.5).
CLOCK_HZ = 200e6
#: Fixed pipeline depth (separator, decoder, output concat), in cycles.
PIPELINE_CYCLES = 8
#: Why a train can leave the batched ingest: the condition that failed.
_BATCH_BAIL_CAUSES = ("clock", "shape", "buffer_limit")


@dataclass(frozen=True)
class AcceleratorTiming:
    """Deterministic latency model for the accelerator datapath."""

    bus_bytes_per_cycle: int = BUS_BYTES_PER_CYCLE
    clock_hz: float = CLOCK_HZ
    pipeline_cycles: int = PIPELINE_CYCLES

    def processing_latency(self, payload_bytes: int) -> float:
        """Seconds the accelerator needs to ingest+sum one packet payload."""
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
        bursts = -(-payload_bytes // self.bus_bytes_per_cycle)  # ceil
        return (bursts + self.pipeline_cycles) / self.clock_hz


@dataclass
class AggregationStats:
    """Counters exposed for tests and the benchmark reports."""

    contributions: int = 0
    completions: int = 0
    forced_broadcasts: int = 0
    duplicates_dropped: int = 0
    evictions: int = 0
    max_live_segments: int = 0
    busy_time: float = 0.0
    #: Trains that left the batched ingest, by the condition that failed:
    #: ``clock`` (telemetry stamps each segment's own arrival), ``shape`` (not
    #: a run of 2+ chunks lined up with its round), ``buffer_limit`` (exceeded).
    batch_bails: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_BATCH_BAIL_CAUSES, 0)
    )
    #: Batched ingests that summed or adopted a run's vector as it was
    #: (``view``) or had to gather it into contiguous float32 first (``copy``).
    joins: Dict[str, int] = field(
        default_factory=lambda: {"view": 0, "copy": 0}
    )


@dataclass(slots=True)
class _Round:
    """One round's live state while all of it arrived as matching runs: the
    sum (or, in canonical order, the held vectors), once for the round."""

    #: The chunks, numbered as this engine numbers the round.
    run: SegmentRun
    buffer: Optional[np.ndarray] = None
    count: int = 0
    #: canonical order: ``(sender, commit_id, vector)`` per contribution.
    held: list = field(default_factory=list)
    #: dedup: the ``(sender, commit_id)`` pairs seen.
    keys: set = field(default_factory=set)


class AggregationEngine:
    """Seg-indexed sum/count buffers with threshold-H completion.

    Parameters
    ----------
    threshold:
        H — how many contributions complete a segment.  Defaults to the
        number of child nodes, set later via :meth:`set_threshold` (the
        ``SetH`` control message).
    dedup:
        When true, contributions are deduplicated on ``(sender,
        commit_id)`` per segment, making retransmission after packet loss
        idempotent.  The real accelerator is a pure counter (the paper
        offloads loss handling to workers); dedup mode exists for the
        loss-recovery tests and is off by default.
    cache_size:
        How many completed segments to keep for ``Help`` retransmission.
    canonical_order:
        When true, contributions are *held* per segment and summed only at
        completion, in canonical sender order (rank order) rather than
        arrival order.  float32 addition is not associative, so the
        default on-the-fly engine's sums depend on which packet arrived
        first; canonical order makes the sum a pure function of the
        contributions.  The live UDP backend (nondeterministic arrival)
        always runs canonical, and the simulator can opt in
        (``ExperimentConfig(deterministic_aggregation=True)``) so sim and
        live produce bit-identical results.  Off by default: on-the-fly
        summation is the paper's datapath and the golden regressions pin
        its numerics.
    buffer_limit:
        Maximum number of live (partially aggregated) segments, modelling
        the bounded on-chip BRAM.  When exceeded, the *oldest* (lowest
        Seg) buffers are evicted — in asynchronous training these are
        contributions to rounds that already completed and can never
        reach H again, so dropping them is both necessary and harmless
        (the committing worker's gradient is simply lost, which bounded-
        staleness training tolerates by design).  ``None`` disables.
    codec:
        The :class:`~repro.core.compression.GradientCodec` whose numerics
        this engine aggregates (``None`` = the paper's fp32 datapath,
        bit-identical to the pre-codec engine).  A codec with
        ``integer_sum`` (``int32-bs``) switches the in-place path to
        **int32 mantissa accumulators** — the summation a switch dataplane
        actually performs (SwitchML) — and every completion passes through
        the codec's ``finalize_sum``/``engine_emit`` renormalization.
        Integer summation is order independent, so this mode needs no
        ``canonical_order`` to be reproducible; with ``canonical_order``
        the float path is used instead (exact on the codec grid, hence
        bit-identical to the integer path — see DESIGN.md §12).
    """

    def __init__(
        self,
        threshold: int = 1,
        dedup: bool = False,
        cache_size: int = 4096,
        timing: Optional[AcceleratorTiming] = None,
        buffer_limit: Optional[int] = None,
        canonical_order: bool = False,
        codec=None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold H must be >= 1, got {threshold}")
        if buffer_limit is not None and buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        self.threshold = threshold
        self.dedup = dedup
        self.cache_size = cache_size
        self.buffer_limit = buffer_limit
        self.canonical_order = canonical_order
        self.codec = codec
        #: Integer-accumulate mode: in-place buffers hold int32 mantissas.
        self._int_sum = bool(
            codec is not None and codec.integer_sum and not canonical_order
        )
        self.timing = timing or AcceleratorTiming()
        self.stats = AggregationStats()
        #: When set to the plan's chunk count, incoming Seg numbers are
        #: renumbered by *arrival order*: the i-th group of H contributions
        #: to a chunk offset forms aggregation round i, regardless of which
        #: worker sent them.  This realizes asynchronous training's
        #: "sum-reduce the next H gradient vectors received" semantics
        #: (Algorithm 1): a fast worker's second commit can complete a
        #: round a slow worker never contributed to.  ``None`` (default)
        #: keeps the sender-assigned Seg numbers (synchronous training).
        self.arrival_renumber: Optional[int] = None
        self._arrivals: Dict[int, int] = {}
        self._shapes: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self._buffers: Dict[int, np.ndarray] = {}
        #: canonical_order mode: contributions held until completion, as
        #: (sender, commit_id, private float32 copy) tuples.
        self._pending: Dict[int, List[Tuple[str, int, np.ndarray]]] = {}
        self._counters: Dict[int, int] = {}
        self._latency_cache: Dict[int, float] = {}
        self._contributors: Dict[int, Set[Tuple[str, int]]] = {}
        #: By Seg: a completed segment, or the result run that holds it.
        self._result_cache: Dict[int, object] = {}
        #: Telemetry hook: when the owning switch sets a clock, the engine
        #: stamps each segment's first arrival so completions can be
        #: reported as first-arrival -> complete spans.  ``None`` (the
        #: default) keeps the datapath entirely timestamp-free.
        self.clock: Optional[Callable[[], float]] = None
        self._first_arrival: Dict[int, float] = {}
        self._completed_starts: Dict[int, float] = {}
        #: Rounds fed by runs only (:meth:`contribute_batch`), by first Seg:
        #: one record each in place of the per-Seg entries above, which a
        #: round gets (:meth:`_explode`) once per-packet traffic touches it.
        self._rounds: Dict[int, _Round] = {}
        self._run_live = 0  # segments those records stand for

    # ------------------------------------------------------------------
    # Control-plane operations
    # ------------------------------------------------------------------
    def set_threshold(self, threshold: int) -> None:
        """Handle ``SetH``: change the aggregation threshold."""
        if threshold < 1:
            raise ValueError(f"threshold H must be >= 1, got {threshold}")
        self.threshold = threshold

    def reset(self) -> None:
        """Handle ``Reset``: clear all buffers, counters and caches.

        In arrival-renumber (asynchronous) mode the per-chunk arrival
        counters survive a reset: they define the renumbering *epoch*
        shared with the workers, and restarting them at zero would remap
        post-reset traffic onto round numbers the workers have already
        consumed.  Partial sums, dedup sets and the Help cache are state
        of in-flight rounds and are dropped either way — that is the
        recovery the Reset exists for.
        """
        self._buffers.clear()
        self._pending.clear()
        self._counters.clear()
        self._contributors.clear()
        self._result_cache.clear()
        if self.arrival_renumber is None:
            self._arrivals.clear()
        self._shapes.clear()
        self._first_arrival.clear()
        self._completed_starts.clear()
        self._rounds.clear()
        self._run_live = 0

    def sweep_completed(self) -> List[DataSegment]:
        """Emit every live segment whose counter already meets the threshold.

        ``contribute`` only checks completion when a packet arrives, so a
        ``SetH`` that *lowers* H (e.g. after a worker ``Leave``) can leave
        segments stranded at ``count >= threshold`` with no future arrival
        to trigger them.  The switch calls this after every threshold
        change; the returned segments are emitted exactly as if their last
        contribution had just landed.
        """
        for record in list(self._rounds.values()):
            self._explode(record)  # H changes under it: per segment from here
        ready = [
            seg
            for seg, count in self._counters.items()
            if count >= self.threshold
        ]
        return [self._complete(seg) for seg in sorted(ready)]

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def contribute(self, segment: DataSegment) -> Optional[DataSegment]:
        """Sum one incoming contribution.

        Returns the completed (fully aggregated) segment when this
        contribution is the H-th, else ``None``.
        """
        seg = segment.seg
        if self.arrival_renumber is not None:
            n_chunks = self.arrival_renumber
            chunk = seg % n_chunks
            order = self._arrivals.get(chunk, 0)
            self._arrivals[chunk] = order + 1
            seg = (order // self.threshold) * n_chunks + chunk
            segment = replace(segment, seg=seg)
        if self._rounds:
            self._explode(self._round_at(seg))
        if self.dedup:
            key = (segment.sender, segment.commit_id)
            contributors = self._contributors.setdefault(seg, set())
            if key in contributors:
                self.stats.duplicates_dropped += 1
                return None
            contributors.add(key)

        stats = self.stats
        stats.contributions += 1
        if self.clock is not None and seg not in self._first_arrival:
            self._first_arrival[seg] = self.clock()
        if segment.wire_payload is not None and seg not in self._shapes:
            self._shapes[seg] = (segment.wire_payload, segment.wire_frames)
        if self.canonical_order:
            entries = self._pending.setdefault(seg, [])
            if entries and entries[0][2].shape != segment.data.shape:
                raise ValueError(
                    f"segment {seg}: contribution shape {segment.data.shape} "
                    f"!= held shape {entries[0][2].shape}"
                )
            entries.append(
                (
                    segment.sender,
                    segment.commit_id,
                    np.array(segment.data, dtype=np.float32),
                )
            )
            self._counters[seg] = len(entries)
            n_live = len(self._pending) + self._run_live
            if n_live > stats.max_live_segments:
                stats.max_live_segments = n_live
            if len(entries) >= self.threshold:
                return self._complete(seg)
            if self.buffer_limit is not None and n_live > self.buffer_limit:
                self._evict_oldest()
            return None
        buffer = self._buffers.get(seg)
        if buffer is None:
            # First arrival provides the buffer (the hardware keeps it
            # zeroed; starting from the first contribution is equivalent
            # and bounds memory by the number of *live* segments,
            # mirroring the BRAM budget).  A writable float32 array is
            # adopted as-is — later contributions sum into it in place —
            # so the common case moves zero bytes.  Senders that must not
            # see their gradient mutated (retransmission caches, shared
            # broadcast results) pass a read-only view, which forces the
            # copy here.
            if self._int_sum:
                # Integer datapath: the buffer is the int32 mantissa
                # accumulator a switch ALU actually holds.  Inputs are
                # quantized on ingest; the float array is never adopted.
                self._buffers[seg] = self.codec.engine_ingest(segment.data)
            else:
                data = segment.data
                if data.dtype == np.float32 and data.flags.writeable:
                    self._buffers[seg] = data
                else:
                    self._buffers[seg] = np.array(data, dtype=np.float32)
            self._counters[seg] = 1
        else:
            if buffer.shape != segment.data.shape:
                raise ValueError(
                    f"segment {seg}: contribution shape {segment.data.shape} "
                    f"!= buffer shape {buffer.shape}"
                )
            if self._int_sum:
                buffer += self.codec.engine_ingest(segment.data)
            else:
                buffer += segment.data
            self._counters[seg] += 1

        n_live = len(self._buffers) + self._run_live
        if n_live > stats.max_live_segments:
            stats.max_live_segments = n_live
        if self._counters[seg] >= self.threshold:
            return self._complete(seg)
        if self.buffer_limit is not None and n_live > self.buffer_limit:
            self._evict_oldest()
        return None

    def contribute_batch(self, segments, clocks=None):
        """Batch-ingest a train's worth of contributions in one call.

        Semantically exactly ``[contribute(s) for s in segments]`` — same
        per-segment state transitions, same float32 summation order — but
        one entry point for the batched transport path.  ``segments`` is a
        :class:`~repro.core.protocol.SegmentRun` or a sequence of
        segments.  Returns ``(index, completed)`` pairs: which input
        triggered each completed segment (vector-granularity engines may
        emit several per input) — or, when a run completed its whole
        round in this one step, that round's result run (chunk ``i``
        completed by input ``i``).

        ``clocks`` (optional, one float per segment) stamps each
        contribution with its own carried arrival time instead of the
        shared :attr:`clock` — a train is delivered in one simulator
        event, so ``clock()`` would report the *last* packet's arrival
        for every first-arrival record.
        """
        if clocks is not None or self.clock is not None:
            self._bail("clock")
        elif isinstance(segments, SegmentRun):
            done = self._contribute_run(segments)
            if done is not None:
                return done
        else:
            self._bail("shape")
        return self._contribute_each(segments, clocks)

    def _contribute_each(self, segments, clocks) -> List[Tuple[int, DataSegment]]:
        out: List[Tuple[int, DataSegment]] = []
        contribute = self.contribute
        saved_clock = self.clock
        try:
            for i, segment in enumerate(segments):
                if clocks is not None:
                    self.clock = lambda t=clocks[i]: t
                result = contribute(segment)
                if result is None:
                    continue
                if isinstance(result, list):
                    for completed in result:
                        out.append((i, completed))
                else:
                    out.append((i, result))
        finally:
            self.clock = saved_clock
        return out

    def _bail(self, cause: str) -> None:
        """Count one train leaving the batched ingest; returns ``None``."""
        self.stats.batch_bails[cause] += 1

    def _contribute_run(self, run: SegmentRun):
        """Ingest a whole run in one step, or count why not and return
        ``None`` — before touching any state.

        Every operation the engine applies is elementwise — a float32 add,
        an int32 add, the codecs' ingest/emit/finalize maps with their
        constructor-constant exponent — so applying it to the run's vector
        is bit-identical to applying it chunk by chunk: each element still
        receives the same operands in the same order.  The round is one
        :class:`_Round` record; completing it yields one result run over
        its buffer (the first run's own vector, adopted when writable
        exactly as :meth:`contribute` adopts a first segment).
        """
        n = len(run)
        if n < 2:
            return self._bail("shape")
        seg = run.seg
        renumber = self.arrival_renumber
        if renumber is not None:
            # One round for the run only if all its chunks have seen the
            # same number of arrivals (None: none yet).
            chunks = range(seg % renumber, seg % renumber + n)
            orders = set(map(self._arrivals.get, chunks))
            if len(orders) != 1 or chunks[-1] >= renumber:
                return self._bail("shape")
            order = orders.pop() or 0
            seg = (order // self.threshold) * renumber + chunks[0]
        record = self._rounds.get(seg)
        segs = range(seg, seg + n)
        if record is not None:
            first = record.run
            if (first.plan, first.lo, first.hi) != (run.plan, run.lo, run.hi):
                return self._bail("shape")
        elif self._round_at(seg, n) or not self._counters.keys().isdisjoint(segs):
            return self._bail("shape")  # some of these Segs are live already
        grown = n if record is None else 0
        limit = self.buffer_limit
        if limit is not None and self.live_segments + grown > limit:
            return self._bail("buffer_limit")
        # Validated: from here on the run is consumed.
        if renumber is not None:
            self._arrivals.update(dict.fromkeys(chunks, order + 1))
        stats = self.stats
        key = (run.sender, run.commit_id)
        if self.dedup and record is not None and key in record.keys:
            stats.duplicates_dropped += n
            return []
        data = run.data
        if data.dtype == np.float32 and data.flags.c_contiguous:
            stats.joins["view"] += 1
        else:
            data = np.ascontiguousarray(data, dtype=np.float32)
            stats.joins["copy"] += 1
        stats.contributions += n
        if record is None:
            record = self._rounds[seg] = _Round(
                run if seg == run.seg else replace(run, seg=seg)
            )
            self._run_live += n
        if self.dedup:
            record.keys.add(key)
        if self.canonical_order:
            record.held.append((*key, data))
        elif self._int_sum:
            mantissas = self.codec.engine_ingest(data)
            if record.count:
                record.buffer += mantissas
            else:
                record.buffer = mantissas
        elif record.count:
            record.buffer += data
        else:
            # Adopted as the round buffer unless read-only (see contribute).
            record.buffer = data if data.flags.writeable else data.copy()
        record.count += 1
        done = record.count >= self.threshold
        n_live = self.live_segments
        if done and grown:
            n_live -= n - 1  # segment by segment: one in, one out
        if n_live > stats.max_live_segments:
            stats.max_live_segments = n_live
        if not done:
            return []
        self._forget(record)
        result = replace(
            record.run, data=self._sum(record.held, record.buffer),
            sender="", commit_id=0,
        )
        cache, limit = self._result_cache, self.cache_size
        for seg in segs:
            # Trimmed per insert, as _complete does: what an eviction
            # drops depends on how full the cache is just then.
            cache[seg] = result
            if len(cache) > limit:
                trim_result_cache(cache, limit)
        stats.completions += n
        return result

    def _round_at(self, seg: int, n: int = 1) -> Optional[_Round]:
        """The record of a round with a Seg in ``[seg, seg + n)``, if any."""
        for record in self._rounds.values():
            first = record.run.seg
            if first < seg + n and seg < first + len(record.run):
                return record
        return None

    def _forget(self, record: _Round) -> None:
        del self._rounds[record.run.seg]
        self._run_live -= len(record.run)

    def _explode(self, record: Optional[_Round]) -> None:
        """Turn a round's record into the per-Seg entries it stands for —
        what :meth:`contribute` would have built from the same packets —
        because per-packet traffic (a retransmission, an FBcast, a lone
        packet, a lowered H) is about to touch it."""
        if record is None:
            return
        self._forget(record)
        if self.canonical_order:
            for sender, commit_id, vector in record.held:
                held = replace(
                    record.run, data=vector, sender=sender, commit_id=commit_id
                )
                for part in held.segments():
                    self._pending.setdefault(part.seg, []).append(
                        (sender, part.commit_id, np.array(part.data))
                    )
        else:
            for part in replace(record.run, data=record.buffer).segments():
                self._buffers[part.seg] = part.data
        for part in record.run.segments():
            self._counters[part.seg] = record.count
            self._shapes[part.seg] = (part.wire_payload, part.wire_frames)
            if self.dedup:
                self._contributors[part.seg] = {
                    (sender, part.seg if commit_id is None else commit_id)
                    for sender, commit_id in record.keys
                }

    def _evict_oldest(self) -> None:
        """Drop the stalest partial buffers to honour ``buffer_limit``."""
        for record in list(self._rounds.values()):
            self._explode(record)
        store = self._pending if self.canonical_order else self._buffers
        excess = len(store) - self.buffer_limit
        for seg in sorted(store)[:excess]:
            del store[seg]
            self._counters.pop(seg, None)
            self._contributors.pop(seg, None)
            self._shapes.pop(seg, None)
            self._first_arrival.pop(seg, None)
            self.stats.evictions += 1

    def _sum(self, held: list, buffer: Optional[np.ndarray]) -> np.ndarray:
        """What a completing segment (or round) emits: its canonical-order
        ``held`` contributions summed, or its accumulation ``buffer``."""
        if self.canonical_order:
            # Canonical order: shortest-then-lexicographic sender name, so
            # "worker2" < "worker10", then commit id.  This is rank order
            # for every naming scheme the repo uses.
            held.sort(key=lambda e: (len(e[0]), e[0], e[1] or 0))
            data = held[0][2]
            if not data.flags.writeable:  # a held run's vector is not a copy
                data = data.copy()
            for _, _, contribution in held[1:]:
                data += contribution
        elif self._int_sum:
            # Renormalize the int32 accumulator back to float32 —
            # bit-identical to finalize_sum() of the exact float sum
            # (DESIGN.md §12), so canonical and integer paths agree.
            return self.codec.engine_emit(buffer)
        else:
            data = buffer
        return data if self.codec is None else self.codec.finalize_sum(data)

    def _complete(self, seg: int) -> DataSegment:
        """Emit the summed segment, zero the buffer, reset the counter."""
        data = self._sum(self._pending.pop(seg, None), self._buffers.pop(seg, None))
        self._counters.pop(seg, None)
        self._contributors.pop(seg, None)
        started = self._first_arrival.pop(seg, None)
        if started is not None:
            self._completed_starts[seg] = started
            trim_result_cache(self._completed_starts, 1024)
        shape = self._shapes.pop(seg, (None, None))
        # Trusted: ``data`` is an adopted contribution array or a float32
        # copy the engine made itself — both already validated.
        result = DataSegment.trusted(
            seg, data, wire_payload=shape[0], wire_frames=shape[1]
        )
        self._result_cache[seg] = result
        trim_result_cache(self._result_cache, self.cache_size)
        self.stats.completions += 1
        return result

    def force_broadcast(self, seg: int) -> Optional[DataSegment]:
        """Handle ``FBcast``: emit a partially aggregated segment now.

        Returns ``None`` if nothing has arrived for ``seg`` (including the
        case where it already completed and was flushed).
        """
        self._explode(self._round_at(seg))
        if seg not in self._buffers and seg not in self._pending:
            return None
        self.stats.forced_broadcasts += 1
        return self._complete(seg)

    def cached_result(self, seg: int) -> Optional[DataSegment]:
        """Handle ``Help``: look up a recently completed segment."""
        return cached_segment(self._result_cache, seg)

    def consume_span_start(self, seg: int) -> Optional[float]:
        """Telemetry: pop the first-arrival time of a just-completed seg.

        Only populated while :attr:`clock` is set; returns ``None`` when
        telemetry was off (or the record aged out).
        """
        return self._completed_starts.pop(seg, None)

    def pending_count(self, seg: int) -> int:
        """How many contributions segment ``seg`` has so far."""
        record = self._round_at(seg)
        return self._counters.get(seg, 0) if record is None else record.count

    @property
    def live_segments(self) -> int:
        """Number of partially aggregated segments currently buffered."""
        return len(self._buffers) + len(self._pending) + self._run_live

    def processing_latency(self, payload_bytes: int) -> float:
        """Datapath occupancy for a packet of ``payload_bytes`` (seconds)."""
        latency = self._latency_cache.get(payload_bytes)
        if latency is None:
            # Payload sizes come from a fixed SegmentPlan, so in practice
            # this memo holds one or two entries.
            latency = self.timing.processing_latency(payload_bytes)
            self._latency_cache[payload_bytes] = latency
        self.stats.busy_time += latency
        return latency


def trim_result_cache(cache: Dict[int, object], limit: int) -> None:
    """Bound a cache keyed by Seg or round: past ``limit``, evict the
    oldest half (the lowest keys; they belong to finished rounds)."""
    if len(cache) > limit:
        for seg in sorted(cache)[: len(cache) // 2]:
            del cache[seg]


class VectorGranularityEngine(AggregationEngine):
    """The *conventional* aggregation of Figure 8a, for comparison only.

    Instead of emitting each segment the moment its counter reaches H, this
    variant holds completed segments back until **every** segment of the
    gradient vector (all ``n_chunks`` of the round) has fully aggregated —
    i.e. it waits for the arrival of the entire gradient vectors before
    producing output, like a parameter server does.  The difference
    against :class:`AggregationEngine` isolates exactly the benefit the
    paper attributes to on-the-fly aggregation (Figure 8b): overlap of
    summation with transmission.
    """

    def __init__(self, n_chunks: int, **kwargs) -> None:
        super().__init__(**kwargs)
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        self.n_chunks = n_chunks
        self._held: Dict[int, List[DataSegment]] = {}

    def contribute(self, segment: DataSegment):
        completed = super().contribute(segment)
        if completed is None:
            return None
        round_index = completed.seg // self.n_chunks
        held = self._held.setdefault(round_index, [])
        held.append(completed)
        if len(held) < self.n_chunks:
            return None
        del self._held[round_index]
        return sorted(held, key=lambda s: s.seg)

    def contribute_batch(self, segments, clocks=None):
        # Completions are held back per vector in contribute(): a train
        # goes through it segment by segment.
        return self._contribute_each(segments, clocks)

    def reset(self) -> None:
        super().reset()
        self._held.clear()
