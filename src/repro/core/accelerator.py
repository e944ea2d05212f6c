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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .protocol import DataSegment, join_chunks

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
#: Engine settings under which a train takes the per-segment path, in the
#: order their cause is reported (``clock`` and ``shape`` are per train).
_BATCH_BAIL_SETTINGS = (
    "dedup", "canonical_order", "arrival_renumber", "buffer_limit", "codec",
)


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
    #: Trains that left the batched ingest, by the first cause that applied
    #: (``dedup``, ``canonical_order``, ``arrival_renumber``,
    #: ``buffer_limit``, ``clock``, ``codec``, ``shape``).
    batch_bails: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            _BATCH_BAIL_SETTINGS + ("clock", "shape"), 0
        )
    )
    #: Batched ingests that took a train's parent vector as it was
    #: (``view``) or had to concatenate its chunks first (``copy``).
    joins: Dict[str, int] = field(
        default_factory=lambda: {"view": 0, "copy": 0}
    )


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
        self._result_cache: Dict[int, DataSegment] = {}
        #: Telemetry hook: when the owning switch sets a clock, the engine
        #: stamps each segment's first arrival so completions can be
        #: reported as first-arrival -> complete spans.  ``None`` (the
        #: default) keeps the datapath entirely timestamp-free.
        self.clock: Optional[Callable[[], float]] = None
        self._first_arrival: Dict[int, float] = {}
        self._completed_starts: Dict[int, float] = {}
        #: Vectorized-ingest bookkeeping for the batched transport path:
        #: base Seg -> (round buffer, per-seg views into it).  Only
        #: populated by :meth:`_contribute_batch_fast`; every entry's
        #: validity is re-checked by identity against ``_buffers`` on each
        #: train, so interleaved per-packet traffic can never corrupt it.
        self._vec_rounds: Dict[int, Tuple[np.ndarray, List[np.ndarray]]] = {}

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
        self._vec_rounds.clear()

    def sweep_completed(self) -> List[DataSegment]:
        """Emit every live segment whose counter already meets the threshold.

        ``contribute`` only checks completion when a packet arrives, so a
        ``SetH`` that *lowers* H (e.g. after a worker ``Leave``) can leave
        segments stranded at ``count >= threshold`` with no future arrival
        to trigger them.  The switch calls this after every threshold
        change; the returned segments are emitted exactly as if their last
        contribution had just landed.
        """
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
            segment = DataSegment(
                seg=seg,
                data=segment.data,
                sender=segment.sender,
                commit_id=segment.commit_id,
                wire_payload=segment.wire_payload,
                wire_frames=segment.wire_frames,
            )
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
            n_live = len(self._pending)
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

        n_live = len(self._buffers)
        if n_live > stats.max_live_segments:
            stats.max_live_segments = n_live
        if self._counters[seg] >= self.threshold:
            return self._complete(seg)
        if self.buffer_limit is not None and len(self._buffers) > self.buffer_limit:
            self._evict_oldest()
        return None

    def contribute_batch(
        self, segments, clocks=None
    ) -> List[Tuple[int, DataSegment]]:
        """Batch-ingest a train's worth of contributions in one call.

        Semantically exactly ``[contribute(s) for s in segments]`` — same
        per-segment state transitions, same float32 summation order — but
        one entry point for the batched transport path.  Returns
        ``(index, completed)`` pairs: which input triggered each completed
        segment (vector-granularity engines may emit several per input).

        ``clocks`` (optional, one float per segment) stamps each
        contribution with its own carried arrival time instead of the
        shared :attr:`clock` — a train is delivered in one simulator
        event, so ``clock()`` would report the *last* packet's arrival
        for every first-arrival record.
        """
        if clocks is None and self.clock is None:
            fast = self._contribute_batch_fast(segments)
            if fast is not None:
                return fast
        else:
            self._bail("clock")
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

    def _join(self, segments) -> Tuple[np.ndarray, bool]:
        """One train's chunks as one vector: ``(vector, is a view)``."""
        vector, is_view = join_chunks(
            [segment.data for segment in segments], segments[0].origin
        )
        self.stats.joins["view" if is_view else "copy"] += 1
        return vector, is_view

    def _contribute_batch_fast(self, segments) -> Optional[List[Tuple[int, DataSegment]]]:
        """Vectorized ingest for the dominant train shape, or ``None``.

        The hot case is one worker's (or one child switch's) whole round
        as a train: ``n`` consecutive Seg numbers, all float32, all at the
        same contribution count.  Summing then collapses to one in-place
        add of the train's parent vector on a round-contiguous buffer
        (:func:`~repro.core.protocol.join_chunks`: the vector itself when
        the train still carries it, a concatenation when not) —
        bit-identical to the per-segment adds, because every element still
        receives exactly one addition of the same two float32 operands.
        The first train's vector *becomes* the round buffer when it is
        writable, exactly as :meth:`contribute` adopts a first segment.

        Per-seg ``_buffers`` / ``_counters`` entries are kept coherent
        (the buffers are views into the round buffer), so interleaved
        per-packet traffic — retransmits, FBcast, mixed transports — works
        unchanged; any train for which those mirrors no longer line up
        (checked by identity below) falls back by returning ``None``,
        counted by cause in ``stats.batch_bails``.
        """
        # (Codec engines need the slow path: int32-bs quantizes on ingest,
        # and every codec's finalize_sum must run per completion — the
        # inlined completion below skips it.)
        for cause in _BATCH_BAIL_SETTINGS:
            if getattr(self, cause) not in (None, False):
                return self._bail(cause)
        n = len(segments)
        if n < 2:
            return self._bail("shape")
        base = segments[0].seg
        counters = self._counters
        buffers = self._buffers
        stats = self.stats
        c0 = counters.get(base, 0)
        if c0 == 0:
            # First train of the round: validate, then take its vector
            # (a private copy of a read-only or scattered one) as the
            # round buffer, with per-seg views as the buffer mirrors.
            for i, segment in enumerate(segments):
                seg = base + i
                if segment.seg != seg or seg in counters or seg in buffers:
                    return self._bail("shape")
                data = segment.data
                if (
                    data.dtype != np.float32
                    or data.ndim != 1
                    or segment.wire_payload is None
                ):
                    return self._bail("shape")
            buf, is_view = self._join(segments)
            if is_view and not buf.flags.writeable:
                buf = buf.copy()
            shapes = self._shapes
            views: List[np.ndarray] = []
            pos = 0
            for i, segment in enumerate(segments):
                end = pos + segment.data.size
                view = buf[pos:end]
                seg = base + i
                buffers[seg] = view
                counters[seg] = 1
                shapes[seg] = (segment.wire_payload, segment.wire_frames)
                views.append(view)
                pos = end
            count = 1
            self._vec_rounds[base] = origin = (buf, views)
            if len(self._vec_rounds) > 256:
                # Rounds that never completed (crashes, evicted jobs);
                # stale entries are harmless but needn't accumulate.
                for old in sorted(self._vec_rounds)[:128]:
                    del self._vec_rounds[old]
        else:
            origin = self._vec_rounds.get(base)
            if origin is None or len(origin[1]) != n:
                return self._bail("shape")
            buf, views = origin
            for i, segment in enumerate(segments):
                data = segment.data
                view = views[i]
                seg = base + i
                if (
                    segment.seg != seg
                    or counters.get(seg) != c0
                    or buffers.get(seg) is not view
                    or data.dtype != np.float32
                    or data.ndim != 1
                    or data.size != view.size
                ):
                    return self._bail("shape")
            buf += self._join(segments)[0]
            count = c0 + 1
            for i in range(n):
                counters[base + i] = count
        stats.contributions += n
        n_live = len(buffers)
        if n_live > stats.max_live_segments:
            stats.max_live_segments = n_live
        if count >= self.threshold:
            self._vec_rounds.pop(base, None)
            # Inlined _complete for the whole round: same pops, same
            # per-insert Help-cache eviction check, same counter updates —
            # just without n method-call frames.  Each result names the
            # round buffer it is a view of, so a member that receives the
            # whole round takes the buffer instead of reassembling it.
            shapes = self._shapes
            first_arrival = self._first_arrival
            contributors = self._contributors
            result_cache = self._result_cache
            cache_size = self.cache_size
            trusted = DataSegment.trusted
            out: List[Tuple[int, DataSegment]] = []
            for i in range(n):
                seg = base + i
                data = buffers.pop(seg)
                counters.pop(seg, None)
                contributors.pop(seg, None)
                started = first_arrival.pop(seg, None)
                if started is not None:
                    self._completed_starts[seg] = started
                    if len(self._completed_starts) > 1024:
                        for old in sorted(self._completed_starts)[:512]:
                            del self._completed_starts[old]
                shape = shapes.pop(seg, (None, None))
                result = trusted(
                    seg, data, wire_payload=shape[0], wire_frames=shape[1]
                )
                result.origin = origin
                result_cache[seg] = result
                if len(result_cache) > cache_size:
                    for key in sorted(result_cache)[: len(result_cache) // 2]:
                        del result_cache[key]
                out.append((i, result))
            stats.completions += n
            return out
        return []

    def _evict_oldest(self) -> None:
        """Drop the stalest partial buffers to honour ``buffer_limit``."""
        store = self._pending if self.canonical_order else self._buffers
        excess = len(store) - self.buffer_limit
        for seg in sorted(store)[:excess]:
            del store[seg]
            self._counters.pop(seg, None)
            self._contributors.pop(seg, None)
            self._shapes.pop(seg, None)
            self._first_arrival.pop(seg, None)
            self.stats.evictions += 1

    def _complete(self, seg: int) -> DataSegment:
        """Emit the summed segment, zero the buffer, reset the counter."""
        if self.canonical_order:
            entries = self._pending.pop(seg)
            # Canonical order: shortest-then-lexicographic sender name, so
            # "worker2" < "worker10", then commit id.  This is rank order
            # for every naming scheme the repo uses.
            entries.sort(key=lambda e: (len(e[0]), e[0], e[1]))
            data = entries[0][2]
            for _, _, contribution in entries[1:]:
                data += contribution
            if self.codec is not None:
                data = self.codec.finalize_sum(data)
        else:
            data = self._buffers.pop(seg)
            if self._int_sum:
                # Renormalize the int32 accumulator back to float32 —
                # bit-identical to finalize_sum() of the exact float sum
                # (DESIGN.md §12), so canonical and integer paths agree.
                data = self.codec.engine_emit(data)
            elif self.codec is not None:
                data = self.codec.finalize_sum(data)
        self._counters.pop(seg, None)
        self._contributors.pop(seg, None)
        started = self._first_arrival.pop(seg, None)
        if started is not None:
            self._completed_starts[seg] = started
            if len(self._completed_starts) > 1024:
                for old in sorted(self._completed_starts)[:512]:
                    del self._completed_starts[old]
        shape = self._shapes.pop(seg, (None, None))
        # Trusted: ``data`` is an adopted contribution array or a float32
        # copy the engine made itself — both already validated.
        result = DataSegment.trusted(
            seg, data, wire_payload=shape[0], wire_frames=shape[1]
        )
        self._cache_result(result)
        self.stats.completions += 1
        return result

    def force_broadcast(self, seg: int) -> Optional[DataSegment]:
        """Handle ``FBcast``: emit a partially aggregated segment now.

        Returns ``None`` if nothing has arrived for ``seg`` (including the
        case where it already completed and was flushed).
        """
        if seg not in self._buffers and seg not in self._pending:
            return None
        self.stats.forced_broadcasts += 1
        return self._complete(seg)

    def cached_result(self, seg: int) -> Optional[DataSegment]:
        """Handle ``Help``: look up a recently completed segment."""
        return self._result_cache.get(seg)

    def consume_span_start(self, seg: int) -> Optional[float]:
        """Telemetry: pop the first-arrival time of a just-completed seg.

        Only populated while :attr:`clock` is set; returns ``None`` when
        telemetry was off (or the record aged out).
        """
        return self._completed_starts.pop(seg, None)

    def pending_count(self, seg: int) -> int:
        """How many contributions segment ``seg`` has so far."""
        return self._counters.get(seg, 0)

    @property
    def live_segments(self) -> int:
        """Number of partially aggregated segments currently buffered."""
        return len(self._buffers) + len(self._pending)

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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_result(self, result: DataSegment) -> None:
        self._result_cache[result.seg] = result
        trim_result_cache(self._result_cache, self.cache_size)


def trim_result_cache(cache: Dict[int, DataSegment], limit: int) -> None:
    """Bound a by-Seg result cache: past ``limit``, evict the oldest half
    (the lowest Seg numbers; they belong to finished rounds)."""
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

    def reset(self) -> None:
        super().reset()
        self._held.clear()
