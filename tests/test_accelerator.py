"""Unit tests for the in-switch aggregation engine."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import (
    AcceleratorTiming,
    AggregationEngine,
    VectorGranularityEngine,
)
from repro.core.compression import get_codec
from repro.core.protocol import DataSegment, SegmentPlan


def seg(index, values, sender="w", commit=0):
    return DataSegment(
        seg=index,
        data=np.asarray(values, dtype=np.float32),
        sender=sender,
        commit_id=commit,
    )


class TestThresholdCompletion:
    def test_completes_at_threshold(self):
        engine = AggregationEngine(threshold=3)
        assert engine.contribute(seg(0, [1.0], "a")) is None
        assert engine.contribute(seg(0, [2.0], "b")) is None
        result = engine.contribute(seg(0, [3.0], "c"))
        assert result is not None
        assert result.data[0] == pytest.approx(6.0)

    def test_counter_resets_after_completion(self):
        engine = AggregationEngine(threshold=2)
        engine.contribute(seg(0, [1.0], "a"))
        engine.contribute(seg(0, [1.0], "b"))
        # A second round over the same Seg number starts fresh.
        assert engine.contribute(seg(0, [5.0], "a")) is None
        result = engine.contribute(seg(0, [5.0], "b"))
        assert result.data[0] == pytest.approx(10.0)

    def test_independent_segments(self):
        engine = AggregationEngine(threshold=2)
        engine.contribute(seg(0, [1.0], "a"))
        engine.contribute(seg(1, [10.0], "a"))
        result0 = engine.contribute(seg(0, [2.0], "b"))
        result1 = engine.contribute(seg(1, [20.0], "b"))
        assert result0.data[0] == pytest.approx(3.0)
        assert result1.data[0] == pytest.approx(30.0)

    def test_threshold_one_passthrough(self):
        engine = AggregationEngine(threshold=1)
        result = engine.contribute(seg(5, [7.0]))
        assert result.data[0] == pytest.approx(7.0)

    def test_shape_mismatch_rejected(self):
        engine = AggregationEngine(threshold=2)
        engine.contribute(seg(0, [1.0, 2.0], "a"))
        with pytest.raises(ValueError, match="shape"):
            engine.contribute(seg(0, [1.0], "b"))

    def test_vector_sum_matches_numpy(self):
        rng = np.random.default_rng(3)
        engine = AggregationEngine(threshold=4)
        vectors = [rng.standard_normal(128).astype(np.float32) for _ in range(4)]
        # Snapshot the expected sum first: the engine adopts the first
        # writable float32 contribution as its accumulation buffer.
        expected = np.sum(vectors, axis=0)
        result = None
        for i, v in enumerate(vectors):
            result = engine.contribute(seg(0, v, sender=f"w{i}"))
        np.testing.assert_allclose(result.data, expected, rtol=1e-6)


class TestZeroCopyAdoption:
    """The engine must not copy the first writable float32 contribution."""

    def test_first_writable_float32_contribution_is_adopted(self):
        engine = AggregationEngine(threshold=2)
        first = np.arange(8, dtype=np.float32)
        result_holder = engine.contribute(seg(0, first, "a"))
        assert result_holder is None
        assert np.shares_memory(engine._buffers[0], first)
        result = engine.contribute(seg(0, np.ones(8, dtype=np.float32), "b"))
        # The completed sum lives in the adopted array: zero copies end to end.
        assert np.shares_memory(result.data, first)
        np.testing.assert_array_equal(
            result.data, np.arange(8, dtype=np.float32) + 1.0
        )

    def test_read_only_contribution_forces_a_copy(self):
        engine = AggregationEngine(threshold=2)
        first = np.arange(8, dtype=np.float32)
        frozen = first.view()
        frozen.flags.writeable = False
        engine.contribute(
            DataSegment(seg=0, data=frozen, sender="a", commit_id=0)
        )
        assert not np.shares_memory(engine._buffers[0], first)
        result = engine.contribute(seg(0, np.ones(8, dtype=np.float32), "b"))
        np.testing.assert_array_equal(first, np.arange(8, dtype=np.float32))
        np.testing.assert_array_equal(
            result.data, np.arange(8, dtype=np.float32) + 1.0
        )

    def test_non_float32_data_is_rejected_at_construction(self):
        # The wire codec would silently reinterpret other dtypes'
        # bytes, so DataSegment refuses them outright.
        with pytest.raises(ValueError):
            DataSegment(seg=0, data=np.arange(4, dtype=np.float64), sender="a")
        with pytest.raises(ValueError):
            DataSegment(seg=0, data=np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            DataSegment(seg=0, data=np.zeros(8, dtype=np.float32)[::2])
        with pytest.raises(TypeError):
            DataSegment(seg=0, data=[1.0, 2.0])


class TestControlOperations:
    def test_set_threshold(self):
        engine = AggregationEngine(threshold=4)
        engine.set_threshold(2)
        engine.contribute(seg(0, [1.0], "a"))
        assert engine.contribute(seg(0, [1.0], "b")) is not None

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AggregationEngine(threshold=0)
        with pytest.raises(ValueError):
            AggregationEngine().set_threshold(0)

    def test_reset_clears_state(self):
        engine = AggregationEngine(threshold=2)
        engine.contribute(seg(0, [1.0], "a"))
        engine.reset()
        assert engine.pending_count(0) == 0
        assert engine.live_segments == 0
        engine.contribute(seg(0, [5.0], "a"))
        result = engine.contribute(seg(0, [5.0], "b"))
        assert result.data[0] == pytest.approx(10.0)

    def test_force_broadcast_partial(self):
        engine = AggregationEngine(threshold=4)
        engine.contribute(seg(0, [1.0], "a"))
        engine.contribute(seg(0, [2.0], "b"))
        result = engine.force_broadcast(0)
        assert result.data[0] == pytest.approx(3.0)
        assert engine.stats.forced_broadcasts == 1

    def test_force_broadcast_unknown_seg(self):
        engine = AggregationEngine(threshold=2)
        assert engine.force_broadcast(42) is None

    def test_result_cache_for_help(self):
        engine = AggregationEngine(threshold=1)
        engine.contribute(seg(9, [4.0]))
        cached = engine.cached_result(9)
        assert cached is not None
        assert cached.data[0] == pytest.approx(4.0)
        assert engine.cached_result(10) is None

    def test_cache_eviction(self):
        engine = AggregationEngine(threshold=1, cache_size=10)
        for i in range(25):
            engine.contribute(seg(i, [1.0]))
        assert engine.cached_result(24) is not None
        assert engine.cached_result(0) is None


class TestDedup:
    def test_duplicates_dropped_in_dedup_mode(self):
        engine = AggregationEngine(threshold=2, dedup=True)
        engine.contribute(seg(0, [1.0], "a", commit=1))
        assert engine.contribute(seg(0, [1.0], "a", commit=1)) is None
        assert engine.stats.duplicates_dropped == 1
        result = engine.contribute(seg(0, [2.0], "b", commit=1))
        assert result.data[0] == pytest.approx(3.0)

    def test_counter_mode_counts_duplicates(self):
        engine = AggregationEngine(threshold=2, dedup=False)
        engine.contribute(seg(0, [1.0], "a", commit=1))
        result = engine.contribute(seg(0, [1.0], "a", commit=1))
        assert result is not None  # pure counter semantics (the hardware)
        assert result.data[0] == pytest.approx(2.0)


class TestBufferLimit:
    def test_oldest_evicted_beyond_limit(self):
        engine = AggregationEngine(threshold=2, buffer_limit=3)
        for i in range(6):
            engine.contribute(seg(i, [1.0], "a"))
        assert engine.live_segments <= 3
        assert engine.stats.evictions == 3
        # The newest segments survive.
        assert engine.pending_count(5) == 1
        assert engine.pending_count(0) == 0

    def test_invalid_buffer_limit(self):
        with pytest.raises(ValueError):
            AggregationEngine(buffer_limit=0)


class TestArrivalRenumbering:
    def test_any_h_contributions_complete_a_round(self):
        engine = AggregationEngine(threshold=2)
        engine.arrival_renumber = 1  # single-chunk vectors
        # Two commits from the SAME worker complete round 0.
        engine.contribute(seg(0, [1.0], "fast", commit=1))
        result = engine.contribute(seg(7, [2.0], "fast", commit=2))
        assert result is not None
        assert result.seg == 0  # renumbered to round 0
        assert result.data[0] == pytest.approx(3.0)

    def test_rounds_advance_with_arrivals(self):
        engine = AggregationEngine(threshold=2)
        engine.arrival_renumber = 1
        engine.contribute(seg(0, [1.0]))
        first = engine.contribute(seg(0, [1.0]))
        engine.contribute(seg(0, [1.0]))
        second = engine.contribute(seg(0, [1.0]))
        assert first.seg == 0
        assert second.seg == 1

    def test_chunk_offsets_preserved(self):
        engine = AggregationEngine(threshold=1)
        engine.arrival_renumber = 4
        result = engine.contribute(seg(4 * 9 + 2, [1.0]))
        assert result.seg % 4 == 2


class TestTiming:
    def test_latency_proportional_to_bursts(self):
        timing = AcceleratorTiming()
        small = timing.processing_latency(32)
        large = timing.processing_latency(320)
        assert large > small
        # 10 bursts + 8 pipeline cycles at 200 MHz.
        assert large == pytest.approx((10 + 8) / 200e6)

    def test_paper_segment_under_microsecond(self):
        # A full 1464-byte segment: the accelerator is a bump in the wire.
        latency = AcceleratorTiming().processing_latency(1464)
        assert latency < 1e-6

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorTiming().processing_latency(-1)

    def test_busy_time_accumulates(self):
        engine = AggregationEngine()
        engine.processing_latency(1000)
        engine.processing_latency(1000)
        assert engine.stats.busy_time == pytest.approx(
            2 * AcceleratorTiming().processing_latency(1000)
        )


class TestVectorGranularity:
    def test_holds_until_whole_round_complete(self):
        engine = VectorGranularityEngine(n_chunks=2, threshold=2)
        assert engine.contribute(seg(0, [1.0], "a")) is None
        assert engine.contribute(seg(0, [2.0], "b")) is None  # chunk 0 done, held
        assert engine.contribute(seg(1, [3.0], "a")) is None
        results = engine.contribute(seg(1, [4.0], "b"))
        assert isinstance(results, list)
        assert [r.seg for r in results] == [0, 1]
        assert results[0].data[0] == pytest.approx(3.0)
        assert results[1].data[0] == pytest.approx(7.0)

    def test_rounds_are_independent(self):
        engine = VectorGranularityEngine(n_chunks=2, threshold=1)
        first = engine.contribute(seg(0, [1.0]))
        assert first is None
        batch = engine.contribute(seg(1, [1.0]))
        assert len(batch) == 2
        # Next round (segs 2, 3).
        assert engine.contribute(seg(2, [1.0])) is None
        assert len(engine.contribute(seg(3, [1.0]))) == 2

    def test_reset_clears_held(self):
        engine = VectorGranularityEngine(n_chunks=2, threshold=1)
        engine.contribute(seg(0, [1.0]))
        engine.reset()
        assert engine.contribute(seg(0, [1.0])) is None  # held again, not stale

    def test_invalid_n_chunks(self):
        with pytest.raises(ValueError):
            VectorGranularityEngine(n_chunks=0)


class TestBatchIngestCounters:
    """``stats.batch_bails`` / ``stats.joins``: which per-byte path ran."""

    def train(self, sender="w0", round_index=0, n=4):
        plan = getattr(self, "plan", None)
        if plan is None or plan.n_chunks != n:
            plan = self.plan = SegmentPlan(366 * n)
        vector = np.ones(plan.n_elements, dtype=np.float32)
        return plan.run(vector, round_index, sender=sender, commit_id=1)

    def test_clean_trains_are_joined_as_views_and_nothing_bails(self):
        engine = AggregationEngine(threshold=2)
        assert engine.contribute_batch(self.train("w0")) == []
        assert engine.live_segments == 4 and engine.pending_count(2) == 1
        assert len(engine.contribute_batch(self.train("w1"))) == 4
        assert engine.stats.joins == {"view": 2, "copy": 0}
        assert not any(engine.stats.batch_bails.values())
        assert engine.stats.contributions == 8 and engine.stats.completions == 4
        assert engine.stats.max_live_segments == 4 and engine.live_segments == 0

    def test_chunks_without_their_cut_are_joined_by_copy(self):
        # A run whose vector is not one contiguous float32 array (here every
        # other element of a float64 one) is gathered before it is summed.
        engine = AggregationEngine(threshold=1)
        run = self.train()
        scattered = np.arange(2 * run.data.size, dtype=np.float64)[::2]
        done = engine.contribute_batch(replace(run, data=scattered))
        assert engine.stats.joins == {"view": 0, "copy": 1}
        assert done.data.dtype == np.float32 and done.data.flags.c_contiguous
        assert done.data.tobytes() == scattered.astype(np.float32).tobytes()

    @pytest.mark.parametrize(
        "cause,kwargs",
        [
            ("dedup", dict(dedup=True)),
            ("canonical_order", dict(canonical_order=True)),
            ("buffer_limit", dict(buffer_limit=64)),
            ("codec", dict(codec=get_codec("int32-bs"))),
        ],
    )
    def test_engine_settings_bail_by_name(self, cause, kwargs):
        """A setting is named as a cause only when its condition failed:
        merely being configured sends no train to the per-segment path."""
        engine = AggregationEngine(threshold=1, **kwargs)
        assert len(engine.contribute_batch(self.train())) == 4
        assert not any(engine.stats.batch_bails.values())
        assert engine.stats.joins == {"view": 1, "copy": 0}
        if cause == "buffer_limit":
            # ... and it fails exactly when this train would exceed it.
            engine = AggregationEngine(threshold=2, buffer_limit=7)
            engine.contribute_batch(self.train(round_index=0))
            engine.contribute_batch(self.train(round_index=1))
            bails = {k: v for k, v in engine.stats.batch_bails.items() if v}
            assert bails == {"buffer_limit": 1}
            assert engine.stats.evictions == 1 and engine.live_segments == 7
            # A later run of a round already held adds no buffer.
            engine.contribute_batch(self.train("w1", round_index=1))
            assert bails == {"buffer_limit": 1}
        if cause == "dedup":
            engine = AggregationEngine(threshold=2, dedup=True)
            engine.contribute_batch(self.train())
            assert engine.contribute_batch(self.train()) == []
            assert engine.stats.duplicates_dropped == 4
            assert len(engine.contribute_batch(self.train("w1"))) == 4

    def test_arrival_renumber_arrival_times_and_shape_bails(self):
        engine = AggregationEngine(threshold=1)
        engine.arrival_renumber = 4
        first = engine.contribute_batch(self.train())
        again = engine.contribute_batch(self.train())  # the next round
        assert (first.seg, again.seg) == (0, 4)
        assert not any(engine.stats.batch_bails.values())
        # A lone packet leaves chunk 0 one arrival ahead of the others: a
        # run no longer maps onto one round.
        engine.contribute(self.train().segments()[0])
        done = engine.contribute_batch(self.train())
        assert sorted(s.seg for _, s in done) == [9, 10, 11, 12]
        assert engine.stats.batch_bails["shape"] == 1
        # Arrival times are data: a timed run stays one record, and its
        # first arrivals are each chunk's span start once the round is done.
        engine = AggregationEngine(threshold=2)
        engine.contribute_batch(self.train("w0"), [0.0, 1.0, 2.0, 3.0])
        done = engine.contribute_batch(self.train("w1"), [4.0, 5.0, 6.0, 7.0])
        assert (done.seg, len(done)) == (0, 4)
        assert [engine.consume_span_start(s) for s in range(4)] == [0, 1, 2, 3]
        # ... and the first arrivals of a round a lone packet breaks up.
        engine.contribute_batch(self.train("w0", round_index=1), [8.0] * 4)
        engine.contribute(self.train("w1", round_index=1).segments()[2], 9.0)
        assert engine.consume_span_start(6) == 8.0
        assert engine.stats.joins == {"view": 3, "copy": 0}
        assert not any(engine.stats.batch_bails.values())
        engine = AggregationEngine(threshold=1)
        engine.contribute_batch(self.train()[:1])  # a one-packet train
        engine.contribute_batch(self.train(round_index=1).segments()[::2])  # gaps
        assert engine.stats.batch_bails["shape"] == 2
        # Bails are counted per train, never per segment.
        assert sum(engine.stats.batch_bails.values()) == 2


# ----------------------------------------------------------------------
# A run ingested whole equals the same packets ingested one by one, in every
# engine mode and with per-packet traffic landing on half-aggregated rounds
# ----------------------------------------------------------------------
ENGINE_MODES = {
    "plain": dict(),
    "canonical": dict(canonical_order=True),
    "dedup": dict(dedup=True),
    "int32-bs": dict(codec=get_codec("int32-bs")),
    "fp16": dict(codec=get_codec("fp16")),
    "canonical-int32-bs": dict(canonical_order=True, codec=get_codec("int32-bs")),
    "buffer-limit": dict(buffer_limit=5),
}


@st.composite
def engine_scripts(draw):
    mode = draw(st.sampled_from(sorted(ENGINE_MODES)))
    renumber = draw(st.booleans())
    n_chunks = draw(st.integers(2, 4))
    plan = SegmentPlan(366 * (n_chunks - 1) + draw(st.integers(1, 366)))
    senders = st.sampled_from(["w0", "w1", "w2", "w10"])
    rounds = st.integers(0, 2)
    op = st.one_of(
        st.tuples(st.just("run"), senders, rounds),
        st.tuples(st.just("run"), senders, rounds),
        st.tuples(st.just("part"), senders, rounds, st.integers(1, n_chunks - 1)),
        st.tuples(st.just("packet"), senders, rounds, st.integers(0, n_chunks - 1)),
        st.tuples(st.just("fbcast"), st.integers(0, 3 * n_chunks - 1)),
        st.tuples(st.just("seth"), st.integers(1, 3)),
    )
    return mode, renumber, plan, draw(st.integers(1, 3)), draw(st.lists(op, max_size=14))


def drive(engine, plan, ops, whole_runs):
    """Apply ``ops``; every completion as ``(seg, bytes, footprint)``, per op."""

    def vector(sender, round_index):
        rng = np.random.default_rng([ord(c) for c in sender] + [round_index])
        return engine_grid(rng.standard_normal(plan.n_elements).astype(np.float32))

    engine_grid = (
        engine.codec.roundtrip if engine.codec is not None else lambda v: v
    )
    log = []
    for op in ops:
        if op[0] in ("run", "part"):
            run = plan.run(vector(op[1], op[2]), op[2], op[1], commit_id=op[2] + 1)
            if op[0] == "part":  # a run split at a barrier: both parts, in order
                runs = [run[: op[3]], run[op[3] :]]
            else:
                runs = [run]
            done = []
            for run in runs:
                if whole_runs:
                    out = engine.contribute_batch(run)
                    done += out.segments() if hasattr(out, "segments") else [
                        segment for _, segment in out
                    ]
                else:
                    done += [
                        d for d in map(engine.contribute, run.segments()) if d
                    ]
        elif op[0] == "packet":
            run = plan.run(vector(op[1], op[2]), op[2], op[1], commit_id=op[2] + 1)
            done = [engine.contribute(run.segments()[op[3]])]
        elif op[0] == "fbcast":
            done = [engine.force_broadcast(op[1])]
        else:
            engine.set_threshold(op[1])
            done = engine.sweep_completed()
        log.append(sorted(
            (d.seg, d.data.tobytes(), d.wire_payload, d.wire_frames)
            for d in done if d is not None
        ))
    stats = engine.stats
    return log, (
        stats.contributions, stats.completions, stats.forced_broadcasts,
        stats.duplicates_dropped, stats.evictions, stats.max_live_segments,
        engine.live_segments,
        [engine.pending_count(seg) for seg in range(3 * plan.n_chunks)],
        [
            None if cached is None else cached.data.tobytes()
            for cached in map(engine.cached_result, range(3 * plan.n_chunks))
        ],
    )


class TestRunIngestEqualsPerSegmentIngest:
    @given(engine_scripts())
    @settings(max_examples=400, deadline=None)
    def test_same_completions_same_state(self, script):
        mode, renumber, plan, threshold, ops = script
        outcomes = []
        for whole_runs in (True, False):
            engine = AggregationEngine(
                threshold=threshold, cache_size=2 * plan.n_chunks,
                **ENGINE_MODES[mode],
            )
            if renumber:
                engine.arrival_renumber = plan.n_chunks
            outcomes.append(drive(engine, plan, ops, whole_runs))
        assert outcomes[0] == outcomes[1]
