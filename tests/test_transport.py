"""Unit tests for the baseline vector transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.transport import (
    VECTOR_PORT,
    VectorReceiver,
    VectorRun,
    _chunk_shapes,
    send_vector,
)
from repro.netsim import Link, Simulator, Host
from repro.netsim.packets import MAX_UDP_PAYLOAD, Packet, PacketTrain


def linked_pair():
    sim = Simulator()
    a = Host(sim, "a")
    b = Host(sim, "b")
    Link(sim).attach(a, b)
    return sim, a, b


class TestChunkShapes:
    def test_total_bytes_preserved(self):
        shapes = _chunk_shapes(1_000_000, max_chunks=64)
        assert sum(p for p, _ in shapes) == 1_000_000
        assert len(shapes) <= 64

    def test_small_vector_single_chunk(self):
        shapes = _chunk_shapes(100, max_chunks=64)
        assert shapes == [(100, 1)]

    def test_frames_cover_payload(self):
        for size in (1, 1472, 1473, 123_456):
            for payload, frames in _chunk_shapes(size, 16):
                assert payload <= frames * MAX_UDP_PAYLOAD

    def test_one_byte_vector(self):
        assert _chunk_shapes(1, max_chunks=64) == [(1, 1)]

    def test_exact_payload_multiples(self):
        # Sizes landing exactly on frame boundaries must not grow a
        # zero-byte trailing chunk.
        for multiple in (1, 2, 64, 1000):
            size = multiple * MAX_UDP_PAYLOAD
            shapes = _chunk_shapes(size, max_chunks=8)
            assert sum(p for p, _ in shapes) == size
            assert sum(f for _, f in shapes) == multiple
            assert all(p >= 1 for p, _ in shapes)
            assert len(shapes) <= 8

    def test_max_chunks_one_collapses_to_single_train(self):
        shapes = _chunk_shapes(10 * MAX_UDP_PAYLOAD + 3, max_chunks=1)
        assert len(shapes) == 1
        payload, frames = shapes[0]
        assert payload == 10 * MAX_UDP_PAYLOAD + 3
        assert frames == 11


class TestVectorRun:
    @given(st.integers(1, 300_000), st.integers(1, 80), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_run_and_its_slices_build_the_packets_chunk_shapes_describes(
        self, wire_bytes, max_chunks, data
    ):
        shapes = _chunk_shapes(wire_bytes, max_chunks)
        n = len(shapes)
        vector = np.arange(3, dtype=np.float32)
        run = VectorRun(shapes, 0, n, "g", vector, "meta")
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(a + 1, n), label="b")
        c = data.draw(st.integers(0, b - a - 1), label="c")
        for lo, part in ((0, run), (a, run[a:b]), (a + c, run[a:b][c:])):
            hi = lo + len(part)
            train = PacketTrain(part, "x", "y", port=VECTOR_PORT)
            packets = train.packets
            assert len(train) == len(packets) == hi - lo
            # Each packet is the one the shape describes, validated afresh.
            assert [
                (p.src, p.dst, p.tos, p.src_port, p.dst_port, p.job) for p in packets
            ] == [("x", "y", 0, VECTOR_PORT, VECTOR_PORT, 0)] * (hi - lo)
            assert [(p.payload_size, p.frame_count) for p in packets] == shapes[lo:hi]
            assert [p.wire_size for p in packets] == [
                Packet("x", "y", payload, frame_count=frames).wire_size
                for payload, frames in shapes[lo:hi]
            ]
            assert part.wire_sizes.tolist() == [p.wire_size for p in packets]
            assert not part.wire_sizes.flags.writeable
            assert part.wire_total == sum(p.wire_size for p in packets)
            chunks = [p.payload for p in packets]
            assert [(k.tag, k.index, k.total) for k in chunks] == [
                ("g", index, n) for index in range(lo, hi)
            ]
            for chunk in chunks:
                last = chunk.index == n - 1
                assert chunk.data is (vector if last else None)
                assert chunk.meta == ("meta" if last else None)


class TestSendReceive:
    def test_vector_delivered_once_complete(self):
        sim, a, b = linked_pair()
        got = []
        VectorReceiver(b, lambda src, tag, vec, meta: got.append((src, tag, vec, meta)))
        vector = np.arange(10.0, dtype=np.float32)
        n = send_vector(a, "b", tag="g1", vector=vector, wire_bytes=500_000, meta=7)
        assert n > 1
        sim.run()
        assert len(got) == 1
        src, tag, vec, meta = got[0]
        assert (src, tag, meta) == ("a", "g1", 7)
        np.testing.assert_array_equal(vec, vector)

    def test_interleaved_flows_do_not_mix(self):
        sim, a, b = linked_pair()
        got = {}
        VectorReceiver(b, lambda src, tag, vec, meta: got.__setitem__(tag, vec))
        send_vector(a, "b", tag=1, vector=np.ones(3), wire_bytes=100_000)
        send_vector(a, "b", tag=2, vector=np.zeros(3), wire_bytes=100_000)
        sim.run()
        np.testing.assert_array_equal(got[1], np.ones(3))
        np.testing.assert_array_equal(got[2], np.zeros(3))

    def test_timing_only_flow_carries_none(self):
        sim, a, b = linked_pair()
        got = []
        VectorReceiver(b, lambda src, tag, vec, meta: got.append(vec))
        send_vector(a, "b", tag=0, vector=None, wire_bytes=10_000)
        sim.run()
        assert got == [None]

    def test_transfer_time_matches_wire_bytes(self):
        sim, a, b = linked_pair()
        done = []
        VectorReceiver(b, lambda *args: done.append(sim.now))
        wire = 1_000_000
        send_vector(a, "b", tag=0, vector=None, wire_bytes=wire)
        sim.run()
        # Wire bytes plus per-frame headers at 10 Gb/s.
        n_frames = -(-wire // MAX_UDP_PAYLOAD)
        expected = (wire + n_frames * 50) * 8 / 10e9
        assert done[0] == pytest.approx(expected, rel=0.01)

    def test_invalid_wire_bytes(self):
        _, a, _ = linked_pair()
        with pytest.raises(ValueError):
            send_vector(a, "b", tag=0, vector=None, wire_bytes=0)

    def test_one_byte_flow_delivers(self):
        sim, a, b = linked_pair()
        got = []
        VectorReceiver(b, lambda src, tag, vec, meta: got.append(vec))
        vector = np.array([42.0], dtype=np.float32)
        n = send_vector(a, "b", tag=0, vector=vector, wire_bytes=1)
        assert n == 1
        sim.run()
        np.testing.assert_array_equal(got[0], vector)

    def test_max_chunks_one_delivers_data_on_single_packet(self):
        sim, a, b = linked_pair()
        got = []
        VectorReceiver(b, lambda src, tag, vec, meta: got.append((vec, meta)))
        vector = np.ones(5, dtype=np.float32)
        n = send_vector(
            a, "b", tag=0, vector=vector, wire_bytes=500_000, max_chunks=1, meta="m"
        )
        assert n == 1
        sim.run()
        assert len(got) == 1
        np.testing.assert_array_equal(got[0][0], vector)
        assert got[0][1] == "m"

    def test_wrong_payload_type_raises(self):
        sim, a, b = linked_pair()
        VectorReceiver(b, lambda *args: None, port=7777)
        a.send(Packet(src="a", dst="b", payload_size=10, dst_port=7777, payload="junk"))
        with pytest.raises(TypeError, match="VectorChunk"):
            sim.run()


class TestBurstForm:
    """What changes when the cluster's transport is ``train``: one burst per
    vector out, one call per flow in — and nothing a receiver can see."""

    def bursting_pair(self):
        sim, a, b = linked_pair()
        sim.transport = "train"
        return sim, a, b

    def test_a_bursting_host_offers_one_train_per_vector(self, monkeypatch):
        sim, a, b = self.bursting_pair()
        bursts, singles = [], []
        monkeypatch.setattr(a, "send_burst", lambda packets: bursts.append(len(packets)))
        monkeypatch.setattr(a, "send", singles.append)
        assert send_vector(a, "b", tag=0, vector=None, wire_bytes=500_000) == 57
        assert (bursts, singles) == ([57], [])
        sim.transport = "packet (test reference)"
        assert send_vector(a, "b", tag=1, vector=None, wire_bytes=500_000) == 57
        assert (bursts, len(singles)) == ([57], 57)

    @pytest.mark.parametrize("wire_bytes", [1, 10_000, 500_000])
    def test_a_flow_is_received_at_the_time_its_last_chunk_lands(self, wire_bytes):
        done = {}
        for transport in ("train", "packet"):
            sim, a, b = linked_pair()
            sim.transport = transport
            got = []
            VectorReceiver(
                b, lambda src, tag, vec, meta: got.append((sim.now, src, tag, vec, meta))
            )
            vector = np.arange(4.0)
            send_vector(a, "b", tag="g", vector=vector, wire_bytes=wire_bytes, meta=3)
            sim.run()
            assert len(got) == 1 and got[0][3] is vector
            done[transport] = (got[0][:3], got[0][4], sim.processed_events)
        assert done["train"] == done["packet"]

    def test_a_train_that_is_not_one_whole_flow_is_counted_chunk_by_chunk(self):
        from repro.distributed.transport import VectorChunk

        sim, a, b = self.bursting_pair()
        got = []
        receiver = VectorReceiver(b, lambda src, tag, vec, meta: got.append(tag))

        def chunk(tag, index, total):
            return Packet(
                "a", "b", 10, dst_port=7777,
                payload=VectorChunk(tag, index, total, data=index == total - 1),
            )

        # The tail of one flow and the head of the next, in one train.
        receiver._receive_train(PacketTrain.of([chunk(1, 0, 2)]))
        assert got == []
        receiver._receive_train(PacketTrain.of([chunk(1, 1, 2), chunk(2, 0, 2)]))
        assert got == [1]
        receiver._receive_train(PacketTrain.of([chunk(2, 1, 2)]))
        assert got == [1, 2]
        with pytest.raises(TypeError, match="VectorChunk"):
            receiver._receive_train(
                PacketTrain.of([Packet("a", "b", 10, payload="junk")])
            )

    @pytest.mark.parametrize("max_chunks", [0, -1, -64])
    def test_max_chunks_below_one_is_refused(self, max_chunks):
        # Zero used to divide by zero; a negative cap was silently no cap.
        _, a, _ = linked_pair()
        with pytest.raises(ValueError, match="max_chunks"):
            send_vector(a, "b", tag=0, vector=None, wire_bytes=10, max_chunks=max_chunks)

    def test_chunk_shapes_are_computed_once_per_size(self):
        _chunk_shapes.cache_clear()
        _, a, _ = linked_pair()
        for tag in range(5):
            send_vector(a, "b", tag=tag, vector=None, wire_bytes=123_456, max_chunks=8)
        info = _chunk_shapes.cache_info()
        assert (info.misses, info.hits) == (1, 4)
