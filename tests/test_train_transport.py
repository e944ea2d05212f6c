"""Parity tests for the batched packet-train transport.

The train path (`LinkEnd.send_train` + `PacketTrain` + the batch-ingest
hooks) promises the **same observable behaviour** as N per-packet
`send` calls: identical per-packet arrival times, identical link-state
accumulation (busy window, busy_time, counters), identical loss-rng
consumption, and — through fault-window *train barriers* — identical
link state seen by every packet when a fault edge lands mid-train.
These tests pin that contract at the link level, then end to end: every
registered strategy must produce bit-identical weights under
``transport="train"`` and ``transport="packet"``.
"""

import hashlib

import pytest

from repro.distributed import ExperimentConfig, run
from repro.faults import demo_plan
from repro.netsim import Host, Link, Simulator
from repro.netsim.link import GBPS, GilbertElliott
from repro.netsim.packets import Packet, PacketTrain

PORT = 9000

ALL_STRATEGIES = [
    ("sync", "ps"),
    ("sync", "ar"),
    ("sync", "ar-hd"),
    ("sync", "isw"),
    ("sync", "ps-shard"),
    ("async", "ps"),
    ("async", "isw"),
]


# ---------------------------------------------------------------------------
# Link-level harness
# ---------------------------------------------------------------------------
def make_pair(**link_kw):
    """One link a->b with a delivery recorder on b.

    The recorder notes ``(arrival_time, payload)`` per delivered packet —
    from the per-packet handler on the legacy path, and from the train's
    carried ``arrivals`` vector on the batched path — so both paths
    produce directly comparable logs.
    """
    sim = Simulator()
    a = Host(sim, "a")
    b = Host(sim, "b")
    link = Link(sim, **link_kw)
    link.attach(a, b)
    delivered = []
    b.bind(PORT, lambda p: delivered.append((sim.now, p.payload)))

    def on_train(train):
        for packet, arrival in zip(train.packets, train.arrivals):
            delivered.append((float(arrival), packet.payload))

    b.bind_train(PORT, on_train)
    return sim, a, b, link, delivered


def burst(n, size=1000):
    return [
        Packet("a", "b", size, dst_port=PORT, payload=i) for i in range(n)
    ]


def link_state(end, link):
    return (
        end._busy_until,
        end.busy_time,
        end.tx_packets,
        end.tx_bytes,
        link.dropped_packets,
    )


class TestOfferedBurstParity:
    def run_packet(self, n, **link_kw):
        sim, a, b, link, delivered = make_pair(**link_kw)
        sim.schedule_fire(0.0, lambda: [a.send(p) for p in burst(n)])
        sim.run()
        return delivered, link_state(a.uplink, link), (b.rx_packets, b.rx_bytes)

    def run_train(self, n, **link_kw):
        sim, a, b, link, delivered = make_pair(**link_kw)
        sim.schedule_fire(0.0, lambda: a.send_burst(burst(n)))
        sim.run()
        return delivered, link_state(a.uplink, link), (b.rx_packets, b.rx_bytes)

    def test_lossless_burst_matches_per_packet_path(self):
        assert self.run_train(32) == self.run_packet(32)

    def test_single_packet_burst_degenerates_to_send(self):
        assert self.run_train(1) == self.run_packet(1)

    def test_bernoulli_loss_draws_match(self):
        kw = dict(loss_rate=0.3, loss_seed=7)
        delivered_t, state_t, rx_t = self.run_train(64, **kw)
        delivered_p, state_p, rx_p = self.run_packet(64, **kw)
        assert delivered_t == delivered_p
        assert state_t == state_p
        assert rx_t == rx_p
        assert 0 < state_t[4] < 64  # some but not all dropped

    def test_gilbert_elliott_burst_loss_draws_match(self):
        logs = []
        for runner in (self.run_train, self.run_packet):
            sim, a, b, link, delivered = make_pair(loss_seed=3)
            link.loss_model = GilbertElliott.from_mean_loss(0.2)
            packets = burst(64)
            if runner is self.run_train:
                sim.schedule_fire(0.0, lambda: a.send_burst(packets))
            else:
                sim.schedule_fire(0.0, lambda: [a.send(p) for p in packets])
            sim.run()
            logs.append((delivered, link_state(a.uplink, link)))
        assert logs[0] == logs[1]

    def test_back_to_back_bursts_share_the_busy_window(self):
        # Second burst must queue behind the first on both paths.
        def scenario(batched):
            sim, a, b, link, delivered = make_pair()
            first, second = burst(8), burst(8, size=200)
            if batched:
                sim.schedule_fire(0.0, lambda: a.send_burst(first))
                sim.schedule_fire(0.0, lambda: a.send_burst(second))
            else:
                sim.schedule_fire(0.0, lambda: [a.send(p) for p in first])
                sim.schedule_fire(0.0, lambda: [a.send(p) for p in second])
            sim.run()
            return delivered, link_state(a.uplink, link)

        assert scenario(batched=True) == scenario(batched=False)

    def test_offered_burst_does_not_split_at_barriers(self):
        # An offered burst commits everything at send time, exactly like
        # its per-packet equivalent (one event does all N sends); a
        # pending barrier must not defer any of it.
        sim, a, b, link, delivered = make_pair()
        link.add_train_barrier(1e-9)  # far before the burst finishes
        sim.schedule_fire(0.0, lambda: a.send_burst(burst(16)))
        sim.run()
        assert len(delivered) == 16

    def test_stale_barriers_are_consumed(self):
        sim, a, b, link, delivered = make_pair()
        link.add_train_barrier(1e-6)
        sim.schedule_fire(2e-6, lambda: a.send_burst(burst(4)))
        sim.run()
        assert link.train_barriers == []


class TestForwardedTrainFaultSplit:
    """A forwarded train straddling a fault edge splits at the barrier.

    Reference semantics: the per-packet path, where packet ``i`` is sent
    by its own forwarding event at ``ready[i]`` and therefore sees
    whatever link state the fault window has installed by then.
    """

    READY_GAP = 4e-6
    N = 24

    def ready_times(self):
        return [i * self.READY_GAP for i in range(self.N)]

    def run_split(self, batched, mutate, restore, t0, t1):
        sim, a, b, link, delivered = make_pair(loss_seed=11)
        sim.schedule_at(t0, lambda: mutate(link), name="fault:on")
        sim.schedule_at(t1, lambda: restore(link), name="fault:off")
        packets = burst(self.N)
        ready = self.ready_times()
        if batched:
            # What the fault injector does for link-window faults.
            link.add_train_barrier(t0)
            link.add_train_barrier(t1)
            sim.schedule_fire(
                0.0, lambda: a.uplink.send_train(packets, ready)
            )
        else:
            for packet, r in zip(packets, ready):
                sim.schedule_fire_at(
                    r, lambda p=packet: a.send(p), "forward"
                )
        sim.run()
        return delivered, link_state(a.uplink, link)

    def test_ge_burst_window_mid_train_matches_per_packet(self):
        def mutate(link):
            link.loss_model = GilbertElliott.from_mean_loss(0.4)

        def restore(link):
            link.loss_model = None

        # Window covers ready times ~[40 us, 60 us): a middle slice of
        # the train is exposed to burst loss, head and tail are not.
        t0, t1 = 10 * self.READY_GAP, 15 * self.READY_GAP
        batched = self.run_split(True, mutate, restore, t0, t1)
        legacy = self.run_split(False, mutate, restore, t0, t1)
        assert batched == legacy
        dropped = batched[1][4]
        assert 0 < dropped < self.N  # the window actually bit

    def test_bandwidth_degrade_mid_train_matches_per_packet(self):
        def mutate(link):
            link.bandwidth = link.bandwidth / 8.0

        def restore(link):
            link.bandwidth = link.bandwidth * 8.0

        t0, t1 = 8 * self.READY_GAP, 16 * self.READY_GAP
        batched = self.run_split(True, mutate, restore, t0, t1)
        legacy = self.run_split(False, mutate, restore, t0, t1)
        assert batched == legacy

    def test_whole_train_after_barrier_is_deferred_intact(self):
        # split == 0: every ready time falls at/after the barrier, so the
        # entire train re-offers at the barrier and sees the new state.
        def scenario(batched):
            sim, a, b, link, delivered = make_pair()
            t0 = 1e-6
            sim.schedule_at(t0, lambda: setattr(link, "bandwidth", GBPS))
            packets = burst(6)
            ready = [t0 + i * self.READY_GAP for i in range(6)]
            if batched:
                link.add_train_barrier(t0)
                sim.schedule_fire(
                    0.0, lambda: a.uplink.send_train(packets, ready)
                )
            else:
                for packet, r in zip(packets, ready):
                    sim.schedule_fire_at(r, lambda p=packet: a.send(p))
            sim.run()
            return delivered, link_state(a.uplink, link)

        assert scenario(batched=True) == scenario(batched=False)


class TestTrainDelivery:
    def test_mixed_port_train_falls_back_to_packet_handlers(self):
        sim, a, b, link, delivered = make_pair()
        other = []
        b.bind(PORT + 1, lambda p: other.append(p.payload))
        packets = burst(4)
        packets.append(Packet("a", "b", 10, dst_port=PORT + 1, payload="x"))
        sim.schedule_fire(0.0, lambda: a.send_burst(packets))
        sim.run()
        # No uniform dst port: the train handler is bypassed, both
        # per-packet handlers fire, counters still cover every packet.
        assert [payload for _, payload in delivered] == [0, 1, 2, 3]
        assert other == ["x"]
        assert b.rx_packets == 5

    def test_all_packets_dropped_delivers_nothing(self):
        sim, a, b, link, delivered = make_pair(loss_rate=0.999999, loss_seed=1)
        sim.schedule_fire(0.0, lambda: a.send_burst(burst(8)))
        sim.run()
        assert delivered == []
        assert link.dropped_packets == 8
        assert b.rx_packets == 0

    def test_batched_event_accounting_matches_per_packet(self):
        # One physical delivery event plus count_batched(n-1) keeps
        # processed_events meaning "logical per-packet work".
        counts = []
        for batched in (True, False):
            sim, a, b, link, delivered = make_pair()
            packets = burst(16)
            if batched:
                sim.schedule_fire(0.0, lambda: a.send_burst(packets))
            else:
                sim.schedule_fire(0.0, lambda: [a.send(p) for p in packets])
            sim.run()
            counts.append(sim.processed_events)
        assert counts[0] == counts[1]

    def test_train_carries_per_packet_arrivals(self):
        sim, a, b, link, _ = make_pair()
        seen = {}
        b.unbind(PORT)
        b.bind(PORT, lambda p: None)
        b.bind_train(PORT, lambda train: seen.setdefault("train", train))
        packets = burst(5)
        sim.schedule_fire(0.0, lambda: a.send_burst(packets))
        sim.run()
        train = seen["train"]
        assert isinstance(train, PacketTrain)
        assert len(train.packets) == len(train.arrivals) == 5
        arrivals = [float(t) for t in train.arrivals]
        assert arrivals == sorted(arrivals)
        assert sim.now == arrivals[-1]


# ---------------------------------------------------------------------------
# End to end: train transport must be invisible in the results
# ---------------------------------------------------------------------------
def run_e2e(mode, strategy, transport, **kw):
    kw.setdefault("iterations", 8)
    kw.setdefault("workload", "dqn")
    return run(
        ExperimentConfig(
            strategy=strategy,
            mode=mode,
            n_workers=4,
            seed=0,
            transport=transport,
            **kw,
        )
    )


def weight_digests(result):
    return [
        hashlib.sha256(w.algorithm.get_weights().tobytes()).hexdigest()
        for w in result.workers
    ]


class TestEndToEndParity:
    @pytest.mark.slow
    @pytest.mark.parametrize("mode,strategy", ALL_STRATEGIES)
    def test_train_transport_is_bit_identical(self, mode, strategy):
        batched = run_e2e(mode, strategy, "train")
        legacy = run_e2e(mode, strategy, "packet")
        assert weight_digests(batched) == weight_digests(legacy)
        assert batched.elapsed == legacy.elapsed

    @pytest.mark.parametrize("transport", ["packet", "train"])
    def test_snapshot_meta_names_the_transport(self, transport):
        # The one remaining fork: an artefact says which side produced it.
        result = run_e2e("sync", "isw", transport, iterations=2, workload="synth")
        assert result.telemetry.meta["transport"] == transport

    @pytest.mark.slow
    def test_chaos_plan_recovers_under_train_transport(self):
        # Crash + rejoin, switch Reset, burst-loss window: every fault
        # must resolve with batched transport exactly as it does with
        # per-packet transport (barriers split trains at window edges).
        result = run_e2e(
            "sync", "isw", "train", iterations=16, fault_plan=demo_plan()
        )
        report = result.fault_report
        assert report is not None
        assert report.ok, report.summary()
        statuses = {r.event.kind: r.status for r in report.records}
        assert statuses["worker-crash"] == "recovered"
        assert statuses["link-burst"] == "recovered"
