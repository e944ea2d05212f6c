"""Parity tests for the batched packet-train transport.

The train path (`LinkEnd.send_train` + `PacketTrain` + the batch-ingest
hooks) promises the **same observable behaviour** as N per-packet
`send` calls: identical per-packet arrival times, identical link-state
accumulation (busy window, busy_time, counters), identical loss-rng
consumption, and — through fault-window *train barriers* — identical
link state seen by every packet when a fault edge lands mid-train.
These tests pin that contract at the link level, then end to end: which
transport a cluster picks (``choose_transport``; nothing user-settable),
and that wherever it picks trains every observable matches the per-packet
reference, forced through that same function.
"""

import hashlib
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AggregationClient,
    SegmentPlan,
    configure_aggregation,
    iswitch_factory,
    make_data_packet,
)
from repro.core.accelerator import AggregationEngine
from repro.core.hierarchy import dedup_iswitch_factory
from repro.core.protocol import Action, SegmentRun
from repro.distributed import ExperimentConfig, run
from repro.distributed.config import choose_transport
from repro.distributed.transport import VectorChunk
from repro.faults import FaultEvent, FaultPlan, demo_plan
from repro.multitenant import JobSpec, SwitchFabric, run_soak
from repro.netsim import Host, Link, PacketCapture, Simulator, build_star
from repro.netsim.link import GBPS, GilbertElliott, LinkEnd
from repro.netsim.packets import Packet, PacketTrain

from .helpers import REFERENCE_TRANSPORT, built_clusters, per_packet_reference

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
        sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(burst(n))))
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
                sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(packets)))
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
                sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(first)))
                sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(second)))
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
        sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(burst(16))))
        sim.run()
        assert len(delivered) == 16

    def test_stale_barriers_are_consumed(self):
        sim, a, b, link, delivered = make_pair()
        link.add_train_barrier(1e-6)
        sim.schedule_fire(2e-6, lambda: a.send_burst(PacketTrain.of(burst(4))))
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
            # What whoever mutates a link mid-run must do under trains.
            link.add_train_barrier(t0)
            link.add_train_barrier(t1)
            sim.schedule_fire(
                0.0, lambda: a.uplink.send_train(PacketTrain.of(packets), ready)
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
                    0.0, lambda: a.uplink.send_train(PacketTrain.of(packets), ready)
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
        sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(packets)))
        sim.run()
        # No uniform dst port: the train handler is bypassed, both
        # per-packet handlers fire, counters still cover every packet.
        assert [payload for _, payload in delivered] == [0, 1, 2, 3]
        assert other == ["x"]
        assert b.rx_packets == 5

    def test_a_train_has_one_destination_and_one_job(self):
        for stray in (
            Packet("a", "c", 10, dst_port=PORT),
            Packet("a", "b", 10, dst_port=PORT, job=3),
        ):
            with pytest.raises(ValueError, match="one destination and one job"):
                PacketTrain.of(burst(2) + [stray])
        with pytest.raises(ValueError, match="at least one packet"):
            PacketTrain.of([])

    def test_all_packets_dropped_delivers_nothing(self):
        sim, a, b, link, delivered = make_pair(loss_rate=0.999999, loss_seed=1)
        sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(burst(8))))
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
                sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(packets)))
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
        sim.schedule_fire(0.0, lambda: a.send_burst(PacketTrain.of(packets)))
        sim.run()
        train = seen["train"]
        assert isinstance(train, PacketTrain)
        assert len(train.packets) == len(train.arrivals) == 5
        arrivals = [float(t) for t in train.arrivals]
        assert arrivals == sorted(arrivals)
        assert sim.now == arrivals[-1]


# ---------------------------------------------------------------------------
# End to end: which transport a cluster gets, and that trains are invisible
# ---------------------------------------------------------------------------
TRAIN = "train"
ARMED = "packet (loss recovery armed)"
SHARED = "packet (shared fabric)"


def host_plan():
    """Faults a host-aggregation strategy rides out: a degraded fabric,
    then a paused worker."""
    return FaultPlan(
        [
            FaultEvent(5e-3, "link-degrade", "*", {"factor": 4.0, "duration": 10e-3}),
            FaultEvent(12e-3, "worker-crash", "worker1", {"down_for": 8e-3}),
        ]
    )


#: id -> (ExperimentConfig fields, transport the cluster must pick).
SELECTION = {
    "sync-isw": (dict(strategy="isw"), TRAIN),
    "async-isw": (dict(strategy="isw", mode="async"), TRAIN),
    "rack-tree-n12": (dict(strategy="isw", n_workers=12), TRAIN),
    "int32-bs": (dict(strategy="isw", codec="int32-bs"), TRAIN),
    "canonical": (dict(strategy="isw", deterministic_aggregation=True), TRAIN),
    "loss-1pct": (dict(strategy="isw", loss_rate=0.01), ARMED),
    "fault-plan": (dict(strategy="isw", fault_plan=demo_plan()), ARMED),
    "recovery-timeout": (dict(strategy="isw", recovery_timeout=1e-3), ARMED),
    "async-loss": (dict(strategy="isw", mode="async", loss_rate=0.01), ARMED),
    "sync-ps": (dict(strategy="ps"), TRAIN),
    "sync-ar": (dict(strategy="ar"), TRAIN),
    "async-ps": (dict(strategy="ps", mode="async"), TRAIN),
    "ps-fault-plan": (dict(strategy="ps", fault_plan=host_plan()), ARMED),
    "ar-fault-plan": (dict(strategy="ar", fault_plan=host_plan()), ARMED),
    "ps-recovery-timeout": (dict(strategy="ps", recovery_timeout=1e-3), ARMED),
}
CLEAN = [
    name
    for name, (fields, transport) in SELECTION.items()
    if transport == TRAIN and fields["strategy"] == "isw"
]

#: host_plan() over synth/N=4/seed 7/4 iterations at the last commit where
#: ps/ar had no burst form (9770a19): (repr(elapsed), weights).
HOST_PLAN_DIGESTS = {
    "ps": ("0.04578821000013577", "7096d2212cd2e612"),
    "ar": ("0.045868804668572204", "7096d2212cd2e612"),
}

#: demo_plan() over sync-isw/dqn/N=4/seed 0/16 iterations, recorded at the
#: last commit whose only default was per-packet (8682df3).
CHAOS_ELAPSED = "1.5140492887079475"
CHAOS_WEIGHTS = "fdd1333c8adf847e"


def run_synth(fields, **kw):
    kw.setdefault("iterations", 4)
    kw.setdefault("n_workers", 4)
    return run(ExperimentConfig(workload="synth", seed=7, **{**kw, **fields}))


@pytest.fixture
def train_calls(monkeypatch):
    """Counts of the two calls only a train can cause, and of the vector
    chunks that went out one ``LinkEnd.send`` at a time."""
    calls = {"send_train": 0, "contribute_batch": 0, "chunk_sends": 0}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(LinkEnd, "send_train")
    counting(AggregationEngine, "contribute_batch")
    send = LinkEnd.send

    def spying_send(end, packet):
        calls["chunk_sends"] += isinstance(packet.payload, VectorChunk)
        return send(end, packet)

    monkeypatch.setattr(LinkEnd, "send", spying_send)
    return calls


class TestTransportSelection:
    def test_the_rule(self):
        assert choose_transport() == TRAIN
        assert choose_transport(recovery_armed=True) == ARMED
        assert choose_transport(shared_fabric=True) == SHARED
        # Contention outranks loss: a lossy fabric is still a fabric.
        assert choose_transport(recovery_armed=True, shared_fabric=True) == SHARED
        # Which switches a cluster has no longer decides anything.
        with pytest.raises(TypeError):
            choose_transport(iswitch=False)

    @pytest.mark.parametrize("name", SELECTION)
    def test_run_picks_and_reports_the_transport(self, name, train_calls):
        fields, expected = SELECTION[name]
        result = run_synth(fields)
        assert result.transport == expected
        assert result.telemetry.meta["transport"] == expected
        # ... and the label is the truth: trains form iff it says so.
        formed = train_calls["send_train"] > 0
        assert formed == (expected == TRAIN)
        if fields["strategy"] == "isw":
            assert (train_calls["contribute_batch"] > 0) == formed
            assert train_calls["chunk_sends"] == 0
        else:
            # Host aggregation: every vector chunk went out in a burst, or
            # every one on its own.
            assert train_calls["contribute_batch"] == 0
            assert (train_calls["chunk_sends"] == 0) == formed

    @pytest.mark.parametrize("strategy", sorted(HOST_PLAN_DIGESTS))
    def test_host_aggregation_under_a_fault_plan_keeps_its_digest(self, strategy):
        # Fault windows change links mid-run; the forwarding queue is not
        # drained before them yet, so these stay per-packet, bit for bit.
        result = run_synth(dict(strategy=strategy, fault_plan=host_plan()))
        assert result.transport == ARMED
        assert result.fault_report.ok, result.fault_report.summary()
        elapsed, weights = HOST_PLAN_DIGESTS[strategy]
        assert repr(result.elapsed) == elapsed
        assert weight_digests(result)[0][:16] == weights

    def test_two_job_fabric_stays_per_packet(self, train_calls):
        specs = [
            JobSpec(name=f"job{i}", workload="synth", n_workers=2,
                    iterations=3, seed=i)
            for i in range(2)
        ]
        fabric, report = run_soak(specs=specs, telemetry=False)
        assert report.ok
        assert fabric.sim.transport == SHARED
        assert report.transport == SHARED
        assert f"  transport:       {SHARED}" in report.summary_lines()
        assert train_calls == {
            "send_train": 0, "contribute_batch": 0, "chunk_sends": 0,
        }

    def test_no_user_settable_transport_remains(self):
        with pytest.raises(TypeError):
            ExperimentConfig(transport="packet")
        with pytest.raises(TypeError):
            SwitchFabric(transport="train")
        with pytest.raises(TypeError):
            run_soak(n_jobs=1, transport="train")


def weight_digests(result):
    return [
        hashlib.sha256(w.algorithm.get_weights().tobytes()).hexdigest()
        for w in result.workers
    ]


def observables(result, net):
    """Everything a user can read off a run, minus the transport label."""
    counters = {}
    for metric in result.telemetry.metrics:
        if metric["kind"] != "counter":
            continue
        if metric["name"] in ("switch.batch_bails", "switch.joins"):
            continue  # which ingest path ran: the transport label, counted
        # sim.events_processed splits by physical event kind (a train's
        # one delivery books the rest as "deliver"); the total is the
        # logical per-packet work and must match.
        labels = tuple(
            sorted((k, v) for k, v in metric["labels"].items() if k != "kind")
        )
        key = (metric["name"], labels)
        counters[key] = counters.get(key, 0) + metric["value"]
    return {
        "weights": weight_digests(result)[0],
        "replicas_agree": len(set(weight_digests(result))) == 1,
        "elapsed": repr(result.elapsed),
        "links": [
            (link.name, link.dropped_packets)
            + tuple(
                (end.tx_packets, end.tx_bytes, repr(end.busy_time))
                for end in link.ends
            )
            for link in net.links
        ],
        "counters": counters,
    }


def run_observed(fields, **kw):
    """run_synth, also returning the network ``run()`` built."""
    with built_clusters() as built:
        result = run_synth(fields, **kw)
    return result, built[0][0]


class TestEndToEndParity:
    @pytest.mark.slow
    @pytest.mark.parametrize("mode,strategy", ALL_STRATEGIES)
    def test_train_transport_is_bit_identical(self, mode, strategy):
        config = ExperimentConfig(
            strategy=strategy, mode=mode, workload="dqn", n_workers=4,
            iterations=8, seed=0,
        )
        chosen = run(config)
        with per_packet_reference():
            reference = run(config)
        assert reference.transport == REFERENCE_TRANSPORT
        assert chosen.transport == TRAIN
        assert weight_digests(chosen) == weight_digests(reference)
        assert chosen.elapsed == reference.elapsed

    @pytest.mark.parametrize("name", CLEAN)
    def test_clean_configs_match_the_per_packet_reference(self, name):
        fields, _ = SELECTION[name]
        chosen, net = run_observed(fields)
        with per_packet_reference():
            reference, reference_net = run_observed(fields)
        assert chosen.transport == TRAIN
        assert reference.transport == REFERENCE_TRANSPORT
        assert observables(chosen, net) == observables(reference, reference_net)

    def test_paper_size_vector_matches_the_per_packet_reference(self):
        # One iteration of the paper's 6.41 MB DQN vector: 4,592 frames of
        # 366 floats per worker, the shape whose trains are longest.
        fields = dict(
            strategy="isw", algorithm_overrides={"n_params": 4592 * 366}
        )
        chosen, net = run_observed(fields, iterations=1)
        with per_packet_reference():
            reference, reference_net = run_observed(fields, iterations=1)
        assert chosen.transport == TRAIN
        assert observables(chosen, net) == observables(reference, reference_net)

    @pytest.mark.parametrize("transport", ["packet", "train"])
    def test_snapshot_meta_names_the_transport(self, transport):
        # An artefact says which path produced it, and why.
        fields = dict(strategy="isw")
        if transport == "packet":
            fields["loss_rate"] = 0.01
        result = run_synth(fields, iterations=2)
        expected = TRAIN if transport == "train" else ARMED
        assert result.telemetry.meta["transport"] == expected
        assert result.transport == expected

    @pytest.mark.slow
    def test_chaos_plan_runs_per_packet_and_matches_its_digest(self):
        # Crash + rejoin, switch Reset, burst-loss window: a fault plan
        # arms recovery, so the run stays per-packet, says so, and lands
        # on the digest pinned when that was the only transport.
        result = run(
            ExperimentConfig(
                strategy="isw", workload="dqn", n_workers=4, seed=0,
                iterations=16, fault_plan=demo_plan(),
            )
        )
        assert result.transport == ARMED
        assert result.telemetry.meta["transport"] == ARMED
        report = result.fault_report
        assert report.ok, report.summary()
        statuses = {r.event.kind: r.status for r in report.records}
        assert statuses["worker-crash"] == "recovered"
        assert statuses["link-burst"] == "recovered"
        assert repr(result.elapsed) == CHAOS_ELAPSED
        assert weight_digests(result)[0][:16] == CHAOS_WEIGHTS


# ---------------------------------------------------------------------------
# Host aggregation: vectors as trains through plain switches (no delivery or
# forwarding event per packet), against the forced per-packet reference
# ---------------------------------------------------------------------------
HOST_AGGREGATION = [
    ("sync", "ps"),
    ("sync", "ar"),
    ("sync", "ps-shard"),
    ("sync", "ar-hd"),
    ("async", "ps"),
]


def strict_observables(result, net):
    """``observables`` with nothing folded: every counter keeps its labels
    (``sim.events_processed`` per kind — the queue books exactly the
    ``deliver`` and ``fwd`` events it stands for), plus the event total,
    every transmitter's clock and the switches' own counters."""
    return {
        "weights": weight_digests(result),
        "elapsed": repr(result.elapsed),
        "links": [
            (link.name, link.dropped_packets)
            + tuple(
                (
                    end.tx_packets, end.tx_bytes,
                    repr(end.busy_time), repr(end._busy_until),
                )
                for end in link.ends
            )
            for link in net.links
        ],
        "switches": [
            (s.name, s.rx_packets, s.rx_bytes, s.forwarded_packets, s.dropped_packets)
            for s in net.switches
        ],
        "hosts": [(h.name, h.rx_packets, h.rx_bytes) for h in net.hosts.values()],
        "counters": sorted(
            (m["name"], sorted(m["labels"].items()), m["value"])
            for m in result.telemetry.metrics
            if m["kind"] == "counter"
        ),
        "processed_events": net.sim.processed_events,
    }


class TestHostAggregationParity:
    @pytest.mark.parametrize("n_workers", [4, 8])  # build_star, build_rack_tree
    @pytest.mark.parametrize("mode,strategy", HOST_AGGREGATION)
    def test_trains_match_the_per_packet_reference(self, mode, strategy, n_workers):
        fields = dict(strategy=strategy, mode=mode, n_workers=n_workers)
        iterations = 12 if mode == "async" else 4
        chosen, net = run_observed(fields, iterations=iterations)
        with per_packet_reference():
            reference, reference_net = run_observed(fields, iterations=iterations)
        assert chosen.transport == TRAIN
        assert reference.transport == REFERENCE_TRANSPORT
        assert net.sim.forwarding is not None
        assert reference_net.sim.forwarding is None
        assert strict_observables(chosen, net) == strict_observables(
            reference, reference_net
        )

    def test_paper_size_vector_matches_the_per_packet_reference(self):
        # One sync-ps iteration of the 6.41 MB vector: 64 chunks of 72
        # frames per flow, eight flows through one switch.
        fields = dict(
            strategy="ps", algorithm_overrides={"n_params": 4592 * 366}
        )
        chosen, net = run_observed(fields, iterations=1)
        with per_packet_reference():
            reference, reference_net = run_observed(fields, iterations=1)
        assert chosen.transport == TRAIN
        assert strict_observables(chosen, net) == strict_observables(
            reference, reference_net
        )

    def test_forwarding_costs_a_few_events_per_flow(self, monkeypatch):
        # One wake per switch hop per flow and one delivery per flow, in
        # place of two events per packet per hop.
        from repro.netsim.events import Simulator

        pushes = []
        inner = Simulator.schedule_fire_at

        def counting(sim, time, callback, kind=""):
            pushes.append(kind)
            return inner(sim, time, callback, kind)

        monkeypatch.setattr(Simulator, "schedule_fire_at", counting)
        run_synth(dict(strategy="ps"), telemetry=False)
        flows = 4 * 2 * 4  # push and pull, four workers, four iterations
        assert pushes.count("fwd") == flows  # one switch on a star
        assert pushes.count("deliver") == flows


# ---------------------------------------------------------------------------
# A gradient is one run end to end: every observable — packet captures, which
# build the packets a run never did, included — against the per-packet
# reference
# ---------------------------------------------------------------------------
SCHEDULES = {
    "sync": dict(),
    "sync-canonical": dict(deterministic_aggregation=True),
    "async-emergent": dict(mode="async"),
    "async-s0": dict(mode="async", deterministic_aggregation=True, staleness_bound=0),
    "async-s2": dict(mode="async", deterministic_aggregation=True, staleness_bound=2),
}
#: One short chunk; one full chunk; a short last chunk; the 64-chunk synth
#: vector; several frames per chunk; a last chunk so short that it overtakes
#: its neighbour inside the switch (the DDPG shape).
VECTOR_SIZES = [200, 366, 1000, 64 * 366, 100 * 366, 3 * 366 + 5]


def everything(fields, reference):
    """Each simulated number of one run, captures on worker 0 and on every
    switch included, keyed by what it is."""
    captures = {}

    def tap(net, workers):
        for device in [workers[0].host, *net.switches]:
            captures[device.name] = PacketCapture(device)

    with built_clusters(prepare=tap) as built:
        if reference:
            with per_packet_reference():
                result = run(ExperimentConfig(**fields))
        else:
            result = run(ExperimentConfig(**fields))
    net = built[0][0]
    seen = rig_state(net)
    seen.update(
        weights=weight_digests(result),
        elapsed=repr(result.elapsed),
        # A switch sees its members' packets interleaved by arrival on one
        # transport and train by train on the other: same records, per flow
        # in the same order.
        captures={
            name: sorted(astuple(r) for r in capture.records)
            for name, capture in captures.items()
        },
    )
    busy = seen.pop("engine_busy")
    return seen, busy, result


def rig_state(net):
    """Every clock and counter of a network's links, switches and hosts."""
    return {
        "processed_events": net.sim.processed_events,
        "links": [
            (link.name, link.dropped_packets)
            + tuple(
                (e.tx_packets, e.tx_bytes, repr(e.busy_time), repr(e._busy_until))
                for e in link.ends
            )
            for link in net.links
        ],
        "switches": [
            (
                s.name, s.rx_packets, s.rx_bytes, s.result_broadcasts,
                s.upstream_forwards, s.control_messages, s.dropped_packets,
            )
            for s in net.switches
        ],
        "engines": [
            (
                s.engine.stats.contributions, s.engine.stats.completions,
                s.engine.stats.forced_broadcasts,
                s.engine.stats.duplicates_dropped, s.engine.stats.evictions,
                s.engine.live_segments,
            )
            for s in net.switches
        ],
        "engine_busy": [s.engine.stats.busy_time for s in net.switches],
        "hosts": [(h.name, h.rx_packets, h.rx_bytes) for h in net.hosts.values()],
    }


class TestRunsMatchThePerPacketReference:
    @given(
        st.sampled_from([2, 3, 4, 6, 12]),
        st.sampled_from(VECTOR_SIZES),
        st.sampled_from(sorted(SCHEDULES)),
        st.sampled_from(["fp32", "fp16", "int32-bs", "topk"]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_observable_and_every_captured_packet(
        self, n_workers, n_params, schedule, codec, telemetry
    ):
        fields = dict(
            strategy="isw", workload="synth", n_workers=n_workers, seed=7,
            iterations=8 if schedule.startswith("async") else 3,
            codec=codec, telemetry=telemetry,
            algorithm_overrides={"n_params": n_params},
            **SCHEDULES[schedule],
        )
        chosen, busy, result = everything(fields, reference=False)
        reference, reference_busy, _ = everything(fields, reference=True)
        assert result.transport == TRAIN
        assert chosen == reference
        # The accelerator's busy time is one float sum over all packets in
        # arrival order; members' packets interleave on one transport and
        # not on the other, so it agrees to rounding (as at every commit
        # since trains exist; max_live_segments, likewise a property of
        # the interleaving, is not compared).
        assert busy == pytest.approx(reference_busy, rel=1e-12)
        if not telemetry and n_params > 366:
            # The batched ingest is the path: a cause only where a short
            # last chunk (in the codec's geometry) overtakes its neighbour
            # and breaks a ToR's result out of its run.
            assert set(result.ingest) <= {"view", "shape"}
            if codec == "fp32" and n_params != 3 * 366 + 5:
                assert set(result.ingest) == {"view"}


def scripted_rig(transport, dedup=False, n_params=366 * 40 + 100):
    """Three workers on one iSwitch, driven by hand: clients, gradients
    and the per-worker log of finished rounds."""
    sim = Simulator()
    sim.transport = transport
    net = build_star(
        sim, 3,
        switch_factory=dedup_iswitch_factory if dedup else iswitch_factory,
    )
    configure_aggregation(net)
    plan = SegmentPlan(n_params)
    finished = []
    clients = [
        AggregationClient(
            host, net.switches[0].name, plan,
            on_round_complete=lambda r, v, name=host.name: finished.append(
                (name, r, repr(sim.now), hashlib.sha256(v.tobytes()).hexdigest())
            ),
        )
        for host in net.workers
    ]
    rng = np.random.default_rng(5)
    gradients = [
        rng.standard_normal(n_params).astype(np.float32) for _ in clients
    ]
    return sim, net, plan, clients, gradients, finished


def scripted(transport, disturbance, dedup=False):
    """Worker 0's gradient, then ``disturbance`` while the round is half
    aggregated (from a run, on the train transport), then workers 1 and 2."""
    sim, net, plan, clients, gradients, finished = scripted_rig(transport, dedup)
    retransmitted = plan.split(gradients[0].copy(), 0, "worker0", 1)[17]

    def disturb():
        if disturbance == "retransmission":
            net.workers[0].send(
                make_data_packet("worker0", "tor0", retransmitted, plan)
            )
        elif disturbance == "help":
            clients[1].request_help(17)
        else:
            clients[1]._control(Action.FBCAST, 17)

    sim.schedule_fire_at(0.0, lambda: clients[0].send_gradient(gradients[0], 0))
    sim.schedule_fire_at(1e-3, disturb)
    sim.schedule_fire_at(2e-3, lambda: clients[1].send_gradient(gradients[1], 0))
    sim.schedule_fire_at(2.5e-3, lambda: clients[2].send_gradient(gradients[2], 0))
    sim.run()
    state = rig_state(net)
    state["engine_busy"] = [repr(b) for b in state["engine_busy"]]
    state["max_live"] = net.switches[0].engine.stats.max_live_segments
    return state, sorted(finished), net.switches[0].engine.stats


class TestPerPacketTrafficOnARoundOfRuns:
    """A round half aggregated from runs is one record in the engine; the
    first per-packet message to touch it turns it into the per-segment
    state the same packets would have built."""

    @pytest.mark.parametrize(
        "disturbance,dedup",
        # (A retransmission the engine does not drop would complete its
        # segment in the middle of a later train: the mixed regime trains
        # never supported, DESIGN §11.2.)
        [("retransmission", True), ("help", False), ("fbcast", False)],
    )
    def test_equals_the_same_script_packet_by_packet(self, disturbance, dedup):
        state, finished, stats = scripted("train", disturbance, dedup)
        reference, reference_finished, _ = scripted("packet", disturbance, dedup)
        assert state == reference
        assert finished == reference_finished
        assert len(finished) == 3
        if disturbance == "help":
            # Help reads the result cache only: the round stays one record.
            assert stats.joins["view"] == 3 and not any(stats.batch_bails.values())
        else:
            # The first run was taken whole; what follows the lone packet
            # no longer lines up with a record and goes segment by segment.
            assert stats.joins["view"] == 1
            assert stats.batch_bails == {"clock": 0, "shape": 2, "buffer_limit": 0}
        assert stats.duplicates_dropped == (dedup and disturbance == "retransmission")
        assert stats.forced_broadcasts == (disturbance == "fbcast")


class TestAResultRunSplitsAtATrainBarrier:
    """A result run leaving an iSwitch with ready times still ahead (a
    switch emits most of a run behind the clock: it ingests a train at its
    last arrival) splits at a fault edge into runs."""

    N = 41

    def scenario(self, transport, window):
        sim, net, plan, clients, gradients, finished = scripted_rig(transport)
        switch, link = net.switches[0], net.links[1]
        trains = []
        host = net.workers[1]
        inner = host.handle_train
        host.handle_train = lambda train, port: (
            trains.append((len(train), isinstance(train.run, SegmentRun))),
            inner(train, port),
        )
        # What the injector's link-degrade does (it refuses a bursting
        # simulator), plus the barriers a train transport needs.
        for event in window:
            stop = event.time + event.params["duration"]
            factor = event.params["factor"]
            sim.schedule_at(event.time, lambda: setattr(
                link, "bandwidth", link.bandwidth / factor))
            sim.schedule_at(stop, lambda: setattr(
                link, "bandwidth", link.bandwidth * factor))
            if transport == "train":
                link.add_train_barrier(event.time)
                link.add_train_barrier(stop)
        result = plan.run(gradients[0], 0)
        ready = self.ready_times()
        if transport == "train":
            sim.schedule_fire_at(0.0, lambda: switch._emit(0, result, ready=ready))
        else:
            for segment, at in zip(result.segments(), ready.tolist()):
                sim.schedule_fire_at(
                    at, lambda s=segment: switch._emit(0, [s]), "agg-complete"
                )
        sim.run()
        state = rig_state(net)
        del state["processed_events"]  # the script's own events differ
        return state, sorted(finished), trains

    def ready_times(self):
        return 1e-5 + 2e-6 * np.arange(self.N)

    def test_split_result_run_matches_the_per_packet_reference(self):
        ready = self.ready_times()
        window = FaultPlan([
            FaultEvent(
                ready[12] - 1e-7, "link-degrade", "link1",
                {"factor": 8.0, "duration": ready[25] - ready[12]},
            )
        ])
        state, finished, trains = self.scenario("train", window)
        reference, reference_finished, _ = self.scenario("packet", window)
        assert state == reference
        assert finished == reference_finished and len(finished) == 3
        # Three parts, each still a run; the worker reassembled them.
        assert trains == [(12, True), (13, True), (16, True)]
