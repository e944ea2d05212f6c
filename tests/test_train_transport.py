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

import pytest

from repro.core.accelerator import AggregationEngine
from repro.distributed import ExperimentConfig, run
from repro.distributed.config import choose_transport
from repro.distributed.transport import VectorChunk
from repro.faults import FaultEvent, FaultPlan, demo_plan
from repro.multitenant import JobSpec, SwitchFabric, run_soak
from repro.netsim import Host, Link, Simulator
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
            # What whoever mutates a link mid-run must do under trains.
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
