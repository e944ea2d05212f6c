"""The iSwitch switch role (``repro.core.jobs.JobState``), tested once.

Three layers:

* the role's rules, each script run through **both** of its drivers — the
  simulator's ``ISwitch`` on a per-packet rack tree and the live
  ``SoftwareSwitch.handle_frame`` — asserting the same
  ``(destination, message)`` sequences (DESIGN §6.2);
* the role on its own: bounded caches, and what its module may import;
* the defect that motivated sharing it — a rack tree under packet loss
  stormed Help messages between the levels and served rack partials as
  finals — as bounded end-to-end runs, plus the sync-isw run that no
  longer waits forever.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.hierarchy import configure_aggregation, make_iswitch_factory
from repro.core.client import AggregationClient
from repro.core.jobs import JobState
from repro.core.protocol import (
    TOS_DATA_DOWN,
    TOS_DATA_UP,
    TOS_NUMERICS_MASK,
    Action,
    ControlMessage,
    DataSegment,
    JoinInfo,
    SegmentPlan,
    decode_frame,
    encode_control,
    encode_data,
    make_control_packet,
    make_data_packet,
)
from repro.distributed import ExperimentConfig, SimRunError, run
from repro.live.switch import SoftwareSwitch
from repro.netsim import Simulator
from repro.netsim.topology import build_rack_tree, build_three_tier

from .helpers import built_clusters

PARENT = "root"
MEMBERS = ("worker0", "worker1")
ONES = [1.0] * 5
TWOS = [2.0] * 5


def vector(value=1.0):
    return np.full(5, value, dtype=np.float32)


def describe(message, upstream):
    """A protocol object as a comparable tuple."""
    if isinstance(message, ControlMessage):
        return message.action.name, message.value
    return "up" if upstream else "down", message.seg, message.data.tolist()


class SimDriver:
    """``ISwitch`` (dedup + canonical order, the live engine's settings) as
    ``tor0`` of a per-packet rack tree.  What it puts on its ports is
    recorded instead of delivered, so the switch under test is alone."""

    def __init__(self, tor):
        self.sim = Simulator()
        net = build_rack_tree(
            self.sim,
            6,
            switch_factory=make_iswitch_factory(dedup=True, canonical=True),
        )
        assert not self.sim.batch_transport
        self.switch = net.switches[0]
        for member in MEMBERS:
            self.switch.add_member(member)
        if tor:
            self.switch.set_parent(PARENT)
        self.role = self.switch.jobs.get(0)
        self.plan = SegmentPlan(5)
        self._sent = []

        class Port:
            send = staticmethod(self._sent.append)

        self.switch.lookup = lambda dst: Port

    def _feed(self, packet):
        self.switch.handle_packet(packet, None)
        self.sim.run()  # past the accelerator and switch latencies
        sent, self._sent[:] = list(self._sent), []
        return [
            (p.dst, *describe(p.payload, p.tos == TOS_DATA_UP)) for p in sent
        ]

    def data(self, src, seg, values):
        segment = DataSegment(seg=seg, data=values, sender=src)
        return self._feed(
            make_data_packet(src, self.switch.name, segment, self.plan)
        )

    def control(self, src, action, value=None):
        message = ControlMessage(action, value)
        return self._feed(make_control_packet(src, self.switch.name, message))

    def final(self, seg, values):
        segment = DataSegment(seg=seg, data=values)
        return self._feed(
            make_data_packet(
                PARENT, self.switch.name, segment, self.plan, downstream=True
            )
        )


class LiveDriver:
    """``SoftwareSwitch.handle_frame``: frames in, frames out, no socket."""

    ADDRESS = {
        PARENT: ("127.0.0.1", 45000),
        "worker0": ("127.0.0.1", 40000),
        "worker1": ("127.0.0.1", 40001),
    }
    NAME = {addr: name for name, addr in ADDRESS.items()}

    def __init__(self, tor):
        self.switch = SoftwareSwitch(
            n_workers=len(MEMBERS),
            parent_addr=self.ADDRESS[PARENT] if tor else None,
            rank=1,
        )
        for rank, member in enumerate(MEMBERS):
            self.control(member, Action.JOIN, JoinInfo(rank=rank))
        if tor:  # the parent's barrier opens
            self.control(PARENT, Action.SETH, 2)
        self.role = self.switch.role

    def _feed(self, frame, src):
        out = []
        for sent, addr in self.switch.handle_frame(frame, self.ADDRESS[src]):
            tos, message = decode_frame(sent)
            upstream = (tos & ~TOS_NUMERICS_MASK) == TOS_DATA_UP
            out.append((self.NAME[addr], *describe(message, upstream)))
        return out

    def data(self, src, seg, values):
        return self._feed(encode_data(DataSegment(seg=seg, data=values)), src)

    def control(self, src, action, value=None):
        return self._feed(encode_control(ControlMessage(action, value)), src)

    def final(self, seg, values):
        frame = encode_data(DataSegment(seg=seg, data=values), downstream=True)
        return self._feed(frame, PARENT)


@pytest.fixture(params=[SimDriver, LiveDriver], ids=["sim", "live"])
def driver(request):
    return request.param


def to_members(*message):
    return [(member, *message) for member in MEMBERS]


class TestFlatSwitchRole:
    """One switch, no parent: its sums are final."""

    def test_completion_broadcasts_to_every_member(self, driver):
        switch = driver(tor=False)
        assert switch.data("worker0", 0, vector()) == []
        assert switch.data("worker1", 0, vector()) == to_members("down", 0, TWOS)
        assert switch.role.counters["results_broadcast"] == 1

    def test_help_hit_and_relay(self, driver):
        switch = driver(tor=False)
        switch.data("worker0", 0, vector())
        # Seg 0 incomplete: some contribution was lost, and it may be the
        # requester's own (the simulator's client retransmits only when
        # asked), so the Help goes to *every* member in join order,
        # requester included.  The live twin used to skip the requester;
        # the frozen `loss1pct-n4` leg and tests/test_faults.py pin this
        # traffic, so the rule is the simulator's.
        assert switch.control("worker1", Action.HELP, 0) == to_members("HELP", 0)
        assert switch.role.counters["help_relayed"] == 1
        # Complete it; now a Help is served from the result cache 1:1.
        switch.data("worker1", 0, vector())
        assert switch.control("worker1", Action.HELP, 0) == [
            ("worker1", "down", 0, TWOS)
        ]
        assert switch.role.counters["help_cache_hits"] == 1

    def test_dedup_makes_retransmission_idempotent(self, driver):
        switch = driver(tor=False)
        switch.data("worker0", 0, vector())
        assert switch.data("worker0", 0, vector()) == []  # retransmission
        assert switch.role.engine.stats.duplicates_dropped == 1
        assert switch.data("worker1", 0, vector()) == to_members("down", 0, TWOS)

    def test_fbcast_flushes_a_partial(self, driver):
        switch = driver(tor=False)
        switch.data("worker0", 0, vector())
        assert switch.control("worker0", Action.FBCAST, 0) == to_members(
            "down", 0, ONES
        )
        # FBcast of an unknown seg is a no-op.
        assert switch.control("worker0", Action.FBCAST, 99) == []

    def test_reset_clears_the_engine_and_is_acked(self, driver):
        switch = driver(tor=False)
        switch.data("worker0", 0, vector())
        assert switch.control("worker0", Action.RESET) == [("worker0", "ACK", 1)]
        assert switch.role.engine.live_segments == 0

    def test_lowered_h_sweeps_the_stranded_segment(self, driver):
        switch = driver(tor=False)
        switch.data("worker0", 0, vector())
        assert switch.control("worker0", Action.SETH, 1) == [
            ("worker0", "ACK", 1),
            *to_members("down", 0, ONES),
        ]
        assert switch.role.engine.threshold == 1

    def test_halt_relayed_to_every_member(self, driver):
        switch = driver(tor=False)
        assert switch.control("worker0", Action.HALT) == to_members("HALT", None)


class TestTorRole:
    """A switch with a parent: its sums are this rack's *partials*."""

    def complete_seg0(self, switch):
        switch.data("worker0", 0, vector())
        return switch.data("worker1", 0, vector())

    def test_completion_goes_up_as_a_contribution(self, driver):
        tor = driver(tor=True)
        assert self.complete_seg0(tor) == [(PARENT, "up", 0, TWOS)]
        assert tor.role.counters["upstream_forwards"] == 1
        assert tor.role.counters["results_broadcast"] == 0

    def test_parent_final_relayed_and_cached_for_help(self, driver):
        tor = driver(tor=True)
        self.complete_seg0(tor)
        six = [6.0] * 5
        assert tor.final(0, vector(6.0)) == to_members("down", 0, six)
        assert tor.role.counters["parent_relays"] == 1
        # A member Help for the relayed Seg is a final-cache hit — the
        # engine's *partial* must never be served as a final.
        assert tor.control("worker1", Action.HELP, 0) == [
            ("worker1", "down", 0, six)
        ]
        assert tor.role.counters["help_cache_hits"] == 1

    def test_member_help_before_final_reoffers_partial_upstream(self, driver):
        tor = driver(tor=True)
        self.complete_seg0(tor)
        # Final lost: the rack's partial is complete, so it is re-offered
        # upstream and the parent is asked for help — nothing goes back
        # down, and exactly one Help goes up.
        assert tor.control("worker0", Action.HELP, 0) == [
            (PARENT, "up", 0, TWOS),
            (PARENT, "HELP", 0),
        ]
        # An *incomplete* Seg falls back to the member relay.
        tor.data("worker0", 1, vector())
        assert tor.control("worker1", Action.HELP, 1) == to_members("HELP", 1)
        assert tor.role.counters["help_relayed"] == 2

    def test_parent_help_retransmits_cached_partial(self, driver):
        tor = driver(tor=True)
        self.complete_seg0(tor)
        assert tor.control(PARENT, Action.HELP, 0) == [(PARENT, "up", 0, TWOS)]
        assert tor.role.counters["retransmissions_up"] == 1
        # Nothing complete to offer: a parent's Help is never bounced
        # back up or fanned out (the members' own watchdogs finish it).
        tor.data("worker0", 1, vector())
        assert tor.control(PARENT, Action.HELP, 1) == []
        assert tor.control(PARENT, Action.HELP, 9) == []

    def test_reset_also_drops_the_final_cache(self, driver):
        tor = driver(tor=True)
        self.complete_seg0(tor)
        tor.final(0, vector(6.0))
        assert tor.control("worker0", Action.RESET) == [("worker0", "ACK", 1)]
        # Neither final nor partial survives: the Help is a relay again.
        assert tor.control("worker1", Action.HELP, 0) == to_members("HELP", 0)

    def test_fbcast_partial_goes_up_not_down(self, driver):
        tor = driver(tor=True)
        tor.data("worker0", 0, vector())
        assert tor.control("worker0", Action.FBCAST, 0) == [
            (PARENT, "up", 0, ONES)
        ]

    def test_halt_goes_down_the_tree_only(self, driver):
        tor = driver(tor=True)
        assert tor.control(PARENT, Action.HALT) == to_members("HALT", None)


class TestRoleAlone:
    def tor_role(self, cache_size):
        role = JobState(0, dedup=True, name="tor0", parent=PARENT)
        for member in MEMBERS:
            role.members.join(member, 9999)
        role.engine.set_threshold(len(MEMBERS))
        role.engine.cache_size = cache_size
        return role

    def test_tor_caches_plateau_and_evicted_help_relays(self):
        """Both ToR caches are bounded by ``engine.cache_size`` (the live
        twin's ``_up_cache``/``_down_cache`` dicts grew by one frame per
        Seg per round, forever)."""
        chunks, cache_size = 4, 16
        role = self.tor_role(cache_size)
        sizes = []
        for round_index in range(200):
            for chunk in range(chunks):
                seg = round_index * chunks + chunk
                for member in MEMBERS:
                    done = role.contribute(
                        DataSegment(seg=seg, data=vector(), sender=member)
                    )
                assert role.emit(done)[0][0] == PARENT
                role.deliver([DataSegment(seg=seg, data=vector(2.0))])
            sizes.append((len(role._finals), len(role.engine._result_cache)))
        assert max(max(pair) for pair in sizes) <= cache_size
        assert set(sizes[50:]) == set(sizes[100:])  # a plateau, not growth
        # The newest Seg is a final-cache hit; an evicted one is gone from
        # both caches, so its Help takes the relay path.
        ask = ControlMessage(Action.HELP, seg)
        routes, _ = role.control(ask, "worker0")
        assert [dst for dst, _ in routes] == ["worker0"]
        assert routes[0][1][0].data.tolist() == TWOS
        old = ControlMessage(Action.HELP, 0)
        routes, _ = role.control(old, "worker0")
        assert routes == [(member, [old]) for member in MEMBERS]

    def test_destinations_are_read_when_routing(self):
        role = JobState(0)
        role.members.join("worker0", 9999)
        done = role.contribute(DataSegment(seg=0, data=vector()))
        role.members.join("worker1", 9999)  # joined after completion
        assert [dst for dst, _ in role.emit(done)] == list(MEMBERS)

    def test_role_module_is_wire_free(self):
        """Protocol objects in, protocol objects out: the role's module
        imports no simulator, no live backend, no socket and no clock."""
        import repro.core.jobs as module

        imported = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        banned = ("netsim", "live", "socket", "time")
        for name in imported:
            parts = name.lstrip(".").split(".")
            assert not set(parts) & set(banned), name
        # ...and both drivers import it.
        for driver_module in ("repro/core/switch.py", "repro/live/switch.py"):
            source = (Path(module.__file__).parents[2] / driver_module).read_text()
            assert "JobState" in source
            for owned in ("cached_result(", "force_broadcast(", "sweep_completed("):
                assert owned not in source, (driver_module, owned)
            assert "Action.HELP" not in source, driver_module


# ---------------------------------------------------------------------------
# End to end: trees under loss
# ---------------------------------------------------------------------------
#: Five times what the largest config below needs; the parent commit's Help
#: storm runs through it in under a minute instead of wedging the suite.
EVENT_BUDGET = 500_000
#: The tolerance of the benchmark's lossy leg (benchmarks/perf/harness.py);
#: bit-equality waits on the flat-switch re-sum drift (ROADMAP).
REPLICA_TOLERANCE = 16 * np.finfo(np.float32).eps


@pytest.fixture
def event_budget(monkeypatch):
    unbounded = Simulator.run

    def bounded(self, until=None, max_events=None):
        return unbounded(
            self, until, EVENT_BUDGET if max_events is None else max_events
        )

    monkeypatch.setattr(Simulator, "run", bounded)


def watch_tors(net, workers):
    """Record, per ToR, the finals its parent sent and what it sent down."""
    net.relayed_without_a_final = []
    for tor in net.switches:
        if tor is net.root:
            continue
        finals = {}

        def handle_packet(packet, in_port, tor=tor, finals=finals):
            if packet.tos == TOS_DATA_DOWN:
                # (A recovered round can be re-summed and re-sent: a list.)
                finals.setdefault(packet.payload.seg, []).append(
                    packet.payload.data
                )
            type(tor).handle_packet(tor, packet, in_port)

        tor.handle_packet = handle_packet
        for port in tor.ports:
            if port.peer.device not in net.workers:
                continue

            def send(packet, port=port, finals=finals, tor=tor):
                if packet.tos == TOS_DATA_DOWN and not any(
                    packet.payload.data is data
                    for data in finals.get(packet.payload.seg, ())
                ):
                    net.relayed_without_a_final.append(
                        (tor.name, packet.dst, packet.payload.seg)
                    )
                type(port).send(port, packet)

            port.send = send


@pytest.mark.usefixtures("event_budget")
class TestTreeUnderLoss:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("n_workers", [6, 12])
    def test_rack_tree_terminates_with_identical_replicas(self, n_workers, seed):
        iterations = 20
        with built_clusters(watch_tors) as built:
            result = run(
                ExperimentConfig(
                    strategy="isw",
                    workload="synth",
                    n_workers=n_workers,
                    iterations=iterations,
                    seed=seed,
                    loss_rate=0.01,
                    telemetry=False,
                )
            )
        (net, _), = built
        assert [w.iterations_done for w in result.workers] == (
            [iterations] * n_workers
        )
        replicas = [w.algorithm.get_weights() for w in result.workers]
        for replica in replicas[1:]:
            np.testing.assert_allclose(
                replica,
                replicas[0],
                rtol=REPLICA_TOLERANCE,
                atol=REPLICA_TOLERANCE,
            )
        # Each Help causes at most one Help per level above it.
        help_requests = sum(
            client.help_requests
            for host in net.workers
            for client in host._iswitch_clients
        )
        assert 0 < net.root.control_messages <= help_requests
        # A ToR only ever hands its workers what its parent sent it: the
        # rack's own partial is never served as the final.
        assert net.relayed_without_a_final == []

    def test_three_tier_mid_level_switch_recovers(self):
        """ToR -> AGG -> core with 2 % loss on *every* link: the AGG has
        a parent and switch members, the shape neither twin ever ran."""
        sim = Simulator()
        net = build_three_tier(
            sim,
            12,
            switch_factory=make_iswitch_factory(dedup=True, canonical=True),
        )
        configure_aggregation(net)
        for index, link in enumerate(net.links):
            link.loss_rate = 0.02
            link.loss_rng = np.random.default_rng(100 + index)
        plan = SegmentPlan(3000)
        rounds = 6
        got = {w.name: {} for w in net.workers}
        clients = [
            AggregationClient(
                worker,
                net.tor_of_worker[i].name,
                plan,
                on_round_complete=lambda r, v, n=worker.name: got[n].__setitem__(
                    r, np.array(v)
                ),
                recovery_timeout=2e-4,
                max_recovery_attempts=64,
            )
            for i, worker in enumerate(net.workers)
        ]
        rng = np.random.default_rng(5)
        for round_index in range(rounds):
            vectors = [
                rng.standard_normal(3000).astype(np.float32) for _ in clients
            ]
            expected = np.sum(vectors, axis=0)
            for client, values in zip(clients, vectors):
                client.send_gradient(values, round_index)
            sim.run()
            first = got["worker0"][round_index]
            np.testing.assert_allclose(first, expected, rtol=1e-4, atol=1e-4)
            for name in got:  # one root sum reaches every replica
                assert np.array_equal(got[name][round_index], first), name
        assert sum(link.dropped_packets for link in net.links) > 0
        assert sum(client.help_requests for client in clients) > 0
        by_name = {s.name: s for s in net.switches}
        assert by_name["agg0"].jobs.get(0).counters["parent_relays"] > 0
        assert not any(client.abandoned_rounds for client in clients)


class TestNoUnboundedWait:
    def test_lossy_flat_leg_is_nowhere_near_the_retry_cap(self):
        """`loss1pct-n4` of the reference benchmark: the cap sync-isw now
        always carries (64 firings a round) must not move it."""
        from repro.distributed.sync import MAX_RECOVERY_ATTEMPTS

        expected = json.loads(
            (
                Path(__file__).parents[1] / "benchmarks/perf/expected.json"
            ).read_text()
        )["legs"]["loss1pct-n4"]
        result = run(
            ExperimentConfig(
                strategy="isw",
                workload="synth",
                n_workers=4,
                iterations=30,
                seed=7,
                loss_rate=0.01,
            )
        )
        assert repr(result.elapsed) == expected["elapsed"]
        fired = Counter(
            (event.track, event.args["round"])
            for event in result.telemetry.events_named("client.watchdog_fired")
        )
        assert 0 < max(fired.values()) <= 4 < MAX_RECOVERY_ATTEMPTS == 64

    @pytest.mark.usefixtures("event_budget")
    def test_unsatisfiable_round_is_a_typed_error_with_a_replay_line(self):
        def cut_worker0_off(net, workers):
            net.links[0].loss_rate = 1.0  # every packet, both directions

        with built_clusters(cut_worker0_off):
            with pytest.raises(SimRunError) as raised:
                run(
                    ExperimentConfig(
                        strategy="isw",
                        workload="synth",
                        n_workers=2,
                        iterations=3,
                        seed=3,
                        loss_rate=0.01,
                        telemetry=False,
                    )
                )
        error = raised.value
        assert (error.worker, error.round_index) == ("worker0", 0)
        assert "worker0: round 0 never completed" in str(error)
        assert str(error).endswith(
            "[replay: sync-isw workload=synth n_workers=2 iterations=3 seed=3 "
            "loss_rate=0.01 telemetry=False]"
        )
