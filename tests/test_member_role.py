"""The iSwitch member role (``repro.core.client.MemberRounds``), tested once.

Three layers, as for the switch role (``tests/test_switch_role.py``):

* one script run through **both** drivers of the role — a per-packet
  simulator ``AggregationClient`` whose host port is captured, and an
  I/O-free live ``LiveWorker`` — asserting the same Help Segs, the same
  retransmitted Segs and the same round vectors (DESIGN §6.2);
* the role on its own, against a dict model (a hypothesis state machine);
* what the role's module may import, and that neither driver keeps a
  per-round dict of its own.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.client import AggregationClient, MemberRounds
from repro.core.protocol import (
    TOS_CONTROL,
    TOS_DATA_UP,
    Action,
    ControlMessage,
    DataSegment,
    SegmentPlan,
    decode_data_header,
    decode_frame,
    decode_payload,
    encode_control,
    encode_data,
    make_control_packet,
    make_data_packet,
)
from repro.live.worker import LiveWorker
from repro.netsim import Simulator, build_star

N_ELEMENTS = 1000
PLAN = SegmentPlan(N_ELEMENTS)  # three chunks: 366, 366 and 268 elements
TIMEOUT = 1e-3
SWITCH = ("127.0.0.1", 45000)


def gradient(round_index):
    return np.arange(N_ELEMENTS, dtype=np.float32) + 1000 * round_index


def result(seg, value):
    start, stop = PLAN.chunk_bounds(seg % PLAN.n_chunks)
    return np.full(stop - start, value, dtype=np.float32)


class SimMember:
    """``AggregationClient`` with recovery armed; what it sends is
    recorded instead of put on the link."""

    def __init__(self):
        self.sim = Simulator()
        host = build_star(self.sim, 1).workers[0]
        assert not self.sim.batch_transport
        self.vectors = {}
        self.client = AggregationClient(
            host,
            "tor0",
            PLAN,
            on_round_complete=self.vectors.__setitem__,
            recovery_timeout=TIMEOUT,
        )
        self._sent = []
        host.send = self._sent.append

    def _drain(self):
        sent, self._sent[:] = list(self._sent), []
        return [
            ("up", p.payload.seg, p.payload.data.tolist())
            if p.tos == TOS_DATA_UP
            else (p.payload.action.name, p.payload.value)
            for p in sent
        ]

    def submit(self, round_index):
        self.client.send_gradient(gradient(round_index), round_index)
        self._drain()

    def result(self, seg, value):
        segment = DataSegment(seg=seg, data=result(seg, value))
        packet = make_data_packet("tor0", "worker0", segment, PLAN, downstream=True)
        self.client._receive(packet)
        return self._drain()

    def relayed_help(self, seg):
        message = ControlMessage(Action.HELP, seg)
        self.client._receive(make_control_packet("tor0", "worker0", message))
        return self._drain()

    def expire(self):
        """Every armed round timer fires once."""
        self.sim.run(until=self.sim.now + TIMEOUT)
        return self._drain()

    def vector(self, round_index):
        return self.vectors[round_index]


class LiveMember:
    """``LiveWorker``, an I/O-free role: what it sends is what its calls
    return (``_flush`` hands over what the hooks queued)."""

    class Weights:
        def get_weights(self):
            return np.zeros(N_ELEMENTS)

    def __init__(self):
        self.worker = LiveWorker(0, 2, self.Weights(), SWITCH)
        assert self.worker.plan.n_chunks == PLAN.n_chunks

    def _drain(self, sent=()):
        out = []
        for frame, _ in list(sent) + self.worker._flush():
            if frame[0] == TOS_CONTROL:
                message = decode_frame(frame)[1]
                out.append((message.action.name, message.value))
            else:
                seg = decode_data_header(frame)[2]
                out.append(("up", seg, decode_payload(frame).tolist()))
        return out

    def submit(self, round_index):
        self.worker._submit(gradient(round_index), round_index)
        self._drain()

    def result(self, seg, value):
        segment = DataSegment(seg=seg, data=result(seg, value))
        return self._drain(
            self.worker.handle_frame(encode_data(segment, downstream=True), SWITCH)
        )

    def relayed_help(self, seg):
        help_ = encode_control(ControlMessage(Action.HELP, seg))
        return self._drain(self.worker.handle_frame(help_, SWITCH))

    def expire(self):
        """Every open round's collect deadline passes once."""
        rounds = self.worker.rounds
        for round_index in sorted(rounds.pending):
            self.worker._recover(rounds.missing(round_index), round_index)
        return self._drain()

    def vector(self, round_index):
        return self.worker._collected(round_index)


@pytest.fixture(params=[SimMember, LiveMember], ids=["sim", "live"])
def member(request):
    return request.param()


def run_script(member):
    """Two rounds in flight; returns the transcript and the round vectors."""
    log = []
    member.submit(0)
    member.submit(1)
    # Results out of order: a chunk of round 1 first, then round 0's.
    log.append(member.result(4, 40.0))
    log.append(member.result(1, 10.0))
    log.append(member.result(0, 0.5))
    # A duplicate with other bytes: the last copy wins.
    log.append(member.result(1, 11.0))
    # A relayed Help retransmits this member's own chunk; an unknown Seg
    # retransmits nothing.
    log.append(member.relayed_help(2))
    log.append(member.relayed_help(99))
    # A timer expiry asks for exactly the missing Segs, and sends nothing else.
    log.append(member.expire())
    log.append(member.result(2, 20.0))
    first = member.vector(0)
    kept = first.tobytes()
    # A late rebroadcast of the closed round changes nothing.
    log.append(member.result(0, -1.0))
    log.append(member.result(3, 30.0))
    log.append(member.result(5, 50.0))
    second = member.vector(1)
    log.append(member.expire())
    assert first.tobytes() == kept
    return log, [first, second]


class TestOneScriptBothDrivers:
    def test_same_helps_retransmissions_and_vectors(self, member):
        """Both drivers against one transcript: the same Help Segs, the
        same retransmitted Segs, the same round vectors."""
        log, vectors = run_script(member)
        own = gradient(0)[slice(*PLAN.chunk_bounds(2))].tolist()
        assert log == [
            [], [], [], [],
            [("up", 2, own)],
            [],
            [("HELP", 2), ("HELP", 3), ("HELP", 5)],
            [], [], [], [],
            [],
        ]
        expected = [
            np.concatenate([result(0, 0.5), result(1, 11.0), result(2, 20.0)]),
            np.concatenate([result(3, 30.0), result(4, 40.0), result(5, 50.0)]),
        ]
        for got, want in zip(vectors, expected):
            assert got.tobytes() == want.tobytes()

    def test_live_counts_what_did_not_land_as_stale(self):
        live = LiveMember()
        run_script(live)
        # The duplicate and the late rebroadcast.
        assert live.worker.counters["stale_frames"] == 2

    def test_when_a_round_opens_is_the_drivers_call(self):
        # The simulator opens a round on its first result (arrival
        # renumbering delivers rounds this member never submitted) ...
        sim = SimMember()
        sim.result(7 * PLAN.n_chunks, 1.0)
        assert sim.client.pending_rounds() == 1
        # ... live only at submit: a forged future round allocates nothing.
        live = LiveMember()
        live.result(7 * PLAN.n_chunks, 1.0)
        assert live.worker.rounds.pending == {}
        assert live.worker.counters["stale_frames"] == 1


# ---------------------------------------------------------------------------
# The role on its own, against a dict model
# ---------------------------------------------------------------------------
N_CHUNKS = PLAN.n_chunks
KEEP_SENT, KEEP_CLOSED = 4, 6
ROUNDS = st.integers(0, 12)


def trimmed(model, limit):
    """The repo's one bound: past ``limit``, drop the oldest half."""
    if len(model) > limit:
        for old in sorted(model)[: len(model) // 2]:
            del model[old]


class MemberRoundsModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rounds = MemberRounds(PLAN, keep_sent=KEEP_SENT)
        self.rounds.keep_closed = KEEP_CLOSED
        self.sent = {}  # round -> items
        self.pending = {}  # round -> {chunk: the value last landed}
        self.closed = {}  # round -> None
        self.stamp = 0.0

    @rule(round_index=ROUNDS)
    def record(self, round_index):
        items = [(round_index, chunk, self.stamp) for chunk in range(N_CHUNKS)]
        self.rounds.record(round_index, items)
        self.sent[round_index] = items
        trimmed(self.sent, KEEP_SENT)

    @rule(round_index=ROUNDS)
    def open(self, round_index):
        missing = self.rounds.open(round_index)
        if round_index not in self.closed:
            self.pending.setdefault(round_index, {})
        landed = self.pending.get(round_index, range(N_CHUNKS))
        base = round_index * N_CHUNKS
        assert missing == {base + c for c in range(N_CHUNKS) if c not in landed}

    @rule(round_index=ROUNDS, chunk=st.integers(0, N_CHUNKS - 1))
    def land(self, round_index, chunk):
        self.stamp += 1
        seg = round_index * N_CHUNKS + chunk
        fresh = self.rounds.land(seg, result(seg, self.stamp))
        landed = self.pending.get(round_index)
        if landed is None:  # closed, or never opened: nothing lands
            assert not fresh
        else:
            assert fresh == (chunk not in landed)
            landed[chunk] = self.stamp

    @rule(round_index=ROUNDS)
    def close(self, round_index):
        array = self.rounds.close(round_index)
        assert (array is None) == (round_index not in self.pending)
        self.pending.pop(round_index, None)
        self.closed[round_index] = None
        trimmed(self.closed, KEEP_CLOSED)

    @invariant()
    def open_arrays_hold_the_last_landed_bytes(self):
        assert set(self.rounds.pending) == set(self.pending)
        for round_index, landed in self.pending.items():
            array = self.rounds.pending[round_index][0]
            for chunk, value in landed.items():
                start, stop = PLAN.chunk_bounds(chunk)
                assert (array[start:stop] == np.float32(value)).all()

    @invariant()
    def resend_answers_exactly_the_kept_rounds(self):
        for round_index in range(13):
            for chunk in range(N_CHUNKS):
                item = self.rounds.resend(round_index * N_CHUNKS + chunk)
                kept = self.sent.get(round_index)
                assert item == (None if kept is None else kept[chunk])

    @invariant()
    def logs_stay_bounded(self):
        assert len(self.rounds.sent) <= KEEP_SENT
        assert set(self.rounds.closed) == set(self.closed)
        assert len(self.rounds.closed) <= KEEP_CLOSED


TestMemberRoundsModel = MemberRoundsModel.TestCase
TestMemberRoundsModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------
class TestStructure:
    def test_role_module_is_wire_free(self):
        """The role's module imports no simulator, no live backend, no
        socket and no clock."""
        import repro.core.client as module

        imported = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        banned = {"netsim", "live", "socket", "time"}
        for name in imported:
            assert not set(name.lstrip(".").split(".")) & banned, name

    def test_neither_driver_keeps_rounds_of_its_own(self):
        root = Path(__file__).parents[1] / "src/repro"
        for driver in ("core/client.py", "live/worker.py"):
            source = (root / driver).read_text()
            assert "MemberRounds(" in source, driver
            for owned in ("._partial", "._completed", "._sent", "._results"):
                assert owned not in source, (driver, owned)
