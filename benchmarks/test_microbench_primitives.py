"""Microbenchmarks: throughput of the core primitives.

Unlike the table/figure benches (one deterministic simulation, pedantic
single round), these measure the *host* performance of the building
blocks — useful when profiling why a large simulation is slow.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core.accelerator import AggregationEngine
from repro.core.protocol import (
    FLOATS_PER_SEGMENT,
    Action,
    ControlMessage,
    DataSegment,
    JoinInfo,
    SegmentPlan,
    encode_control,
    encode_data,
)
from repro.distributed import ExperimentConfig, run
from repro.distributed.transport import VectorReceiver, send_vector
from repro.live.driver import CHUNK_ELEMS
from repro.live.ps import PsServer
from repro.live.switch import SoftwareSwitch
from repro.live.transport import UdpEndpoint, loopback_available
from repro.netsim.events import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Device
from repro.netsim.packets import MAX_UDP_PAYLOAD, Packet
from repro.netsim.topology import build_rack_tree
from repro.nn import (
    Adam,
    Tensor,
    fused_a2c_grad,
    fused_ddpg_grad,
    fused_ppo_grad,
    mlp,
)
from repro.rl import A2C, DDPG, DQN, PPO
from repro.rl.envs import Cheetah1D, GridPong, GridQbert, Hopper1D
from repro.rl.envs.vector import make_vector_env
from repro.rl.replay import ReplayBuffer, Transition
from tests.helpers import per_packet_reference
from tests.oracles import (
    install_scalar_rollout,
    tape_a2c_gradient,
    tape_ddpg_gradient,
    tape_ppo_gradient,
)


def test_engine_contribution_throughput(benchmark):
    """Aggregation-engine contributions per second (366-float segments)."""
    engine = AggregationEngine(threshold=4)
    data = [
        np.random.default_rng(i).standard_normal(FLOATS_PER_SEGMENT).astype(
            np.float32
        )
        for i in range(4)
    ]
    counter = [0]

    def contribute_round():
        seg = counter[0]
        counter[0] += 1
        for worker in range(4):
            engine.contribute(
                DataSegment(seg=seg, data=data[worker], sender=f"w{worker}")
            )

    benchmark(contribute_round)
    assert engine.stats.completions > 0


def test_simulator_event_throughput(benchmark):
    """Raw discrete-event scheduling + dispatch rate."""

    def run_1000_events():
        sim = Simulator()
        for i in range(1000):
            sim.schedule(float(i) * 1e-6, lambda: None)
        sim.run()
        return sim.processed_events

    processed = benchmark(run_1000_events)
    assert processed == 1000


def test_segment_plan_split_throughput(benchmark):
    """Splitting a PPO-sized vector into wire segments."""
    plan = SegmentPlan(10_240)
    vector = np.random.default_rng(0).standard_normal(10_240).astype(np.float32)
    segments = benchmark(plan.split, vector, 0)
    assert len(segments) == plan.n_chunks


def test_autograd_training_step_throughput(benchmark):
    """One forward+backward+Adam step of a 64x64 MLP (the DQN-class net)."""
    net = mlp([5, 64, 64, 3], rng=np.random.default_rng(0))
    optimizer = Adam(net.parameters(), lr=1e-3)
    x = np.random.default_rng(1).standard_normal((32, 5))

    def step():
        net.zero_grad()
        loss = (net(Tensor(x)) ** 2.0).mean()
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)


def _a2c_steps():
    algo = A2C(GridQbert(seed=0), seed=0)
    c, rng = algo.container, np.random.default_rng(1)
    n = algo.rollout_steps
    data = (
        rng.standard_normal((n, algo.env.observation_size)),
        rng.integers(0, algo.env.action_space.n, size=n),
        rng.standard_normal(n),
        algo.value_coef,
        algo.entropy_coef,
    )
    return (
        c,
        lambda: tape_a2c_gradient(c, *data),
        lambda: fused_a2c_grad(c.policy, c.value, *data),
    )


def _ppo_steps():
    algo = PPO(Hopper1D(seed=0), seed=0)
    c, rng = algo.container, np.random.default_rng(1)
    n = algo.rollout_steps
    states = rng.standard_normal((n, algo.env.observation_size))
    actions = rng.uniform(-1.0, 1.0, size=(n, algo.env.action_space.dim))
    data = (
        states,
        actions,
        c.log_prob_infer(states, actions) + rng.normal(0.0, 0.1, size=n),
        rng.standard_normal(n),
        rng.standard_normal(n),
        algo.clip_epsilon,
        algo.value_coef,
        algo.entropy_coef,
    )
    return (
        c,
        lambda: tape_ppo_gradient(c, *data),
        lambda: fused_ppo_grad(c.mean, c.log_std, c.value, *data),
    )


def _ddpg_steps():
    algo = DDPG(Cheetah1D(seed=0), seed=0)
    c, rng = algo.container, np.random.default_rng(1)
    n = algo.batch_size
    data = (
        rng.standard_normal((n, algo.env.observation_size)),
        rng.uniform(-1.0, 1.0, size=(n, algo.env.action_space.dim)),
        rng.standard_normal(n),
    )
    return (
        c,
        lambda: tape_ddpg_gradient(c, *data),
        lambda: fused_ddpg_grad(c.actor, c.critic, *data),
    )


_GRADIENT_STEPS = {"a2c": _a2c_steps, "ppo": _ppo_steps, "ddpg": _ddpg_steps}


@pytest.mark.parametrize("side", ["tape", "kernel"])
@pytest.mark.parametrize("algorithm", sorted(_GRADIENT_STEPS))
def test_policy_gradient_step_throughput(benchmark, algorithm, side):
    """One A2C / PPO / DDPG gradient (forward + backward into the ``.grad``
    slots) at the algorithm's default shapes: the autograd-tape oracle
    (``tests/oracles.py``) and the closed-form kernel training runs, in
    one session, so their ratio is free of host drift."""
    benchmark.group = f"{algorithm}-gradient"
    container, tape, kernel = _GRADIENT_STEPS[algorithm]()
    benchmark(tape if side == "tape" else kernel)
    assert all(np.isfinite(p.grad).all() for p in container.parameters())


_ROLLOUT_ENVS = {
    "dqn": (DQN, "gridpong", GridPong),
    "a2c": (A2C, "gridqbert", GridQbert),
    "ppo": (PPO, "hopper1d", Hopper1D),
    "ddpg": (DDPG, "cheetah1d", Cheetah1D),
}


def _trained(algorithm, width):
    """The algorithm at default shapes after 20 updates (replay warm):
    ``scalar`` is the scalar rollout loop of ``tests/oracles.py`` on a bare
    env, ``K1`` the same bare env through the one rollout path
    (``VectorEnv([env])``), ``K4`` four scalar envs in one ``VectorEnv``
    (``make_vector_env(name, 4)``)."""
    cls, name, scalar_env = _ROLLOUT_ENVS[algorithm]
    if width == "K4":
        algo = cls(make_vector_env(name, 4, seed=7), seed=7)
    else:
        algo = cls(scalar_env(seed=7), seed=7)
        if width == "scalar":
            install_scalar_rollout(algo)
    for _ in range(20):
        algo.apply_update(algo.compute_gradient())
    return algo


@pytest.mark.parametrize("width", ["scalar", "K1", "K4"])
@pytest.mark.parametrize("algorithm", sorted(_ROLLOUT_ENVS))
def test_rollout_throughput(benchmark, algorithm, width):
    """One ``compute_gradient()`` — rollout plus gradient — through the
    scalar rollout oracle, the one rollout path on the same bare env, and
    ``make_vector_env(name, 4)``.  Scalar and K1 are the same computation
    (equal weights after 20 updates, checked here); their ratio is what
    stepping a bare env as ``VectorEnv([env])`` costs.  K4 does four envs'
    work per call, four scalar envs stepped in turn by one ``VectorEnv``."""
    benchmark.group = f"{algorithm}-rollout"
    algo = _trained(algorithm, width)
    if width == "K1":
        assert np.array_equal(
            algo.get_weights(), _trained(algorithm, "scalar").get_weights()
        )
    benchmark(algo.compute_gradient)


class _Sink(Device):
    """Counts what a bare Link delivers, so the link is timed in isolation."""

    def handle_packet(self, packet, in_port):
        self._count_rx(packet)


def test_link_transmission_throughput(benchmark):
    """Serializing full data frames across one 10 Gb/s link."""

    def send_2000_frames():
        sim = Simulator()
        link = Link(sim, name="bench")
        src, dst = Device(sim, "src"), _Sink(sim, "dst")
        link.attach(src, dst)
        end = link.ends[0]
        for i in range(2000):
            end.send(
                Packet(src="src", dst="dst", payload_size=MAX_UDP_PAYLOAD, packet_id=i)
            )
        sim.run()
        return dst.rx_packets

    delivered = benchmark(send_2000_frames)
    assert delivered == 2000


def _incast(transport):
    """Eight workers each push one 64-chunk vector to the server behind the
    root of a rack tree; returns ``(completion times, events counted)``."""
    sim = Simulator()
    sim.transport = transport
    net = build_rack_tree(sim, 8, with_server=True)
    done = []
    VectorReceiver(net.server, lambda src, *_: done.append((src, repr(sim.now))))
    for worker in net.workers:
        send_vector(worker, "server", tag=0, vector=None, wire_bytes=64 * MAX_UDP_PAYLOAD)
    sim.run()
    return done, sim.processed_events


@pytest.mark.parametrize("transport", ["packet", "train"])
def test_incast_forwarding_throughput(benchmark, transport):
    """The parameter server's ingress (the paper's bottleneck) two ways in
    one session: an event per packet per hop, and trains forwarded through
    the switches' queue — same completion times, to the bit, and the same
    logical event count; only the wall time per event differs."""
    benchmark.group = "incast-forwarding"
    assert _incast("train") == _incast("packet")
    done, events = benchmark(_incast, transport)
    assert len(done) == 8 and events == 8 * 64 * 5


def _isw_rounds(reference):
    """Ten sync-isw n=4 synth iterations, telemetry off: worker 0's weight
    hash and ``repr(elapsed)``.  ``reference`` forces the per-packet path."""
    config = ExperimentConfig(
        strategy="isw", workload="synth", n_workers=4, iterations=10, seed=7,
        telemetry=False,
    )
    if reference:
        with per_packet_reference():
            result = run(config)
    else:
        result = run(config)
    weights = result.workers[0].algorithm.get_weights()
    return hashlib.sha256(weights.tobytes()).hexdigest(), repr(result.elapsed)


@pytest.mark.parametrize("transport", ["packet", "train"])
def test_isw_round_throughput(benchmark, transport):
    """The iSwitch datapath two ways in one session: 64 packets per
    gradient per hop, and one run end to end — same weights and simulated
    time, to the bit; only the wall time per round differs."""
    benchmark.group = "isw-round"
    assert _isw_rounds(reference=False) == _isw_rounds(reference=True)
    benchmark(_isw_rounds, transport == "packet")


def test_vector_env_step_throughput(benchmark):
    """Stepping a 64-wide GridPong batch: 64 scalar envs in one
    ``VectorEnv``, stepped one after another."""
    env = make_vector_env("gridpong", 64, seed=7)
    actions = np.random.default_rng(7).integers(0, 3, size=(200, 64))

    def step_200_times():
        env.reset()
        return sum(len(env.step(row)[0]) for row in actions)

    env_steps = benchmark(step_200_times)
    assert env_steps == 200 * 64


def test_replay_sample_throughput(benchmark):
    """Minibatch draws from a full 20k-transition ring buffer."""
    rng = np.random.default_rng(7)
    buf = ReplayBuffer(20_000, rng)
    obs = rng.standard_normal((20_000, 8))
    for i in range(20_000):
        buf.push(Transition(obs[i], i % 3, float(i), obs[(i + 1) % 20_000], False))

    def draw_2000_batches():
        return sum(len(buf.sample(32).states) for _ in range(2000))

    samples = benchmark(draw_2000_batches)
    assert samples == 2000 * 32


# ----------------------------------------------------------------------
# The live datapath, I/O-free (switch, PS) and at the socket (drain)
# ----------------------------------------------------------------------
_MEMBERS = [("127.0.0.1", 40000 + rank) for rank in range(2)]


def _live_round(server, join, frames):
    """A fresh ``server`` with both members joined, and one round's
    ``frames`` (rank-interleaved, as they cross the wire)."""

    def setup():
        role = server()
        for rank, addr in enumerate(_MEMBERS):
            role.handle_frame(join(rank), addr)
        return (role,), {}

    def feed(role):
        return sum(len(role.handle_frame(frame, addr)) for frame, addr in frames)

    return setup, feed


def test_live_switch_round_throughput(benchmark):
    """128 fp32 data frames (two workers' 64-chunk gradients) through
    ``SoftwareSwitch.handle_frame``; 128 result frames come out."""
    plan = SegmentPlan(64 * FLOATS_PER_SEGMENT)
    rng = np.random.default_rng(7)
    per_rank = []
    for _ in _MEMBERS:
        gradient = rng.standard_normal(plan.n_elements).astype(np.float32)
        per_rank.append([encode_data(s) for s in plan.split(gradient, 0)])
    frames = [(f, a) for pair in zip(*per_rank) for f, a in zip(pair, _MEMBERS)]
    setup, feed = _live_round(
        lambda: SoftwareSwitch(n_workers=2),
        lambda rank: encode_control(ControlMessage(Action.JOIN, JoinInfo(rank=rank))),
        frames,
    )
    assert benchmark.pedantic(feed, setup=setup, rounds=50) == 128


def test_live_ps_round_throughput(benchmark):
    """256 ``U`` gradient chunks (two workers x 128 chunks of 183) through
    ``PsServer.handle_frame``; 256 ``D`` sums come out."""
    n_elements = 128 * CHUNK_ELEMS
    rng = np.random.default_rng(7)
    frames = []
    gradients = [rng.standard_normal(n_elements).astype("<f4") for _ in _MEMBERS]
    for chunk in range(128):
        for rank, addr in enumerate(_MEMBERS):
            data = gradients[rank][chunk * CHUNK_ELEMS : (chunk + 1) * CHUNK_ELEMS]
            frames.append(
                (b"U" + struct.pack("<BII", rank, 0, chunk) + data.tobytes(), addr)
            )
    setup, feed = _live_round(
        lambda: PsServer(n_workers=2),
        lambda rank: b"J" + struct.pack("<BI", rank, n_elements),
        frames,
    )
    assert benchmark.pedantic(feed, setup=setup, rounds=50) == 256


def test_udp_drain_throughput(benchmark):
    """128 queued 1.5 kB datagrams through ``UdpEndpoint.recv``: one
    ``recvfrom`` each while the socket holds datagrams."""
    if not loopback_available():
        pytest.skip("loopback UDP unavailable")
    frame = bytes(1 + 8 + 4 * FLOATS_PER_SEGMENT)
    with UdpEndpoint() as sender, UdpEndpoint() as receiver:

        def setup():
            for _ in range(128):
                sender.send(frame, receiver.address)
            return (), {}

        def drain():
            return sum(receiver.recv(timeout=1.0) is not None for _ in range(128))

        assert benchmark.pedantic(drain, setup=setup, rounds=50) == 128
