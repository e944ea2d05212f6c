"""Differential compute-parity suite.

The compute tier — ring-buffer replay, raw-NumPy inference forwards,
fused loss kernels, the closed-form DQN gradient, flat in-place optimizer
updates, and kernel vector envs — is the only compute path.  Each piece
is pinned against a straightforward reference, at the byte level
(``tobytes()``, which is stricter than ``np.array_equal`` — it
distinguishes ``-0.0`` from ``0.0``):

* replay: ring vs the list-of-tuples ``LegacyReplayBuffer`` oracle
  (``tests/oracles.py``) on the same rng stream,
* optimizers: ``step_flat`` vs the textbook per-parameter oracle step,
* losses: fused kernels vs the composed-primitive graphs,
* ``fused_qnet_grad``: closed-form backward vs the autograd tape,
* envs: kernel ``VectorEnv`` vs the sequential reference over 1k steps,
* end to end: whole training runs per algorithm vs digests recorded at
  the last commit that carried the legacy twins (where both agreed).

DESIGN.md §13 documents the bit-identity argument each block asserts.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    RMSProp,
    Tensor,
    flatten_params,
    fused_huber_loss,
    fused_mse_loss,
    fused_qnet_grad,
    huber_loss,
    load_flat_grads,
    mlp,
    mse_loss,
    no_grad,
)
from repro.nn.layers import Module
from repro.rl import A2C, DDPG, DQN, PPO
from repro.rl.envs import Cheetah1D, GridPong, GridQbert, Hopper1D, make_vector_env
from repro.rl.envs.vector import VectorEnv
from repro.rl.envs.wrappers import FrameStack, NormalizeObservation, ScaleReward
from repro.rl.replay import ReplayBuffer, Transition

from .oracles import (
    LegacyReplayBuffer,
    ReferenceAdam,
    ReferenceRMSProp,
    ReferenceSGD,
)


def assert_bytes_equal(a: np.ndarray, b: np.ndarray, context: str = "") -> None:
    assert a.shape == b.shape, f"{context}: shape {a.shape} != {b.shape}"
    assert a.dtype == b.dtype, f"{context}: dtype {a.dtype} != {b.dtype}"
    assert a.tobytes() == b.tobytes(), f"{context}: values differ"


# ---------------------------------------------------------------------------
# Replay: ring vs legacy list-of-tuples
# ---------------------------------------------------------------------------


def _transition(rng: np.random.Generator, obs_dim: int = 4) -> Transition:
    return Transition(
        state=rng.standard_normal(obs_dim),
        action=int(rng.integers(0, 3)),
        reward=float(rng.standard_normal()),
        next_state=rng.standard_normal(obs_dim),
        done=bool(rng.random() < 0.1),
    )


class TestReplayParity:
    def test_same_rng_stream_same_batches(self):
        """Interleaved push/sample: both buffers draw identical batches."""
        ring = ReplayBuffer(50, np.random.default_rng(11))
        legacy = LegacyReplayBuffer(50, np.random.default_rng(11))
        feed = np.random.default_rng(99)
        for step in range(400):
            t = _transition(feed)
            ring.push(t)
            legacy.push(t)
            if step >= 8 and step % 7 == 0:
                a = ring.sample(8)
                b = legacy.sample(8)
                for field in ("states", "actions", "rewards", "next_states", "dones"):
                    assert_bytes_equal(
                        np.asarray(getattr(a, field)),
                        np.asarray(getattr(b, field)),
                        f"step {step} field {field}",
                    )

    def test_sample_with_replacement_parity(self):
        """batch > size flips ``replace`` identically on both buffers."""
        ring = ReplayBuffer(50, np.random.default_rng(3))
        legacy = LegacyReplayBuffer(50, np.random.default_rng(3))
        feed = np.random.default_rng(0)
        for _ in range(3):
            t = _transition(feed)
            ring.push(t)
            legacy.push(t)
        a = ring.sample(16)
        b = legacy.sample(16)
        assert_bytes_equal(a.states, b.states)
        assert_bytes_equal(a.rewards, b.rewards)

    def test_push_batch_matches_sequential_push(self):
        """Slice-writes across the wrap point == n scalar pushes."""
        rng = np.random.default_rng(5)
        scalar = ReplayBuffer(10, np.random.default_rng(1))
        batched = ReplayBuffer(10, np.random.default_rng(1))
        for _ in range(8):  # advance the cursor near the wrap point
            t = _transition(rng)
            scalar.push(t)
            batched.push(t)
        chunk = [_transition(rng) for _ in range(7)]
        states = np.stack([t.state for t in chunk])
        actions = np.asarray([t.action for t in chunk])
        rewards = np.asarray([t.reward for t in chunk])
        next_states = np.stack([t.next_state for t in chunk])
        dones = np.asarray([t.done for t in chunk], dtype=np.float64)
        for t in chunk:
            scalar.push(t)
        batched.push_batch(states, actions, rewards, next_states, dones)
        assert len(scalar) == len(batched) == 10
        assert scalar._cursor == batched._cursor
        assert_bytes_equal(scalar._states, batched._states)
        assert_bytes_equal(scalar._rewards, batched._rewards)
        assert_bytes_equal(scalar._dones, batched._dones)

    def test_push_batch_larger_than_capacity(self):
        """n >= capacity degenerates to sequential semantics, not garbage."""
        rng = np.random.default_rng(5)
        scalar = ReplayBuffer(6, np.random.default_rng(1))
        batched = ReplayBuffer(6, np.random.default_rng(1))
        chunk = [_transition(rng) for _ in range(9)]
        for t in chunk:
            scalar.push(t)
        batched.push_batch(
            np.stack([t.state for t in chunk]),
            np.asarray([t.action for t in chunk]),
            np.asarray([t.reward for t in chunk]),
            np.stack([t.next_state for t in chunk]),
            np.asarray([t.done for t in chunk], dtype=np.float64),
        )
        assert scalar._cursor == batched._cursor
        assert_bytes_equal(scalar._states, batched._states)


# ---------------------------------------------------------------------------
# Optimizers: flat in-place vs the per-parameter oracle step
# ---------------------------------------------------------------------------


def _optimizer_pair(factory):
    """Two identical models: the flat optimizer, and its per-parameter
    oracle (``tests/oracles.py``) — the "legacy" step of the test names."""
    cls, reference_cls, kwargs = factory
    fast_model = mlp([5, 16, 16, 3], rng=np.random.default_rng(21))
    legacy_model = mlp([5, 16, 16, 3], rng=np.random.default_rng(21))
    fast_opt = cls(fast_model.parameters(), **kwargs)
    legacy_opt = reference_cls(legacy_model.parameters(), **kwargs)
    return fast_model, fast_opt, legacy_model, legacy_opt


OPTIMIZER_FACTORIES = [
    pytest.param((SGD, ReferenceSGD, dict(lr=0.05)), id="sgd"),
    pytest.param((SGD, ReferenceSGD, dict(lr=0.05, momentum=0.9)), id="sgd-momentum"),
    pytest.param((Adam, ReferenceAdam, dict(lr=1e-3)), id="adam"),
    pytest.param((RMSProp, ReferenceRMSProp, dict(lr=1e-3)), id="rmsprop"),
]


class TestOptimizerParity:
    @pytest.mark.parametrize("factory", OPTIMIZER_FACTORIES)
    def test_step_flat_matches_legacy_step(self, factory):
        fast_model, fast_opt, legacy_model, legacy_opt = _optimizer_pair(factory)
        total = fast_model.n_parameters
        rng = np.random.default_rng(7)
        for step in range(25):
            # The wire delivers float32 gradients; both sides cast to f64.
            grad = rng.standard_normal(total).astype(np.float32)
            fast_opt.step_flat(grad.astype(np.float64))
            load_flat_grads(legacy_model, grad)
            legacy_opt.step()
            for i, (fp, lp) in enumerate(
                zip(fast_model.parameters(), legacy_model.parameters())
            ):
                assert_bytes_equal(fp.data, lp.data, f"step {step} param {i}")

    @pytest.mark.parametrize("factory", OPTIMIZER_FACTORIES)
    def test_fast_step_gathers_grad_slots(self, factory):
        """``step()`` gathers the ``.grad`` slots into one flat step."""
        fast_model, fast_opt, legacy_model, legacy_opt = _optimizer_pair(factory)
        rng = np.random.default_rng(13)
        for _ in range(5):
            grad = rng.standard_normal(fast_model.n_parameters).astype(np.float32)
            load_flat_grads(fast_model, grad)
            fast_opt.step()
            load_flat_grads(legacy_model, grad)
            legacy_opt.step()
        assert_bytes_equal(
            flatten_params(fast_model), flatten_params(legacy_model)
        )


# ---------------------------------------------------------------------------
# Fused losses and the closed-form DQN gradient vs the autograd tape
# ---------------------------------------------------------------------------


def _tape_grads(model) -> list:
    return [p.grad.copy() for p in model.parameters()]


class TestFusedLossParity:
    def _heads(self, seed):
        """Two identical tiny models producing the same prediction tensor."""
        a = mlp([4, 8, 1], rng=np.random.default_rng(seed))
        b = mlp([4, 8, 1], rng=np.random.default_rng(seed))
        return a, b

    @pytest.mark.parametrize("trial", range(5))
    def test_fused_mse(self, trial):
        fused_net, composed_net = self._heads(trial)
        rng = np.random.default_rng(trial + 40)
        x = rng.standard_normal((12, 4))
        target = rng.standard_normal(12)
        fused = fused_mse_loss(fused_net(Tensor(x)).reshape(-1), target)
        composed = mse_loss(composed_net(Tensor(x)).reshape(-1), Tensor(target))
        assert fused.numpy().tobytes() == composed.numpy().tobytes()
        fused.backward()
        composed.backward()
        for fg, cg in zip(_tape_grads(fused_net), _tape_grads(composed_net)):
            assert_bytes_equal(fg, cg)

    @pytest.mark.parametrize("trial", range(5))
    def test_fused_huber(self, trial):
        fused_net, composed_net = self._heads(trial)
        rng = np.random.default_rng(trial + 80)
        x = rng.standard_normal((12, 4))
        # Spread targets so some residuals land in the quadratic region,
        # some in the linear region, on both sides of zero.
        target = rng.standard_normal(12) * 3.0
        target[0] = float(fused_net.infer(x[:1])[0, 0])  # exact-zero residual
        fused = fused_huber_loss(fused_net(Tensor(x)).reshape(-1), target)
        composed = huber_loss(composed_net(Tensor(x)).reshape(-1), Tensor(target))
        assert fused.numpy().tobytes() == composed.numpy().tobytes()
        fused.backward()
        composed.backward()
        for fg, cg in zip(_tape_grads(fused_net), _tape_grads(composed_net)):
            assert_bytes_equal(fg, cg)

    def test_fused_huber_rejects_bad_delta(self):
        net, _ = self._heads(0)
        pred = net(Tensor(np.zeros((2, 4))))
        with pytest.raises(ValueError, match="delta"):
            fused_huber_loss(pred.reshape(-1), np.zeros(2), delta=0.0)


class TestFusedQNetGrad:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_matches_tape(self, activation):
        net = mlp([6, 32, 32, 3], activation=activation, rng=np.random.default_rng(9))
        rng = np.random.default_rng(17)
        for trial in range(10):
            states = rng.standard_normal((32, 6))
            actions = rng.integers(0, 3, size=32)
            targets = rng.standard_normal(32) * 3.0
            if trial % 3 == 0:  # exact-zero residuals hit the sign(0) edge
                q = net.infer(states)
                targets[:4] = q[np.arange(4), actions[:4]]

            for p in net.parameters():
                p.zero_grad()
            loss = fused_huber_loss(
                net(Tensor(states)).gather(actions.astype(np.int64)), targets
            )
            loss.backward()
            tape_loss = float(loss.numpy())
            tape = _tape_grads(net)

            for p in net.parameters():
                p.zero_grad()
            closed_loss = fused_qnet_grad(net, states, actions, targets)
            assert closed_loss == tape_loss
            for i, (tg, cg) in enumerate(zip(tape, _tape_grads(net))):
                assert_bytes_equal(tg, cg, f"{activation} trial {trial} param {i}")

    def test_rejects_unsupported_layer(self):
        class Opaque(Module):
            def forward(self, x):
                return x

        net = mlp([4, 8, 2], rng=np.random.default_rng(0))
        net._order.append("layerx")
        object.__setattr__(net, "layerx", Opaque())
        net._modules["layerx"] = net.layerx
        with pytest.raises(TypeError, match="Linear/Activation"):
            fused_qnet_grad(net, np.zeros((2, 4)), np.zeros(2, dtype=int), np.zeros(2))

    def test_rejects_bad_delta(self):
        net = mlp([4, 8, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="delta"):
            fused_qnet_grad(
                net, np.zeros((2, 4)), np.zeros(2, dtype=int), np.zeros(2), delta=-1.0
            )


class TestInferParity:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_sequential_infer_matches_graph_forward(self, activation):
        net = mlp(
            [5, 16, 4],
            activation=activation,
            output_activation=activation,
            rng=np.random.default_rng(2),
        )
        x = np.random.default_rng(3).standard_normal((20, 5))
        with no_grad():
            graph = net(Tensor(x)).numpy()
        assert_bytes_equal(net.infer(x), graph)


# ---------------------------------------------------------------------------
# Kernel vector envs vs the sequential reference (satellite S2)
# ---------------------------------------------------------------------------

ENV_NAMES = ["gridpong", "gridqbert", "hopper1d", "cheetah1d"]


def _action_batch(rng, space, num_envs):
    if hasattr(space, "n"):
        return rng.integers(0, space.n, size=num_envs)
    return rng.uniform(space.low, space.high, size=(num_envs, space.dim))


class TestVectorEnvDifferential:
    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_kernel_matches_sequential_1k_steps(self, name):
        """1k steps, bit-identical obs/rewards/dones/terminal infos."""
        num_envs = 3
        kernel = make_vector_env(name, num_envs, seed=123, kernel=True)
        reference = make_vector_env(name, num_envs, seed=123, kernel=False)
        assert_bytes_equal(kernel.reset(), reference.reset(), f"{name} reset")
        action_rng = np.random.default_rng(77)
        episodes_k, episodes_r = [], []
        for step in range(1000):
            actions = _action_batch(action_rng, kernel.action_space, num_envs)
            ko, kr, kd, ki = kernel.step(actions)
            ro, rr, rd, ri = reference.step(actions.copy())
            ctx = f"{name} step {step}"
            assert_bytes_equal(ko, ro, ctx + " obs")
            assert_bytes_equal(kr, rr, ctx + " rewards")
            assert (kd == rd).all(), ctx + " dones"
            for i in range(num_envs):
                k_term = ki[i].get("terminal_observation")
                r_term = ri[i].get("terminal_observation")
                assert (k_term is None) == (r_term is None), ctx
                if k_term is not None:
                    assert_bytes_equal(
                        np.asarray(k_term), np.asarray(r_term), ctx + " terminal"
                    )
            episodes_k.extend((step, i) for i in np.nonzero(kd)[0])
            episodes_r.extend((step, i) for i in np.nonzero(rd)[0])
        assert episodes_k == episodes_r, f"{name}: episode boundaries moved"
        assert episodes_k, f"{name}: no episode ever terminated in 1k steps"

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_single_env_kernel_matches_scalar_env(self, name):
        """K = 1 kernel == a bare scalar env stepped by hand (with autoreset)."""
        scalar_cls = {
            "gridpong": GridPong,
            "gridqbert": GridQbert,
            "hopper1d": Hopper1D,
            "cheetah1d": Cheetah1D,
        }[name]
        kernel = make_vector_env(name, 1, seed=9, kernel=True)
        scalar = scalar_cls(seed=9)
        obs_k = kernel.reset()
        obs_s = scalar.reset()
        assert_bytes_equal(obs_k[0], np.asarray(obs_s, dtype=np.float64))
        rng = np.random.default_rng(31)
        for step in range(500):
            actions = _action_batch(rng, kernel.action_space, 1)
            ko, kr, kd, _ = kernel.step(actions)
            action = actions[0] if hasattr(kernel.action_space, "dim") else int(actions[0])
            so, sr, sd, _ = scalar.step(action)
            assert kd[0] == sd, f"{name} step {step}"
            assert kr[0].tobytes() == np.float64(sr).tobytes(), f"{name} step {step}"
            if sd:
                so = scalar.reset()
            assert_bytes_equal(ko[0], np.asarray(so, dtype=np.float64), f"{name} {step}")

    def test_wrapped_envs_through_generic_vector_env(self):
        """Wrappers ride the sequential VectorEnv; semantics match scalar."""

        def wrap(seed):
            return ScaleReward(
                NormalizeObservation(FrameStack(GridPong(seed=seed), k=2)), 0.5
            )

        venv = VectorEnv([wrap(40), wrap(41)])
        scalars = [wrap(40), wrap(41)]
        obs_v = venv.reset()
        obs_s = np.stack([env.reset() for env in scalars])
        assert_bytes_equal(obs_v, obs_s)
        assert venv.observation_size == GridPong.observation_size * 2
        rng = np.random.default_rng(8)
        for step in range(300):
            actions = rng.integers(0, 3, size=2)
            vo, vr, vd, vi = venv.step(actions)
            for i, env in enumerate(scalars):
                so, sr, sd, _ = env.step(int(actions[i]))
                assert vd[i] == sd
                assert vr[i].tobytes() == np.float64(sr).tobytes()
                if sd:
                    assert_bytes_equal(
                        np.asarray(vi[i]["terminal_observation"]),
                        np.asarray(so, dtype=np.float64),
                    )
                    so = env.reset()
                assert_bytes_equal(vo[i], np.asarray(so, dtype=np.float64), f"{step}")


# ---------------------------------------------------------------------------
# End to end: whole training runs per algorithm, pinned
# ---------------------------------------------------------------------------


def _train(builder, iterations: int) -> np.ndarray:
    algo = builder()
    for _ in range(iterations):
        algo.apply_update(algo.compute_gradient())
    return flatten_params(algo.container)


#: (builder, iterations, sha256[:16] of the final flat float32 weights).
#: Recorded at the last commit that carried the legacy compute twins,
#: where the fast and the legacy path both produced these bytes — fix a
#: regression, do not re-pin.
ALGORITHM_BUILDERS = [
    pytest.param(
        lambda: DQN(GridPong(seed=3), seed=3, warmup=64),
        15,
        "37c608b783ce63b7",
        id="dqn",
    ),
    pytest.param(
        lambda: DQN(
            GridPong(seed=3), seed=3, warmup=64, n_step=3, double_dqn=True
        ),
        15,
        "0bd3aad2309b8a3e",
        id="dqn-nstep-double",
    ),
    pytest.param(
        lambda: A2C(GridQbert(seed=3), seed=3), 12, "3498f25997542dd4", id="a2c"
    ),
    pytest.param(
        lambda: PPO(Hopper1D(seed=3), seed=3, epochs=2),
        8,
        "0c04fa2cd7764b5a",
        id="ppo",
    ),
    pytest.param(
        lambda: DDPG(Cheetah1D(seed=3), seed=3, warmup=64),
        12,
        "05ef3fee972ab951",
        id="ddpg",
    ),
]


class TestAlgorithmParity:
    @pytest.mark.parametrize("builder,iterations,digest", ALGORITHM_BUILDERS)
    def test_fast_path_is_bit_identical(self, builder, iterations, digest):
        weights = _train(builder, iterations)
        assert weights.dtype == np.float32
        assert hashlib.sha256(weights.tobytes()).hexdigest()[:16] == digest


VENV_PAIRS = [
    pytest.param(
        lambda: DQN(make_vector_env("gridpong", 1, seed=5), seed=5, warmup=64),
        lambda: DQN(GridPong(seed=5), seed=5, warmup=64),
        12,
        id="dqn",
    ),
    pytest.param(
        lambda: A2C(make_vector_env("gridqbert", 1, seed=5), seed=5),
        lambda: A2C(GridQbert(seed=5), seed=5),
        10,
        id="a2c",
    ),
    pytest.param(
        lambda: PPO(make_vector_env("hopper1d", 1, seed=5), seed=5),
        lambda: PPO(Hopper1D(seed=5), seed=5),
        6,
        id="ppo",
    ),
    pytest.param(
        lambda: DDPG(make_vector_env("cheetah1d", 1, seed=5), seed=5, warmup=64),
        lambda: DDPG(Cheetah1D(seed=5), seed=5, warmup=64),
        10,
        id="ddpg",
    ),
]


class TestVectorEnvTraining:
    @pytest.mark.parametrize("venv_builder,scalar_builder,iterations", VENV_PAIRS)
    def test_k1_vector_env_matches_scalar(
        self, venv_builder, scalar_builder, iterations
    ):
        """One-env VectorEnv consumes the same rng stream as scalar stepping."""
        vec = _train(venv_builder, iterations)
        scalar = _train(scalar_builder, iterations)
        assert_bytes_equal(vec, scalar)

    @pytest.mark.parametrize("algorithm", ["dqn", "a2c", "ppo", "ddpg"])
    def test_k4_vector_env_trains(self, algorithm):
        """Multi-env batches run end to end and stay finite."""
        builders = {
            "dqn": lambda: DQN(
                make_vector_env("gridpong", 4, seed=5), seed=5, warmup=64
            ),
            "a2c": lambda: A2C(make_vector_env("gridqbert", 4, seed=5), seed=5),
            "ppo": lambda: PPO(
                make_vector_env("hopper1d", 4, seed=5), seed=5, rollout_steps=16
            ),
            "ddpg": lambda: DDPG(
                make_vector_env("cheetah1d", 4, seed=5), seed=5, warmup=64
            ),
        }
        weights = _train(builders[algorithm], 6)
        assert np.isfinite(weights).all()

    def test_k4_nstep_dqn_trains(self):
        """Per-env pending queues keep n-step folding correct under batching."""
        weights = _train(
            lambda: DQN(
                make_vector_env("gridpong", 4, seed=5), seed=5, warmup=64, n_step=3
            ),
            6,
        )
        assert np.isfinite(weights).all()
