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
* ``mlp_forward`` / ``mlp_backward`` and the A2C / PPO / DDPG heads on
  them: closed-form gradients vs the tape tails the algorithms trained
  through until PR 19 (``tests/oracles.py``), plus the structural pins
  that training builds no ``Tensor`` and has no tape to fall back to,
* envs: kernel ``VectorEnv`` vs the sequential reference over 1k steps,
* rollouts: the one ``VectorEnv`` rollout path on a bare env vs the scalar
  rollout loops (``tests/oracles.py``), over short episodes,
* end to end: whole training runs per algorithm vs digests recorded at
  the last commit that carried the legacy twins (where both agreed).

DESIGN.md §13 documents the bit-identity argument each block asserts.
"""

import ast
import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rl.a2c
import repro.rl.ddpg
import repro.rl.dqn
import repro.rl.ppo
from repro.nn import (
    SGD,
    Adam,
    RMSProp,
    Tensor,
    flatten_params,
    load_flat_params,
    load_model,
    save_model,
    fused_a2c_grad,
    fused_ddpg_grad,
    fused_huber_loss,
    fused_mse_loss,
    fused_ppo_grad,
    fused_qnet_grad,
    huber_loss,
    load_flat_grads,
    mlp,
    mlp_backward,
    mlp_forward,
    mse_loss,
    no_grad,
)
from repro.nn.layers import Activation, Linear, Module, Parameter, Sequential
from repro.rl import A2C, DDPG, DQN, PPO
from repro.rl.a2c import ActorCritic, sample_index
from repro.rl.ddpg import ActorCriticPair, OUNoise
from repro.rl.envs import Cheetah1D, GridPong, GridQbert, Hopper1D, make_vector_env
from repro.rl.envs.vector import VectorEnv
from repro.rl.envs.wrappers import FrameStack, NormalizeObservation, ScaleReward
from repro.rl.ppo import GaussianActorCritic
from repro.rl.replay import ReplayBuffer, Transition

from .oracles import (
    LegacyReplayBuffer,
    ReferenceAdam,
    ReferenceRMSProp,
    ReferenceSGD,
    a2c_act,
    choice_index,
    ddpg_act,
    install_scalar_rollout,
    isinstance_mlp_forward,
    layerwise_infer,
    ppo_act,
    tape_a2c_gradient,
    tape_ddpg_gradient,
    tape_ppo_gradient,
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
        net = mlp([4, 8, 2], rng=np.random.default_rng(0))
        _opaque_tail(net)
        with pytest.raises(TypeError, match="Linear/Activation"):
            fused_qnet_grad(net, np.zeros((2, 4)), np.zeros(2, dtype=int), np.zeros(2))

    def test_rejects_bad_delta(self):
        net = mlp([4, 8, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="delta"):
            fused_qnet_grad(
                net, np.zeros((2, 4)), np.zeros(2, dtype=int), np.zeros(2), delta=-1.0
            )


# ---------------------------------------------------------------------------
# The shared MLP kernel and the A2C / PPO / DDPG heads vs the autograd tape
# ---------------------------------------------------------------------------

ACTIVATIONS = ["relu", "tanh", "sigmoid"]


def _net(sizes, activation, bias, rng, output_activation=None) -> Sequential:
    """``mlp()`` with the bias switch it does not expose, and biases that
    are not all zero (``Linear`` initialises them to 0)."""
    layers = []
    for i in range(len(sizes) - 1):
        linear = Linear(sizes[i], sizes[i + 1], rng=rng, bias=bias)
        if bias:
            linear.bias.data = rng.standard_normal(sizes[i + 1]) * 0.3
        layers.append(linear)
        if i < len(sizes) - 2:
            layers.append(Activation(activation))
        elif output_activation is not None:
            layers.append(Activation(output_activation))
    return Sequential(*layers)


def _opaque_tail(net: Sequential) -> None:
    """Append a layer ``mlp()`` never builds."""

    class Opaque(Module):
        def forward(self, x):
            return x

    net._order.append("layerx")
    object.__setattr__(net, "layerx", Opaque())
    net._modules["layerx"] = net.layerx


def _states(rng, batch, obs_size) -> np.ndarray:
    """``batch`` rows; ``"4x16"`` is 16 steps of a K=4 ``VectorEnv`` rollout
    flattened time-major, built the way the algorithms build it."""
    if batch == "4x16":
        steps = [rng.standard_normal((4, obs_size)) for _ in range(16)]
        return np.asarray(steps).reshape(16 * 4, -1)
    return np.stack([rng.standard_normal(obs_size) for _ in range(batch)])


def _assert_same_gradient(container, kernel, tape, context) -> None:
    """Run ``tape`` then ``kernel`` on one container; compare every byte."""
    tape_losses = np.atleast_1d(tape())
    tape_grads = _tape_grads(container)
    for p in container.parameters():
        p.grad = None
    kernel_losses = np.atleast_1d(kernel())
    assert_bytes_equal(
        np.asarray(kernel_losses, dtype=np.float64),
        np.asarray(tape_losses, dtype=np.float64),
        f"{context} loss",
    )
    names = [name for name, _ in container.named_parameters()]
    for name, tg, kg in zip(names, tape_grads, _tape_grads(container)):
        assert_bytes_equal(kg, tg, f"{context} {name}")


BATCHES = [1, 16, 64, "4x16"]
KERNEL_MATRIX = [
    pytest.param(a, b, n, id=f"{a}-{'bias' if b else 'nobias'}-B{n}")
    for a in ACTIVATIONS
    for b in (True, False)
    for n in BATCHES
]
TRIALS = 4


class TestFusedPolicyGrads:
    """Loss and every parameter gradient ``tobytes``-equal to the tape."""

    @pytest.mark.parametrize("activation,bias,batch", KERNEL_MATRIX)
    def test_a2c_matches_tape(self, activation, bias, batch):
        obs_size, n_actions, hidden = 6, 4, (12, 12)
        for trial in range(TRIALS):
            rng = np.random.default_rng(1000 + trial)
            container = ActorCritic(obs_size, n_actions, hidden, rng=rng)
            container.policy = _net(
                [obs_size, *hidden, n_actions], activation, bias, rng
            )
            container.value = _net([obs_size, *hidden, 1], activation, bias, rng)
            states = _states(rng, batch, obs_size)
            n = len(states)
            actions = rng.integers(0, n_actions, size=n)
            returns = rng.standard_normal(n) * 2.0
            if trial % 2 == 0:
                # The same action in many rows (the scatter must stay
                # np.add.at-equivalent) and exact-zero advantages, whose
                # -0.0 the tape's add.at turns into +0.0.
                actions[: n // 2 + 1] = actions[0]
                zero_rows = slice(0, max(1, n // 4))
                returns[zero_rows] = container.value.infer(states)[zero_rows, 0]
            value_coef = [0.5, 1.0, 0.25, 0.5][trial]
            entropy_coef = [0.01, 0.0, 0.05, 0.01][trial]
            _assert_same_gradient(
                container,
                lambda: fused_a2c_grad(
                    container.policy, container.value, states, actions,
                    returns, value_coef, entropy_coef,
                ),
                lambda: tape_a2c_gradient(
                    container, states, actions, returns, value_coef, entropy_coef
                ),
                f"a2c {activation} bias={bias} B={batch} trial {trial}",
            )

    @pytest.mark.parametrize("activation,bias,batch", KERNEL_MATRIX)
    def test_ppo_matches_tape(self, activation, bias, batch):
        obs_size, action_dim, hidden = 5, 3, (10, 10)
        for trial in range(TRIALS):
            rng = np.random.default_rng(2000 + trial)
            container = GaussianActorCritic(obs_size, action_dim, hidden, rng=rng)
            container.mean = _net(
                [obs_size, *hidden, action_dim], activation, bias, rng
            )
            container.value = _net([obs_size, *hidden, 1], activation, bias, rng)
            container.log_std.data = rng.uniform(-1.0, 0.0, size=action_dim)
            states = _states(rng, batch, obs_size)
            n = len(states)
            actions = np.clip(rng.standard_normal((n, action_dim)), -1.0, 1.0)
            advantages = rng.standard_normal(n)
            returns = rng.standard_normal(n)
            # ratio != 1, as on the second epoch of epochs=2: the policy
            # has moved since old_log_probs was recorded.  A third of the
            # rows stay at ratio == 1, the rest land inside and outside
            # the clip range on both sides.
            log_probs = container.log_prob_infer(states, actions)
            old_log_probs = log_probs + rng.normal(0.0, 0.25, size=n) * (
                rng.random(n) > 0.33
            )
            clip_epsilon = 0.2
            ratio = np.exp(log_probs - old_log_probs)
            if trial == 1:  # one row exactly on the upper clip boundary
                above = ratio[(ratio > 1.0) & (ratio < 2.0)]
                if above.size:
                    clip_epsilon = float(above[0] - 1.0)
                    assert 1.0 + clip_epsilon == above[0]
            if trial == 2:  # one row exactly on the lower clip boundary
                below = ratio[(ratio > 0.5) & (ratio < 1.0)]
                if below.size:
                    clip_epsilon = float(1.0 - below[0])
                    assert 1.0 - clip_epsilon == below[0]
            if trial == 3:
                advantages[: max(1, n // 4)] = 0.0
            # Three contributions reach log_std when the entropy bonus is
            # on, so their order shows; the default 0.0 runs two.
            entropy_coef = [0.01, 0.0, 0.01, 0.02][trial]
            args = (
                states, actions, old_log_probs, advantages, returns,
                clip_epsilon, 0.5, entropy_coef,
            )
            _assert_same_gradient(
                container,
                lambda: fused_ppo_grad(
                    container.mean, container.log_std, container.value, *args
                ),
                lambda: tape_ppo_gradient(container, *args),
                f"ppo {activation} bias={bias} B={batch} trial {trial}",
            )

    @pytest.mark.parametrize("activation,bias,batch", KERNEL_MATRIX)
    def test_ddpg_matches_tape(self, activation, bias, batch):
        obs_size, action_dim, hidden = 4, 2, (12, 12)
        for trial in range(TRIALS):
            rng = np.random.default_rng(3000 + trial)
            container = ActorCriticPair(obs_size, action_dim, hidden, rng=rng)
            container.actor = _net(
                [obs_size, *hidden, action_dim], activation, bias, rng,
                output_activation="tanh",
            )
            container.critic = _net(
                [obs_size + action_dim, *hidden, 1], activation, bias, rng
            )
            states = _states(rng, batch, obs_size)
            n = len(states)
            actions = np.clip(rng.standard_normal((n, action_dim)), -1.0, 1.0)
            if trial % 2 == 1:
                # Drive π(s) to the tanh saturation (out == ±1 exactly, so
                # 1 - out² == 0) in most rows, and replay actions that sit
                # on the Box bounds.
                last = [m for m in container.actor if isinstance(m, Linear)][-1]
                last.weight.data = last.weight.data * 1e6
                actions[: n // 2 + 1] = np.sign(actions[: n // 2 + 1])
                saturated = np.abs(container.actor.infer(states)) == 1.0
                assert saturated.any() or n == 1
            targets = rng.standard_normal(n)
            _assert_same_gradient(
                container,
                lambda: fused_ddpg_grad(
                    container.actor, container.critic, states, actions, targets
                ),
                lambda: tape_ddpg_gradient(container, states, actions, targets),
                f"ddpg {activation} bias={bias} B={batch} trial {trial}",
            )

    @pytest.mark.parametrize("head", ["a2c", "ppo", "ddpg"])
    def test_unsupported_layer_raises(self, head):
        """No silent fallback: a layer ``mlp()`` does not build is an error
        (``TestFusedQNetGrad`` has the DQN head's)."""
        rng = np.random.default_rng(0)
        bad = mlp([4, 8, 2], rng=rng)
        _opaque_tail(bad)
        good = mlp([4, 8, 1], rng=rng)
        states, vec = np.zeros((2, 4)), np.zeros(2)
        calls = {
            "a2c": lambda: fused_a2c_grad(
                bad, good, states, np.zeros(2, dtype=int), vec, 0.5, 0.01
            ),
            "ppo": lambda: fused_ppo_grad(
                bad, GaussianActorCritic(4, 2, (8,), rng).log_std, good,
                states, np.zeros((2, 2)), vec, vec, vec, 0.2, 0.5, 0.0,
            ),
            "ddpg": lambda: fused_ddpg_grad(
                bad, mlp([6, 8, 1], rng=rng), states, np.zeros((2, 2)), vec
            ),
        }
        with pytest.raises(TypeError, match="Linear/Activation.*Opaque"):
            calls[head]()


@st.composite
def _mlp_cases(draw):
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    kinds = draw(
        st.lists(
            st.sampled_from(ACTIVATIONS + [None]),
            min_size=len(sizes) - 1,
            max_size=len(sizes) - 1,
        )
    )
    return (
        sizes,
        kinds,
        draw(st.booleans()),
        draw(st.integers(1, 17)),
        draw(st.integers(0, 2**31 - 1)),
    )


def _stack(case, rng) -> Sequential:
    """The Linear/Activation stack a ``_mlp_cases`` draw describes."""
    sizes, kinds, bias = case[:3]
    layers = []
    for n_in, n_out, kind in zip(sizes, sizes[1:], kinds):
        layers.append(Linear(n_in, n_out, rng=rng, bias=bias))
        if bias:
            layers[-1].bias.data = rng.standard_normal(n_out)
        if kind is not None:
            layers.append(Activation(kind))
    return Sequential(*layers)


class TestMlpKernel:
    @given(case=_mlp_cases())
    @settings(max_examples=80, deadline=None)
    def test_forward_and_backward_match_the_tape(self, case):
        """Any Linear/Activation stack: output, every parameter gradient
        and the input gradient equal the tape's, byte for byte."""
        sizes, _, _, batch, seed = case
        rng = np.random.default_rng(seed)
        net = _stack(case, rng)
        x = rng.standard_normal((batch, sizes[0]))
        seed_grad = rng.standard_normal((batch, sizes[-1]))

        tape_in = Tensor(x, requires_grad=True)
        tape_out = net(tape_in)
        tape_out.backward(seed_grad)
        tape_grads = _tape_grads(net)

        for p in net.parameters():
            p.grad = None
        out, steps = mlp_forward(net, x)
        assert_bytes_equal(out, tape_out.numpy(), "forward")
        assert mlp_backward(steps, seed_grad, param_grads=False) is None
        assert all(p.grad is None for p in net.parameters())
        d_input = mlp_backward(steps, seed_grad, input_grad=True)
        assert_bytes_equal(d_input, tape_in.grad, "input gradient")
        for i, (tg, kg) in enumerate(zip(tape_grads, _tape_grads(net))):
            assert_bytes_equal(kg, tg, f"param {i}")


def _env(name, scalar_cls, num_envs):
    if num_envs == 1:
        return scalar_cls(seed=5)
    return make_vector_env(name, num_envs, seed=5)


#: algorithm -> K -> a trainer whose settings reach every branch of its
#: kernel (PPO: a second epoch, so ratio != 1, and the entropy bonus).
TRAINERS = {
    "dqn": lambda k: DQN(_env("gridpong", GridPong, k), seed=5, warmup=64),
    "a2c": lambda k: A2C(_env("gridqbert", GridQbert, k), seed=5),
    "ppo": lambda k: PPO(
        _env("hopper1d", Hopper1D, k), seed=5, epochs=2, rollout_steps=16,
        entropy_coef=0.01, lr=3e-3,
    ),
    "ddpg": lambda k: DDPG(_env("cheetah1d", Cheetah1D, k), seed=5, warmup=64),
}

#: algorithm -> (module, the kernel's name there, how many leading network
#: arguments the tape oracle replaces with the container, the oracle).
SHADOWS = {
    "a2c": (repro.rl.a2c, "fused_a2c_grad", 2, tape_a2c_gradient),
    "ppo": (repro.rl.ppo, "fused_ppo_grad", 3, tape_ppo_gradient),
    "ddpg": (repro.rl.ddpg, "fused_ddpg_grad", 2, tape_ddpg_gradient),
}


class TestTrainingAgainstTheTape:
    @pytest.mark.parametrize("num_envs", [1, 4], ids=["scalar", "K4"])
    @pytest.mark.parametrize("algorithm", sorted(SHADOWS))
    def test_every_iteration_matches_tape(self, monkeypatch, algorithm, num_envs):
        """Real rollouts (repeated actions, PPO's second epoch, K=4
        batches): on each iteration's own inputs the kernel's gradient
        equals the tape tail the algorithm used to run."""
        module, name, n_nets, tape = SHADOWS[algorithm]
        algo = TRAINERS[algorithm](num_envs)
        kernel = getattr(module, name)
        compared = []

        def both(*args):
            _assert_same_gradient(
                algo.container,
                lambda: kernel(*args),
                lambda: tape(algo.container, *args[n_nets:]),
                f"{algorithm} K={num_envs} iteration {len(compared)}",
            )
            compared.append(args)

        monkeypatch.setattr(module, name, both)
        for _ in range(8):
            algo.apply_update(algo.compute_gradient())
        assert len(compared) == 8


class TestTapeFree:
    @pytest.mark.parametrize("num_envs", [1, 4], ids=["scalar", "K4"])
    @pytest.mark.parametrize("algorithm", sorted(TRAINERS))
    def test_training_constructs_no_tensor(self, monkeypatch, algorithm, num_envs):
        algo = TRAINERS[algorithm](num_envs)
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        algo.container.parameters()[0].exp()
        assert built == ["Tensor"], "the counter must see tape ops"
        del built[:]
        for _ in range(4):
            algo.apply_update(algo.compute_gradient())
        assert built == []

    @pytest.mark.parametrize(
        "module", [repro.rl.dqn, repro.rl.a2c, repro.rl.ppo, repro.rl.ddpg],
        ids=lambda m: m.__name__,
    )
    def test_algorithm_modules_do_not_import_tensor(self, module):
        """No tape to fall back to: the four algorithm modules cannot name
        ``Tensor`` (the oracle methods they keep lift through its operators)."""
        tree = ast.parse(inspect.getsource(module))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "Tensor" not in imported
        assert not any(
            isinstance(node, (ast.Name, ast.Attribute))
            and (getattr(node, "id", None) or getattr(node, "attr", None)) == "Tensor"
            for node in ast.walk(tree)
        )
        assert "Tensor" not in vars(module)


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


def _tape_forward(net, x) -> np.ndarray:
    with no_grad():
        return net(Tensor(np.asarray(x, dtype=np.float64))).numpy()


class _Doubler(Module):
    """A child with no closed form in the plan (tape forward only)."""

    def forward(self, x):
        return x * 2.0


class _ShiftedLinear(Linear):
    """A Linear *subclass* with its own ``infer``: not the plan's business."""

    def forward(self, x):
        return super().forward(x) + 1.0

    def infer(self, x):
        return super().infer(x) + 1.0


class TestPlanWalk:
    """``Sequential.infer``'s compiled plan against the walks it replaced
    (``tests/oracles.py``) and against the tape."""

    @given(case=_mlp_cases(), float32=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_walk_matches_layerwise_chain_and_tape(self, case, float32):
        sizes, _, _, batch, seed = case
        rng = np.random.default_rng(seed)
        net = _stack(case, rng)
        x = rng.standard_normal((batch, sizes[0]))
        if float32:
            x = x.astype(np.float32)  # cast once on entry, as before
        out = net.infer(x)
        assert_bytes_equal(out, layerwise_infer(net, x), "vs layer-by-layer")
        assert_bytes_equal(out, _tape_forward(net, x), "vs tape")
        # One row is its own case, not a slice of the batch result: BLAS may
        # round a (1, n) product differently from row 0 of a (B, n) one.
        row = x[0][None, :]
        assert_bytes_equal(net.infer(row), layerwise_infer(net, row), "one row")

        kernel_out, steps = mlp_forward(net, x)
        oracle_out, caches = isinstance_mlp_forward(net, x)
        assert_bytes_equal(kernel_out, oracle_out, "mlp_forward")
        assert len(steps) == len(caches)
        for (_, cache), expected in zip(steps, caches):
            assert_bytes_equal(cache, expected, "cache")

    @pytest.mark.parametrize(
        "child",
        [
            lambda rng: Sequential(Activation("tanh"), Linear(6, 6, rng=rng)),
            lambda rng: _Doubler(),
            lambda rng: _ShiftedLinear(6, 6, rng=rng),
        ],
        ids=["nested-sequential", "opaque-module", "linear-subclass"],
    )
    def test_other_children_run_their_own_infer(self, child):
        rng = np.random.default_rng(4)
        net = Sequential(
            Linear(3, 6, rng=rng), child(rng), Activation("relu"), Linear(6, 2, rng=rng)
        )
        x = rng.standard_normal((5, 3))
        assert_bytes_equal(net.infer(x), layerwise_infer(net, x))
        assert_bytes_equal(net.infer(x), _tape_forward(net, x))
        with pytest.raises(TypeError, match="Linear/Activation"):
            mlp_forward(net, x)

    def test_plan_reads_arrays_at_call_time(self, tmp_path):
        """The plan holds the child modules and reads ``weight`` / ``bias``
        and their ``.data`` per call, so everything that rewrites weights —
        in place or by assigning on a child — reaches the next ``infer``."""
        rng = np.random.default_rng(6)
        net = mlp([4, 8, 3], rng=rng)
        x = rng.standard_normal((2, 4))
        seen = [net.infer(x)]  # compiles the plan

        def check(context):
            out = net.infer(x)
            assert_bytes_equal(out, layerwise_infer(net, x), context)
            assert all(out.tobytes() != old.tobytes() for old in seen), context
            seen.append(out)

        load_flat_params(net, rng.standard_normal(net.n_parameters))
        check("load_flat_params")

        for p in net.parameters():
            p.grad = rng.standard_normal(p.data.shape)
        Adam(net.parameters(), lr=0.1).step()
        check("Adam.step")

        source = mlp([4, 8, 3], rng=rng)
        save_model(source, tmp_path / "m.npz")
        load_model(net, tmp_path / "m.npz")
        check("checkpoint round-trip")
        assert_bytes_equal(net.infer(x), source.infer(x))

        net.layer0 = Linear(4, 8, rng=rng)
        check("child reassigned")
        net.layer1 = Activation("tanh")
        check("activation reassigned")

        # Assigning on a child does not pass through Sequential.__setattr__.
        net.layer0.weight = Parameter(rng.standard_normal((4, 8)))
        check("Parameter assigned on a child")
        net.layer2.bias = Parameter(rng.standard_normal(3))
        check("bias assigned on a child")
        net.layer2.bias = None  # back to an output already in ``seen``
        assert_bytes_equal(net.infer(x), layerwise_infer(net, x), "bias removed")
        assert_bytes_equal(net.infer(x), _tape_forward(net, x))
        assert_bytes_equal(mlp_forward(net, x)[0], _tape_forward(net, x))

    def test_set_weights_reaches_the_compiled_plan(self):
        algo = DQN(GridPong(seed=1), seed=1, warmup=64)
        obs = algo._obs[0]
        before = algo.q_net.infer(obs)
        algo.set_weights(np.random.default_rng(2).standard_normal(algo.n_params))
        after = algo.q_net.infer(obs)
        assert before.tobytes() != after.tobytes()
        assert_bytes_equal(after, layerwise_infer(algo.q_net, obs))


# ---------------------------------------------------------------------------
# Acting: A2C's sampler vs Generator.choice, and the three act bodies
# ---------------------------------------------------------------------------


@st.composite
def _probabilities(draw):
    """A normalised probability vector with exact zeros and denormals."""
    n = draw(st.integers(1, 8))
    raw = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),
                    st.floats(1e-12, 1.0),
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    if raw.sum() < 1e-12:
        raw[draw(st.integers(0, n - 1))] = 1.0
    return raw / raw.sum()


class TestSampler:
    @given(probs=_probabilities(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_index_and_generator_state_as_choice(self, probs, seed):
        """Draw for draw what ``Generator.choice`` does on the installed
        NumPy: the index *and* where the bit generator is left."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert sample_index(ours, probs) == choice_index(theirs, probs)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "all-minus-inf"])
    def test_diverged_policy_raises_instead_of_acting(self, bad):
        """``choice`` refused NaN probabilities; a bare ``searchsorted`` on a
        NaN cdf would return an index.  All-``-inf`` logits become NaN in
        the softmax shift."""
        algo = A2C(GridQbert(seed=0), seed=0)
        obs = algo._obs[0]
        algo.act(obs)  # healthy policy: fine
        algo.container.policy.layer4.bias.data[:] = bad
        state = algo.rng.bit_generator.state
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="NaN"):
                algo.act(obs)
            with pytest.raises(ValueError, match="NaN"):
                algo.act_batch(np.stack([obs, obs]))
            with pytest.raises(ValueError, match="NaN"):
                a2c_act(algo, obs)  # the same failure as before
        assert algo.rng.bit_generator.state == state  # nothing was drawn


class TestActAgainstReplacedBodies:
    """``act`` and a one-row ``act_batch`` against the pre-PR 21 bodies in
    ``tests/oracles.py``: same action bytes, same rng stream afterwards."""

    def test_a2c(self):
        new, old = (A2C(GridQbert(seed=2), seed=2) for _ in range(2))
        obs = new._obs[0]
        for _ in range(50):
            assert new.act(obs) == a2c_act(old, obs)
        for _ in range(50):
            assert new.act_batch(obs[None, :])[0] == a2c_act(old, obs)
        assert new.rng.bit_generator.state == old.rng.bit_generator.state

    def test_ppo(self):
        new, old = (PPO(Hopper1D(seed=2), seed=2) for _ in range(2))
        new.container.log_std.data[:] = 0.5  # wide enough to reach the clip
        old.container.log_std.data[:] = 0.5
        obs = new._obs[0]
        for _ in range(50):
            assert_bytes_equal(new.act(obs), ppo_act(old, obs))
        for _ in range(50):
            assert_bytes_equal(new.act_batch(obs[None, :])[0], ppo_act(old, obs))
        assert new.rng.bit_generator.state == old.rng.bit_generator.state

    @pytest.mark.parametrize("explore", [True, False])
    def test_ddpg(self, explore):
        new, old = (DDPG(Cheetah1D(seed=2), seed=2, warmup=64) for _ in range(2))
        old.noise = OUNoise(old.env.action_space.dim, old.rng)  # the flat state
        obs = new._obs[0]
        for _ in range(50):
            assert_bytes_equal(new.act(obs, explore), ddpg_act(old, obs, explore))
        assert_bytes_equal(new.noise.state[0], old.noise.state)
        assert new.rng.bit_generator.state == old.rng.bit_generator.state


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


#: algorithm -> (env class, builder(env, seed, n_step)); n_step is DQN's.
ORACLE_TRAINERS = {
    "dqn": (
        GridPong,
        lambda env, seed, n_step: DQN(env, seed=seed, warmup=64, n_step=n_step),
    ),
    "a2c": (GridQbert, lambda env, seed, _: A2C(env, seed=seed)),
    "ppo": (
        Hopper1D,
        lambda env, seed, _: PPO(env, seed=seed, epochs=2, rollout_steps=16),
    ),
    "ddpg": (Cheetah1D, lambda env, seed, _: DDPG(env, seed=seed, warmup=64)),
}


class TestOnePathAgainstScalarOracle:
    @given(
        algorithm=st.sampled_from(sorted(ORACLE_TRAINERS)),
        seed=st.integers(0, 2**16),
        max_steps=st.integers(5, 30),
        n_step=st.sampled_from([1, 3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_bare_env_rollout_is_the_scalar_loop(
        self, algorithm, seed, max_steps, n_step
    ):
        """A bare env, stepped as ``VectorEnv([env])``, trains bit for bit
        as the scalar rollout loop in ``tests/oracles.py`` does, over short
        episodes, so autoreset, the terminal-observation bootstrap, DQN's
        n-step flush and DDPG's OU-noise restart all run: every gradient,
        the final weights, the episode rewards and every rng's state."""
        env_cls, build = ORACLE_TRAINERS[algorithm]
        one = build(env_cls(seed=seed, max_steps=max_steps), seed, n_step)
        oracle = install_scalar_rollout(
            build(env_cls(seed=seed, max_steps=max_steps), seed, n_step)
        )
        for iteration in range(8):
            gradient = one.compute_gradient()
            context = f"{algorithm} iteration {iteration}"
            assert_bytes_equal(gradient, oracle.compute_gradient(), context)
            one.apply_update(gradient)
            oracle.apply_update(gradient)
        assert_bytes_equal(one.get_weights(), oracle.get_weights(), "weights")
        assert one.episode_rewards, "every run must end episodes"
        assert_bytes_equal(
            np.array(one.episode_rewards), np.array(oracle.episode_rewards), "episodes"
        )
        assert one.rng.bit_generator.state == oracle.rng.bit_generator.state
        assert one.env.rng.bit_generator.state == oracle.env.rng.bit_generator.state
        if algorithm == "ddpg":
            assert_bytes_equal(one.noise.state[0], oracle.noise.state, "OU noise")
        if algorithm in ("dqn", "ddpg"):
            # A terminal step's next state is masked out of every TD target,
            # so only replay itself shows which observation it bootstraps from.
            size = len(one.buffer)
            assert size == len(oracle.buffer)
            for field in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
                assert_bytes_equal(
                    getattr(one.buffer, field)[:size],
                    getattr(oracle.buffer, field)[:size],
                    field,
                )


class TestVectorEnvTraining:
    @pytest.mark.parametrize("venv_builder,scalar_builder,iterations", VENV_PAIRS)
    def test_k1_vector_env_matches_scalar(
        self, venv_builder, scalar_builder, iterations
    ):
        """The one-env kernel consumes the same rng streams as a bare env
        (stepped as ``VectorEnv([env])``)."""
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
