"""DDPG (Lillicrap et al., 2015) — deterministic actor-critic for
continuous control, the paper's fourth workload.

The "dual model" (actor + critic, matching the paper's quoted 157.5 KB
total) lives in one container so both nets' gradients travel as a single
wire vector.  Each iteration: act with Ornstein–Uhlenbeck exploration
noise, push to replay, then compute

* critic gradient:  ∇ MSE(Q(s, a), r + γ Q'(s', π'(s')))
* actor gradient:   ∇ −mean Q(s, π(s))   (only the actor's share is kept)

Target networks are soft-updated (Polyak τ) after every applied update —
deterministic in the update count, so decentralized replicas stay
identical.

Gradient-free forwards go through ``Sequential.infer`` (raw NumPy, no
tape), both gradients are one closed-form kernel (``fused_ddpg_grad``,
pinned against the autograd tape in ``tests/test_compute_parity.py``),
and replay is the ring buffer (DESIGN.md §13).  The rollout steps the K
environments of a :class:`~repro.rl.envs.vector.VectorEnv` per call with
one batched actor forward and a (K, dim) Ornstein–Uhlenbeck state; a
bare env is stepped as ``VectorEnv([env])``, which consumes the same rng
stream as the scalar loop in ``tests/oracles.py`` and reproduces it
bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Adam, concat, fused_ddpg_grad, mlp, td_targets
from ..nn.layers import Module
from ..nn.serialize import flatten_params, load_flat_params
from .base import Algorithm
from .envs.base import Environment
from .replay import make_replay_buffer
from .spaces import Box

__all__ = ["DDPG", "OUNoise", "ActorCriticPair"]


class OUNoise:
    """Ornstein–Uhlenbeck process, DDPG's temporally correlated noise.

    ``dim`` is the state's shape.  DDPG keeps one row per env,
    ``(K, action_dim)``; the normal draw fills row-major, so one row draws
    the rng stream of a flat ``action_dim`` state.
    """

    def __init__(
        self,
        dim,
        rng: np.random.Generator,
        theta: float = 0.15,
        sigma: float = 0.2,
    ) -> None:
        self.dim = dim
        self.rng = rng
        self.theta = theta
        self.sigma = sigma
        self.state = np.zeros(dim)

    def reset(self) -> None:
        self.state = np.zeros(self.dim)

    def reset_rows(self, rows: np.ndarray) -> None:
        """Zero the rows ``rows`` (indices or a boolean mask) selects."""
        self.state[rows] = 0.0

    def sample(self) -> np.ndarray:
        self.state = (
            self.state
            - self.theta * self.state
            + self.sigma * self.rng.standard_normal(self.dim)
        )
        return self.state


class ActorCriticPair(Module):
    """Actor π(s) and critic Q(s, a) in one parameter container."""

    def __init__(self, obs_size: int, action_dim: int, hidden, rng) -> None:
        super().__init__()
        self.actor = mlp(
            [obs_size, *hidden, action_dim],
            rng=rng,
            output_activation="tanh",
        )
        self.critic = mlp([obs_size + action_dim, *hidden, 1], rng=rng)

    def q_value(self, states, actions):
        """Q(s, a) as an autograd graph over ``Tensor`` inputs — the tape
        oracle ``fused_ddpg_grad`` is pinned against; training never
        calls it."""
        return self.critic(concat([states, actions], axis=1)).reshape(-1)

    def q_value_infer(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gradient-free :meth:`q_value`, same concat + forward in NumPy."""
        return self.critic.infer(np.concatenate([states, actions], axis=1))[:, 0]


class DDPG(Algorithm):
    name = "ddpg"

    def __init__(
        self,
        env: Environment,
        hidden=(64, 64),
        actor_lr: float = 1e-4,
        critic_lr: float = 1e-3,
        gamma: float = 0.99,
        tau: float = 0.01,
        batch_size: int = 64,
        buffer_capacity: int = 20_000,
        warmup: int = 500,
        env_steps_per_iter: int = 1,
        seed: Optional[int] = None,
        init_seed: Optional[int] = None,
    ) -> None:
        if not isinstance(env.action_space, Box):
            raise TypeError("DDPG requires a continuous (Box) action space")
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        self._attach_env(env)
        self.rng = np.random.default_rng(seed)
        self.gamma = gamma
        self.tau = tau
        self.batch_size = batch_size
        self.warmup = max(warmup, batch_size)
        self.env_steps_per_iter = env_steps_per_iter

        container = ActorCriticPair(
            env.observation_size,
            env.action_space.dim,
            hidden,
            rng=np.random.default_rng(seed if init_seed is None else init_seed),
        )
        super().__init__(container)
        self.targets = ActorCriticPair(
            env.observation_size,
            env.action_space.dim,
            hidden,
            rng=np.random.default_rng(0),
        )
        load_flat_params(self.targets, flatten_params(container))
        self._target_params = self.targets.parameters()
        self.actor_optimizer = Adam(container.actor.parameters(), lr=actor_lr)
        self.critic_optimizer = Adam(container.critic.parameters(), lr=critic_lr)
        self.noise = OUNoise((self.vec_env.num_envs, env.action_space.dim), self.rng)
        self.buffer = make_replay_buffer(buffer_capacity, self.rng)

    # ------------------------------------------------------------------
    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        return self.act_batch(obs[None, :], explore)[0]

    def act_batch(self, obs_batch: np.ndarray, explore: bool = True) -> np.ndarray:
        """Deterministic actions for a batch of observations plus OU noise."""
        actions = self.container.actor.infer(obs_batch)
        if explore:
            actions = actions + self.noise.sample()
        return self.env.action_space.clip(actions)

    def _env_steps(self) -> None:
        """Fill replay to ``warmup``, then ``env_steps_per_iter`` more steps;
        an env's OU noise restarts with its episode."""
        self._replay_steps(self.act_batch, self.noise.reset_rows)

    # ------------------------------------------------------------------
    def compute_gradient(self) -> np.ndarray:
        self._env_steps()

        batch = self.buffer.sample(self.batch_size)
        next_actions = self.targets.actor.infer(batch.next_states)
        next_q = self.targets.q_value_infer(batch.next_states, next_actions)
        # Critic: ∇ MSE(Q(s, a), targets).  Actor: ∇ −mean Q(s, π(s)),
        # of which DDPG applies the actor's share only.
        fused_ddpg_grad(
            self.container.actor,
            self.container.critic,
            batch.states,
            batch.actions,
            td_targets(batch.rewards, next_q, batch.dones, self.gamma),
        )
        return self.gradient_vector()

    # ------------------------------------------------------------------
    def _after_update(self) -> None:
        self._soft_update_targets()

    def on_weights_pulled(self, server_updates: int) -> None:
        # Async-PS workers never run the optimizer locally; track the
        # pulled online weights with the same Polyak rate the server-side
        # replica applies so TD targets stay comparably fresh.
        super().on_weights_pulled(server_updates)
        self._soft_update_targets()

    def _soft_update_targets(self) -> None:
        # Polyak soft update of the targets, one parameter at a time.  Both
        # sides are rounded through float32 first: the update used to read
        # them with ``flatten_params`` (the wire format), and every pinned
        # DDPG number includes that rounding (DESIGN.md §13.4, a known
        # quirk — not to be "fixed" without re-pinning).
        keep = 1.0 - self.tau
        for target, online in zip(self._target_params, self._params):
            target32 = target.data.astype(np.float32).astype(np.float64)
            online32 = online.data.astype(np.float32).astype(np.float64)
            target.data = keep * target32 + self.tau * online32
