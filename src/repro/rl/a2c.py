"""A2C — synchronous advantage actor-critic (the paper's [41] workload).

Each iteration collects an n-step rollout with the current policy,
bootstraps the tail with the value network, and produces one gradient of

    L = policy-gradient loss + c_v * value MSE − c_e * entropy bonus.

Policy and value networks are separate MLPs held in one container so the
whole model travels as a single gradient vector.

Action selection and the tail bootstrap run through ``Sequential.infer``
(raw NumPy, no tape) and the gradient is one closed-form kernel
(``fused_a2c_grad``, pinned against the autograd tape in
``tests/test_compute_parity.py``; DESIGN.md §13).  With a
:class:`~repro.rl.envs.vector.VectorEnv` the rollout advances K envs per
step and flattens time-major into one batch; K = 1 reproduces scalar
stepping bit-for-bit on the same rng stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Adam, fused_a2c_grad, mlp
from ..nn.layers import Module
from .base import Algorithm
from .envs.base import Environment
from .envs.vector import VectorEnv
from .spaces import Discrete

__all__ = ["A2C", "ActorCritic", "discounted_returns"]


def sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """``rng.choice(len(probs), p=probs)`` minus its validation — same cdf,
    same single uniform — except that NaN probabilities (a diverged
    policy) still raise instead of picking an index."""
    cdf = probs.cumsum()
    total = cdf[-1]
    if not 0.0 < total < np.inf:
        raise ValueError("probabilities contain NaN")
    cdf /= total
    return int(cdf.searchsorted(rng.random(), side="right"))


class ActorCritic(Module):
    """Separate policy and value MLPs in one parameter container."""

    def __init__(self, obs_size: int, n_actions: int, hidden, rng) -> None:
        super().__init__()
        self.policy = mlp([obs_size, *hidden, n_actions], rng=rng)
        self.value = mlp([obs_size, *hidden, 1], rng=rng)


def discounted_returns(
    rewards: np.ndarray,
    dones: np.ndarray,
    bootstrap: float,
    gamma: float,
) -> np.ndarray:
    """n-step discounted returns with bootstrap from the last state."""
    returns = np.zeros_like(rewards)
    running = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running * (1.0 - dones[t])
        returns[t] = running
    return returns


class A2C(Algorithm):
    name = "a2c"

    def __init__(
        self,
        env: Environment,
        hidden=(64, 64),
        lr: float = 7e-4,
        gamma: float = 0.99,
        rollout_steps: int = 16,
        value_coef: float = 0.5,
        entropy_coef: float = 0.01,
        seed: Optional[int] = None,
        init_seed: Optional[int] = None,
    ) -> None:
        if not isinstance(env.action_space, Discrete):
            raise TypeError("A2C requires a discrete action space")
        if rollout_steps < 1:
            raise ValueError(f"rollout_steps must be >= 1, got {rollout_steps}")
        self.env = env
        self._venv = env if isinstance(env, VectorEnv) else None
        self.rng = np.random.default_rng(seed)
        self.gamma = gamma
        self.rollout_steps = rollout_steps
        self.value_coef = value_coef
        self.entropy_coef = entropy_coef

        container = ActorCritic(
            env.observation_size,
            env.action_space.n,
            hidden,
            rng=np.random.default_rng(seed if init_seed is None else init_seed),
        )
        super().__init__(container)
        self.optimizer = Adam(container.parameters(), lr=lr)
        self._obs = env.reset()

    # ------------------------------------------------------------------
    def _draw(self, logits: np.ndarray) -> int:
        """Softmax one row of logits and sample an action from it."""
        logits = logits - logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        return sample_index(self.rng, probs)

    def act(self, obs: np.ndarray) -> int:
        return self._draw(self.container.policy.infer(obs[None, :])[0])

    def act_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        """Sample actions for a batch of observations (one net forward).

        Per-row softmax and rng draws run in env index order; a single
        row consumes the rng stream exactly as :meth:`act` does.
        """
        draw = self._draw
        logits = self.container.policy.infer(obs_batch)
        return np.array([draw(row) for row in logits], dtype=np.int64)

    def _bootstrap_values(self, obs_batch: np.ndarray) -> np.ndarray:
        return self.container.value.infer(obs_batch)[:, 0]

    def compute_gradient(self) -> np.ndarray:
        env_step, obs = self.env.step, self._obs  # read once per rollout
        if self._venv is not None:
            act_batch, track = self.act_batch, self._track_rewards_batch
            obs_buf, act_buf, rew_buf, done_buf = [], [], [], []
            for _ in range(self.rollout_steps):
                actions = act_batch(obs)
                next_obs, rewards, dones, _ = env_step(actions)
                obs_buf.append(obs)
                act_buf.append(actions)
                rew_buf.append(rewards)
                done_buf.append(dones)
                track(rewards, dones)
                obs = next_obs
            self._obs = obs
            num_envs = self.env.num_envs
            states = np.asarray(obs_buf).reshape(self.rollout_steps * num_envs, -1)
            actions_flat = np.asarray(act_buf, dtype=np.int64).reshape(-1)
            rewards_arr = np.asarray(rew_buf, dtype=np.float64)
            dones_arr = np.asarray(done_buf, dtype=np.float64)
            bootstrap = self._bootstrap_values(self._obs)
        else:
            act, reset, track = self.act, self.env.reset, self._track_reward
            observations, actions, rewards, dones = [], [], [], []
            for _ in range(self.rollout_steps):
                action = act(obs)
                next_obs, reward, done, _ = env_step(action)
                observations.append(obs)
                actions.append(action)
                rewards.append(reward)
                dones.append(done)
                track(reward, done)
                obs = reset() if done else next_obs
            self._obs = obs
            states = np.stack(observations)
            actions_flat = np.asarray(actions, dtype=np.int64)
            rewards_arr = np.asarray(rewards, dtype=np.float64)
            dones_arr = np.asarray(dones, dtype=np.float64)
            bootstrap = float(self._bootstrap_values(self._obs[None, :])[0])

        # discounted_returns broadcasts over (T,) or (T, K) rollouts alike.
        returns = discounted_returns(
            rewards_arr, dones_arr, bootstrap, self.gamma
        ).reshape(-1)

        fused_a2c_grad(
            self.container.policy,
            self.container.value,
            states,
            actions_flat,
            returns,
            self.value_coef,
            self.entropy_coef,
        )
        return self.gradient_vector()
