"""A2C — synchronous advantage actor-critic (the paper's [41] workload).

Each iteration collects an n-step rollout with the current policy,
bootstraps the tail with the value network, and produces one gradient of

    L = policy-gradient loss + c_v * value MSE − c_e * entropy bonus.

Policy and value networks are separate MLPs held in one container so the
whole model travels as a single gradient vector.

Action selection and the tail bootstrap run through ``Sequential.infer``
(raw NumPy, no tape) and the gradient is one closed-form kernel
(``fused_a2c_grad``, pinned against the autograd tape in
``tests/test_compute_parity.py``; DESIGN.md §13).  The rollout advances
the K envs of a :class:`~repro.rl.envs.vector.VectorEnv` per step and
flattens time-major into one batch; a bare env is stepped as
``VectorEnv([env])``, bit-for-bit the scalar loop in ``tests/oracles.py``
on the same rng stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Adam, fused_a2c_grad, mlp
from ..nn.layers import Module
from .base import Algorithm
from .envs.base import Environment
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
    bootstrap,
    gamma: float,
) -> np.ndarray:
    """n-step discounted returns with bootstrap from the last state.

    ``rewards`` and ``dones`` are ``(T,)`` with a scalar ``bootstrap``, or
    a ``(T, K)`` rollout with one bootstrap per env.  Each env's recursion
    runs on Python floats: the same IEEE doubles as float64 array math,
    without a NumPy call per step.
    """
    steps = len(rewards)
    columns = []
    for rew, done, running in zip(
        np.reshape(rewards, (steps, -1)).T.tolist(),
        np.reshape(dones, (steps, -1)).T.tolist(),
        np.ravel(bootstrap).tolist(),
        strict=True,
    ):
        for t in range(steps - 1, -1, -1):
            running = rew[t] + gamma * running * (1.0 - done[t])
            rew[t] = running  # the return overwrites its spent reward
        columns.append(rew)
    return np.array(columns, dtype=np.float64).T.reshape(np.shape(rewards))


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
        self._attach_env(env)
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

    # ------------------------------------------------------------------
    def act(self, obs: np.ndarray) -> int:
        return int(self.act_batch(obs[None, :])[0])

    def act_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        """Sample actions for a batch of observations (one net forward).

        Per-row softmax and rng draws run in env index order; one row
        consumes the rng stream exactly as a scalar draw does.
        """
        return np.array(self._choose(obs_batch), dtype=np.int64)

    def _choose(self, obs_batch: np.ndarray) -> list:
        """:meth:`act_batch` as a list of ints, the form the rollout hands
        each env."""
        rng, actions = self.rng, []
        for logits in self.container.policy.infer(obs_batch):
            logits = logits - logits.max()
            probs = np.exp(logits)
            probs /= probs.sum()
            actions.append(sample_index(rng, probs))
        return actions

    def _bootstrap_values(self, obs_batch: np.ndarray) -> np.ndarray:
        return self.container.value.infer(obs_batch)[:, 0]

    def _collect_rollout(self):
        """``rollout_steps`` steps of every env: the time-major states and
        actions, and each step's discounted return."""
        rollout = self._rollout(self.rollout_steps, self._choose)
        shape = (self.rollout_steps, self.vec_env.num_envs)
        returns = discounted_returns(
            rollout.rewards.reshape(shape),
            rollout.dones.reshape(shape),
            self._bootstrap_values(rollout.last_observations),
            self.gamma,
        )
        return rollout.states, rollout.actions, returns.reshape(-1)

    def compute_gradient(self) -> np.ndarray:
        states, actions, returns = self._collect_rollout()
        fused_a2c_grad(
            self.container.policy,
            self.container.value,
            states,
            actions,
            returns,
            self.value_coef,
            self.entropy_coef,
        )
        return self.gradient_vector()
