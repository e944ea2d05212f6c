"""PPO with a clipped surrogate objective (Schulman et al., 2017).

The policy is a diagonal Gaussian over continuous actions: an MLP outputs
the mean, and a state-independent learnable ``log_std`` vector sets the
spread — the architecture the paper's reference implementation
(pytorch-a2c-ppo-acktr) uses for MuJoCo.

With ``epochs=1`` (the default) each ``compute_gradient`` call collects a
fresh on-policy rollout, computes GAE(λ) advantages, and returns the
gradient of the clipped surrogate over the whole batch.  With
``epochs > 1`` (classic PPO) the rollout is reused: the next ``epochs−1``
calls return surrogate gradients against the *same* stored rollout and
old-policy log-probabilities — each still one gradient per distributed
iteration, so the aggregation pattern is unchanged.

Acting, the rollout's values / bootstrap, and the old-policy log-probs
run as closed-form NumPy (mirroring the autograd expressions op for op),
and so does the surrogate gradient (``fused_ppo_grad``, pinned against
the autograd tape in ``tests/test_compute_parity.py``; DESIGN.md §13).
The rollout collects the K envs of a
:class:`~repro.rl.envs.vector.VectorEnv` per step (flattened
time-major); a bare env is stepped as ``VectorEnv([env])``, bit-for-bit
the scalar loop in ``tests/oracles.py`` on the same rng stream.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..nn import Adam, fused_ppo_grad, mlp
from ..nn.layers import Module, Parameter
from .base import Algorithm
from .envs.base import Environment
from .spaces import Box

__all__ = ["PPO", "GaussianActorCritic", "gae_advantages"]

_LOG_2PI = math.log(2.0 * math.pi)


class GaussianActorCritic(Module):
    """Gaussian policy (mean MLP + log_std vector) and a value MLP."""

    def __init__(self, obs_size: int, action_dim: int, hidden, rng) -> None:
        super().__init__()
        self.mean = mlp([obs_size, *hidden, action_dim], rng=rng, activation="tanh")
        self.log_std = Parameter(np.full(action_dim, -0.5), name="log_std")
        self.value = mlp([obs_size, *hidden, 1], rng=rng, activation="tanh")

    def log_prob(self, states, actions: np.ndarray):
        """Per-sample log π(a|s) as an autograd graph over a ``Tensor`` of
        states — the tape oracle ``fused_ppo_grad`` is pinned against;
        training never calls it.  Arrays and floats are lifted onto the
        tape by the ``Tensor`` operators."""
        mean = self.mean(states)
        std = self.log_std.exp()
        normalized = (actions - mean) / std
        per_dim = (
            -0.5 * (normalized * normalized) - self.log_std - 0.5 * _LOG_2PI
        )
        return per_dim.sum(axis=-1)

    def log_prob_infer(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gradient-free :meth:`log_prob`, same expressions in raw NumPy."""
        mean = self.mean.infer(states)
        log_std = self.log_std.data
        std = np.exp(log_std)
        normalized = (actions - mean) / std
        per_dim = -0.5 * (normalized * normalized) - log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=-1)

    def entropy(self):
        """Differential entropy of the diagonal Gaussian (state-free), as
        an autograd graph (tape oracle, like :meth:`log_prob`)."""
        return (self.log_std + 0.5 * (_LOG_2PI + 1.0)).sum()


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimation, GAE(γ, λ).

    Shapes as in :func:`~repro.rl.a2c.discounted_returns`: ``(T,)`` with a
    scalar ``bootstrap`` or ``(T, K)`` with one per env, each env's
    recursion on Python floats.
    """
    steps = len(rewards)
    columns = []
    for rew, val, done, next_value in zip(
        np.reshape(rewards, (steps, -1)).T.tolist(),
        np.reshape(values, (steps, -1)).T.tolist(),
        np.reshape(dones, (steps, -1)).T.tolist(),
        np.ravel(bootstrap).tolist(),
        strict=True,
    ):
        running = 0.0
        for t in range(steps - 1, -1, -1):
            not_done = 1.0 - done[t]
            delta = rew[t] + gamma * next_value * not_done - val[t]
            running = delta + gamma * lam * not_done * running
            rew[t] = running  # the advantage overwrites its spent reward
            next_value = val[t]
        columns.append(rew)
    return np.array(columns, dtype=np.float64).T.reshape(np.shape(rewards))


class PPO(Algorithm):
    name = "ppo"

    def __init__(
        self,
        env: Environment,
        hidden=(32, 32),
        lr: float = 3e-4,
        gamma: float = 0.99,
        lam: float = 0.95,
        rollout_steps: int = 64,
        clip_epsilon: float = 0.2,
        value_coef: float = 0.5,
        entropy_coef: float = 0.0,
        epochs: int = 1,
        seed: Optional[int] = None,
        init_seed: Optional[int] = None,
    ) -> None:
        if not isinstance(env.action_space, Box):
            raise TypeError("this PPO implementation targets continuous control")
        if not 0.0 < clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {clip_epsilon}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self._attach_env(env)
        self.rng = np.random.default_rng(seed)
        self.gamma = gamma
        self.lam = lam
        self.rollout_steps = rollout_steps
        self.clip_epsilon = clip_epsilon
        self.value_coef = value_coef
        self.entropy_coef = entropy_coef
        self.epochs = epochs
        self._stored_rollout = None
        self._epochs_used = 0

        container = GaussianActorCritic(
            env.observation_size,
            env.action_space.dim,
            hidden,
            rng=np.random.default_rng(seed if init_seed is None else init_seed),
        )
        super().__init__(container)
        self.optimizer = Adam(container.parameters(), lr=lr)

    # ------------------------------------------------------------------
    def _act(self, obs_batch: np.ndarray, std: np.ndarray) -> np.ndarray:
        """One mean-net forward and a Gaussian draw per row, clipped to the
        action box; ``std = exp(log_std)`` only moves with an update, so a
        rollout computes it once."""
        mean = self.container.mean.infer(obs_batch)
        actions = mean + std * self.rng.standard_normal(mean.shape)
        return self.env.action_space.clip(actions)

    def act(self, obs: np.ndarray) -> np.ndarray:
        return self.act_batch(obs[None, :])[0]

    def act_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        """Sample a batch of Gaussian actions (one mean-net forward).

        The (K, action_dim) noise draw consumes the rng stream row-major
        — with one row, exactly the scalar :meth:`act` draw.
        """
        return self._act(obs_batch, np.exp(self.container.log_std.data))

    def compute_gradient(self) -> np.ndarray:
        if self._stored_rollout is not None and self._epochs_used < self.epochs:
            self._epochs_used += 1
            return self._surrogate_gradient(*self._stored_rollout)
        rollout = self._collect_rollout()
        self._stored_rollout = rollout
        self._epochs_used = 1
        return self._surrogate_gradient(*rollout)

    def _state_values(self, states: np.ndarray) -> np.ndarray:
        return self.container.value.infer(states)[:, 0]

    def _collect_rollout(self):
        std = np.exp(self.container.log_std.data)  # fixed until the next update
        rollout = self._rollout(self.rollout_steps, lambda obs: self._act(obs, std))
        states, actions_arr = rollout.states, rollout.actions
        shape = (self.rollout_steps, self.vec_env.num_envs)
        rewards, dones = rollout.rewards.reshape(shape), rollout.dones.reshape(shape)
        values = self._state_values(states).reshape(shape)
        bootstrap = self._state_values(rollout.last_observations)

        old_log_probs = self.container.log_prob_infer(states, actions_arr).reshape(-1)
        advantages = gae_advantages(
            rewards, values, dones, bootstrap, self.gamma, self.lam
        )
        returns = (advantages + values).reshape(-1)
        advantages = advantages.reshape(-1)
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        return states, actions_arr, old_log_probs, advantages, returns

    def _surrogate_gradient(
        self, states, actions_arr, old_log_probs, advantages, returns
    ) -> np.ndarray:
        fused_ppo_grad(
            self.container.mean,
            self.container.log_std,
            self.container.value,
            states,
            actions_arr,
            old_log_probs,
            advantages,
            returns,
            self.clip_epsilon,
            self.value_coef,
            self.entropy_coef,
        )
        return self.gradient_vector()
