"""DQN (Mnih et al., 2013/2015) — the paper's flagship workload.

Standard ingredients: an MLP Q-network, a periodically synced target
network, an ε-greedy behaviour policy with linear decay, uniform
experience replay, and the Huber TD loss.  One *iteration* (one
``compute_gradient`` call) takes ``env_steps_per_iter`` environment steps
and produces one minibatch gradient — matching the paper's accounting
where DQN runs millions of small-iteration updates.

Extensions beyond the 2015 recipe (both off by default):

* ``double_dqn`` — Double DQN (van Hasselt et al., 2016): the online
  network selects the bootstrap action, the target network evaluates it,
  removing the max-operator overestimation bias.
* ``n_step > 1`` — n-step TD targets: transitions entering the replay
  buffer carry the discounted sum of the next n rewards and bootstrap
  from the state n steps ahead.

Gradient-free forwards go through ``Sequential.infer`` (raw NumPy, no
tape), the trained update is one closed-form fused forward+backward over
the whole MLP → gather → Huber graph (``fused_qnet_grad``, pinned
against the autograd tape in ``tests/test_compute_parity.py``), replay
is the ring buffer, and the scalar n-step fold is one vectorized array
update (DESIGN.md §13).  Passing a :class:`~repro.rl.envs.vector.VectorEnv`
steps K environments per call with one batched ``act``; with K = 1 the
batched path consumes the same rng stream as scalar stepping and
reproduces it bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..nn import Adam, fused_qnet_grad, mlp, td_targets
from ..nn.layers import Module
from ..nn.serialize import flatten_params, load_flat_params
from .base import Algorithm
from .envs.base import Environment
from .envs.vector import VectorEnv
from .replay import Transition, make_replay_buffer
from .spaces import Discrete

__all__ = ["DQN"]


class _QContainer(Module):
    """Holds the online Q-network (the only *trained* parameters)."""

    def __init__(self, q_net) -> None:
        super().__init__()
        self.q_net = q_net


class DQN(Algorithm):
    name = "dqn"

    def __init__(
        self,
        env: Environment,
        hidden=(64, 64),
        lr: float = 1e-3,
        gamma: float = 0.99,
        batch_size: int = 32,
        buffer_capacity: int = 20_000,
        warmup: int = 500,
        target_sync_every: int = 100,
        env_steps_per_iter: int = 4,
        epsilon_start: float = 1.0,
        epsilon_final: float = 0.05,
        epsilon_decay_updates: int = 2_000,
        double_dqn: bool = False,
        n_step: int = 1,
        seed: Optional[int] = None,
        init_seed: Optional[int] = None,
    ) -> None:
        if not isinstance(env.action_space, Discrete):
            raise TypeError("DQN requires a discrete action space")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if n_step < 1:
            raise ValueError(f"n_step must be >= 1, got {n_step}")
        self.env = env
        self._venv = env if isinstance(env, VectorEnv) else None
        self.rng = np.random.default_rng(seed)
        self.gamma = gamma
        self.batch_size = batch_size
        self.warmup = max(warmup, batch_size)
        self.target_sync_every = target_sync_every
        self.env_steps_per_iter = env_steps_per_iter
        self.epsilon_start = epsilon_start
        self.epsilon_final = epsilon_final
        self.epsilon_decay_updates = epsilon_decay_updates
        self.double_dqn = double_dqn
        self.n_step = n_step
        self._pending: deque = deque()
        self._pending_per_env: Optional[list] = None
        # Same values a per-entry `gamma ** age` produces.
        self._gamma_powers = np.array([gamma**j for j in range(n_step)])
        self._pending_rewards = np.zeros(n_step)
        self._pending_ages = np.zeros(n_step, dtype=np.int64)
        self._pending_heads: list = []

        n_actions = env.action_space.n
        sizes = [env.observation_size, *hidden, n_actions]
        model_rng = np.random.default_rng(seed if init_seed is None else init_seed)
        q_net = mlp(sizes, rng=model_rng)
        super().__init__(_QContainer(q_net))
        self.q_net = q_net
        self.target_net = mlp(sizes, rng=np.random.default_rng(0))
        self._sync_target()
        self.optimizer = Adam(self.container.parameters(), lr=lr)
        self.buffer = make_replay_buffer(buffer_capacity, self.rng)
        self._obs = env.reset()

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Linearly decayed exploration rate, driven by applied updates so
        all strategies see the same schedule per weight version."""
        fraction = min(1.0, self.updates_applied / self.epsilon_decay_updates)
        return self.epsilon_start + fraction * (
            self.epsilon_final - self.epsilon_start
        )

    def act(self, obs: np.ndarray, greedy: bool = False) -> int:
        if not greedy and self.rng.random() < self.epsilon:
            return self.env.action_space.sample(self.rng)
        return int(np.argmax(self.q_net.infer(obs[None, :])[0]))

    def act_batch(self, obs_batch: np.ndarray, greedy: bool = False) -> np.ndarray:
        """ε-greedy actions for a batch of observations (one net forward).

        Exploration draws happen in env index order; with one row this
        consumes the rng stream exactly as :meth:`act` does.
        """
        k = len(obs_batch)
        actions = np.empty(k, dtype=np.int64)
        if greedy:
            explore = np.zeros(k, dtype=bool)
        else:
            explore = self.rng.random(k) < self.epsilon
            for i in np.nonzero(explore)[0]:
                actions[i] = self.env.action_space.sample(self.rng)
        exploit = np.nonzero(~explore)[0]
        if exploit.size:
            q_values = self.q_net.infer(obs_batch[exploit])
            actions[exploit] = np.argmax(q_values, axis=1)
        return actions

    def _env_steps(self) -> None:
        """Fill replay to ``warmup``, then ``env_steps_per_iter`` more steps."""
        env_step, buffer, one_step = self.env.step, self.buffer, self.n_step == 1
        if self._venv is not None:
            act_batch, track = self.act_batch, self._track_rewards_batch

            def step(obs):
                actions = act_batch(obs)
                next_obs, rewards, dones, infos = env_step(actions)
                # Replay must see the terminal observation, not the autoreset one.
                bootstrap_obs = next_obs
                done_rows = np.nonzero(dones)[0]
                if done_rows.size:
                    bootstrap_obs = next_obs.copy()
                    for i in done_rows:
                        bootstrap_obs[i] = infos[i]["terminal_observation"]
                if one_step:
                    buffer.push_batch(obs, actions, rewards, bootstrap_obs, dones)
                else:
                    if self._pending_per_env is None:
                        self._pending_per_env = [deque() for _ in range(len(actions))]
                    for i in range(len(actions)):
                        self._accumulate_n_step(
                            np.array(obs[i]),
                            int(actions[i]),
                            float(rewards[i]),
                            np.array(bootstrap_obs[i]),
                            bool(dones[i]),
                            pending=self._pending_per_env[i],
                        )
                track(rewards, dones)
                return next_obs
        else:
            act, reset, track = self.act, self.env.reset, self._track_reward
            push, fold = buffer.push, self._accumulate_n_step_fast

            def step(obs):
                action = act(obs)
                next_obs, reward, done, _ = env_step(action)
                if one_step:
                    push(Transition(obs, action, reward, next_obs, done))
                else:
                    fold(obs, action, reward, next_obs, done)
                track(reward, done)
                return reset() if done else next_obs

        obs = self._obs
        while len(buffer) < self.warmup:
            obs = step(obs)
        for _ in range(self.env_steps_per_iter):
            obs = step(obs)
        self._obs = obs

    def _accumulate_n_step(
        self, obs, action, reward, next_obs, done, pending: Optional[deque] = None
    ) -> None:
        """Fold the newest step into pending n-step transitions.

        A pending transition matures when it has absorbed ``n_step``
        rewards (bootstrapping from the state n steps ahead) or when the
        episode ends (no bootstrap left to wait for).
        """
        if pending is None:
            pending = self._pending
        pending.append([obs, action, 0.0, next_obs, done, 0])
        for entry in pending:
            entry[2] += reward * (self.gamma ** entry[5])
            entry[3] = next_obs
            entry[4] = done
            entry[5] += 1
        while pending and (pending[0][5] >= self.n_step or done):
            first = pending.popleft()
            self.buffer.push(
                Transition(first[0], first[1], first[2], first[3], first[4])
            )

    def _accumulate_n_step_fast(self, obs, action, reward, next_obs, done) -> None:
        """Array-based n-step fold, bit-identical to :meth:`_accumulate_n_step`.

        Pending (state, action) heads sit in a list; their reward
        accumulators and ages live in two fixed arrays (at most
        ``n_step`` entries are ever pending), so the per-step fold is one
        vectorized multiply-add instead of a Python loop.  The mature
        next_state/done are taken from the current step — exactly what
        the per-entry rewrite there leaves in place at pop time.
        """
        heads = self._pending_heads
        count = len(heads)
        heads.append((obs, action))
        self._pending_rewards[count] = 0.0
        self._pending_ages[count] = 0
        count += 1
        self._pending_rewards[:count] += (
            reward * self._gamma_powers[self._pending_ages[:count]]
        )
        self._pending_ages[:count] += 1
        mature = count if done else np.searchsorted(
            -self._pending_ages[:count], -self.n_step, side="right"
        )
        if mature:
            for j in range(mature):
                head_obs, head_action = heads[j]
                self.buffer.push(
                    Transition(
                        head_obs,
                        head_action,
                        float(self._pending_rewards[j]),
                        next_obs,
                        done,
                    )
                )
            del heads[:mature]
            remaining = count - mature
            self._pending_rewards[:remaining] = self._pending_rewards[mature:count]
            self._pending_ages[:remaining] = self._pending_ages[mature:count]

    # ------------------------------------------------------------------
    # The LGC stage
    # ------------------------------------------------------------------
    def compute_gradient(self) -> np.ndarray:
        self._env_steps()

        batch = self.buffer.sample(self.batch_size)
        next_q = self.target_net.infer(batch.next_states)
        if self.double_dqn:
            # Online net selects, target net evaluates.
            online_next = self.q_net.infer(batch.next_states)
            best = np.argmax(online_next, axis=1)
            bootstrap = next_q[np.arange(len(best)), best]
        else:
            bootstrap = next_q.max(axis=1)
        # n-step transitions already carry the discounted reward sum; the
        # bootstrap therefore discounts by gamma^n.
        discount = self.gamma**self.n_step

        # Closed-form fused forward+backward over the whole graph — no
        # tape nodes at all (DESIGN.md §13).
        fused_qnet_grad(
            self.q_net,
            batch.states,
            batch.actions,
            td_targets(batch.rewards, bootstrap, batch.dones, discount),
        )
        return self.gradient_vector()

    # ------------------------------------------------------------------
    # The LWU stage
    # ------------------------------------------------------------------
    def _after_update(self) -> None:
        if self.updates_applied % self.target_sync_every == 0:
            self._sync_target()

    def on_weights_pulled(self, server_updates: int) -> None:
        # Re-sync the target on the same update cadence the server follows,
        # driving the ε schedule from the server's progress.
        previous = self.updates_applied
        super().on_weights_pulled(server_updates)
        if server_updates // self.target_sync_every > previous // self.target_sync_every:
            self._sync_target()

    def _sync_target(self) -> None:
        load_flat_params(self.target_net, flatten_params(self.q_net))

    def sync_target_now(self) -> None:
        """Explicit target refresh (used by async PS workers on pull)."""
        self._sync_target()
