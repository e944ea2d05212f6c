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
is the ring buffer (DESIGN.md §13).  The rollout steps a
:class:`~repro.rl.envs.vector.VectorEnv` — K environments per call with
one batched ``act`` — and a bare env as ``VectorEnv([env])``, which
consumes the same rng stream as the scalar loop in ``tests/oracles.py``
and reproduces it bit-for-bit.
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
        self._attach_env(env)
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
        #: Per env, the transitions still absorbing n-step rewards.
        self._pending = [deque() for _ in range(self.vec_env.num_envs)]

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
        return int(self.act_batch(obs[None, :], greedy)[0])

    def act_batch(self, obs_batch: np.ndarray, greedy: bool = False) -> np.ndarray:
        """ε-greedy actions for a batch of observations (one net forward).

        The K exploration uniforms are drawn first, then one random action
        per exploring row in env index order; one row consumes the rng
        stream exactly as a scalar ε-greedy step does.
        """
        policy = self._policy(None if greedy else self.epsilon)
        return np.array(policy(obs_batch), dtype=np.int64)

    def _policy(self, epsilon):
        """:meth:`act_batch` at one ε (None: greedy, nothing drawn), as a
        function of the observations returning a list of ints — the form
        the rollout hands each env, built once per rollout."""
        rng, sample, q_net = self.rng, self.env.action_space.sample, self.q_net

        def choose(obs_batch):
            k = len(obs_batch)
            if epsilon is None:
                actions = [-1] * k
            else:
                actions = []
                for u in rng.random(k).tolist():
                    actions.append(sample(rng) if u < epsilon else -1)
            if -1 in actions:  # the rows that act greedily
                rows = [i for i, action in enumerate(actions) if action < 0]
                q_values = q_net.infer(obs_batch if len(rows) == k else obs_batch[rows])
                for i, action in zip(rows, np.argmax(q_values, axis=1).tolist()):
                    actions[i] = action
            return actions

        return choose

    def _env_steps(self) -> None:
        """Fill replay to ``warmup``, then ``env_steps_per_iter`` more steps."""
        self._replay_steps(self._policy(self.epsilon), n_step=self.n_step)

    def _push(self, rollout) -> None:
        if self.n_step == 1:
            self.buffer.push_batch(*rollout.transitions())
            return
        states, actions, rewards, next_states, dones = rollout.transitions()
        num_envs = self.vec_env.num_envs
        rows = zip(
            states, actions.tolist(), rewards.tolist(), next_states, dones.tolist()
        )
        for row, transition in enumerate(rows):
            self._accumulate_n_step(*transition, env=row % num_envs)

    def _accumulate_n_step(
        self, obs, action, reward, next_obs, done, env: int = 0
    ) -> None:
        """Fold env ``env``'s newest step into its pending n-step transitions.

        A pending transition matures when it has absorbed ``n_step``
        rewards (bootstrapping from the state n steps ahead) or when the
        episode ends (no bootstrap left to wait for).
        """
        pending = self._pending[env]
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
