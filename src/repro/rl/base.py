"""The uniform interface distributed training drives RL algorithms through.

The paper's three-stage decomposition of a training iteration (§4.1) maps
directly onto this interface:

* **LGC** (local gradient computing) — :meth:`Algorithm.compute_gradient`:
  interact with the environment, collect trajectory/replay data, run
  forward+backward, and return the flat float32 gradient vector that goes
  on the wire.
* **GA** (gradient aggregation) — performed *outside* the algorithm by a
  strategy in :mod:`repro.distributed` (parameter server, Ring-AllReduce,
  or the iSwitch accelerator).
* **LWU** (local weight update) — :meth:`Algorithm.apply_update`: load the
  aggregated gradient (already divided by the contributor count H) and
  take one optimizer step.

Determinism contract: given identical initial weights and an identical
sequence of ``apply_update`` calls, every replica ends with bit-identical
weights — the property the paper's *decentralized weight storage* relies
on ("since we initialize the same model weights among all workers, and
also broadcast the same aggregated gradients, the decentralized storage of
weights are always agreed over iterations").
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..nn.layers import Module
from ..nn.serialize import flatten_grads_into, flatten_params, load_flat_params
from .envs.vector import Rollout, VectorEnv

__all__ = ["Algorithm"]


class Algorithm:
    """Base class for DQN / A2C / PPO / DDPG."""

    #: Human-readable name used by profiles and reports.
    name: str = "base"

    def __init__(self, container: Module) -> None:
        #: Single module holding *all* learnable parameters (policy, value,
        #: critics, ...) so one flat vector covers the whole model.
        self.container = container
        #: ``container.parameters()``, walked once: containers are fixed
        #: after construction, and every per-iteration flatten / load goes
        #: through this list instead of recursing over the module tree.
        self._params = container.parameters()
        self.updates_applied = 0
        self.episode_rewards: List[float] = []
        self._flat_plan = None  # lazily built; list attr, not cloned by resync

    # ------------------------------------------------------------------
    # The three-stage interface
    # ------------------------------------------------------------------
    def compute_gradient(self) -> np.ndarray:
        """Run one LGC iteration and return the flat float32 gradient."""
        raise NotImplementedError

    def apply_update(self, mean_gradient: np.ndarray) -> None:
        """Apply one aggregated (already averaged) gradient — the LWU stage.

        Takes the vector as float64 (a cast only if it is not already:
        the strategies deliver float64, possibly shared and read-only)
        and hands each optimizer its flat slice (``step_flat``, which
        only reads it) — no per-parameter ``.grad`` scatter, no per-layer
        intermediates.
        """
        if self._flat_plan is None:
            self._flat_plan = self._build_flat_plan()
        flat = np.asarray(mean_gradient).astype(np.float64, copy=False)
        for optimizer, start, stop in self._flat_plan:
            optimizer.step_flat(flat[start:stop])
        self.updates_applied += 1
        self._after_update()

    def _build_flat_plan(self):
        """``(optimizer, start, stop)`` slices covering the flat vector.

        Collects this algorithm's optimizers in attribute order; laid end
        to end they must cover ``container.parameters()`` exactly (same
        objects, same order), as all four built-in algorithms do.
        """
        from ..nn.optim import Optimizer

        optimizers = [v for v in vars(self).values() if isinstance(v, Optimizer)]
        stepped = [id(p) for opt in optimizers for p in opt.params]
        if stepped != [id(p) for p in self._params]:
            raise TypeError(
                f"{type(self).__name__}: the optimizer attributes, in order, "
                "must cover container.parameters() exactly"
            )
        plan, start = [], 0
        for opt in optimizers:
            stop = start + sum(p.size for p in opt.params)
            plan.append((opt, start, stop))
            start = stop
        return plan

    def _after_update(self) -> None:
        """Hook: target-network syncs etc.  Default: nothing."""

    # ------------------------------------------------------------------
    # The rollout env
    # ------------------------------------------------------------------
    def _attach_env(self, env) -> None:
        """Keep the caller's env as ``self.env``, roll out through one
        :class:`VectorEnv`, ``self.vec_env``, and reset it.  A bare env is
        stepped as ``VectorEnv([env])``, the sequential reference, which
        steps that same env object.  Every algorithm has this one rollout
        path; the scalar loops it replaced are the oracle in
        ``tests/oracles.py``.
        """
        self.env = env
        self.vec_env = env if isinstance(env, VectorEnv) else VectorEnv([env])
        self._obs = self.vec_env.reset()

    def _rollout(self, steps: int, act, on_episode_end=None) -> Rollout:
        """``steps`` steps of every env from where the last rollout ended
        (:meth:`VectorEnv.rollout`), with the episodes they finish
        recorded in :attr:`episode_rewards`."""
        rollout = self.vec_env.rollout(self._obs, act, steps, on_episode_end)
        self._obs = rollout.last_observations
        self.episode_rewards.extend(rollout.episode_returns)
        return rollout

    def _replay_steps(self, act, on_episode_end=None, n_step: int = 1) -> None:
        """The replay algorithms' (DQN, DDPG) rollout: fill ``self.buffer``
        to ``self.warmup``, then ``self.env_steps_per_iter`` more steps.

        One step pushes at most ``n_step`` transitions per env (an episode
        end flushes an env's pending n-step ones), so each fill rollout is
        as long as cannot overshoot: the fill takes exactly the steps a
        step-by-step ``while len(buffer) < warmup`` loop takes.
        """
        most = n_step * self.vec_env.num_envs
        while len(self.buffer) < self.warmup:
            steps = max(1, (self.warmup - len(self.buffer)) // most)
            self._push(self._rollout(steps, act, on_episode_end))
        self._push(self._rollout(self.env_steps_per_iter, act, on_episode_end))

    def _push(self, rollout: Rollout) -> None:
        """Push a rollout's transitions to replay, in step order."""
        self.buffer.push_batch(*rollout.transitions())

    # ------------------------------------------------------------------
    # Weight exchange (parameter-server pulls)
    # ------------------------------------------------------------------
    @property
    def n_params(self) -> int:
        return self.container.n_parameters

    @property
    def wire_bytes(self) -> int:
        """Bytes of one gradient/weight vector on the wire (float32)."""
        return self.n_params * 4

    def get_weights(self) -> np.ndarray:
        return flatten_params(self._params)

    def set_weights(self, vector: np.ndarray) -> None:
        load_flat_params(self._params, np.asarray(vector))
        self._after_set_weights()

    def _after_set_weights(self) -> None:
        """Hook for refreshing derived state after a weight overwrite."""

    def on_weights_pulled(self, server_updates: int) -> None:
        """Hook for async parameter-server workers after a weight pull.

        ``server_updates`` is the server's update counter; algorithms with
        derived state (ε schedules, target networks) refresh it here so
        replicas stay in step with the server's training progress.
        """
        self.updates_applied = server_updates

    def gradient_vector(self) -> np.ndarray:
        return flatten_grads_into(self._params)

    # ------------------------------------------------------------------
    # Reward accounting
    # ------------------------------------------------------------------
    def final_average_reward(self, last: int = 10) -> float:
        """The paper's metric: episode reward averaged over the last 10
        completed episodes (§5.2)."""
        if not self.episode_rewards:
            return float("-inf")
        window = self.episode_rewards[-last:]
        return float(np.mean(window))
