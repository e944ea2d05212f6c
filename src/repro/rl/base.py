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
        self._current_episode_reward = 0.0
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
    def _track_reward(self, reward: float, done: bool) -> None:
        self._current_episode_reward += reward
        if done:
            self.episode_rewards.append(self._current_episode_reward)
            self._current_episode_reward = 0.0

    def _track_rewards_batch(self, rewards: np.ndarray, dones: np.ndarray) -> None:
        """Per-env episode accounting for vectorized rollouts (env order)."""
        acc = getattr(self, "_episode_acc", None)
        if acc is None or len(acc) != len(rewards):
            acc = self._episode_acc = np.zeros(len(rewards))
        acc += rewards
        for i in np.nonzero(dones)[0]:
            self.episode_rewards.append(float(acc[i]))
            acc[i] = 0.0

    def final_average_reward(self, last: int = 10) -> float:
        """The paper's metric: episode reward averaged over the last 10
        completed episodes (§5.2)."""
        if not self.episode_rewards:
            return float("-inf")
        window = self.episode_rewards[-last:]
        return float(np.mean(window))
