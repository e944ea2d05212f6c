"""A synthetic workload for benchmarking the simulator itself.

The paper workloads (DQN/A2C/PPO/DDPG) spend most of their wall-clock
time in real NumPy training math, which is exactly right for convergence
experiments but wrong for measuring *simulator* performance: the netsim
event loop, link transmitters and the aggregation accelerator disappear
into the noise behind rollouts and backprop.

:class:`SyntheticAlgorithm` keeps the full Algorithm contract (flat
float32 gradients out, averaged updates in, bit-reproducible weights for
a fixed seed) while making LGC nearly free — one seeded ``Generator``
draw per iteration.  The reference benchmark (``benchmarks/perf``) runs
every strategy on it so that what gets timed is the per-packet and
per-event cost of the simulation itself, which is what the hot-path
optimizations target.

Sized so one gradient is exactly :data:`SYNTH_N_PARAMS` float32 values =
64 full wire segments (the benchmark's unit of accelerator work).
"""

from __future__ import annotations

import copy
from typing import List

import numpy as np

from .base import Algorithm

__all__ = ["SyntheticAlgorithm", "SYNTH_N_PARAMS"]

#: 64 segments × 366 floats: the gradient fills MAX_CHUNKS packet trains
#: end to end, so every simulated transfer exercises the full per-packet
#: pipeline (client split → link → accelerator → broadcast → reassembly).
SYNTH_N_PARAMS = 64 * 366


class SyntheticAlgorithm(Algorithm):
    """Deterministic stand-in training state with O(n) per-iteration cost.

    The "gradient" is a fresh draw from the worker's seeded RNG; the
    update rule is plain SGD on a flat weight vector.  Replicas share
    ``init_seed`` (identical initial weights) and diverge only through
    their per-worker ``seed`` — the same determinism contract the real
    algorithms honour, so golden weight hashes work here too.
    """

    name = "synth"

    def __init__(
        self,
        env=None,
        seed: int = 0,
        init_seed: int = 12345,
        n_params: int = SYNTH_N_PARAMS,
        lr: float = 1e-3,
    ) -> None:
        if n_params < 1:
            raise ValueError(f"n_params must be >= 1, got {n_params}")
        # No Module container: the whole model is one flat vector, so
        # every container-touching base method is overridden below.
        self._n_params = n_params
        self.lr = lr
        init_rng = np.random.default_rng(init_seed)
        self._weights = init_rng.standard_normal(n_params)
        self._rng = np.random.default_rng(seed)
        self.updates_applied = 0
        self.episode_rewards: List[float] = []
        self._current_episode_reward = 0.0

    def replica(self, seed: int) -> "SyntheticAlgorithm":
        """A peer on its own gradient stream that *copies* this untrained
        replica's weights: the shared ``init_seed`` draw is identical on
        every replica, so a cluster makes it once."""
        if self.updates_applied:
            raise ValueError("replicas are cut from an untrained algorithm")
        twin = copy.copy(self)
        twin._weights = self._weights.copy()
        twin._rng = np.random.default_rng(seed)
        twin.episode_rewards = []
        return twin

    # ------------------------------------------------------------------
    # The three-stage interface
    # ------------------------------------------------------------------
    def compute_gradient(self) -> np.ndarray:
        gradient = self._rng.standard_normal(self._n_params, dtype=np.float32)
        # A token reward stream so result summaries stay well-formed.
        self._track_reward(float(gradient[0]), done=True)
        return gradient

    def _track_reward(self, reward: float, done: bool) -> None:
        self._current_episode_reward += reward
        if done:
            self.episode_rewards.append(self._current_episode_reward)
            self._current_episode_reward = 0.0

    def apply_update(self, mean_gradient: np.ndarray) -> None:
        self._weights -= self.lr * np.asarray(mean_gradient, dtype=np.float64)
        self.updates_applied += 1

    # ------------------------------------------------------------------
    # Weight exchange
    # ------------------------------------------------------------------
    @property
    def n_params(self) -> int:
        return self._n_params

    def get_weights(self) -> np.ndarray:
        return self._weights.copy()

    def set_weights(self, vector: np.ndarray) -> None:
        self._weights[...] = np.asarray(vector, dtype=np.float64)

    def gradient_vector(self) -> np.ndarray:  # pragma: no cover - unused
        return np.zeros(self._n_params, dtype=np.float32)
