"""A synthetic workload for benchmarking the simulator itself.

The paper workloads (DQN/A2C/PPO/DDPG) spend most of their wall-clock
time in real NumPy training math, which is exactly right for convergence
experiments but wrong for measuring *simulator* performance: the netsim
event loop, link transmitters and the aggregation accelerator disappear
into the noise behind rollouts and backprop.

:class:`SyntheticAlgorithm` keeps the full Algorithm contract (flat
float32 gradients out, averaged updates in, bit-reproducible weights for
a fixed seed) while reducing LGC to one seeded ``Generator`` draw per
iteration.  The draw is cheap but not free: on a 2-vCPU x86 host one
:data:`SYNTH_N_PARAMS` draw takes ~0.3 ms and one paper-size (1,680,672
float) draw ~25 ms, which made the draws the largest single cost of the
paper-size benchmark.  The reference benchmark (``benchmarks/perf``) runs
every strategy on it so that what gets timed is the per-packet and
per-event cost of the simulation itself, which is what the hot-path
optimizations target.

The replicas of one cluster share a :class:`_StreamGroup`.  A replica
that asks for its next gradient with no draw pending starts the next
draw of every other idle stream in the group on a per-process thread
pool, then draws its own; the pool fills caller-allocated buffers
(``Generator`` releases the GIL while it fills), so a cluster's N draws
run on the host's cores at once, as the paper's N workers compute at
once.  Each stream still draws strictly in order, so every gradient is
byte-identical to an inline draw (DESIGN §14.1).

Sized so one gradient is exactly :data:`SYNTH_N_PARAMS` float32 values =
64 full wire segments (the benchmark's unit of accelerator work).
"""

from __future__ import annotations

import copy
import os
from typing import List, Optional

import numpy as np

from .base import Algorithm

__all__ = ["SyntheticAlgorithm", "SYNTH_N_PARAMS"]

#: 64 segments × 366 floats: the gradient fills MAX_CHUNKS packet trains
#: end to end, so every simulated transfer exercises the full per-packet
#: pipeline (client split → link → accelerator → broadcast → reassembly).
SYNTH_N_PARAMS = 64 * 366

#: Shortest stream a group draws on the pool.  Four streams on two cores
#: break even near 8,192 floats: 1,464 floats ran 1.6x slower pooled
#: (the thread hand-off dominates), 23,424 floats 1.2-1.6x faster
#: (DESIGN §14.1).
POOL_MIN_PARAMS = 8192

#: ``apply_update`` works in float64 blocks of this many values, so an
#: update needs a small scratch array instead of a full-length temporary.
_UPDATE_BLOCK = 1 << 16

#: ``(pid, executor)``: made on first use, and again in a forked child,
#: which inherits the object but none of its threads.
_pool_of_process = None


def _pool():
    global _pool_of_process
    pid = os.getpid()
    if _pool_of_process is None or _pool_of_process[0] != pid:
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(
            max_workers=_cpus(), thread_name_prefix="synth-draw"
        )
        _pool_of_process = (pid, executor)
    return _pool_of_process[1]


def _cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _StreamGroup:
    """The gradient streams of one cluster's replicas, one per worker seed.

    Holds each stream's ``Generator`` and at most one pending draw — never
    the algorithms, so a dropped cluster frees by refcount.  Draws of one
    stream happen strictly in order, whether inline or on the pool, so a
    stream's bytes do not depend on when its replica asks.
    """

    def __init__(self, n_params: int) -> None:
        self.n_params = n_params
        self._rngs: List[np.random.Generator] = []
        #: Per stream: ``(future, buffer)`` of its pending draw, or None.
        self._pending: List[Optional[tuple]] = []

    def add(self, seed: int) -> int:
        """A new stream seeded ``seed``; returns its index."""
        self._rngs.append(np.random.default_rng(seed))
        self._pending.append(None)
        return len(self._rngs) - 1

    def _pooled(self) -> bool:
        return (
            len(self._rngs) > 1
            and self.n_params >= POOL_MIN_PARAMS
            and _cpus() > 1
        )

    def next(self, stream: int) -> np.ndarray:
        """Stream ``stream``'s next draw: its pending one if it has one,
        else one drawn here, after the other idle streams' next draws
        have been started on the pool."""
        pending = self._pending[stream]
        if pending is not None:
            self._pending[stream] = None
            future, out = pending
            future.result()
            return out
        if not self._pooled():
            return self._rngs[stream].standard_normal(
                self.n_params, dtype=np.float32
            )
        # Every buffer is allocated on this thread, the asker's first:
        # pool threads' malloc arenas, or the asker's array allocated
        # after the others', raise peak RSS (DESIGN §14.1).
        own = np.empty(self.n_params, dtype=np.float32)
        pool = _pool()
        for index, rng in enumerate(self._rngs):
            if index != stream and self._pending[index] is None:
                out = np.empty(self.n_params, dtype=np.float32)
                self._pending[index] = (pool.submit(_fill, rng, [out]), out)
        return self._rngs[stream].standard_normal(dtype=np.float32, out=own)


def _fill(rng: np.random.Generator, cell: list) -> None:
    """Fill the buffer in ``cell`` from ``rng``, emptying the cell first:
    a finished pool task holds no reference to the gradient, so when the
    gradient is freed depends on the caller alone, not on thread timing."""
    rng.standard_normal(dtype=np.float32, out=cell.pop())


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
        self._group = _StreamGroup(n_params)
        self._stream = self._group.add(seed)
        self.updates_applied = 0
        self.episode_rewards: List[float] = []
        self._current_episode_reward = 0.0

    def replica(self, seed: int) -> "SyntheticAlgorithm":
        """A peer on its own gradient stream, in this replica's stream
        group, that *copies* this untrained replica's weights: the shared
        ``init_seed`` draw is identical on every replica, so a cluster
        makes it once."""
        if self.updates_applied:
            raise ValueError("replicas are cut from an untrained algorithm")
        twin = copy.copy(self)
        twin._weights = self._weights.copy()
        twin._stream = self._group.add(seed)
        twin.episode_rewards = []
        return twin

    # ------------------------------------------------------------------
    # The three-stage interface
    # ------------------------------------------------------------------
    def compute_gradient(self) -> np.ndarray:
        gradient = self._group.next(self._stream)
        # A token reward stream so result summaries stay well-formed.
        self._track_reward(float(gradient[0]), done=True)
        return gradient

    def _track_reward(self, reward: float, done: bool) -> None:
        self._current_episode_reward += reward
        if done:
            self.episode_rewards.append(self._current_episode_reward)
            self._current_episode_reward = 0.0

    def apply_update(self, mean_gradient: np.ndarray) -> None:
        # weights -= lr * float64(g), block by block: the same rounding
        # per element as the whole-vector expression, without its
        # full-length float64 temporary.
        gradient = np.asarray(mean_gradient)
        weights = self._weights
        scratch = np.empty(min(weights.size, _UPDATE_BLOCK))
        for start in range(0, weights.size, _UPDATE_BLOCK):
            block = weights[start : start + _UPDATE_BLOCK]
            step = scratch[: block.size]
            step[...] = gradient[start : start + _UPDATE_BLOCK]
            step *= self.lr
            block -= step
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
