"""Experience replay buffer (DQN and DDPG).

``ReplayBuffer`` is a preallocated ring: one contiguous storage array per
field, written row-by-row at a cursor, sampled with a single vectorized
rng draw plus one fancy-index gather per field.  A per-transition
list-of-NamedTuples buffer lives in ``tests/oracles.py`` as the
reference; the ring is pinned bit-identical to it — same rng stream,
same sampled batches — by ``tests/test_compute_parity.py`` and the
property suite in ``tests/test_replay.py``.

Two contracts the ring keeps exactly (DESIGN.md §13):

* **rng stream** — ``sample()`` draws
  ``rng.choice(len, size, replace=batch_size > len)`` verbatim.
  ``rng.integers`` would be marginally cheaper but produces a different
  stream, which would silently move every seeded DQN/DDPG run.
* **storage dtype** — fields keep the dtype of the first transition
  pushed (the envs emit float64 observations).  Downcasting storage to
  float32 would round observations and move every seeded run.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

__all__ = ["Transition", "Batch", "ReplayBuffer", "make_replay_buffer"]


class Transition(NamedTuple):
    """One (s, a, r, s', done) tuple; ``action`` is an int or a vector."""

    state: np.ndarray
    action: object
    reward: float
    next_state: np.ndarray
    done: bool


class Batch(NamedTuple):
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray


class ReplayBuffer:
    """A fixed-capacity ring buffer with uniform random sampling.

    Storage is allocated lazily from the first transition (its shapes
    and dtypes fix the row layout); ``push`` writes rows at a wrapping
    cursor and ``sample`` is one rng draw plus five gathers.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = rng
        self._cursor = 0
        self._size = 0
        self._states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._dones: np.ndarray | None = None

    def _allocate(self, transition: Transition) -> None:
        state = np.asarray(transition.state)
        action = np.asarray(transition.action)
        self._states = np.empty((self.capacity, *state.shape), dtype=state.dtype)
        self._actions = np.empty((self.capacity, *action.shape), dtype=action.dtype)
        self._rewards = np.empty(self.capacity, dtype=np.float64)
        self._next_states = np.empty_like(self._states)
        self._dones = np.empty(self.capacity, dtype=np.float64)

    def push(self, transition: Transition) -> None:
        if self._states is None:
            self._allocate(transition)
        cursor = self._cursor
        self._states[cursor] = transition.state
        self._actions[cursor] = transition.action
        self._rewards[cursor] = transition.reward
        self._next_states[cursor] = transition.next_state
        self._dones[cursor] = transition.done
        self._cursor = (cursor + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def push_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Push ``n`` transitions at once (row ``i`` before row ``i+1``).

        Equivalent to ``n`` sequential :meth:`push` calls; DQN and DDPG
        push a whole rollout at once, in one contiguous slice write per
        field (two where it wraps).
        """
        n = len(states)
        if n == 0:
            return
        if self._states is None:
            self._allocate(
                Transition(states[0], actions[0], rewards[0], next_states[0], dones[0])
            )
        if n >= self.capacity:
            # Degenerate: later rows overwrite earlier ones; keep the
            # sequential semantics via the scalar path.
            for i in range(n):
                self.push(
                    Transition(states[i], actions[i], rewards[i], next_states[i], dones[i])
                )
            return
        cursor = self._cursor
        stop = cursor + n
        if stop > self.capacity:  # wraps: fill to the end, then from 0
            head = self.capacity - cursor
            self.push_batch(
                states[:head], actions[:head], rewards[:head],
                next_states[:head], dones[:head],
            )
            self.push_batch(
                states[head:], actions[head:], rewards[head:],
                next_states[head:], dones[head:],
            )
            return
        self._states[cursor:stop] = states
        self._actions[cursor:stop] = actions
        self._rewards[cursor:stop] = rewards
        self._next_states[cursor:stop] = next_states
        self._dones[cursor:stop] = dones
        self._cursor = stop % self.capacity
        self._size = min(self.capacity, self._size + n)

    def sample(self, batch_size: int) -> Batch:
        """Sample ``batch_size`` transitions uniformly (with replacement
        disabled when the buffer is large enough)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        replace = batch_size > self._size
        indices = self.rng.choice(self._size, size=batch_size, replace=replace)
        return Batch(
            states=self._states[indices],
            actions=self._actions[indices],
            rewards=self._rewards[indices],
            next_states=self._next_states[indices],
            dones=self._dones[indices],
        )

    @property
    def _storage(self) -> List[Transition]:
        """Occupied slots as Transitions, in slot order (debug/tests)."""
        if self._states is None:
            return []
        out = []
        for i in range(self._size):
            action = self._actions[i]
            out.append(
                Transition(
                    state=self._states[i],
                    action=action.item() if action.ndim == 0 else action,
                    reward=float(self._rewards[i]),
                    next_state=self._next_states[i],
                    done=bool(self._dones[i]),
                )
            )
        return out

    def __len__(self) -> int:
        return self._size


def make_replay_buffer(capacity: int, rng: np.random.Generator) -> ReplayBuffer:
    """The replay buffer DQN and DDPG train from (one construction site,
    which ``benchmarks/perf`` wraps with its tracer)."""
    return ReplayBuffer(capacity, rng)
