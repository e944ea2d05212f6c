"""Test-only reference implementations (oracles) for the compute tier.

These are the straightforward versions of what ``src/`` implements with
preallocated rings and fused in-place math: a list-of-tuples replay buffer
and textbook per-parameter optimizer steps.  They used to live in ``src/``
as the "legacy" compute path; the differential suites
(``test_compute_parity.py``, ``test_replay.py``) pin the production code
bit-for-bit against them.
"""

import numpy as np

from repro.rl.replay import Batch, Transition


class LegacyReplayBuffer:
    """A list of NamedTuples with Python-loop stacking on ``sample``."""

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = rng
        self._storage: list = []
        self._cursor = 0

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int) -> Batch:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not self._storage:
            raise ValueError("cannot sample from an empty replay buffer")
        replace = batch_size > len(self._storage)
        indices = self.rng.choice(len(self._storage), size=batch_size, replace=replace)
        transitions = [self._storage[i] for i in indices]
        return Batch(
            states=np.stack([t.state for t in transitions]),
            actions=np.asarray([t.action for t in transitions]),
            rewards=np.asarray([t.reward for t in transitions], dtype=np.float64),
            next_states=np.stack([t.next_state for t in transitions]),
            dones=np.asarray([t.done for t in transitions], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self._storage)


class _ReferenceOptimizer:
    """Steps each parameter that has a ``.grad``, keeping state per parameter."""

    def __init__(self, params, lr: float) -> None:
        self.params = list(params)
        self.lr = lr
        self._state: dict = {}

    def _grads(self):
        for param in self.params:
            if param.grad is not None:
                yield param, param.grad

    def _zeros(self, name: str, param) -> np.ndarray:
        return self._state.get((name, id(param)), np.zeros_like(param.data))


class ReferenceSGD(_ReferenceOptimizer):
    def __init__(self, params, lr: float, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum

    def step(self) -> None:
        for param, grad in self._grads():
            update = grad
            if self.momentum:
                update = self.momentum * self._zeros("velocity", param) + grad
                self._state["velocity", id(param)] = update
            param.data -= self.lr * update


class ReferenceAdam(_ReferenceOptimizer):
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad in self._grads():
            m = self.beta1 * self._zeros("m", param) + (1.0 - self.beta1) * grad
            v = self.beta2 * self._zeros("v", param) + (1.0 - self.beta2) * grad**2
            self._state["m", id(param)], self._state["v", id(param)] = m, v
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


class ReferenceRMSProp(_ReferenceOptimizer):
    def __init__(self, params, lr=1e-3, alpha=0.99, eps=1e-8) -> None:
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps

    def step(self) -> None:
        for param, grad in self._grads():
            sq = self.alpha * self._zeros("sq", param) + (1.0 - self.alpha) * grad**2
            self._state["sq", id(param)] = sq
            param.data -= self.lr * grad / (np.sqrt(sq) + self.eps)


def reference_adam_step_flat(self, flat_grad) -> None:
    """Drop-in for ``Adam.step_flat`` (monkeypatch it in): scatter the flat
    gradient into the ``.grad`` slots and take the per-parameter oracle step,
    so a whole training run executes on the reference optimizer math."""
    oracle = vars(self).get("_oracle")
    if oracle is None:
        oracle = self._oracle = ReferenceAdam(
            self.params, lr=self.lr, betas=(self.beta1, self.beta2), eps=self.eps
        )
    offset = 0
    for param in self.params:
        chunk = flat_grad[offset : offset + param.data.size]
        param.grad = np.asarray(chunk, dtype=np.float64).reshape(param.data.shape)
        offset += param.data.size
    oracle.step()
