"""Optimizers: SGD (with momentum), Adam, and RMSProp.

Each optimizer steps on whatever is currently stored in ``param.grad`` —
in distributed training that is the *aggregated* gradient written back by
the strategy after the in-switch (or PS/AllReduce) aggregation completes.

:meth:`Optimizer.step_flat` takes the whole aggregated gradient as one
float64 vector and updates parameters through in-place math on flat
state vectors plus two preallocated scratch buffers, so a step allocates
nothing on the hot loop.  Every fused sequence keeps the expression
order of the textbook per-parameter update (same IEEE-754 rounding at
every intermediate — the only rewrites used are commuting scalar
multiplies, which are bit-exact); ``tests/test_compute_parity.py`` pins
each optimizer bit-for-bit against a per-parameter reference step.

State layout note: the flat state lives in ``self._flat_state``, a dict
of string-keyed float64 vectors, because ``repro.faults.resync`` clones
optimizer state by copying dict attributes.  The layout cache and
scratch buffers are plain list/ndarray attributes, which the cloner
deliberately skips — each instance rebuilds its own.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "RMSProp"]


class Optimizer:
    """Base class holding the parameter list and common bookkeeping."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self._flat_state: Dict[str, np.ndarray] = {}
        self._layout = None  # list attr: skipped by resync's state cloner
        self._scratch_a: np.ndarray | None = None
        self._scratch_b: np.ndarray | None = None

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Step on ``param.grad``.

        The per-parameter grads are gathered into one flat vector (a
        missing grad contributes zeros) and applied via :meth:`step_flat`.
        """
        self.step_flat(self._gather_flat_grads())

    def step_flat(self, flat_grad: np.ndarray) -> None:
        """Step on a flat float64 gradient covering ``self.params`` in order.

        ``flat_grad`` is read-only to this call; it may be a view into a
        larger aggregated-update vector.
        """
        layout = self._ensure_layout()
        vec = np.asarray(flat_grad, dtype=np.float64)
        if vec.shape != (self._total,):
            raise ValueError(
                f"flat gradient has shape {vec.shape}, expected ({self._total},)"
            )
        if self._scratch_a is None:
            self._scratch_a = np.empty(self._total, dtype=np.float64)
            self._scratch_b = np.empty(self._total, dtype=np.float64)
        self._step_flat(vec, layout)

    # -- flat-path plumbing -------------------------------------------------

    def _ensure_layout(self) -> List[Tuple[Parameter, slice, tuple]]:
        if self._layout is None:
            layout = []
            offset = 0
            for param in self.params:
                size = param.data.size
                layout.append((param, slice(offset, offset + size), param.data.shape))
                offset += size
            self._layout = layout
            self._total = offset
        return self._layout

    def _gather_flat_grads(self) -> np.ndarray:
        layout = self._ensure_layout()
        flat = np.empty(self._total, dtype=np.float64)
        for param, sl, _ in layout:
            if param.grad is None:
                flat[sl] = 0.0
            else:
                flat[sl] = param.grad.ravel()
        return flat

    def _flat_vector(self, key: str) -> np.ndarray:
        state = self._flat_state.get(key)
        if state is None:
            state = self._flat_state[key] = np.zeros(self._total, dtype=np.float64)
        return state

    def _apply_flat_update(self, update: np.ndarray, layout) -> None:
        for param, sl, shape in layout:
            param.data -= update[sl].reshape(shape)

    def _step_flat(self, vec: np.ndarray, layout) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self, params: Sequence[Parameter], lr: float, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def _step_flat(self, vec: np.ndarray, layout) -> None:
        scratch = self._scratch_a
        if self.momentum:
            # velocity = momentum * velocity + grad
            velocity = self._flat_vector("velocity")
            velocity *= self.momentum
            velocity += vec
            np.multiply(velocity, self.lr, out=scratch)
        else:
            np.multiply(vec, self.lr, out=scratch)
        self._apply_flat_update(scratch, layout)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._t = 0

    def _step_flat(self, vec: np.ndarray, layout) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m = self._flat_vector("m")
        v = self._flat_vector("v")
        scratch, update = self._scratch_a, self._scratch_b
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(vec, 1.0 - self.beta1, out=scratch)
        m += scratch
        # v = beta2 * v + (1 - beta2) * grad**2
        v *= self.beta2
        np.multiply(vec, vec, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(m, bias1, out=update)
        update *= self.lr
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        update /= scratch
        self._apply_flat_update(update, layout)


class RMSProp(Optimizer):
    """RMSProp, the optimizer classic DQN used."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self.eps = eps

    def _step_flat(self, vec: np.ndarray, layout) -> None:
        sq = self._flat_vector("sq")
        scratch, update = self._scratch_a, self._scratch_b
        # sq = alpha * sq + (1 - alpha) * grad**2
        sq *= self.alpha
        np.multiply(vec, vec, out=scratch)
        scratch *= 1.0 - self.alpha
        sq += scratch
        # update = (lr * grad) / (sqrt(sq) + eps)   [lr multiplied first]
        np.sqrt(sq, out=scratch)
        scratch += self.eps
        np.multiply(vec, self.lr, out=update)
        update /= scratch
        self._apply_flat_update(update, layout)
