"""Loss functions and small tensor utilities used by the RL algorithms.

``mse_loss`` / ``huber_loss`` are the composed-primitive reference
implementations (a chain of Tensor ops, each with its own node and
intermediate arrays).  ``fused_mse_loss`` / ``fused_huber_loss`` are what
the algorithms train with: one graph node whose forward and backward are
closed-form NumPy expressions replicating the composed graph's exact
IEEE-754 operation order — including the quirk that the composed
``q*q`` term contributes ``fl(g·q)/2`` twice, which sums exactly to
``fl(g·q)`` because halving/doubling are lossless in binary floating
point.  ``tests/test_compute_parity.py`` asserts loss values and
accumulated gradients are bit-identical; the derivation is written out
in DESIGN.md §13.
"""

from __future__ import annotations

import numpy as np

from .layers import Activation, Linear, Sequential
from .tensor import Tensor

__all__ = [
    "mse_loss",
    "huber_loss",
    "fused_mse_loss",
    "fused_huber_loss",
    "fused_qnet_grad",
    "td_targets",
    "nll_from_logits",
    "entropy_from_logits",
]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    diff = prediction - target
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth-L1) loss, the classic DQN TD loss.

    Quadratic within ``delta`` of the target, linear outside, built from
    differentiable primitives:

        0.5 * clip(|d|, 0, delta)^2 + delta * (|d| - clip(|d|, 0, delta))
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    abs_diff = (prediction - target).abs()
    quadratic = abs_diff.clip(0.0, delta)
    linear = abs_diff - quadratic
    return (0.5 * quadratic * quadratic + delta * linear).mean()


def fused_mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """One-node MSE, bit-identical to ``mse_loss(prediction, Tensor(target))``.

    The composed graph accumulates ``diff``'s gradient twice (both
    parents of ``diff * diff`` are the same tensor), each contribution
    ``fl(g·d)`` — so the fused backward is exactly ``2·fl(g·d)``
    (doubling is lossless).
    """
    target = np.asarray(target, dtype=np.float64)
    diff = prediction.data - target
    count = diff.size
    inv_count = 1.0 / count
    out_data = np.asarray(diff * diff).sum() * inv_count

    def backward(grad: np.ndarray) -> None:
        if prediction.requires_grad:
            g = grad * inv_count
            prediction._accumulate(2.0 * (g * diff))

    return prediction._make(np.asarray(out_data), (prediction,), backward)


def fused_huber_loss(
    prediction: Tensor, target: np.ndarray, delta: float = 1.0
) -> Tensor:
    """One-node Huber, bit-identical to ``huber_loss(prediction, Tensor(target))``.

    Forward mirrors the composed expression order; backward replays the
    composed graph's reverse topological order in closed form:

        g   = fl(grad / n)
        q'  = fl(g·q) - fl(g·delta)        # two half-contributions + (-delta term)
        |d|'= fl(g·delta) + fl(q'·mask)    # linear term, then clip mask
        d'  = |d|'·sign(d)
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    target = np.asarray(target, dtype=np.float64)
    diff = prediction.data - target
    sign = np.sign(diff)
    abs_diff = np.abs(diff)
    quadratic = np.clip(abs_diff, 0.0, delta)
    mask = (abs_diff >= 0.0) & (abs_diff <= delta)
    linear = abs_diff - quadratic
    elems = 0.5 * quadratic * quadratic + delta * linear
    count = elems.size
    inv_count = 1.0 / count
    out_data = elems.sum() * inv_count

    def backward(grad: np.ndarray) -> None:
        if prediction.requires_grad:
            g = grad * inv_count
            g_quad = g * quadratic
            g_delta = g * delta
            quad_grad = g_quad - g_delta
            abs_grad = g_delta + quad_grad * mask
            prediction._accumulate(abs_grad * sign)

    return prediction._make(np.asarray(out_data), (prediction,), backward)


def fused_qnet_grad(
    q_net: Sequential,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    delta: float = 1.0,
) -> float:
    """Fused forward + backward for DQN's whole trained graph.

    Computes ``huber(gather(q_net(states), actions), targets)`` for a
    ``Sequential`` of Linear/Activation layers and writes the parameter
    gradients straight into the ``.grad`` slots — no tape, no per-op
    Tensor nodes.  Every expression mirrors the corresponding backward
    closure in ``tensor.py`` op for op:

    * Linear:  ``W' = xᵀ·g``, ``b' = g.sum(axis=0)`` (the exact
      ``_unbroadcast`` reduction for a ``(B, n) -> (n,)`` bias), input
      ``g @ Wᵀ``; the first layer's input gradient is skipped, exactly
      as the tape skips it for a ``requires_grad=False`` input.
    * relu / tanh / sigmoid:  ``g·mask`` / ``g·(1 − out²)`` /
      ``g·out·(1 − out)``, caching the same forward values the tape
      closures capture.
    * gather:  ``np.add.at(zeros_like(q), (rows, a), g)``.
    * Huber:  the ``fused_huber_loss`` closed form, seeded at 1.

    Because each expression is the same IEEE-754 operation sequence the
    graph path executes, the resulting gradients are bit-identical
    (asserted by ``tests/test_compute_parity.py``).  Gradients are
    *assigned* (fresh arrays), matching ``_accumulate``'s copy-on-None
    after the ``zero_grad()`` that precedes every gradient computation.
    Returns the scalar loss value.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    x = np.asarray(states, dtype=np.float64)
    steps = []  # (layer, cache) in forward order
    for layer in q_net:
        if isinstance(layer, Linear):
            steps.append((layer, x))
            x = x @ layer.weight.data
            if layer.bias is not None:
                x = x + layer.bias.data
        elif isinstance(layer, Activation):
            if layer.kind == "relu":
                act_mask = x > 0
                x = x * act_mask
                steps.append((layer, act_mask))
            elif layer.kind == "tanh":
                x = np.tanh(x)
                steps.append((layer, x))
            else:
                x = 1.0 / (1.0 + np.exp(-x))
                steps.append((layer, x))
        else:
            raise TypeError(
                f"fused_qnet_grad supports Linear/Activation only, got {layer!r}"
            )

    indices = np.asarray(actions, dtype=np.int64)
    rows = np.arange(x.shape[0])
    chosen = x[rows, indices]
    target = np.asarray(targets, dtype=np.float64)
    diff = chosen - target
    sign = np.sign(diff)
    abs_diff = np.abs(diff)
    quadratic = np.clip(abs_diff, 0.0, delta)
    mask = (abs_diff >= 0.0) & (abs_diff <= delta)
    linear = abs_diff - quadratic
    elems = 0.5 * quadratic * quadratic + delta * linear
    inv_count = 1.0 / elems.size
    loss = elems.sum() * inv_count

    # Huber backward at seed 1 (Tensor.backward seeds np.ones_like).
    g_quad = inv_count * quadratic
    g_delta = inv_count * delta
    quad_grad = g_quad - g_delta
    abs_grad = g_delta + quad_grad * mask
    d_chosen = abs_grad * sign

    grad = np.zeros_like(x)
    # Rows are unique, so scattering into zeros by assignment is the same
    # value-for-value as the tape's ``np.add.at`` (0 + v == v), minus the
    # slow ufunc.at path.
    grad[rows, indices] = d_chosen
    first = steps[0][0]
    for layer, cache in reversed(steps):
        if isinstance(layer, Linear):
            if layer.bias is not None:
                layer.bias.grad = grad.sum(axis=0)
            layer.weight.grad = cache.swapaxes(-1, -2) @ grad
            if layer is not first:
                grad = grad @ layer.weight.data.swapaxes(-1, -2)
        elif layer.kind == "relu":
            grad = grad * cache
        elif layer.kind == "tanh":
            grad = grad * (1.0 - cache**2)
        else:
            grad = grad * cache * (1.0 - cache)
    return float(loss)


def td_targets(
    rewards: np.ndarray,
    bootstrap: np.ndarray,
    dones: np.ndarray,
    discount: float,
) -> np.ndarray:
    """The TD(n) target vector ``r + gamma^n * max_a' Q(s', a') * (1 - done)``."""
    return rewards + discount * bootstrap * (1.0 - dones)


def nll_from_logits(logits: Tensor, actions: np.ndarray) -> Tensor:
    """Per-sample negative log-likelihood of ``actions`` under ``logits``.

    Returns a vector (one value per row); callers weight it by advantages
    (A2C/PPO) or average it.
    """
    return -logits.log_softmax(axis=-1).gather(actions)


def entropy_from_logits(logits: Tensor) -> Tensor:
    """Mean policy entropy, the standard exploration bonus term."""
    log_probs = logits.log_softmax(axis=-1)
    probs = log_probs.exp()
    return -(probs * log_probs).sum(axis=-1).mean()
