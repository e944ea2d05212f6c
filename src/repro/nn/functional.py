"""Loss functions and the closed-form training kernels of the RL algorithms.

``mse_loss`` / ``huber_loss`` are the composed-primitive reference
implementations (a chain of Tensor ops, each with its own node and
intermediate arrays).  ``fused_mse_loss`` / ``fused_huber_loss`` are
one-node versions whose forward and backward are closed-form NumPy
expressions replicating the composed graph's exact IEEE-754 operation
order — including the quirk that the composed ``q*q`` term contributes
``fl(g·q)/2`` twice, which sums exactly to ``fl(g·q)`` because
halving/doubling are lossless in binary floating point.

Training itself builds no graph at all.  ``mlp_forward`` /
``mlp_backward`` are the one Linear/Activation loop, and the four heads
on top of it — ``fused_qnet_grad`` (DQN), ``fused_a2c_grad``,
``fused_ppo_grad``, ``fused_ddpg_grad`` — write each algorithm's whole
forward + backward out op for op in the tape's order and assign the
``.grad`` slots directly.  The tape (``tensor.py``, the composed losses,
``nll_from_logits`` / ``entropy_from_logits``) is the oracle:
``tests/test_compute_parity.py`` asserts loss values and gradients are
bit-identical to it, and the derivations are written out in DESIGN.md
§13.4.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .layers import Parameter, Sequential
from .tensor import Tensor

__all__ = [
    "mse_loss",
    "huber_loss",
    "fused_mse_loss",
    "fused_huber_loss",
    "mlp_forward",
    "mlp_backward",
    "fused_qnet_grad",
    "fused_a2c_grad",
    "fused_ppo_grad",
    "fused_ddpg_grad",
    "td_targets",
    "nll_from_logits",
    "entropy_from_logits",
]

_LOG_2PI = math.log(2.0 * math.pi)


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


def mlp_forward(net: Sequential, x: np.ndarray) -> Tuple[np.ndarray, list]:
    """Closed-form forward of a ``Sequential`` of Linear/Activation layers.

    ``Sequential.infer``'s walk, collecting per layer in forward order
    ``((kind, layer), cache)`` with exactly what the tape's backward
    closures capture: a Linear's input, the relu mask, the tanh/sigmoid
    output.  The output is bit-identical to ``net(Tensor(x)).numpy()``;
    anything ``mlp()`` does not build raises ``TypeError``.
    """
    steps: list = []
    return net.infer(x, steps), steps


def mlp_backward(
    steps: list,
    grad: np.ndarray,
    param_grads: bool = True,
    input_grad: bool = False,
) -> Optional[np.ndarray]:
    """Closed-form backward over the caches of :func:`mlp_forward`.

    ``grad`` is the gradient at the network's output.  Every expression
    mirrors the corresponding backward closure in ``tensor.py`` op for op:

    * Linear:  ``W' = xᵀ·g``, ``b' = g.sum(axis=0)`` (the exact
      ``_unbroadcast`` reduction for a ``(B, n) -> (n,)`` bias), input
      ``g @ Wᵀ``.
    * relu / tanh / sigmoid:  ``g·mask`` / ``g·(1 − out²)`` /
      ``g·out·(1 − out)``.

    Parameter gradients are *assigned* to the ``.grad`` slots (fresh
    arrays — what ``_accumulate``'s copy-on-None leaves after a
    ``zero_grad()``; each slot has one consumer, so nothing accumulates)
    unless ``param_grads`` is false.  The first layer's input gradient is
    skipped, exactly as the tape skips it for a ``requires_grad=False``
    input, unless ``input_grad`` asks for it; it is then returned.
    """
    first = steps[0][0]
    for entry, cache in reversed(steps):
        kind, layer = entry
        if kind == "linear":
            if param_grads:
                if layer.bias is not None:
                    layer.bias.grad = grad.sum(axis=0)
                layer.weight.grad = cache.swapaxes(-1, -2) @ grad
            if input_grad or entry is not first:
                grad = grad @ layer.weight.data.swapaxes(-1, -2)
        elif kind == "relu":
            grad = grad * cache
        elif kind == "tanh":
            grad = grad * (1.0 - cache**2)
        else:
            grad = grad * cache * (1.0 - cache)
    return grad if input_grad else None


def _mse_head(prediction: np.ndarray, target: np.ndarray, seed: float):
    """``fused_mse_loss`` on a ``(B, 1)`` net output flattened by
    ``reshape(-1)``: the loss value and the gradient at the net output
    for an upstream gradient ``seed``."""
    diff = prediction.reshape(-1) - np.asarray(target, dtype=np.float64)
    inv_count = 1.0 / diff.size
    loss = (diff * diff).sum() * inv_count
    return loss, (2.0 * ((seed * inv_count) * diff)).reshape(prediction.shape)


def fused_qnet_grad(
    q_net: Sequential,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    delta: float = 1.0,
) -> float:
    """Fused forward + backward for DQN's whole trained graph.

    Computes ``huber(gather(q_net(states), actions), targets)`` over
    :func:`mlp_forward` / :func:`mlp_backward` and writes the parameter
    gradients straight into the ``.grad`` slots — no tape, no per-op
    Tensor nodes:

    * gather:  ``np.add.at(zeros_like(q), (rows, a), g)``.
    * Huber:  the ``fused_huber_loss`` closed form, seeded at 1.

    Because each expression is the same IEEE-754 operation sequence the
    graph path executes, the resulting gradients are bit-identical
    (asserted by ``tests/test_compute_parity.py``).  Returns the scalar
    loss value.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    x, steps = mlp_forward(q_net, states)

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
    mlp_backward(steps, grad)
    return float(loss)


def fused_a2c_grad(
    policy: Sequential,
    value: Sequential,
    states: np.ndarray,
    actions: np.ndarray,
    returns: np.ndarray,
    value_coef: float,
    entropy_coef: float,
) -> float:
    """Fused forward + backward for A2C's whole trained graph.

        L = mean(nll · A) + value_coef · MSE(V, R) − entropy_coef · H

    with the stop-gradient advantage ``A = R − V``, written op for op in
    the order of the tape graph ``tests/oracles.tape_a2c_gradient``
    builds (``nll_from_logits``, ``entropy_from_logits``,
    ``fused_mse_loss``).  The tape runs ``log_softmax`` once per term on
    the same logits; its two outputs are equal, so one is shared here.
    ``logits`` and that ``log_softmax`` each collect two gradient
    contributions — float addition commutes, so the order the tape adds
    them in cannot show (DESIGN.md §13.4).  Returns the loss value.
    """
    states = np.asarray(states, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    v_out, v_steps = mlp_forward(value, states)
    advantages = returns - v_out.reshape(-1)
    logits, p_steps = mlp_forward(policy, states)

    # Tensor.log_softmax, forward half.
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(log_probs)
    indices = np.asarray(actions, dtype=np.int64)
    rows = np.arange(logits.shape[0])
    inv_b = 1.0 / rows.size
    pg_loss = (-log_probs[rows, indices] * advantages).sum() * inv_b
    value_loss, d_v_out = _mse_head(v_out, returns, value_coef)
    entropy = -((probs * log_probs).sum(axis=-1).sum() * inv_b)
    loss = pg_loss + value_loss * value_coef + -(entropy * entropy_coef)

    mlp_backward(v_steps, d_v_out)

    # Policy-gradient term: mean -> (* A) -> neg -> gather -> log_softmax.
    d_log_probs = np.zeros_like(logits)
    # ``+=`` on unique (row, action) pairs is ``np.add.at``: 0.0 + v, which
    # turns the -0.0 of an exact-zero advantage into the tape's +0.0.
    d_log_probs[rows, indices] += -(inv_b * advantages)
    d_logits = d_log_probs - probs * d_log_probs.sum(axis=-1, keepdims=True)
    # Entropy term: neg -> (* coef) -> neg -> mean -> sum -> p·log p -> exp.
    g_ent = entropy_coef * inv_b
    d_log_probs = g_ent * probs + (g_ent * log_probs) * probs
    d_logits = d_logits + (
        d_log_probs - probs * d_log_probs.sum(axis=-1, keepdims=True)
    )
    mlp_backward(p_steps, d_logits)
    return float(loss)


def fused_ppo_grad(
    mean_net: Sequential,
    log_std: Parameter,
    value: Sequential,
    states: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    clip_epsilon: float,
    value_coef: float,
    entropy_coef: float,
) -> float:
    """Fused forward + backward for PPO's clipped-surrogate graph.

        L = −mean(min(r·A, clip(r, 1±ε)·A)) + value_coef · MSE(V, R)
            [− entropy_coef · H   when entropy_coef is non-zero]

    for the diagonal Gaussian with a state-free ``log_std``, op for op in
    the order of the tape graph ``tests/oracles.tape_ppo_gradient``
    builds: ``GaussianActorCritic.log_prob``, the ``exp`` ratio, the clip
    mask, ``min(u, c) = 0.5·(u + c − |u − c|)`` with ``sign(0) = 0``
    (inside the clip range ``u == c`` and the ``|·|`` branch passes no
    gradient), ``fused_mse_loss`` and ``GaussianActorCritic.entropy``.

    ``ratio``, ``u`` and ``c`` each collect two contributions
    (order-free).  ``log_std`` collects two — through ``std = exp(·)``
    and through the ``−log_std`` term — and a third from the entropy
    bonus; three float additions do not reassociate, so they are added in
    the tape's reverse-topological order: std, then the ``−log_std``
    term, then the entropy (DESIGN.md §13.4).  Returns the loss value.
    """
    states = np.asarray(states, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    mean, m_steps = mlp_forward(mean_net, states)
    log_std_data = log_std.data
    std = np.exp(log_std_data)
    centred = np.asarray(actions, dtype=np.float64) - mean
    normalized = centred / std
    per_dim = -0.5 * (normalized * normalized) - log_std_data - 0.5 * _LOG_2PI
    ratio = np.exp(per_dim.sum(axis=-1) - old_log_probs)
    low, high = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    unclipped = ratio * adv
    clip_mask = (ratio >= low) & (ratio <= high)
    clipped = np.clip(ratio, low, high) * adv
    gap = unclipped - clipped
    surrogate = 0.5 * (unclipped + clipped - np.abs(gap))
    inv_b = 1.0 / surrogate.size
    v_out, v_steps = mlp_forward(value, states)
    value_loss, d_v_out = _mse_head(v_out, returns, value_coef)
    loss = -(surrogate.sum() * inv_b) + value_loss * value_coef
    if entropy_coef:
        entropy = (log_std_data + 0.5 * (_LOG_2PI + 1.0)).sum()
        loss = loss + -(entropy * entropy_coef)

    mlp_backward(v_steps, d_v_out)

    # neg -> mean -> (* 0.5), then the two branches of the min identity.
    g_inner = -inv_b * 0.5
    d_gap = -g_inner * np.sign(gap)
    d_ratio = (g_inner + d_gap) * adv + ((g_inner + -d_gap) * adv) * clip_mask
    d_log_probs = d_ratio * ratio
    # sum(axis=-1) backward: the tape materialises the broadcast, and the
    # bias-style reduction below must run over that same C-ordered array.
    d_per_dim = np.broadcast_to(d_log_probs[:, None], per_dim.shape).copy()
    half = (d_per_dim * -0.5) * normalized
    d_normalized = half + half
    d_std = (-d_normalized * centred / (std**2)).sum(axis=0)
    mlp_backward(m_steps, -(d_normalized / std))

    d_log_std = d_std * std + -d_per_dim.sum(axis=0)
    if entropy_coef:
        d_log_std = d_log_std + (-1.0 * entropy_coef)
    log_std.grad = d_log_std
    return float(loss)


def fused_ddpg_grad(
    actor: Sequential,
    critic: Sequential,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> Tuple[float, float]:
    """Fused forward + backward for DDPG's two trained graphs.

    * critic:  ``MSE(Q(concat[s, a]), targets)`` into the critic's slots;
    * actor:   ``−mean Q(concat[s, π(s)])`` into the actor's slots.

    The tape pushes the actor loss through the critic's parameters too
    and the algorithm then throws those gradients away; here the critic
    carries the actor pass as an *input* gradient only
    (``param_grads=False``), so its slots keep the critic-pass values.
    ``concat``'s backward hands the actor a C-ordered copy of its column
    slice, reproduced with ``ascontiguousarray``.  Returns
    ``(critic_loss, actor_loss)``.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    q_out, c_steps = mlp_forward(critic, np.concatenate([states, actions], axis=1))
    critic_loss, d_q_out = _mse_head(q_out, targets, 1.0)
    mlp_backward(c_steps, d_q_out)

    pi, a_steps = mlp_forward(actor, states)
    q_pi, c_steps = mlp_forward(critic, np.concatenate([states, pi], axis=1))
    inv_b = 1.0 / q_pi.size
    actor_loss = -(q_pi.reshape(-1).sum() * inv_b)
    d_input = mlp_backward(
        c_steps, np.full(q_pi.shape, -inv_b), param_grads=False, input_grad=True
    )
    mlp_backward(a_steps, np.ascontiguousarray(d_input[:, states.shape[1] :]))
    return float(critic_loss), float(actor_loss)


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
