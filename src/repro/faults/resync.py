"""Replica resynchronization: clone training state into a rejoining worker.

When a crashed worker rejoins, handing it only the current weight vector
is not enough — modern optimizers carry per-parameter state (Adam
moments, momentum velocities, step counters) and some algorithms carry
derived networks (DQN's target net).  A rejoined replica that restarts
that state from zero would take visibly different optimizer steps from
its peers and break the decentralized-weights agreement the paper's
async design relies on.

:func:`clone_training_state` deep-copies everything that influences
future updates from a healthy source replica:

* the flat weight vector (``set_weights``),
* ``updates_applied`` (drives ε schedules and target-sync cadence),
* every :class:`~repro.nn.layers.Module` attribute's parameter arrays
  (covers target networks, which ``set_weights`` does not touch),
* every :class:`~repro.nn.optim.Optimizer` attribute's state (flat
  vectors laid out in parameter order; both replicas were built from the
  same constructor, so their parameter lists align).

What it cannot clone: environment/replay state and RNG streams, which
are intentionally per-worker.  A rejoined worker therefore produces
different *gradients* than it would have — but applies the same
*updates* — which keeps all replicas' weights in lockstep.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Module
from ..nn.optim import Optimizer

__all__ = ["clone_training_state", "clone_optimizer_state"]


def _clone_value(value):
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    return value


def clone_optimizer_state(src: Optimizer, dst: Optimizer) -> None:
    """Copy ``src``'s state into ``dst``.

    Dict attributes (``_flat_state``: name -> flat state vector) are
    deep-copied; scalar attributes (``_t``, ``lr``, betas) are copied
    verbatim.  List/ndarray attributes (layout cache, scratch buffers)
    are skipped — each instance rebuilds its own.
    """
    for attr, value in vars(src).items():
        if isinstance(value, dict):
            setattr(dst, attr, {k: _clone_value(v) for k, v in value.items()})
        elif isinstance(value, (int, float, bool)):
            setattr(dst, attr, value)


def clone_training_state(src_algorithm, dst_algorithm) -> None:
    """Make ``dst_algorithm`` update-equivalent to ``src_algorithm``.

    Both must be instances of the same algorithm class built with the
    same architecture (the distributed runner guarantees this).  After
    the call, identical ``apply_update`` sequences produce identical
    weights on both replicas.
    """
    if type(src_algorithm) is not type(dst_algorithm):
        raise TypeError(
            "cannot clone training state across algorithm types: "
            f"{type(src_algorithm).__name__} -> "
            f"{type(dst_algorithm).__name__}"
        )
    dst_algorithm.set_weights(src_algorithm.get_weights())
    dst_algorithm.updates_applied = src_algorithm.updates_applied

    for attr, src_value in vars(src_algorithm).items():
        if not isinstance(src_value, Module):
            continue
        dst_value = getattr(dst_algorithm, attr, None)
        if not isinstance(dst_value, Module):
            continue
        src_params = src_value.parameters()
        dst_params = dst_value.parameters()
        if len(src_params) != len(dst_params):
            raise ValueError(
                f"module attribute {attr!r} differs in parameter count: "
                f"{len(src_params)} vs {len(dst_params)}"
            )
        for src_param, dst_param in zip(src_params, dst_params):
            if src_param.data.shape != dst_param.data.shape:
                raise ValueError(
                    f"module attribute {attr!r} has mismatched parameter "
                    f"shapes: {src_param.data.shape} vs {dst_param.data.shape}"
                )
            # Copy data for modules set_weights does not reach (e.g.
            # DQN's target network lives outside the container).
            dst_param.data[...] = src_param.data

    for attr, src_value in vars(src_algorithm).items():
        if not isinstance(src_value, Optimizer):
            continue
        dst_value = getattr(dst_algorithm, attr, None)
        if isinstance(dst_value, Optimizer):
            clone_optimizer_state(src_value, dst_value)
