"""Flattening model state to/from the float32 vectors that cross the wire.

The distributed strategies exchange a model's parameters or gradients as a
single flat float32 vector — exactly the "gradient vector" the paper's
switch aggregates.  Round order follows ``Module.parameters()``, which is
deterministic (attribute-assignment order), so every worker agrees on the
layout without negotiation.

``flatten_params``, ``load_flat_params`` and ``flatten_grads_into`` take a
``Module`` or the parameter list it would walk to: an ``Algorithm``'s
containers are fixed after construction, so it walks its module tree once
and passes the list on every iteration.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .layers import Module, Parameter

__all__ = [
    "flatten_params",
    "load_flat_params",
    "flatten_grads",
    "flatten_grads_into",
    "load_flat_grads",
    "param_vector_size",
    "model_wire_bytes",
]


ParamSource = Union[Module, Sequence[Parameter]]


def _parameters(source: ParamSource) -> Sequence[Parameter]:
    return source.parameters() if isinstance(source, Module) else source


def param_vector_size(module: Module) -> int:
    """Number of scalar parameters in the module."""
    return module.n_parameters


def model_wire_bytes(module: Module) -> int:
    """Bytes of the float32 gradient vector this model ships per round."""
    return module.n_parameters * 4


def flatten_params(module: ParamSource) -> np.ndarray:
    """Concatenate all parameters into one float32 vector."""
    return np.concatenate(
        [p.data.ravel() for p in _parameters(module)]
    ).astype(np.float32)


def load_flat_params(module: ParamSource, vector: np.ndarray) -> None:
    """Overwrite the module's parameters from a flat vector (any float dtype)."""
    _scatter(_parameters(module), vector, into_grad=False)


def flatten_grads(module: Module) -> np.ndarray:
    """Concatenate all gradients into one float32 vector.

    Parameters that received no gradient contribute zeros, so the vector
    layout is always identical across iterations and workers.
    """
    pieces: List[np.ndarray] = []
    for param in module.parameters():
        if param.grad is None:
            pieces.append(np.zeros(param.size, dtype=np.float32))
        else:
            pieces.append(param.grad.ravel().astype(np.float32))
    return np.concatenate(pieces)


def flatten_grads_into(module: ParamSource) -> np.ndarray:
    """:func:`flatten_grads` without the per-parameter intermediates.

    One freshly allocated float32 output buffer, filled by casting slice
    assignment — bit-identical values (the float64→float32 cast happens
    per element either way).  The buffer must be fresh every call: the
    simulator's zero-copy aggregation adopts the first writable float32
    contribution it receives, so handing it a reused scratch buffer
    would let the engine scribble over the worker's next gradient.
    """
    params = _parameters(module)
    out = np.empty(sum(p.size for p in params), dtype=np.float32)
    offset = 0
    for param in params:
        if param.grad is None:
            out[offset : offset + param.size] = 0.0
        else:
            out[offset : offset + param.size] = param.grad.ravel()
        offset += param.size
    return out


def load_flat_grads(module: Module, vector: np.ndarray) -> None:
    """Write a flat vector into the parameters' ``.grad`` slots."""
    _scatter(module.parameters(), vector, into_grad=True)


def _scatter(
    params: Sequence[Parameter], vector: np.ndarray, into_grad: bool
) -> None:
    vector = np.asarray(vector)
    total = sum(p.size for p in params)
    if vector.shape != (total,):
        raise ValueError(
            f"flat vector has shape {vector.shape}, model needs ({total},)"
        )
    offset = 0
    for param in params:
        chunk = vector[offset : offset + param.size].reshape(param.data.shape)
        if into_grad:
            param.grad = chunk.astype(np.float64)
        else:
            param.data = chunk.astype(np.float64)
        offset += param.size
