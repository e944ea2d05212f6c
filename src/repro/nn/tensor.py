"""A small reverse-mode automatic-differentiation engine over NumPy.

This replaces the paper's PyTorch dependency.  A :class:`Tensor` wraps an
``ndarray`` plus an optional gradient and a backward closure; calling
:meth:`Tensor.backward` on a scalar loss walks the recorded tape in
reverse topological order, accumulating ``.grad`` on every leaf created
with ``requires_grad=True``.

Only the operations the four RL algorithms need are implemented, each with
an exact vector-Jacobian product (checked against finite differences in
``tests/test_nn_autograd.py``).  The algorithms no longer train through
the tape: their gradients are the closed-form kernels of
``functional.py``, each written op for op in this module's order and
pinned byte for byte against the graph built here (DESIGN.md §13.4), so
this module is the definition those kernels are held to.  Arrays are float64 internally; gradients
cross the simulated network as float32, matching the paper's "raw
float-point format".
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "concat", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager disabling tape recording (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_ENABLED[0] = self._prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[0]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


TensorLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """An autograd-tracked NumPy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make ndarray defer to our __radd__ etc.

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and is_grad_enabled()
        self._backward = _backward
        self._parents = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The raw array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: TensorLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _backward=backward, _parents=parents)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)

        # Topological order via iterative DFS (recursion-free: policy nets
        # chain hundreds of ops per iteration).
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    def gather(self, indices: np.ndarray) -> "Tensor":
        """Select one element per row: ``out[i] = self[i, indices[i]]``.

        Used for Q(s, a) lookups and per-action log-probabilities.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 2 or indices.ndim != 1:
            raise ValueError("gather expects a 2-D tensor and 1-D indices")
        rows = np.arange(self.data.shape[0])
        out_data = self.data[rows, indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, (rows, indices), grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Softmax family (numerically stable, fused VJPs)
    # ------------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_z
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad - softmax * grad.sum(axis=axis, keepdims=True)
                )

        return self._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (e.g. DDPG critic's [s, a])."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    if not requires:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _backward=backward, _parents=tensors)
