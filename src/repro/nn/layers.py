"""Neural-network modules: parameter containers and MLP building blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from .tensor import Tensor, no_grad

__all__ = ["Parameter", "Module", "Linear", "Activation", "Sequential", "mlp"]


class Parameter(Tensor):
    """A tensor that is part of a module's learnable state."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class: tracks parameters and submodules by attribute assignment."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children, in stable order."""
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward on a raw array.

        Bit-identical to ``self(Tensor(x)).numpy()`` under ``no_grad``
        but without building tensor objects; layers with closed-form
        forwards (Linear, Activation, Sequential) override this with
        pure-NumPy versions.
        """
        with no_grad():
            return self.forward(Tensor(np.asarray(x, dtype=np.float64))).numpy()

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer ``y = x W + b`` with Kaiming-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"invalid layer shape ({in_features}, {out_features})"
            )
        rng = rng or np.random.default_rng()
        bound = np.sqrt(6.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            name="weight",
        )
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                np.zeros(out_features), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out


class Activation(Module):
    """Elementwise activation by name: relu | tanh | sigmoid."""

    _KINDS = ("relu", "tanh", "sigmoid")

    def __init__(self, kind: str) -> None:
        super().__init__()
        if kind not in self._KINDS:
            raise ValueError(f"unknown activation {kind!r}; choose {self._KINDS}")
        self.kind = kind

    def forward(self, x: Tensor) -> Tensor:
        return getattr(x, self.kind)()

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Same expressions as the Tensor ops' forward halves.
        if self.kind == "relu":
            return x * (x > 0)
        if self.kind == "tanh":
            return np.tanh(x)
        return 1.0 / (1.0 + np.exp(-x))


class Sequential(Module):
    """Apply modules in order.  ``infer`` walks a flat plan — ``(kind,
    child)`` per child — compiled on first use and dropped when a child is
    (re)assigned; a Linear's ``weight`` / ``bias`` and their ``.data`` are
    read per call, so optimizer steps, weight loads and a Parameter
    assigned on the child are all seen."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        self._plan: Optional[list] = None
        for i, module in enumerate(modules):
            name = f"layer{i}"
            setattr(self, name, module)
            self._order.append(name)

    def __setattr__(self, key: str, value) -> None:
        super().__setattr__(key, value)
        if isinstance(value, Module):
            self._plan = None

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def infer(self, x: np.ndarray, steps: Optional[list] = None) -> np.ndarray:
        """The one closed-form forward walk (the Tensor ops' forward halves).
        ``functional.mlp_forward`` passes ``steps`` to collect ``(plan entry,
        cache)`` per layer; a child with no closed form is then an error."""
        if self._plan is None:
            self._plan = [
                ("linear", m) if type(m) is Linear
                else (m.kind, m) if type(m) is Activation
                else (None, m)  # anything else runs its own ``infer``
                for m in self
            ]
        out = np.asarray(x, dtype=np.float64)
        for entry in self._plan:
            kind, layer = entry
            if kind == "linear":
                cache = out
                out = out @ layer.weight.data
                if layer.bias is not None:
                    out = out + layer.bias.data
            elif kind == "relu":
                cache = out > 0
                out = out * cache
            elif kind == "tanh":
                cache = out = np.tanh(out)
            elif kind == "sigmoid":
                cache = out = 1.0 / (1.0 + np.exp(-out))
            elif steps is None:
                out = layer.infer(out)
                continue
            else:
                raise TypeError(
                    f"mlp_forward supports Linear/Activation only, got {layer!r}"
                )
            if steps is not None:
                steps.append((entry, cache))
        return out

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


def mlp(
    sizes: Sequence[int],
    activation: str = "relu",
    output_activation: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Build a multilayer perceptron: ``sizes[0] -> ... -> sizes[-1]``."""
    if len(sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {sizes}")
    rng = rng or np.random.default_rng()
    modules: List[Module] = []
    for i in range(len(sizes) - 1):
        modules.append(Linear(sizes[i], sizes[i + 1], rng=rng))
        is_last = i == len(sizes) - 2
        if not is_last:
            modules.append(Activation(activation))
        elif output_activation is not None:
            modules.append(Activation(output_activation))
    return Sequential(*modules)
