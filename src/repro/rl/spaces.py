"""Action/observation space descriptors (a minimal gym-style vocabulary)."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = ["Discrete", "Box"]


@dataclass(frozen=True)
class Discrete:
    """``n`` mutually exclusive actions, encoded as ints ``0..n-1``."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"Discrete space needs n >= 1, got {self.n}")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.n))

    def contains(self, action) -> bool:
        return isinstance(action, (int, np.integer)) and 0 <= action < self.n


@dataclass(frozen=True)
class Box:
    """A continuous action vector with per-dimension bounds [low, high]."""

    dim: int
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"Box space needs dim >= 1, got {self.dim}")
        if self.low >= self.high:
            raise ValueError(f"Box bounds inverted: [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=self.dim)

    def contains(self, action) -> bool:
        action = np.asarray(action)
        return action.shape == (self.dim,) and bool(
            np.all(action >= self.low) and np.all(action <= self.high)
        )

    def clip(self, action: np.ndarray) -> np.ndarray:
        # np.clip's documented definition without its wrapper frames.
        return np.minimum(
            np.maximum(np.asarray(action, dtype=np.float64), self.low), self.high
        )
