"""Cheetah1D: the continuous-control stand-in for MuJoCo "HalfCheetah"
(DDPG workload).

A planar body driven by two actuators ("front" and "back" legs) whose
*coordination* determines thrust: pushing both the same way mostly pitches
the body (wasted, penalized), while alternating them in the right ratio
produces forward drive — a low-dimensional analogue of HalfCheetah's gait
discovery.  State is ``[forward velocity, pitch, pitch rate]``; reward is
forward speed minus control and pitch costs; episodes are fixed length
(HalfCheetah has no termination either).
"""

from __future__ import annotations

import numpy as np

from ..spaces import Box
from .base import Environment, StepResult

__all__ = ["Cheetah1D"]


class Cheetah1D(Environment):
    observation_size = 3
    action_space = Box(dim=2)

    DT = 0.05
    DRAG = 0.10
    #: How strongly equal-signed actuation pitches the body instead of
    #: driving it.
    PITCH_COUPLING = 1.2

    def __init__(self, seed=None, max_steps: int = 200) -> None:
        super().__init__(seed)
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps
        self._velocity = 0.0
        self._pitch = 0.0
        self._pitch_rate = 0.0
        self._steps = 0

    def _reset(self) -> np.ndarray:
        self._velocity = self.rng.uniform(0.0, 0.1)
        self._pitch = self.rng.uniform(-0.05, 0.05)
        self._pitch_rate = 0.0
        self._steps = 0
        return self._observe()

    def _step(self, action) -> StepResult:
        front, back = self.action_space.clip(np.atleast_1d(action)).tolist()
        self._steps += 1

        # Antisymmetric component drives; symmetric component pitches.
        drive = 0.5 * (front - back)
        pitch_torque = 0.5 * (front + back)

        # A pitched body converts less drive into forward motion.
        efficiency = max(0.0, float(np.cos(self._pitch)))
        self._velocity += 4.0 * drive * efficiency * self.DT
        self._velocity = max(0.0, self._velocity * (1.0 - self.DRAG))

        self._pitch_rate += self.PITCH_COUPLING * pitch_torque * self.DT
        self._pitch_rate *= 0.9  # damping
        self._pitch = min(
            max(float(self._pitch + self._pitch_rate * self.DT), -1.2), 1.2
        )

        control_cost = 0.05 * (front * front + back * back)
        reward = self._velocity - control_cost - 0.2 * abs(self._pitch)
        done = self._steps >= self.max_steps
        return self._observe(), reward, done, {}

    def _observe(self) -> np.ndarray:
        return np.array([self._velocity / 3.0, self._pitch, self._pitch_rate])
