"""Hopper1D: the continuous-control stand-in for MuJoCo "Hopper" (PPO).

A one-legged point mass must keep hopping forward.  State is
``[height, vertical velocity, forward velocity, phase]``; the single
action is leg thrust in [−1, 1].  Thrust only acts while in contact with
the ground (height ≈ 0), like a hopping gait: the agent must learn to
push at the right phase to keep a flight rhythm while being rewarded for
forward speed and penalized for control effort.  The episode ends if the
hopper "falls" (spends too long grounded without bouncing) or after
``max_steps``.
"""

from __future__ import annotations

import numpy as np

from ..spaces import Box
from .base import Environment, StepResult

__all__ = ["Hopper1D"]


class Hopper1D(Environment):
    observation_size = 4
    action_space = Box(dim=1)

    DT = 0.05
    GRAVITY = 9.8
    #: Forward speed gained per unit of well-timed thrust.
    THRUST_GAIN = 6.0
    DRAG = 0.12

    def __init__(self, seed=None, max_steps: int = 200) -> None:
        super().__init__(seed)
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps
        self._height = 0.0
        self._v_vertical = 0.0
        self._v_forward = 0.0
        self._grounded_steps = 0
        self._steps = 0

    def _reset(self) -> np.ndarray:
        self._height = self.rng.uniform(0.05, 0.25)
        self._v_vertical = 0.0
        self._v_forward = self.rng.uniform(0.0, 0.2)
        self._grounded_steps = 0
        self._steps = 0
        return self._observe()

    def _step(self, action) -> StepResult:
        low, high = self.action_space.low, self.action_space.high
        thrust = min(max(float(np.asarray(action).reshape(-1)[0]), low), high)
        self._steps += 1

        in_contact = self._height <= 1e-6
        if in_contact:
            self._grounded_steps += 1
            if thrust > 0.0:
                # Push off: vertical impulse plus forward drive.
                self._v_vertical = 1.5 * thrust
                self._v_forward += self.THRUST_GAIN * thrust * self.DT
                self._grounded_steps = 0
        else:
            self._grounded_steps = 0

        self._v_vertical -= self.GRAVITY * self.DT
        self._height = max(0.0, self._height + self._v_vertical * self.DT)
        if self._height == 0.0 and self._v_vertical < 0.0:
            self._v_vertical = 0.0
        self._v_forward = max(0.0, self._v_forward * (1.0 - self.DRAG))

        reward = self._v_forward - 0.1 * thrust * thrust + 0.05
        fallen = self._grounded_steps > 8
        done = fallen or self._steps >= self.max_steps
        if fallen:
            reward -= 1.0
        return self._observe(), reward, done, {"fallen": fallen}

    def _observe(self) -> np.ndarray:
        phase = 1.0 if self._height <= 1e-6 else -1.0
        return np.array(
            [self._height, self._v_vertical / 3.0, self._v_forward / 3.0, phase]
        )
