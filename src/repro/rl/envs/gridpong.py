"""GridPong: the discrete arcade stand-in for Atari "Pong" (DQN workload).

A ball bounces inside a unit square; the agent slides a paddle along the
bottom edge with three actions {left, stay, right}.  Each paddle hit earns
+1; a miss earns −1 and ends the episode (as Pong's rallies do).  Episodes
also end after :attr:`max_steps`, so a perfect policy earns about
``max_steps / steps_per_rally``.

The observation is the 5-vector ``[ball_x, ball_y, ball_vx, ball_vy,
paddle_x]``, everything normalized to [−1, 1] — a compact analogue of the
Atari frame stack that keeps worker compute cheap while preserving the
credit-assignment structure (the agent must track the ball and position
the paddle several steps ahead).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..spaces import Discrete
from .base import Environment, StepResult

__all__ = ["GridPong"]


class GridPong(Environment):
    observation_size = 5
    action_space = Discrete(3)

    #: Paddle half-width (ball is caught if |ball_x − paddle_x| <= this).
    PADDLE_HALF_WIDTH = 0.15
    #: Paddle slew per step.
    PADDLE_SPEED = 0.12
    #: Ball speed magnitude per step.
    BALL_SPEED = 0.07

    def __init__(self, seed=None, max_steps: int = 200) -> None:
        super().__init__(seed)
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps
        self._steps = 0
        self._ball = np.zeros(2)
        self._vel = np.zeros(2)
        self._paddle_x = 0.5

    def _reset(self) -> np.ndarray:
        self._steps = 0
        self._paddle_x = 0.5
        self._ball = np.array([self.rng.uniform(0.2, 0.8), self.rng.uniform(0.5, 0.9)])
        angle = self.rng.uniform(-0.8, 0.8)
        self._vel = self.BALL_SPEED * np.array([np.sin(angle), -np.cos(angle)])
        return self._observe()

    def _step(self, action) -> StepResult:
        if not self.action_space.contains(action):
            raise ValueError(f"invalid GridPong action: {action!r}")
        self._steps += 1
        self._paddle_x += (int(action) - 1) * self.PADDLE_SPEED
        self._paddle_x = min(max(self._paddle_x, 0.0), 1.0)

        self._ball += self._vel
        # Side walls reflect.
        for axis, position in ((0, self._ball[0]),):
            if position < 0.0 or position > 1.0:
                self._ball[axis] = min(max(float(position), 0.0), 1.0)
                self._vel[axis] = -self._vel[axis]
        # Ceiling reflects.
        if self._ball[1] > 1.0:
            self._ball[1] = 1.0
            self._vel[1] = -self._vel[1]

        reward = 0.0
        done = False
        info: Dict[str, bool] = {}
        if self._ball[1] <= 0.0:
            if abs(self._ball[0] - self._paddle_x) <= self.PADDLE_HALF_WIDTH:
                reward = 1.0
                info["hit"] = True
                self._ball[1] = 0.0
                self._vel[1] = abs(self._vel[1])
                # English: hitting off-center deflects the ball.
                offset = (self._ball[0] - self._paddle_x) / self.PADDLE_HALF_WIDTH
                self._vel[0] = min(
                    max(float(self._vel[0] + 0.03 * offset), -0.09), 0.09
                )
            else:
                reward = -1.0
                info["miss"] = True
                done = True
        if self._steps >= self.max_steps:
            done = True
        return self._observe(), reward, done, info

    def _observe(self) -> np.ndarray:
        return np.array(
            [
                2.0 * self._ball[0] - 1.0,
                2.0 * self._ball[1] - 1.0,
                self._vel[0] / self.BALL_SPEED,
                self._vel[1] / self.BALL_SPEED,
                2.0 * self._paddle_x - 1.0,
            ],
            dtype=np.float64,
        )
