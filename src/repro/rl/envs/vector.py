"""Batched environment stepping.

``VectorEnv`` advances K environments together behind one batched
``reset``/``step`` API.  The base class is the *sequential reference*:
it loops over K scalar :class:`Environment` instances in index order —
correct for any env, including the wrappers in ``rl/envs/wrappers.py``.
The four kernel subclasses (:class:`VectorGridPong`,
:class:`VectorGridQbert`, :class:`VectorHopper1D`,
:class:`VectorCheetah1D`) keep struct-of-arrays state and replace the
loop with array math that replays the scalar ``_step`` expressions in
the exact same IEEE-754 operation order, so both implementations are
bit-identical over arbitrarily long runs (``tests/test_compute_parity.py``
drives them 1k steps side by side).

rng-order contract (DESIGN.md §13): each env owns its own
``default_rng`` stream, and the only draws happen in ``_reset`` —
every ``_step`` is deterministic.  Resets execute per-env in index
order, so the kernels consume each stream exactly as the scalar envs
do and seeded runs are reproducible across both implementations.

Episodes auto-reset: when env ``i`` terminates, ``step`` returns
``done[i] = True``, stashes the terminal observation under
``infos[i]["terminal_observation"]``, and returns the next episode's
first observation in ``obs[i]``.

``rollout`` is every algorithm's one rollout path: T steps under a
policy callback, returned as one flat, time-major :class:`Rollout`
with the returns of the episodes that ended.  An algorithm handed a
bare env steps it as ``VectorEnv([env])``; the sequential reference
keeps rewards, dones and infos in Python lists until the rollout ends,
so K = 1 makes one array per step (the observations the policy reads)
and costs about what a scalar loop over the env does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .base import Environment
from .cheetah1d import Cheetah1D
from .gridpong import GridPong
from .gridqbert import GridQbert
from .hopper1d import Hopper1D

__all__ = [
    "Rollout",
    "VectorEnv",
    "VectorGridPong",
    "VectorGridQbert",
    "VectorHopper1D",
    "VectorCheetah1D",
    "make_vector_env",
]


class Rollout(NamedTuple):
    """``T`` steps of ``K`` envs, flat and time-major: row ``t * K + i``
    is env ``i`` at step ``t``."""

    #: ``((T + 1) * K, obs_size)``: where the rollout started, then the
    #: observations after every step (the autoreset start where one ended).
    observations: np.ndarray
    #: ``(T * K, ...)``: the actions taken.
    actions: np.ndarray
    #: ``(T * K,)`` float64 and bool.
    rewards: np.ndarray
    dones: np.ndarray
    #: ``T * K`` info dicts.
    infos: List[Dict]
    #: ``(K, obs_size)``: where the next rollout starts.
    last_observations: np.ndarray
    #: The return of every episode that ended, in step order (env order
    #: within a step).
    episode_returns: List[float]

    @property
    def states(self) -> np.ndarray:
        """The observation each action was taken in."""
        return self.observations[: len(self.infos)]

    def transitions(self) -> tuple:
        """``(states, actions, rewards, next_states, dones)`` for replay:
        a step that ended an episode bootstraps from its terminal
        observation, not from the autoreset start that follows it."""
        rows, observations = len(self.infos), self.observations
        next_states = observations[len(observations) - rows:]
        if self.episode_returns:  # some episode ended
            next_states = next_states.copy()
            for row in self.dones.nonzero()[0]:
                next_states[row] = self.infos[row]["terminal_observation"]
        return observations[:rows], self.actions, self.rewards, next_states, self.dones


class _StepLog(NamedTuple):
    """What a run of steps appends to, per env in step order."""

    actions: list
    rewards: list
    dones: list
    infos: list
    #: The return of each episode that ended.
    returns: list


class VectorEnv:
    """K environments stepped together; this base loops sequentially."""

    def __init__(self, envs: Sequence[Environment]) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("VectorEnv needs at least one environment")
        self.envs = envs
        self.num_envs = len(envs)
        self.observation_size = envs[0].observation_size
        self.action_space = envs[0].action_space
        self._returns = [0.0] * self.num_envs

    def reset(self) -> np.ndarray:
        return np.stack([env.reset() for env in self.envs])

    def step(self, actions):
        log = _StepLog([], [], [], [], [])
        obs = self._step_into(actions, log)
        return (
            obs,
            np.array(log.rewards, dtype=np.float64),
            np.array(log.dones, dtype=bool),
            log.infos,
        )

    def rollout(
        self,
        obs: np.ndarray,
        act: Callable[[np.ndarray], Sequence],
        steps: int,
        on_episode_end: Optional[Callable[[list], None]] = None,
    ) -> Rollout:
        """``steps`` steps from ``obs`` (the ``(K, obs_size)`` observations
        the last step or ``reset`` returned), each with the K actions
        ``act(obs)`` picks (an array, or a list of scalar actions).
        After a step that ended an episode, ``on_episode_end`` gets that
        step's K dones, before the next ``act``."""
        num_envs, step_into = self.num_envs, self._step_into
        log, obs_buf = _StepLog([], [], [], [], []), [obs]
        for _ in range(steps):
            obs = step_into(act(obs), log)
            if on_episode_end is not None:
                step_dones = log.dones[-num_envs:]
                if True in step_dones:
                    on_episode_end(step_dones)
            obs_buf.append(obs)
        return Rollout(
            np.concatenate(obs_buf),
            np.array(log.actions),
            np.array(log.rewards, dtype=np.float64),
            np.array(log.dones, dtype=bool),
            log.infos,
            obs,
            log.returns,
        )

    def _step_into(self, actions, log: _StepLog) -> np.ndarray:
        """Step every env once (autoreset), append to ``log`` in env order,
        and return the ``(K, obs_size)`` observations.  An episode's
        return sums its rewards in step order from 0.0, however the env
        was stepped."""
        taken, rewards, dones, infos, returns = log
        running, rows = self._returns, []
        for i, (env, action) in enumerate(zip(self.envs, actions)):
            o, r, d, info = env.step(action)
            running[i] += r
            if d:
                returns.append(running[i])
                running[i] = 0.0
                info = {**info, "terminal_observation": o}
                o = env.reset()
            rows.append(o)
            taken.append(action)
            rewards.append(r)
            dones.append(d)
            infos.append(info)
        return np.array(rows)


class _KernelVectorEnv(VectorEnv):
    """Struct-of-arrays base: batched step kernel + per-env scalar resets."""

    def __init__(
        self, num_envs: int, seed: Optional[int] = None, max_steps: int = 200
    ) -> None:
        # No super().__init__ — kernels hold arrays, not env objects.
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.num_envs = num_envs
        self.max_steps = max_steps
        self._returns = np.zeros(num_envs)
        self._rngs = [
            np.random.default_rng(None if seed is None else seed + i)
            for i in range(num_envs)
        ]

    def reset(self) -> np.ndarray:
        for i in range(self.num_envs):
            self._reset_env(i)
        return self._observe_all()

    def _step_into(self, actions, log: _StepLog) -> np.ndarray:
        taken, rewards, dones, infos, returns = log
        actions = np.asarray(actions)
        step_rewards, step_dones, step_infos = self._step_all(actions)
        self._returns += step_rewards
        obs = self._observe_all()
        for i in np.nonzero(step_dones)[0]:
            returns.append(float(self._returns[i]))
            self._returns[i] = 0.0
            step_infos[i]["terminal_observation"] = obs[i].copy()
            self._reset_env(i)
            obs[i] = self._observe_env(i)
        taken.extend(actions.tolist())
        rewards.extend(step_rewards.tolist())
        dones.extend(step_dones.tolist())
        infos.extend(step_infos)
        return obs

    def _empty_infos(self) -> List[Dict]:
        return [{} for _ in range(self.num_envs)]

    # Kernel hooks -------------------------------------------------------
    def _reset_env(self, i: int) -> None:
        raise NotImplementedError

    def _step_all(self, actions: np.ndarray):
        raise NotImplementedError

    def _observe_all(self) -> np.ndarray:
        raise NotImplementedError

    def _observe_env(self, i: int) -> np.ndarray:
        raise NotImplementedError


class VectorGridPong(_KernelVectorEnv):
    observation_size = GridPong.observation_size
    action_space = GridPong.action_space

    def __init__(self, num_envs, seed=None, max_steps: int = 200) -> None:
        super().__init__(num_envs, seed, max_steps)
        k = num_envs
        self._steps = np.zeros(k, dtype=np.int64)
        self._ball = np.zeros((k, 2))
        self._vel = np.zeros((k, 2))
        self._paddle_x = np.zeros(k)

    def _reset_env(self, i: int) -> None:
        rng = self._rngs[i]
        self._steps[i] = 0
        self._paddle_x[i] = 0.5
        self._ball[i, 0] = rng.uniform(0.2, 0.8)
        self._ball[i, 1] = rng.uniform(0.5, 0.9)
        angle = rng.uniform(-0.8, 0.8)
        self._vel[i, 0] = GridPong.BALL_SPEED * np.sin(angle)
        self._vel[i, 1] = GridPong.BALL_SPEED * (-np.cos(angle))

    def _step_all(self, actions: np.ndarray):
        if actions.dtype.kind not in "iu" or np.any((actions < 0) | (actions > 2)):
            raise ValueError(f"invalid GridPong actions: {actions!r}")
        half_width = GridPong.PADDLE_HALF_WIDTH
        self._steps += 1
        self._paddle_x += (actions - 1) * GridPong.PADDLE_SPEED
        np.clip(self._paddle_x, 0.0, 1.0, out=self._paddle_x)

        self._ball += self._vel
        bx, by = self._ball[:, 0], self._ball[:, 1]
        vx, vy = self._vel[:, 0], self._vel[:, 1]
        side = (bx < 0.0) | (bx > 1.0)
        if side.any():
            bx[side] = np.clip(bx[side], 0.0, 1.0)
            vx[side] = -vx[side]
        ceiling = by > 1.0
        if ceiling.any():
            by[ceiling] = 1.0
            vy[ceiling] = -vy[ceiling]

        rewards = np.zeros(self.num_envs)
        infos = self._empty_infos()
        bottom = by <= 0.0
        hit = bottom & (np.abs(bx - self._paddle_x) <= half_width)
        if hit.any():
            rewards[hit] = 1.0
            by[hit] = 0.0
            vy[hit] = np.abs(vy[hit])
            offset = (bx[hit] - self._paddle_x[hit]) / half_width
            vx[hit] = np.clip(vx[hit] + 0.03 * offset, -0.09, 0.09)
            for i in np.nonzero(hit)[0]:
                infos[i]["hit"] = True
        miss = bottom & ~hit
        rewards[miss] = -1.0
        for i in np.nonzero(miss)[0]:
            infos[i]["miss"] = True
        dones = miss | (self._steps >= self.max_steps)
        return rewards, dones, infos

    def _observe_all(self) -> np.ndarray:
        obs = np.empty((self.num_envs, 5))
        obs[:, 0] = 2.0 * self._ball[:, 0] - 1.0
        obs[:, 1] = 2.0 * self._ball[:, 1] - 1.0
        obs[:, 2] = self._vel[:, 0] / GridPong.BALL_SPEED
        obs[:, 3] = self._vel[:, 1] / GridPong.BALL_SPEED
        obs[:, 4] = 2.0 * self._paddle_x - 1.0
        return obs

    def _observe_env(self, i: int) -> np.ndarray:
        return np.array(
            [
                2.0 * self._ball[i, 0] - 1.0,
                2.0 * self._ball[i, 1] - 1.0,
                self._vel[i, 0] / GridPong.BALL_SPEED,
                self._vel[i, 1] / GridPong.BALL_SPEED,
                2.0 * self._paddle_x[i] - 1.0,
            ],
            dtype=np.float64,
        )


_QBERT_MOVES = np.array([(-1, -1), (-1, 0), (1, 0), (1, 1)], dtype=np.int64)


class VectorGridQbert(_KernelVectorEnv):
    action_space = GridQbert.action_space

    def __init__(self, num_envs, seed=None, rows: int = 5, max_steps: int = 120) -> None:
        super().__init__(num_envs, seed, max_steps)
        if rows < 2:
            raise ValueError(f"need at least 2 rows, got {rows}")
        self.rows = rows
        self.n_cubes = rows * (rows + 1) // 2
        self.observation_size = 2 + self.n_cubes
        k = num_envs
        self._steps = np.zeros(k, dtype=np.int64)
        self._row = np.zeros(k, dtype=np.int64)
        self._col = np.zeros(k, dtype=np.int64)
        self._painted = np.zeros((k, self.n_cubes))

    def _reset_env(self, i: int) -> None:
        # GridQbert._reset draws nothing from its rng; neither do we.
        self._painted[i, :] = 0.0
        self._row[i] = 0
        self._col[i] = 0
        self._painted[i, 0] = 1.0
        self._steps[i] = 0

    def _step_all(self, actions: np.ndarray):
        if actions.dtype.kind not in "iu" or np.any((actions < 0) | (actions > 3)):
            raise ValueError(f"invalid GridQbert actions: {actions!r}")
        self._steps += 1
        moves = _QBERT_MOVES[actions]
        row = self._row + moves[:, 0]
        col = self._col + moves[:, 1]
        fell = (row < 0) | (row >= self.rows) | (col < 0) | (col > row)
        ok = ~fell
        self._row[ok] = row[ok]
        self._col[ok] = col[ok]

        rewards = np.zeros(self.num_envs)
        rewards[fell] = -1.0
        infos = self._empty_infos()
        for i in np.nonzero(fell)[0]:
            infos[i]["fell"] = True

        index = self._row * (self._row + 1) // 2 + self._col
        env_ids = np.arange(self.num_envs)
        newly = ok & (self._painted[env_ids, index] == 0.0)
        self._painted[env_ids[newly], index[newly]] = 1.0
        rewards[newly] = 1.0
        for i in np.nonzero(newly)[0]:
            infos[i]["painted"] = True

        cleared = ok & self._painted.all(axis=1)
        rewards[cleared] += 5.0
        for i in np.nonzero(cleared)[0]:
            infos[i]["cleared"] = True
        dones = fell | cleared | (ok & (self._steps >= self.max_steps))
        return rewards, dones, infos

    def _observe_all(self) -> np.ndarray:
        obs = np.empty((self.num_envs, self.observation_size))
        obs[:, 0] = 2.0 * self._row / (self.rows - 1) - 1.0
        obs[:, 1] = 2.0 * self._col / max(1, self.rows - 1) - 1.0
        obs[:, 2:] = self._painted
        return obs

    def _observe_env(self, i: int) -> np.ndarray:
        position = np.array(
            [
                2.0 * self._row[i] / (self.rows - 1) - 1.0,
                2.0 * self._col[i] / max(1, self.rows - 1) - 1.0,
            ]
        )
        return np.concatenate([position, self._painted[i]])


class VectorHopper1D(_KernelVectorEnv):
    observation_size = Hopper1D.observation_size
    action_space = Hopper1D.action_space

    def __init__(self, num_envs, seed=None, max_steps: int = 200) -> None:
        super().__init__(num_envs, seed, max_steps)
        k = num_envs
        self._steps = np.zeros(k, dtype=np.int64)
        self._height = np.zeros(k)
        self._v_vertical = np.zeros(k)
        self._v_forward = np.zeros(k)
        self._grounded_steps = np.zeros(k, dtype=np.int64)

    def _reset_env(self, i: int) -> None:
        rng = self._rngs[i]
        self._height[i] = rng.uniform(0.05, 0.25)
        self._v_vertical[i] = 0.0
        self._v_forward[i] = rng.uniform(0.0, 0.2)
        self._grounded_steps[i] = 0
        self._steps[i] = 0

    def _step_all(self, actions: np.ndarray):
        env = Hopper1D
        thrust = self.action_space.clip(actions.reshape(self.num_envs, -1))[:, 0]
        self._steps += 1

        in_contact = self._height <= 1e-6
        push = in_contact & (thrust > 0.0)
        self._grounded_steps[in_contact] += 1
        self._v_vertical[push] = 1.5 * thrust[push]
        self._v_forward[push] += env.THRUST_GAIN * thrust[push] * env.DT
        self._grounded_steps[push] = 0
        self._grounded_steps[~in_contact] = 0

        self._v_vertical -= env.GRAVITY * env.DT
        self._height = np.maximum(0.0, self._height + self._v_vertical * env.DT)
        stopped = (self._height == 0.0) & (self._v_vertical < 0.0)
        self._v_vertical[stopped] = 0.0
        self._v_forward = np.maximum(0.0, self._v_forward * (1.0 - env.DRAG))

        rewards = self._v_forward - 0.1 * thrust * thrust + 0.05
        fallen = self._grounded_steps > 8
        rewards[fallen] -= 1.0
        dones = fallen | (self._steps >= self.max_steps)
        infos = self._empty_infos()
        for i in range(self.num_envs):
            infos[i]["fallen"] = bool(fallen[i])
        return rewards, dones, infos

    def _observe_all(self) -> np.ndarray:
        obs = np.empty((self.num_envs, 4))
        obs[:, 0] = self._height
        obs[:, 1] = self._v_vertical / 3.0
        obs[:, 2] = self._v_forward / 3.0
        obs[:, 3] = np.where(self._height <= 1e-6, 1.0, -1.0)
        return obs

    def _observe_env(self, i: int) -> np.ndarray:
        phase = 1.0 if self._height[i] <= 1e-6 else -1.0
        return np.array(
            [
                self._height[i],
                self._v_vertical[i] / 3.0,
                self._v_forward[i] / 3.0,
                phase,
            ]
        )


class VectorCheetah1D(_KernelVectorEnv):
    observation_size = Cheetah1D.observation_size
    action_space = Cheetah1D.action_space

    def __init__(self, num_envs, seed=None, max_steps: int = 200) -> None:
        super().__init__(num_envs, seed, max_steps)
        k = num_envs
        self._steps = np.zeros(k, dtype=np.int64)
        self._velocity = np.zeros(k)
        self._pitch = np.zeros(k)
        self._pitch_rate = np.zeros(k)

    def _reset_env(self, i: int) -> None:
        rng = self._rngs[i]
        self._velocity[i] = rng.uniform(0.0, 0.1)
        self._pitch[i] = rng.uniform(-0.05, 0.05)
        self._pitch_rate[i] = 0.0
        self._steps[i] = 0

    def _step_all(self, actions: np.ndarray):
        env = Cheetah1D
        clipped = self.action_space.clip(actions.reshape(self.num_envs, -1))
        front, back = clipped[:, 0], clipped[:, 1]
        self._steps += 1

        drive = 0.5 * (front - back)
        pitch_torque = 0.5 * (front + back)

        efficiency = np.maximum(0.0, np.cos(self._pitch))
        self._velocity += 4.0 * drive * efficiency * env.DT
        self._velocity = np.maximum(0.0, self._velocity * (1.0 - env.DRAG))

        self._pitch_rate += env.PITCH_COUPLING * pitch_torque * env.DT
        self._pitch_rate *= 0.9
        self._pitch = np.clip(self._pitch + self._pitch_rate * env.DT, -1.2, 1.2)

        control_cost = 0.05 * (front * front + back * back)
        rewards = self._velocity - control_cost - 0.2 * np.abs(self._pitch)
        dones = self._steps >= self.max_steps
        return rewards, dones.copy(), self._empty_infos()

    def _observe_all(self) -> np.ndarray:
        obs = np.empty((self.num_envs, 3))
        obs[:, 0] = self._velocity / 3.0
        obs[:, 1] = self._pitch
        obs[:, 2] = self._pitch_rate
        return obs

    def _observe_env(self, i: int) -> np.ndarray:
        return np.array(
            [self._velocity[i] / 3.0, self._pitch[i], self._pitch_rate[i]]
        )


_KERNELS = {
    "gridpong": (VectorGridPong, GridPong),
    "gridqbert": (VectorGridQbert, GridQbert),
    "hopper1d": (VectorHopper1D, Hopper1D),
    "cheetah1d": (VectorCheetah1D, Cheetah1D),
}


def make_vector_env(
    name: str, num_envs: int, seed: Optional[int] = None, *, kernel: bool = True, **kwargs
) -> VectorEnv:
    """Build a vectorized env: kernel implementation or sequential reference.

    Env ``i`` is seeded ``seed + i`` (fresh entropy when ``seed`` is
    None), identically for both implementations.
    """
    if name not in _KERNELS:
        raise ValueError(f"unknown env {name!r}; choose from {sorted(_KERNELS)}")
    vector_cls, scalar_cls = _KERNELS[name]
    if kernel:
        return vector_cls(num_envs, seed=seed, **kwargs)
    return VectorEnv(
        [
            scalar_cls(seed=None if seed is None else seed + i, **kwargs)
            for i in range(num_envs)
        ]
    )
