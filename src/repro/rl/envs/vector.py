"""Batched environment stepping.

``VectorEnv`` advances K environments together behind one batched
``reset``/``step`` API, looping over K scalar :class:`Environment`
instances in index order — correct for any env, including the wrappers
in ``rl/envs/wrappers.py``.  It is the one batched env: each env's
dynamics is written once, in its scalar ``_step``.
:func:`make_vector_env` builds one from an env name and a seed.

rng-order contract (DESIGN.md §13): each env owns its own
``default_rng`` stream, and the only draws happen in ``_reset`` —
every ``_step`` is deterministic.  Env ``i`` of a vector consumes its
stream exactly as the same env stepped alone does, so a seeded run is
reproducible whatever K is.

Episodes auto-reset: when env ``i`` terminates, ``step`` returns
``done[i] = True``, stashes the terminal observation under
``infos[i]["terminal_observation"]``, and returns the next episode's
first observation in ``obs[i]``.

``rollout`` is every algorithm's one rollout path: T steps under a
policy callback, returned as one flat, time-major :class:`Rollout`
with the returns of the episodes that ended.  An algorithm handed a
bare env steps it as ``VectorEnv([env])``.  A rollout keeps rewards,
dones and infos in Python lists until it ends, so K = 1 makes one array
per step (the observations the policy reads) and costs about what a
scalar loop over the env does.
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
    """K environments stepped together, one after another."""

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
        return sums its rewards in step order from 0.0."""
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


_ENVS = {
    "gridpong": GridPong,
    "gridqbert": GridQbert,
    "hopper1d": Hopper1D,
    "cheetah1d": Cheetah1D,
}


def make_vector_env(
    name: str, num_envs: int, seed: Optional[int] = None, **kwargs
) -> VectorEnv:
    """``num_envs`` scalar envs of ``name`` in one :class:`VectorEnv`.

    Env ``i`` is seeded ``seed + i`` (fresh entropy when ``seed`` is
    None); ``kwargs`` go to every env's constructor.
    """
    if name not in _ENVS:
        raise ValueError(f"unknown env {name!r}; choose from {sorted(_ENVS)}")
    cls = _ENVS[name]
    return VectorEnv(
        [
            cls(seed=None if seed is None else seed + i, **kwargs)
            for i in range(num_envs)
        ]
    )
