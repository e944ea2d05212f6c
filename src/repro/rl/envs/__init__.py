"""Simulated RL workloads standing in for the paper's Atari/MuJoCo tasks."""

from .base import Environment, StepResult
from .cheetah1d import Cheetah1D
from .gridpong import GridPong
from .gridqbert import GridQbert
from .hopper1d import Hopper1D
from .vector import VectorEnv, make_vector_env
from .wrappers import FrameStack, NormalizeObservation, ScaleReward, Wrapper

__all__ = [
    "Environment",
    "StepResult",
    "GridPong",
    "GridQbert",
    "Hopper1D",
    "Cheetah1D",
    "VectorEnv",
    "make_vector_env",
    "Wrapper",
    "NormalizeObservation",
    "FrameStack",
    "ScaleReward",
]
