"""Simulated training workers: an RL algorithm bound to a simulated host.

A :class:`SimWorker` pairs the *real* numerical training state (a
:class:`repro.rl.base.Algorithm`) with the *modelled* iteration timing (a
:class:`ComputeModel` drawing LGC/LWU durations from the calibrated
workload profile).  Strategies drive workers purely through simulator
events; the NumPy math executes inside those events, so gradient values
and simulated timestamps stay consistent.
"""

from __future__ import annotations

import copy

import numpy as np

from ..netsim.node import Host
from ..netsim.trace import TimeSeries
from ..rl.base import Algorithm
from ..workloads.profiles import WorkloadProfile
from .metrics import IterationBreakdown

__all__ = ["ComputeModel", "SimWorker"]


class ComputeModel:
    """Samples per-iteration LGC/LWU durations for one worker.

    Durations are the profile's calibrated means with small lognormal
    jitter (different per worker via the seed), which is what produces
    straggler effects under synchronous barriers.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.rng = np.random.default_rng(seed)
        #: Straggler knob: LGC durations are multiplied by this factor.
        #: 1.0 (the default) is exact in IEEE arithmetic, so un-faulted
        #: runs are bit-identical to builds without the knob.  The fault
        #: injector raises it for timed ``straggler`` windows.
        self.slowdown = 1.0

    def lgc_duration(self) -> float:
        jitter = self.profile.compute_jitter
        if jitter <= 0:
            return self.profile.compute_time * self.slowdown
        return float(
            self.profile.compute_time
            * self.rng.lognormal(0.0, jitter)
            * self.slowdown
        )

    def lwu_duration(self) -> float:
        return self.profile.weight_update_time


class SimWorker:
    """One training worker: host + algorithm + timing model + accounting."""

    def __init__(
        self,
        index: int,
        host: Host,
        algorithm: Algorithm,
        compute: ComputeModel,
    ) -> None:
        self.index = index
        self.name = host.name
        self.host = host
        self.algorithm = algorithm
        self.compute = compute
        self.iterations_done = 0
        self.breakdown = IterationBreakdown()
        #: (sim time, final-average episode reward) samples.
        self.reward_curve = TimeSeries(name=f"worker{index}")
        self._episodes_seen = 0

    @property
    def sim(self):
        return self.host.sim

    def detach(self) -> "SimWorker":
        """Move the replica (algorithm, counters, curves) to a host-less twin.

        A finished cluster is a web of reference cycles only the cycle
        collector frees, and train runs rarely trigger it; ``run()`` returns
        detached workers so that dropping the ``TrainingResult`` frees the
        replicas, replay buffers included, by reference count.
        """
        twin = copy.copy(self)
        twin.host = None
        self.algorithm = None
        return twin

    def record_reward_sample(self) -> None:
        """Record a (time, avg reward) point when new episodes completed."""
        completed = len(self.algorithm.episode_rewards)
        if completed > self._episodes_seen and completed >= 1:
            self._episodes_seen = completed
            self.reward_curve.record(
                self.sim.now, self.algorithm.final_average_reward()
            )

    def start_lgc(self, on_gradient, alive=None, against=None, **labels) -> None:
        """One local gradient computation: its duration is drawn now; when
        it has elapsed (and ``alive()`` still holds) it is accounted, its
        span recorded and the gradient handed to ``on_gradient`` — computed
        against the live weights, or against the snapshot ``against``
        (Algorithm 1's LGC thread copies the weights it starts from; the LWU
        thread may have moved the live ones on by the time it ends)."""
        duration = self.compute.lgc_duration()

        def lgc_done() -> None:
            if alive is not None and not alive():
                return
            self.breakdown.add_compute(self.compute.profile, duration)
            telemetry = self.sim.telemetry
            if telemetry.enabled:
                telemetry.span_at(
                    "compute.lgc",
                    self.sim.now - duration,
                    self.sim.now,
                    cat="training",
                    track=self.name,
                    **labels,
                )
            algorithm = self.algorithm
            if against is None:
                on_gradient(algorithm.compute_gradient())
                return
            current = algorithm.get_weights()
            algorithm.set_weights(against)
            gradient = algorithm.compute_gradient()
            algorithm.set_weights(current)
            on_gradient(gradient)

        self.sim.schedule(duration, lgc_done, name=f"lgc:w{self.index}")

    def finish_iteration(self) -> None:
        self.iterations_done += 1
        self.breakdown.finish_iteration()
        self.record_reward_sample()
