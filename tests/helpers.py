"""Shared test helpers."""

from contextlib import contextmanager
from unittest import mock

from repro.distributed import ExperimentConfig, run
from repro.distributed import runner as _runner

#: What a run forced onto the per-packet path reports as its transport.
REFERENCE_TRANSPORT = "packet (test reference)"


def per_packet_reference():
    """Context manager: ``run()`` builds per-packet clusters inside it.

    There is no user-settable transport; the parity tests get their
    reference by replacing the one selection function ``build_cluster``
    calls.
    """
    return mock.patch.object(
        _runner, "choose_transport", lambda **_: REFERENCE_TRANSPORT
    )


@contextmanager
def built_clusters(prepare=None):
    """Context manager: the ``(net, workers)`` pairs ``run()`` builds inside
    it, each passed through ``prepare(net, workers)`` first if given."""
    built = []
    inner = _runner.build_cluster

    def spy(*args, **kwargs):
        net, workers = inner(*args, **kwargs)
        if prepare is not None:
            prepare(net, workers)
        built.append((net, workers))
        return net, workers

    with mock.patch.object(_runner, "build_cluster", spy):
        yield built


def train(strategy, workload, **fields):
    """One telemetry-off training run: ``run(ExperimentConfig(...))``."""
    return run(
        ExperimentConfig(
            strategy=strategy, workload=workload, telemetry=False, **fields
        )
    )
