"""Shared test helpers."""

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


def train(strategy, workload, **fields):
    """One telemetry-off training run: ``run(ExperimentConfig(...))``."""
    return run(
        ExperimentConfig(
            strategy=strategy, workload=workload, telemetry=False, **fields
        )
    )
