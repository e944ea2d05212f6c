"""Shared test helpers."""

from repro.distributed import ExperimentConfig, run


def train(strategy, workload, **fields):
    """One telemetry-off training run: ``run(ExperimentConfig(...))``."""
    return run(
        ExperimentConfig(
            strategy=strategy, workload=workload, telemetry=False, **fields
        )
    )
