#!/usr/bin/env python3
"""Compare the three synchronous strategies on one workload.

Reproduces the Table 4 / Figure 12 methodology on a workload of your
choice: measures simulated per-iteration time under PS, Ring-AllReduce and
iSwitch, verifies the weight trajectories are numerically identical, and
projects end-to-end training time at the paper's convergence iteration
counts.

Run:  python examples/sync_training_comparison.py [dqn|a2c|ppo|ddpg]
"""

import sys

import numpy as np

from repro.distributed import ExperimentConfig, run
from repro.experiments.reporting import render_table
from repro.workloads import get_profile


def main(workload: str = "dqn") -> None:
    profile = get_profile(workload)
    print(
        f"workload: {workload.upper()} ({profile.environment}), "
        f"wire vector {profile.model_bytes / 1024:.1f} KB, "
        f"{profile.paper_iterations:,} iterations to convergence\n"
    )

    results = {}
    for strategy in ("ps", "ar", "isw"):
        results[strategy] = run(
            ExperimentConfig(
                strategy=strategy,
                workload=workload,
                n_workers=4,
                iterations=12,
                seed=1,
                telemetry=False,
            )
        )

    # The three strategies apply identical updates: verify it.
    reference = results["ps"].workers[0].algorithm.get_weights()
    for strategy in ("ar", "isw"):
        weights = results[strategy].workers[0].algorithm.get_weights()
        assert np.allclose(reference, weights, atol=1e-4), strategy
    print("weight trajectories: identical across PS / AR / iSW (verified)\n")

    rows = []
    baseline = results["ps"].per_iteration_time
    for strategy, result in results.items():
        hours = result.projected_hours(profile.paper_iterations)
        rows.append(
            (
                strategy.upper(),
                f"{result.per_iteration_time * 1e3:.2f}",
                f"{profile.paper_sync_iter_ms[strategy]:.2f}",
                f"{result.breakdown.aggregation_share * 100:.1f}%",
                f"{hours:.2f}",
                f"{baseline / result.per_iteration_time:.2f}x",
            )
        )
    print(
        render_table(
            (
                "approach",
                "iter ms (sim)",
                "iter ms (paper)",
                "agg share",
                "end-to-end h",
                "speedup",
            ),
            rows,
            title=f"Synchronous training comparison — {workload.upper()}, 4 workers",
        )
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "dqn")
