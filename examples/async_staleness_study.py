#!/usr/bin/env python3
"""Asynchronous training: staleness, update rate, and convergence.

Reproduces the Figure 14 / Table 5 story in miniature on real DQN
training: Async PS gradients go stale waiting in the server's queue, while
Async iSwitch's two-hop aggregation keeps them fresh — so iSwitch both
updates faster and learns more per update.

Also demonstrates Algorithm 1's staleness bound S: with S=0 workers
discard every gradient that overlaps a weight update; with a generous S
they commit everything.

Run:  python examples/async_staleness_study.py
"""

from repro.distributed import ExperimentConfig, run
from repro.experiments.reporting import render_series, render_table


def compare_strategies() -> None:
    print("=== Async PS vs Async iSwitch (DQN, 4 workers, S = 3) ===\n")
    rows = []
    curves = {}
    for strategy in ("ps", "isw"):
        result = run(
            ExperimentConfig(
                strategy=strategy,
                workload="dqn",
                mode="async",
                n_workers=4,
                iterations=800,
                seed=1,
                telemetry=False,
            )
        )
        curves[strategy] = result.workers[0].reward_curve
        rows.append(
            (
                "Async " + strategy.upper(),
                f"{result.per_iteration_time * 1e3:.2f}",
                f"{result.mean_staleness:.2f}",
                f"{result.max_staleness:.0f}",
                f"{result.elapsed:.2f}",
                f"{result.final_average_reward:.2f}",
            )
        )
    print(
        render_table(
            (
                "approach",
                "update interval ms",
                "mean staleness",
                "max staleness",
                "elapsed s (sim)",
                "final reward",
            ),
            rows,
        )
    )
    print()
    for strategy, curve in curves.items():
        print(
            render_series(
                f"reward vs simulated time — Async {strategy.upper()}",
                curve.times,
                curve.values,
                max_points=10,
                time_unit="s",
            )
        )
        print()


def staleness_bound_sweep() -> None:
    print("=== The staleness bound S (Algorithm 1) ===\n")
    rows = []
    for bound in (0, 1, 3):
        result = run(
            ExperimentConfig(
                strategy="isw",
                workload="dqn",
                mode="async",
                n_workers=4,
                iterations=200,
                seed=1,
                staleness_bound=bound,
                telemetry=False,
            )
        )
        rows.append(
            (
                bound,
                f"{result.mean_staleness:.2f}",
                result.commits,
                result.skipped_commits,
            )
        )
    print(
        render_table(
            ("S", "mean staleness", "committed", "discarded"),
            rows,
        )
    )


if __name__ == "__main__":
    compare_strategies()
    staleness_bound_sweep()
