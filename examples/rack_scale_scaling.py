#!/usr/bin/env python3
"""Rack-scale scaling with hierarchical in-switch aggregation.

Builds the Figure 10 topology (three workers per ToR under a root switch)
at growing cluster sizes and compares how each strategy's per-iteration
time and end-to-end speedup scale — the Figure 15 experiment.

Run:  python examples/rack_scale_scaling.py
"""

from repro.distributed import ExperimentConfig, run
from repro.experiments.reporting import render_table


def main() -> None:
    workload = "ppo"
    sizes = (4, 6, 9, 12)

    print(f"=== Synchronous scaling ({workload.upper()}) ===\n")
    rows = []
    base_cost = {}
    for strategy in ("ps", "ar", "isw"):
        cells = [strategy.upper()]
        for size in sizes:
            result = run(
                ExperimentConfig(
                    strategy=strategy,
                    workload=workload,
                    n_workers=size,
                    iterations=8,
                    seed=1,
                    telemetry=False,
                )
            )
            # End-to-end cost scales as per-iteration time x iterations,
            # with convergence iterations ~ 1/N (perfect data parallelism).
            cost = result.per_iteration_time / size
            base_cost.setdefault(strategy, cost)
            speedup = base_cost[strategy] / cost
            cells.append(
                f"{result.per_iteration_time * 1e3:.1f}ms ({speedup:.2f}x)"
            )
        rows.append(cells)
    rows.append(
        ["Ideal"] + [f"        ({size / sizes[0]:.2f}x)" for size in sizes]
    )
    print(
        render_table(
            ["approach"] + [f"{n} workers" for n in sizes],
            rows,
            title="per-iteration time (end-to-end speedup vs 4 workers)",
        )
    )

    print(f"\n=== Asynchronous scaling ({workload.upper()}) ===\n")
    rows = []
    for strategy in ("ps", "isw"):
        cells = ["Async " + strategy.upper()]
        for size in sizes:
            result = run(
                ExperimentConfig(
                    strategy=strategy,
                    workload=workload,
                    mode="async",
                    n_workers=size,
                    iterations=40,
                    seed=1,
                    telemetry=False,
                )
            )
            cells.append(
                f"{result.per_iteration_time * 1e3:.2f}ms "
                f"(s={result.mean_staleness:.1f})"
            )
        rows.append(cells)
    print(
        render_table(
            ["approach"] + [f"{n} workers" for n in sizes],
            rows,
            title="update interval (mean gradient staleness)",
        )
    )
    print(
        "\nAsync PS staleness grows with the cluster; async iSwitch stays "
        "fresh at every size — the Figure 15b/15d effect."
    )


if __name__ == "__main__":
    main()
