#!/usr/bin/env python3
"""Quickstart: aggregate gradients in the switch, then train through it.

This walks the two layers of the library:

1. the *protocol layer* — build a simulated rack, attach
   :class:`AggregationClient` endpoints, and push raw gradient vectors
   through the in-switch accelerator;
2. the *training layer* — run a few iterations of real distributed RL
   training (PPO on the Hopper1D stand-in) where every gradient crosses
   the same simulated data plane.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import AggregationClient, SegmentPlan, configure_aggregation, iswitch_factory
from repro.distributed import ExperimentConfig, run
from repro.netsim import Simulator, build_star


def aggregate_one_round():
    print("=== 1. Raw in-switch aggregation ===")
    sim = Simulator()
    net = build_star(sim, n_workers=4, switch_factory=iswitch_factory)
    configure_aggregation(net)  # workers join, H = 4

    plan = SegmentPlan(n_elements=10_000)  # a 40 KB gradient vector
    print(
        f"gradient vector: {plan.n_elements} floats, "
        f"{plan.n_frames} Ethernet frames, H = {net.switches[0].engine.threshold}"
    )

    results = {}
    clients = [
        AggregationClient(
            worker,
            "tor0",
            plan,
            on_round_complete=lambda rnd, vec, name=worker.name: results.__setitem__(
                name, vec
            ),
        )
        for worker in net.workers
    ]

    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(plan.n_elements).astype(np.float32) for _ in clients]
    for client, vector in zip(clients, vectors):
        client.send_gradient(vector, round_index=0)

    sim.run()
    expected = np.sum(vectors, axis=0)
    for name, got in sorted(results.items()):
        error = np.abs(got - expected).max()
        print(f"  {name}: received summed vector, max |error| = {error:.2e}")
    print(f"  aggregation completed at t = {sim.now * 1e6:.1f} us simulated\n")


def train_through_the_switch():
    print("=== 2. Distributed RL training through the switch ===")
    result = run(
        ExperimentConfig(
            strategy="isw",
            workload="ppo",
            n_workers=4,
            iterations=40,
            seed=0,
            telemetry=False,
        )
    )
    print(f"  strategy:            {result.strategy}")
    print(f"  iterations:          {result.iterations}")
    print(f"  per-iteration time:  {result.per_iteration_time * 1e3:.2f} ms (simulated)")
    print(
        f"  aggregation share:   {result.breakdown.aggregation_share * 100:.1f}% "
        "of each iteration"
    )
    print(f"  episodes completed:  {len(result.workers[0].algorithm.episode_rewards)}")
    print(f"  avg episode reward:  {result.final_average_reward:.2f}")


if __name__ == "__main__":
    aggregate_one_round()
    train_through_the_switch()
