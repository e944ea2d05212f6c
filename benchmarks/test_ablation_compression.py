"""Ablation (extension): gradient wire compression on top of iSwitch.

The paper ships raw fp32 and cites quantization work (GradiVeQ) as a
complementary direction.  This bench measures how fp16/int8 wire codecs
shrink the iSwitch aggregation latency for the DQN-sized vector, and what
quantization error they cost — showing when compression matters (big
models on slow links) and when it is noise (iSwitch already made the
network cheap).
"""

import numpy as np

from repro.core import (
    AggregationClient,
    SegmentPlan,
    configure_aggregation,
    get_codec,
    iswitch_factory,
)
from repro.experiments.reporting import render_table
from repro.netsim import Simulator, build_star
from repro.workloads import get_profile


def measure(codec_name: str, n_elements: int):
    sim = Simulator()
    net = build_star(sim, 4, switch_factory=iswitch_factory)
    configure_aggregation(net)
    codec = get_codec(codec_name)
    base = SegmentPlan(n_elements, bytes_per_element=codec.bytes_per_element)
    frames_per_chunk = max(1, -(-base.n_frames // 128))
    plan = SegmentPlan(
        n_elements,
        frames_per_chunk=frames_per_chunk,
        bytes_per_element=codec.bytes_per_element,
    )
    results = {}
    clients = [
        AggregationClient(
            w, "tor0", plan, codec=codec,
            on_round_complete=lambda r, v, n=w.name: results.__setitem__(n, v),
        )
        for w in net.workers
    ]
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(n_elements).astype(np.float32) for _ in clients]
    # Before sending: a gradient handed to the datapath is given away (the
    # switch sums the round into the first vector it receives).
    exact = np.sum(vectors, axis=0)
    for client, vector in zip(clients, vectors):
        client.send_gradient(vector, 0)
    sim.run()
    got = next(iter(results.values()))
    error = float(np.abs(got - exact).max() / np.abs(exact).max())
    return sim.now, error


def sweep():
    n_elements = get_profile("dqn").n_elements // 16  # keep the bench quick
    rows = []
    for name in ("fp32", "fp16", "int8"):
        latency, error = measure(name, n_elements)
        rows.append({"codec": name, "latency": latency, "error": error})
    return rows


def test_ablation_wire_compression(once):
    rows = once(sweep)
    base = rows[0]["latency"]
    print(
        render_table(
            ("codec", "agg latency (us)", "vs fp32", "max rel error"),
            [
                (
                    r["codec"],
                    f"{r['latency'] * 1e6:.1f}",
                    f"{r['latency'] / base:.2f}x",
                    f"{r['error']:.2e}",
                )
                for r in rows
            ],
            title="Ablation: wire compression on in-switch aggregation (DQN/16)",
        )
    )
    by = {r["codec"]: r for r in rows}
    # Latency scales with bytes per element.
    assert by["fp16"]["latency"] < 0.6 * by["fp32"]["latency"]
    assert by["int8"]["latency"] < 0.35 * by["fp32"]["latency"]
    # Error grows as precision drops, but stays bounded.
    assert by["fp32"]["error"] == 0.0
    assert by["fp16"]["error"] < 1e-3
    assert by["fp16"]["error"] < by["int8"]["error"] < 5e-2
