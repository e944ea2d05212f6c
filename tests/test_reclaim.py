"""A finished run gives its memory back without the cycle collector.

A cluster is a web of reference cycles, and a train run allocates so few
container objects that CPython's collector almost never reaches a full
pass; before ``run()`` detached the replicas, every earlier call's dead
cluster kept its replay buffers until one did.  These tests pin the fix:
dropping the ``TrainingResult`` frees the replicas by reference count.
"""

import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

from repro.distributed import ExperimentConfig, run
from repro.faults import demo_plan

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("strategy", ["isw", "ps", "ar"])
@pytest.mark.parametrize("workload", ["dqn", "ddpg", "synth"])
def test_replicas_die_with_the_result(no_collector, workload, strategy):
    result = run(
        ExperimentConfig(
            strategy=strategy, workload=workload, n_workers=4, iterations=3
        )
    )
    replicas = [weakref.ref(w.algorithm) for w in result.workers]
    assert len(replicas) == 4 and all(r() is not None for r in replicas)
    del result
    assert [r() for r in replicas] == [None] * 4


@pytest.mark.parametrize(
    "fields",
    [
        dict(mode="async"),
        dict(loss_rate=0.01),
        dict(fault_plan=demo_plan(), workload="dqn", iterations=8),
    ],
    ids=["async", "lossy", "chaos"],
)
def test_per_packet_and_async_runs_reclaim_too(no_collector, fields):
    config = dict(strategy="isw", workload="synth", n_workers=4, iterations=3)
    result = run(ExperimentConfig(**{**config, **fields}))
    replicas = [weakref.ref(w.algorithm) for w in result.workers]
    del result
    assert [r() for r in replicas] == [None] * 4


def test_returned_workers_keep_what_results_are_read_for():
    result = run(
        ExperimentConfig(strategy="isw", workload="dqn", iterations=3, seed=1)
    )
    worker = result.workers[0]
    assert (worker.index, worker.name) == (0, "worker0")
    assert worker.iterations_done == 3
    assert worker.breakdown.iterations == 3
    assert worker.algorithm.get_weights().size == worker.algorithm.n_params
    assert worker.host is None  # detached: no path back into the cluster


#: The four legs of the ``rl-train`` benchmark workload, eight passes,
#: reporting the process's high-water RSS after each pass.
_RSS_LOOP = """
import gc, json, resource
from repro.distributed import ExperimentConfig, run
LEGS = (("dqn", 60), ("a2c", 20), ("ppo", 20), ("ddpg", 30))
gc.collect()
marks = []
for _ in range(8):
    for workload, iterations in LEGS:
        run(ExperimentConfig(strategy="isw", workload=workload, n_workers=4,
                             iterations=iterations, seed=7, telemetry=False))
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
print(json.dumps(marks))
"""


@pytest.mark.slow
def test_peak_rss_plateaus_over_repeated_runs():
    # Its own interpreter: ru_maxrss is a process-wide high-water mark.
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", _RSS_LOOP],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    marks = json.loads(out.strip().splitlines()[-1])
    # Before the fix this grew ~1 MB per call (25 MB over the last six
    # passes): one dead cluster, replay buffers and all, per run().  What
    # is left is allocator slack plus the small husks (switch result
    # caches) the collector picks up on its next full pass.
    assert marks[-1] - marks[1] < 10.0, marks


#: One ``run()`` of the ``paper-isw-n4`` benchmark leg's config at a given
#: iteration count, reporting the process's high-water RSS.
_PAPER_ISW = """
import resource, sys
from repro.distributed import ExperimentConfig, run
run(ExperimentConfig(strategy="isw", workload="synth", n_workers=4,
                     iterations=int(sys.argv[1]), seed=7, telemetry=False,
                     algorithm_overrides={"n_params": 4592 * 366}))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


@pytest.mark.slow
def test_paper_size_isw_peak_rss_does_not_grow_with_iterations():
    # The Help cache held 4,096 result *segments*, each a view pinning its
    # round's whole 6.7 MB buffer: +6.5 MB per iteration (215 / 254 / 305 MB
    # at 2 / 8 / 16 iterations).  Bounded in rounds, the run plateaus.
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), PYTHONHASHSEED="0")
    marks = [
        float(
            subprocess.run(
                [sys.executable, "-c", _PAPER_ISW, str(iterations)],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            ).stdout.strip().splitlines()[-1]
        )
        for iterations in (2, 16)
    ]
    assert abs(marks[1] - marks[0]) < 10.0, marks
