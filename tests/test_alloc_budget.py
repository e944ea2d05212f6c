"""An allocation budget that fails on the next stray copy of the vector.

Peak traced memory of one ``run()``, in units of one float32 gradient
vector ``V``.  What has to be live on a 4-worker synthetic run is four
float64 replicas (8 V), the round's gradients (4 V, on iSwitch one of them
*is* the round buffer), one float64 update and the optimizer's temporary
(2 V each): about 14.8 V on every strategy.  At the parent commit the same
runs peaked at 24.8 V (isw, growing by 1 V per iteration as the Help cache
pinned every round buffer), 18.7 V (ps) and 24.7 V (ar).
"""

import tracemalloc

import pytest

from repro.distributed import ExperimentConfig, run

N_PARAMS = 366_000
V = 4 * N_PARAMS


def peak_in_vectors(strategy, iterations):
    tracemalloc.start()
    try:
        run(
            ExperimentConfig(
                strategy=strategy, workload="synth", n_workers=4,
                iterations=iterations, seed=7, telemetry=False,
                algorithm_overrides={"n_params": N_PARAMS},
            )
        )
        return tracemalloc.get_traced_memory()[1] / V
    finally:
        tracemalloc.stop()


def test_sync_isw_peak_is_bounded_and_does_not_grow_with_iterations():
    short = peak_in_vectors("isw", 2)
    long = peak_in_vectors("isw", 12)
    assert short <= 16.0, short
    # A Help cache counted in segments pinned one round buffer per
    # iteration: +10 V over these ten iterations at the parent commit.
    assert abs(long - short) <= 1.0, (short, long)


@pytest.mark.parametrize("strategy", ["ps", "ar", "ar-hd", "ps-shard"])
def test_sharing_the_round_results_does_not_raise_the_host_side_peak(strategy):
    # The shared fold and mean are released at the round barrier; a memo
    # that outlived it would add 2 V per retained round.
    short = peak_in_vectors(strategy, 2)
    long = peak_in_vectors(strategy, 12)
    assert short <= 16.0, short
    assert abs(long - short) <= 1.0, (short, long)
