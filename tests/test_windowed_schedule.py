"""One iteration schedule: sync-isw is async-isw with S = 0.

``SyncStrategy._step`` is the only schedule in the simulator; deterministic
async-isw is that schedule with its staleness window open.  The S > 0 values
below were re-derived from a checkout of the parent commit (9aabed9, paced
``AsyncISwitch``) before its paced fork was deleted.
"""

import hashlib
import inspect
import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest

from repro.core import AggregationClient, SegmentPlan
from repro.core.protocol import DataSegment
from repro.distributed import AsyncISwitch, ExperimentConfig, SimRunError, run
from repro.distributed.sync import MAX_RECOVERY_ATTEMPTS, SyncISwitch, SyncStrategy
from repro.netsim import Simulator, build_star

from .helpers import built_clusters
from .test_switch_role import REPLICA_TOLERANCE

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@contextmanager
def wall_clock_guard(seconds):
    """pytest-timeout is not installed everywhere: SIGALRM fails the test."""

    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def observed(**config):
    """(result, processed events, every replica's weight bytes) of one run."""
    with built_clusters() as built:
        result = run(ExperimentConfig(strategy="isw", seed=7, **config))
    (net, _), = built
    weights = [w.algorithm.get_weights().tobytes() for w in result.workers]
    return result, net.sim.processed_events, weights


# ----------------------------------------------------------------------
# (a) S = 0 is synchronous training, to the event
# ----------------------------------------------------------------------
S0_CONFIGS = {
    "synth-n4": dict(workload="synth", n_workers=4, iterations=10),
    "synth-n8": dict(workload="synth", n_workers=8, iterations=10),
    "dqn-n4": dict(workload="dqn", n_workers=4, iterations=6),
    "ppo-n4": dict(workload="ppo", n_workers=4, iterations=4),
    "synth-n4-telemetry": dict(
        workload="synth", n_workers=4, iterations=10, telemetry=True
    ),
    "ddpg-n6-tree": dict(workload="ddpg", n_workers=6, iterations=4),
    "a2c-n12-tree": dict(workload="a2c", n_workers=12, iterations=4),
}


@pytest.mark.parametrize("name", sorted(S0_CONFIGS))
def test_async_with_no_staleness_is_sync(name):
    config = {"telemetry": False, "deterministic_aggregation": True}
    config.update(S0_CONFIGS[name])
    sync, sync_events, sync_weights = observed(mode="sync", **config)
    windowed, events, weights = observed(
        mode="async", staleness_bound=0, **config
    )
    assert (sync.strategy, windowed.strategy) == ("sync-isw", "async-isw")
    assert repr(windowed.elapsed) == repr(sync.elapsed)
    assert weights == sync_weights
    assert events == sync_events
    assert (windowed.mean_staleness, windowed.max_staleness) == (0.0, 0)
    assert windowed.commits == config["n_workers"] * config["iterations"]


# ----------------------------------------------------------------------
# (b) S > 0 is the parent's paced schedule, to the bit
# ----------------------------------------------------------------------
PARENT_PACED = {
    ("synth", 4, 10, 3): (
        "0.009037027315062311", "331163f46d389801", 2.4, 3, 40),
    ("synth", 2, 12, 1): (
        "0.010837159676278511", "cad93c0fdcc91ec6", 0.9166666666666666, 1, 24),
    ("dqn", 4, 8, 1): (
        "0.13185372771712484", "957aa07f6a2aa8ef", 0.875, 1, 32),
    ("ppo", 4, 6, 3): (
        "0.05169374766305989", "03598c85cef3e55f", 2.0, 3, 24),
}


@pytest.mark.parametrize(
    "key", sorted(PARENT_PACED), ids=lambda k: "-".join(map(str, k))
)
def test_open_window_reproduces_the_parents_paced_schedule(key):
    workload, n_workers, iterations, bound = key
    elapsed, last_digest, mean, worst, commits = PARENT_PACED[key]
    result, _, weights = observed(
        mode="async",
        workload=workload,
        n_workers=n_workers,
        iterations=iterations,
        staleness_bound=bound,
        deterministic_aggregation=True,
        telemetry=False,
    )
    assert repr(result.elapsed) == elapsed
    assert result.round_digests[-1] == last_digest
    assert len(result.round_digests) == iterations
    assert (result.mean_staleness, result.max_staleness) == (mean, worst)
    assert (result.commits, result.skipped_commits) == (commits, 0)
    assert set(weights) == {weights[0]}
    assert all(
        stream == result.round_digests
        for stream in result.worker_digests.values()
    )


def test_sync_runs_do_not_hash_their_rounds():
    """The digests hang off the async subclass's apply step only."""
    result, _, _ = observed(
        mode="sync",
        workload="synth",
        iterations=2,
        deterministic_aggregation=True,
        telemetry=False,
    )
    assert result.round_digests is None and result.commits is None
    assert SyncISwitch._apply_sum is SyncStrategy._apply_sum


# ----------------------------------------------------------------------
# (c) The two defects the duplicate schedule hid
# ----------------------------------------------------------------------
LOSSY = dict(
    mode="async", workload="synth", n_workers=4, iterations=20, telemetry=False
)


@pytest.mark.parametrize("seed", [7, 8])
def test_lossy_deterministic_async_run_trains_every_round(seed):
    """At the parent this returned ``iterations=0`` without an exception:
    the paced fork never armed loss recovery."""
    with wall_clock_guard(60):
        result = run(
            ExperimentConfig(
                strategy="isw",
                seed=seed,
                deterministic_aggregation=True,
                loss_rate=0.01,
                **LOSSY,
            )
        )
    assert result.iterations == 20
    assert [w.iterations_done for w in result.workers] == [20] * 4
    assert len(result.round_digests) == 20 and result.max_staleness == 3
    replicas = [w.algorithm.get_weights() for w in result.workers]
    for replica in replicas[1:]:
        np.testing.assert_allclose(
            replica, replicas[0], rtol=REPLICA_TOLERANCE, atol=REPLICA_TOLERANCE
        )


def test_a_windowed_run_cannot_return_short_silently(monkeypatch):
    """``run()`` keys its check on the template, not on ``mode == "sync"``."""
    monkeypatch.setattr(SyncStrategy, "_deliver_sum", lambda *args: None)
    with pytest.raises(SimRunError) as raised:
        run(
            ExperimentConfig(
                strategy="isw",
                seed=7,
                deterministic_aggregation=True,
                **LOSSY,
            )
        )
    # S = 3: LGCs 0..3 run ahead, then the window is shut.
    assert (raised.value.worker, raised.value.round_index) == ("worker0", 0)
    assert "deterministic_aggregation=True" in str(raised.value)


#: Emergent async-isw, seed 7, recorded from the parent: repr(elapsed),
#: commits, sha256 of worker 0's weights.
PARENT_EMERGENT = {
    0.0: ("0.011003137416119982", 82, "db1e3937f180b2ca"),
    0.01: ("0.029398172750258616", 229, "1c058de6865731db"),
    0.02: ("0.04915983182463572", 388, "34b382eafc604c54"),
}


@pytest.mark.parametrize("loss_rate", sorted(PARENT_EMERGENT))
def test_light_loss_emergent_runs_are_the_parents(loss_rate):
    elapsed, commits, digest = PARENT_EMERGENT[loss_rate]
    with wall_clock_guard(60):
        result, _, weights = observed(loss_rate=loss_rate, **LOSSY)
    assert repr(result.elapsed) == elapsed
    assert (result.iterations, result.commits) == (20, commits)
    assert hashlib.sha256(weights[0]).hexdigest()[:16] == digest


HEAVY_LOSS = """
import resource
from repro.distributed import ExperimentConfig, SimRunError, run
config = ExperimentConfig(strategy="isw", mode="async", workload="synth",
                          n_workers=4, iterations=20, seed=7, loss_rate=0.2,
                          telemetry=False)
try:
    run(config)
except SimRunError as error:
    print(error)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_heavy_loss_emergent_run_is_a_typed_error_in_bounded_memory():
    """At the parent this never returned (13.6 GB RSS inside four minutes):
    no recovery is armed, so nothing completed or dropped a partial round."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    done = subprocess.run(
        [sys.executable, "-c", HEAVY_LOSS],
        env={"PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=limit_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *message, peak_mb = done.stdout.strip().splitlines()
    assert message[0].startswith("worker0: round 0 never completed")
    assert message[-1] == (
        "[replay: async-isw workload=synth n_workers=4 iterations=20 seed=7 "
        "loss_rate=0.2 telemetry=False]"
    )
    assert int(peak_mb) < 300


def test_stall_bound_counts_commits_since_the_last_applied_update():
    with built_clusters() as built:
        with pytest.raises(SimRunError):
            with wall_clock_guard(60):
                run(ExperimentConfig(strategy="isw", seed=7, loss_rate=0.2, **LOSSY))
    (net, _), = built
    clients = [c for host in net.workers for c in host._iswitch_clients]
    # Nobody committed more than the bound past its last update, and what
    # could not complete was dropped, not kept.
    assert max(c._commit_counter for c in clients) <= 2 * MAX_RECOVERY_ATTEMPTS
    assert all(c.pending_rounds() <= c.partial_window + 1 for c in clients)


def test_client_drops_partial_rounds_behind_the_window():
    sim = Simulator()
    net = build_star(sim, 1)
    plan = SegmentPlan(1000)
    assert plan.n_chunks > 1
    completed = []
    client = AggregationClient(
        net.workers[0], "tor0", plan,
        on_round_complete=lambda rnd, vec: completed.append(rnd),
    )
    client.partial_window = 3
    start, stop = plan.chunk_bounds(0)
    chunk = np.zeros(stop - start, dtype=np.float32)
    for round_index in range(50):  # chunk 0 of every round; the rest is lost
        client._receive_result(DataSegment(round_index * plan.n_chunks, chunk))
        assert client.pending_rounds() <= 4
    assert client.rounds_dropped == 50 - 4 and completed == []
    # Without a window (recovery armed, or a synchronous run) nothing is dropped.
    client.partial_window = None
    for round_index in range(50, 60):
        client._receive_result(DataSegment(round_index * plan.n_chunks, chunk))
    assert client.pending_rounds() == 14


# ----------------------------------------------------------------------
# (d) The fork is gone
# ----------------------------------------------------------------------
def test_async_iswitch_has_no_paced_schedule():
    assert "paced" not in inspect.signature(AsyncISwitch.__init__).parameters
    assert not [name for name in dir(AsyncISwitch) if "paced" in name]
    assert "paced" not in inspect.getsource(AsyncISwitch)


def test_deterministic_async_isw_runs_the_sync_template():
    runners = []
    inner = SyncStrategy.run

    def keep(self, n_iterations):
        runners.append(self)
        return inner(self, n_iterations)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SyncStrategy, "run", keep)
        observed(
            mode="async", workload="synth", iterations=2, telemetry=False,
            deterministic_aggregation=True, staleness_bound=2,
        )
    (runner,) = runners
    assert isinstance(runner, SyncISwitch) and runner.staleness_bound == 2
    assert type(runner)._step is SyncStrategy._step
    assert not [name for name in vars(runner) if "paced" in name]


# ----------------------------------------------------------------------
# replay_line() replays
# ----------------------------------------------------------------------
def parse_replay_line(line):
    """The kwargs a replay line stands for — no ``eval``."""
    assert line.startswith("[replay: ") and line.endswith("]")
    label, *pairs = line[len("[replay: "):-1].split()
    mode, _, strategy = label.partition("-")
    kwargs = {"mode": mode, "strategy": strategy}
    defaults = {spec.name: spec for spec in fields(ExperimentConfig)}
    for pair in pairs:
        name, _, text = pair.partition("=")
        kind = defaults[name].type
        if text == "None":
            value = None
        elif "bool" in kind:
            value = {"True": True, "False": False}[text]
        elif "int" in kind:
            value = int(text)
        elif "float" in kind:
            value = float(text)
        else:
            value = text
        kwargs[name] = value
    return kwargs


REPLAYED = [
    ExperimentConfig(),
    ExperimentConfig(
        strategy="isw", mode="async", workload="synth", n_workers=4,
        iterations=20, seed=7, deterministic_aggregation=True, loss_rate=0.01,
    ),
    ExperimentConfig(
        strategy="isw", mode="async", workload="synth", n_workers=4,
        iterations=20, seed=7, loss_rate=0.2,
    ),
    ExperimentConfig(
        strategy="ps-shard", workload="ppo", ps_shards=2, telemetry=False,
        workers_per_rack=8, n_workers=8,
    ),
    ExperimentConfig(
        strategy="sync-isw", workload="a2c", codec="int32-bs", job_id=5,
        staleness_bound=1, recovery_timeout=0.002, backend="live",
        fault_plan="examples/chaos_demo.json",
    ),
]


@pytest.mark.parametrize("config", REPLAYED, ids=lambda c: c.replay_line())
def test_replay_line_round_trips(config):
    assert ExperimentConfig(**parse_replay_line(config.replay_line())) == config


def test_replay_line_leads_with_what_is_always_worth_reading():
    assert ExperimentConfig().replay_line() == (
        "[replay: sync-isw workload=dqn n_workers=4 iterations=50 seed=0 "
        "loss_rate=0.0]"
    )
