"""Tests for ``tools/perf_pairs.py``: ``summarise``, the only verdict on a
performance change (DESIGN.md §7), and the environment each run gets.

Synthetic samples only: no subprocess, no git, nothing timed.
"""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

#: Ten parent runs: median 100, quartiles 97.75 / 102.25 (distance 4.5).
PARENT = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]


def shifted(deltas):
    """The change's ten runs: pair ``i`` reads ``PARENT[i] + deltas[i]``."""
    return [p + d for p, d in zip(PARENT, deltas)]


@pytest.fixture(params=["lower", "higher"])
def metric(request, monkeypatch):
    """``(name, orient)``: a ``better: lower`` metric of BENCHMARK.json, and
    the mirror case (none is ``better: higher`` today, so one is patched in);
    ``orient`` reflects samples about 100 so "smaller" always means "better"."""
    if request.param == "lower":
        return "iter_wall_ms", list
    monkeypatch.setitem(
        perf_pairs.METRICS,
        "iters_per_s",
        {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    )
    return "iters_per_s", lambda samples: [200 - v for v in samples]


def summarise(metric, parent, change):
    """The row ``summarise`` prints for ``metric``; every other metric is
    held constant."""
    name, orient = metric

    def runs(samples):
        flat = dict.fromkeys(perf_pairs.METRICS, {"value": 1.0})
        return [{"metrics": {**flat, name: {"value": v}}} for v in orient(samples)]

    return perf_pairs.summarise(runs(parent), runs(change))[name]


def test_nine_of_ten_wins_beyond_the_quartile_distance_is_a_gain(metric):
    row = summarise(metric, PARENT, shifted([-10] * 9 + [+1]))
    assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
    assert row["parent_quartile_distance"] == pytest.approx(4.5)
    assert row["verdict"] == "gain"


def test_eight_of_ten_wins_is_not_a_gain(metric):
    row = summarise(metric, PARENT, shifted([-10] * 8 + [+1, +1]))
    assert (row["wins"], row["losses"]) == (8, 2)
    assert row["verdict"] == "within bound"


def test_ten_wins_inside_the_quartile_distance_is_not_a_gain(metric):
    row = summarise(metric, PARENT, shifted([-4] * 10))
    assert row["wins"] == 10
    assert row["verdict"] == "within bound"


def test_a_tie_counts_for_neither_side(metric):
    row = summarise(metric, PARENT, shifted([-10] * 9 + [0]))
    assert (row["wins"], row["losses"]) == (9, 0)
    assert row["verdict"] == "gain"  # nine tenths of all pairs run
    row = summarise(metric, PARENT, shifted([-10] * 8 + [0, 0]))
    assert (row["wins"], row["losses"]) == (8, 0)
    assert row["verdict"] == "within bound"  # unbeaten is not enough


def test_median_worse_by_more_than_the_bound_regressed(metric):
    bound = perf_pairs.METRICS[metric[0]]["bound"]
    over = [100 * (bound + 0.02)] * 10
    under = [100 * (bound - 0.02)] * 10
    assert summarise(metric, PARENT, shifted(over))["verdict"] == "regressed"
    row = summarise(metric, PARENT, shifted(under))
    assert (row["wins"], row["losses"]) == (0, 10)
    assert row["verdict"] == "within bound"


def test_each_metric_is_judged_by_its_own_bound():
    """0.22 worse: past ``peak_rss_mb``'s 0.20 in BENCHMARK.json, inside the
    0.25 of the other three."""
    for name in perf_pairs.METRICS:
        row = summarise((name, list), PARENT, shifted([22] * 10))
        expected = "regressed" if name == "peak_rss_mb" else "within bound"
        assert row["verdict"] == expected, name


def test_each_run_is_pyc_free(monkeypatch, tmp_path):
    """Both trees run with no ``.pyc`` to read and none written: the
    condition a fresh checkout measures in."""
    seen = {}

    def fake_run(command, **kwargs):
        env = kwargs["env"]
        seen.update(
            command=command,
            cwd=kwargs["cwd"],
            env=env,
            cache_listing=os.listdir(env["PYTHONPYCACHEPREFIX"]),
        )
        line = json.dumps({"metrics": {}})
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n", stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_run)
    assert perf_pairs.run_once(tmp_path, "isw-small", 7, 1.0) == {"metrics": {}}
    env = seen["env"]
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["cache_listing"] == []  # an empty prefix: nothing to import
    assert not Path(env["PYTHONPYCACHEPREFIX"]).exists()  # and removed after
    assert env["PATH"] == os.environ["PATH"]  # the rest is inherited
    assert seen["cwd"] == tmp_path
    assert seen["command"][1:3] == ["benchmarks/perf/run.py", "--workload"]
