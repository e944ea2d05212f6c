"""Every telemetry series a run exposes, against a recorded fixture.

Counts are read off the components that keep them when a snapshot is
taken (``repro.telemetry.scrape``); this pins what that produces — every
metric with its labels, value, gauge maximum and histogram buckets, and
the span and event lists — for one small run of each backend and
datapath (``tests/telemetry_matrix.py``; its docstring says how the
fixture is recorded).
"""

import ast
import json
from pathlib import Path

import pytest

from repro.multitenant.soak import run_soak
from .telemetry_matrix import MATRIX, canonical

FIXTURE = Path(__file__).parent / "data" / "telemetry_series.json"
RECORDED = json.loads(FIXTURE.read_text())

HARNESS = Path(__file__).parents[1] / "benchmarks" / "perf" / "harness.py"


def counted_series():
    """The series the reference benchmark sums for its counted metrics
    (``COUNTED_SERIES`` in ``benchmarks/perf/harness.py``)."""
    for node in ast.parse(HARNESS.read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if getattr(target, "id", None) == "COUNTED_SERIES":
            return set(ast.literal_eval(node.value).values())
    raise AssertionError("COUNTED_SERIES not found")


def test_the_fixture_covers_the_matrix_and_every_counted_series():
    assert sorted(RECORDED) == sorted(MATRIX)
    moved = {
        m["name"]
        for run in RECORDED.values()
        for m in run["metrics"]
        if m.get("value")
    }
    assert counted_series() <= moved


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_series_equal_the_recorded_ones(name):
    expected = RECORDED[name]
    got = canonical(MATRIX[name]())
    assert got["metrics"] == expected["metrics"]
    assert got == expected


def test_a_second_snapshot_reads_the_same_counts():
    fabric, _ = run_soak(n_jobs=2, seed=0, iterations=2)
    first = fabric.hub.snapshot().metrics
    assert first and fabric.hub.snapshot().metrics == first
