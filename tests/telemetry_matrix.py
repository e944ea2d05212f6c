"""The telemetry series matrix: one small run per backend and datapath,
each reduced to a canonical, JSON-ready record of its snapshot.

``tests/test_telemetry_series.py`` compares every run against
``tests/data/telemetry_series.json``.  To record that file from a given
source tree (run from the repo root)::

    PYTHONPATH=<tree>/src:. python -m tests.telemetry_matrix OUT.json
"""

import hashlib
import json
import sys

from repro.distributed import ExperimentConfig, run
from repro.multitenant.soak import run_soak
from .live_wire import run_fleet


CHAOS = "examples/chaos_demo.json"


def _sim(strategy, n_workers, iterations, mode="sync", workload="synth", **extra):
    def go():
        return run(ExperimentConfig(
            strategy=strategy, mode=mode, workload=workload,
            n_workers=n_workers, iterations=iterations, seed=7, **extra,
        )).telemetry
    return go


def _soak():
    fabric, _ = run_soak(n_jobs=8, seed=0, iterations=3)
    return fabric.hub.snapshot()


def _live(strategy):
    def go():
        return run_fleet(ExperimentConfig(
            strategy=strategy, workload="synth", n_workers=4, iterations=3,
            seed=7, backend="live",
        )).telemetry
    return go


MATRIX = {
    "sync-isw-n4": _sim("isw", 4, 4),
    "sync-isw-n12": _sim("isw", 12, 3),
    "async-isw-n4": _sim("isw", 4, 8, mode="async"),
    "sync-ps-n8": _sim("ps", 8, 3),
    "sync-ar-n8": _sim("ar", 8, 3),
    "async-ps-n8": _sim("ps", 8, 16, mode="async"),
    "loss1pct-isw-n4": _sim("isw", 4, 10, loss_rate=0.01),
    "int32bs-isw-n4": _sim("isw", 4, 4, codec="int32-bs"),
    "chaos-isw-n4": _sim("isw", 4, 8, fault_plan=CHAOS),
    "chaos-isw-n4-short": _sim("isw", 4, 1, fault_plan=CHAOS),
    "chaos-async-isw-n4": _sim("isw", 4, 12, mode="async", fault_plan=CHAOS),
    # Long enough that the plan's crash lands mid-run: the rejoin skips
    # rounds, which is what moves worker.updates_missed.
    "chaos-async-isw-dqn-n4": _sim(
        "isw", 4, 8, mode="async", workload="dqn", fault_plan=CHAOS
    ),
    "chaos-ps-n4": _sim("ps", 4, 6, fault_plan=CHAOS),
    "chaos-async-ps-n4": _sim("ps", 4, 12, mode="async", fault_plan=CHAOS),
    "job5-isw-n4": _sim("isw", 4, 4, job_id=5),
    "soak-j8": _soak,
    "live-isw-n4": _live("isw"),
    "live-ps-n4": _live("ps"),
}


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(snapshot) -> dict:
    """Every metric sorted by name and labels (values, gauge maxima and
    histogram buckets included), the span and event lists by digest."""
    doc = snapshot.to_dict()
    metrics = sorted(
        doc["metrics"],
        key=lambda m: (m["name"], sorted(m["labels"].items())),
    )
    return {
        "metrics": metrics,
        "n_spans": len(doc["spans"]),
        "spans": _digest(doc["spans"]),
        "n_events": len(doc["events"]),
        "events": _digest(doc["events"]),
        "clock_end": doc["clock_end"],
        "meta": doc["meta"],
    }


def dumps(recorded: dict) -> str:
    """The fixture's text: one line per metric, sorted keys throughout."""
    runs = []
    for name in sorted(recorded):
        fields = []
        for key, value in sorted(recorded[name].items()):
            if key == "metrics":
                rows = ",\n   ".join(json.dumps(m, sort_keys=True) for m in value)
                fields.append(f'  "metrics": [\n   {rows}\n  ]')
            else:
                fields.append(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
        runs.append(f"{json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(runs) + "\n}\n"


if __name__ == "__main__":
    recorded = {name: canonical(go()) for name, go in MATRIX.items()}
    with open(sys.argv[1], "w") as out:
        out.write(dumps(recorded))
