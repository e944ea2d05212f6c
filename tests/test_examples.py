"""Every ``examples/*.py`` runs to completion on the current API.

Slow-marked: the examples run real training loops.  ``run`` is wrapped to
clamp each experiment to a few iterations, so this checks that the scripts
still *work* (imports, config fields, result fields), not their numbers.
"""

import runpy
import warnings
from pathlib import Path

import pytest

import repro.distributed

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_without_deprecated_api(script, monkeypatch, capsys):
    real_run = repro.distributed.run

    def short_run(config):
        return real_run(config.with_overrides(iterations=min(config.iterations, 3)))

    monkeypatch.setattr(repro.distributed, "run", short_run)
    monkeypatch.setattr("sys.argv", [str(script)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
