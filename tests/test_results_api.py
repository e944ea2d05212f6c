"""Regression tests for the result API: typed fields are the only spelling
(the ``run_sync``/``run_async`` wrappers and the ``extras`` dict alias are
gone), and ``job_id`` is validated and numerics-neutral.
"""

import numpy as np
import pytest

from repro.distributed import ExperimentConfig, run
from repro.distributed.results import TrainingResult


def _weights(result):
    return [w.algorithm.get_weights() for w in result.workers]


class TestExtrasAlias:
    def test_extras_alias_is_gone(self):
        result = TrainingResult(
            strategy="isw", workload="synth", n_workers=2, iterations=2, elapsed=1.0
        )
        assert not hasattr(result, "extras")
        assert result.mean_staleness is None  # unset typed fields read None

    def test_typed_fields_preferred_spelling(self):
        result = run(
            ExperimentConfig(
                strategy="isw",
                workload="synth",
                mode="async",
                n_workers=2,
                iterations=4,
                seed=0,
                telemetry=False,
            )
        )
        assert result.backend == "sim"
        assert result.mean_staleness is not None
        assert result.commits is not None


class TestJobIdConfig:
    def test_job_id_range_validated(self):
        with pytest.raises(ValueError, match="job_id"):
            ExperimentConfig(strategy="isw", workload="synth", job_id=128)
        with pytest.raises(ValueError, match="job_id"):
            ExperimentConfig(strategy="isw", workload="synth", job_id=-1)

    def test_job_id_requires_iswitch(self):
        config = ExperimentConfig(
            strategy="ar",
            workload="synth",
            n_workers=2,
            iterations=2,
            job_id=3,
            telemetry=False,
        )
        with pytest.raises(ValueError, match="iSwitch"):
            run(config)

    def test_nonzero_job_id_trains(self):
        base = dict(
            strategy="isw",
            workload="synth",
            mode="sync",
            n_workers=2,
            iterations=3,
            seed=5,
            telemetry=False,
        )
        tagged = run(ExperimentConfig(job_id=7, **base))
        plain = run(ExperimentConfig(**base))
        # The wire-carried job id must not perturb the numerics.
        for old, new in zip(_weights(plain), _weights(tagged)):
            assert np.array_equal(old, new)
