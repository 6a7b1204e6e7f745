"""Tests for repro.prediction.evaluation."""

import numpy as np
import pytest

from repro.prediction.evaluation import evaluate_predictor
from tests.conftest import make_running_job


def _completed_job(job_id, epochs, dataset_size=1000):
    job = make_running_job(job_id=job_id, dataset_size=dataset_size, base_epochs=3.0, patience=2)
    for e in range(epochs):
        job.advance(dataset_size, 2.0)
        job.complete_epoch(2.0 * (e + 1))
    job.mark_completed(2.0 * epochs)
    return job


@pytest.fixture(scope="module")
def job_pool():
    return [_completed_job(f"job-{i}", epochs=5 + (i % 4)) for i in range(8)]


class TestEvaluatePredictor:
    @pytest.mark.parametrize("backend", ["gpr", "blr"])
    def test_metrics_are_finite_and_sane(self, job_pool, backend):
        evaluation = evaluate_predictor(job_pool[:5], job_pool[5:], backend=backend, seed=0)
        data = evaluation.as_dict()
        assert data["backend"] == backend
        assert data["eval_points"] > 0
        assert np.isfinite(data["mae_epochs_remaining"])
        assert data["rmse_epochs_remaining"] >= data["mae_epochs_remaining"] - 1e-9
        assert 0.0 <= data["coverage_90ci"] <= 1.0
        assert data["mean_90ci_width"] > 0

    def test_reasonable_accuracy_on_homogeneous_jobs(self, job_pool):
        evaluation = evaluate_predictor(job_pool[:6], job_pool[6:], backend="blr", seed=0)
        # Jobs run 5-8 epochs, so a usable predictor should be well inside
        # a 10-epoch error band.
        assert evaluation.mae_epochs_remaining < 10.0

    def test_requires_jobs(self, job_pool):
        with pytest.raises(ValueError):
            evaluate_predictor([], job_pool, backend="blr")
        with pytest.raises(ValueError):
            evaluate_predictor(job_pool, [], backend="blr")

    def test_invalid_confidence(self, job_pool):
        with pytest.raises(ValueError):
            evaluate_predictor(job_pool[:4], job_pool[4:], confidence=1.5)
