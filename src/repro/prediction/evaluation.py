"""Evaluation utilities for the progress predictor.

§3.2.1 motivates the predictor but the paper never reports its raw
accuracy; to make the ablation between the GPR and Bayesian-linear
backends quantitative, these helpers compute standard regression and
calibration metrics on held-out completed jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.jobs.job import Job
from repro.prediction.beta import BetaDistribution
from repro.prediction.features import feature_vector
from repro.prediction.history import examples_from_job
from repro.prediction.predictor import PredictorConfig, ProgressPredictor
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class PredictorEvaluation:
    """Accuracy / calibration metrics of a fitted predictor on held-out jobs."""

    backend: str
    num_train_jobs: int
    num_eval_points: int
    mae_epochs_remaining: float
    rmse_epochs_remaining: float
    mean_interval_width: float
    interval_coverage: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for tabular reports."""
        return {
            "backend": self.backend,
            "train_jobs": self.num_train_jobs,
            "eval_points": self.num_eval_points,
            "mae_epochs_remaining": self.mae_epochs_remaining,
            "rmse_epochs_remaining": self.rmse_epochs_remaining,
            "mean_90ci_width": self.mean_interval_width,
            "coverage_90ci": self.interval_coverage,
        }


def _true_progress_points(job: Job) -> List[Tuple[np.ndarray, float, float]]:
    """(features, epochs_remaining, true_progress) for every logged epoch."""
    points = []
    total_samples = job.samples_processed
    for example in examples_from_job(job):
        processed = float(np.expm1(example.features[2]))
        progress = processed / max(total_samples, 1.0)
        points.append(
            (np.asarray(example.features, dtype=float), example.epochs_remaining, progress)
        )
    return points


def evaluate_predictor(
    train_jobs: Sequence[Job],
    eval_jobs: Sequence[Job],
    backend: str = "gpr",
    confidence: float = 0.9,
    seed: SeedLike = 0,
) -> PredictorEvaluation:
    """Fit on ``train_jobs`` and score predictions on ``eval_jobs``.

    Two aspects are scored:

    * **epochs-remaining regression** — MAE/RMSE of the regression target
      ``β``-approximates (Eq. 6),
    * **progress calibration** — the width of the central credible
      interval of the predicted Beta progress distribution and the
      fraction of true progress values it covers.
    """
    check_in_range(confidence, "confidence", 0.0, 1.0, inclusive=False)
    if not train_jobs:
        raise ValueError("evaluate_predictor requires at least one training job")
    if not eval_jobs:
        raise ValueError("evaluate_predictor requires at least one evaluation job")

    predictor = ProgressPredictor(
        PredictorConfig(backend=backend, min_completed_jobs_to_fit=1), seed=seed
    )
    for job in train_jobs:
        predictor.observe_completion(job)
    if not predictor.is_fitted:
        predictor.refit()

    abs_errors: List[float] = []
    sq_errors: List[float] = []
    widths: List[float] = []
    covered: List[bool] = []
    for job in eval_jobs:
        for features, epochs_remaining, progress in _true_progress_points(job):
            x = predictor._scaler.transform(features)
            mean_remaining, _ = predictor._model.predict_one(x)
            mean_remaining = max(mean_remaining, 0.0)
            abs_errors.append(abs(mean_remaining - epochs_remaining))
            sq_errors.append((mean_remaining - epochs_remaining) ** 2)
            processed_epochs = float(np.expm1(features[2])) / max(job.dataset_size, 1)
            dist = BetaDistribution(max(1.0, processed_epochs), max(1.0, mean_remaining))
            low, high = dist.confidence_interval(confidence)
            widths.append(high - low)
            covered.append(bool(low - 1e-9 <= progress <= high + 1e-9))

    return PredictorEvaluation(
        backend=backend,
        num_train_jobs=len(train_jobs),
        num_eval_points=len(abs_errors),
        mae_epochs_remaining=float(np.mean(abs_errors)),
        rmse_epochs_remaining=float(np.sqrt(np.mean(sq_errors))),
        mean_interval_width=float(np.mean(widths)),
        interval_coverage=float(np.mean(covered)),
    )
