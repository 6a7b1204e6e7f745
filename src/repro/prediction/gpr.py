"""Gaussian-process regression for the epochs-to-process predictor.

Footnote 1 of the paper calls the progress model a *GPR predictor*, and
§3.2.1 says it is trained *"by maximizing the log marginal likelihood"*
each time a job completes.  This module implements a standard GP
regressor from scratch with

* an RBF (squared-exponential) kernel with a per-dataset signal variance
  and length scale,
* a Gaussian noise term,
* hyper-parameter fitting by L-BFGS-B on the negative log marginal
  likelihood (with analytic gradients),
* predictive mean and variance via the Cholesky factorisation.

Only numpy/scipy are used; no external ML framework is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive, check_positive_int


def squared_distances(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of X1 and X2."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    sq_dists = (
        np.sum(X1**2, axis=1)[:, None]
        + np.sum(X2**2, axis=1)[None, :]
        - 2.0 * X1 @ X2.T
    )
    return np.maximum(sq_dists, 0.0)


def rbf_from_sq_dists(
    sq_dists: np.ndarray, signal_variance: float, length_scale: float
) -> np.ndarray:
    """Squared-exponential kernel from precomputed squared distances."""
    return signal_variance * np.exp(-0.5 * sq_dists / (length_scale**2))


def rbf_kernel(
    X1: np.ndarray, X2: np.ndarray, signal_variance: float, length_scale: float
) -> np.ndarray:
    """Squared-exponential kernel matrix between the rows of X1 and X2."""
    return rbf_from_sq_dists(squared_distances(X1, X2), signal_variance, length_scale)


@dataclass
class GaussianProcessRegression:
    """GP regression with an RBF kernel and evidence-maximised hyper-parameters.

    Parameters
    ----------
    length_scale / signal_variance / noise_variance:
        Initial kernel hyper-parameters (optimised during :meth:`fit`
        unless ``optimize_hyperparameters`` is False).
    optimize_hyperparameters:
        Whether to run L-BFGS-B on the negative log marginal likelihood.
    max_training_points:
        GP fitting is O(n³); larger history pools are subsampled to this
        size (the HistoryStore already bounds the pool, this is a second
        safety net).
    normalize_y:
        Centre/scale the targets before fitting (restored at prediction).
    """

    length_scale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 0.1
    optimize_hyperparameters: bool = True
    max_training_points: int = 128
    max_optimizer_iterations: int = 30
    normalize_y: bool = True
    jitter: float = 1e-8
    random_state: Optional[int] = None

    X_train_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    y_train_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _alpha: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _chol: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _y_mean: float = field(default=0.0, init=False)
    _y_scale: float = field(default=1.0, init=False)
    log_marginal_likelihood_: float = field(default=float("-inf"), init=False)
    _fit_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive(self.length_scale, "length_scale")
        check_positive(self.signal_variance, "signal_variance")
        check_positive(self.noise_variance, "noise_variance")
        check_positive_int(self.max_training_points, "max_training_points")
        check_positive_int(self.max_optimizer_iterations, "max_optimizer_iterations")
        check_positive(self.jitter, "jitter")

    # -- marginal likelihood --------------------------------------------------------------

    def _nll_terms(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """Shared NLL prefix: ``(nll, L, alpha, K_rbf)``.

        Single implementation of the kernel build, Cholesky and alpha
        solve, so :meth:`_nll_value` is *structurally* the value
        :meth:`_nll_and_grad` computes rather than a hand-kept copy.
        ``sq_dists`` is ``squared_distances(X, X)`` of the training
        inputs, which :meth:`fit` computes once for the whole optimiser
        run.  Returns ``None`` when the kernel is not positive definite.
        """
        signal, length, noise = np.exp(log_params)
        n = sq_dists.shape[0]
        K_rbf = rbf_from_sq_dists(sq_dists, signal, length)
        K = K_rbf + (noise + self.jitter) * np.eye(n)
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            return None
        alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
        nll = (
            0.5 * float(y @ alpha)
            + float(np.sum(np.log(np.diag(L))))
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        return float(nll), L, alpha, K_rbf

    def _nll_and_grad(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient in log-space.

        The squared distances of the training inputs are passed in and
        reused for both the kernel and the length-scale gradient.  (They
        used to be recovered from the kernel itself via
        ``log(K_rbf / signal)`` clamped at 1e-300, which silently zeroed
        — i.e. got *wrong* — the gradient contribution of point pairs
        distant enough for the kernel to underflow.)
        """
        terms = self._nll_terms(log_params, sq_dists, y)
        if terms is None:
            return 1e25, np.zeros(3)
        nll, L, alpha, K_rbf = terms
        _, length, noise = np.exp(log_params)
        n = sq_dists.shape[0]
        # Gradients: dNLL/dθ = -0.5 tr((αα^T - K^{-1}) dK/dθ)
        K_inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(n)))
        outer = np.outer(alpha, alpha) - K_inv
        dK_dsignal = K_rbf  # d/d log(signal) since K ∝ signal
        dK_dlength = K_rbf * sq_dists / (length**2)  # d/d log(length)
        dK_dnoise = noise * np.eye(n)  # d/d log(noise)
        grad = -0.5 * np.array(
            [
                float(np.sum(outer * dK_dsignal)),
                float(np.sum(outer * dK_dlength)),
                float(np.sum(outer * dK_dnoise)),
            ]
        )
        return nll, grad

    def _nll_value(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> float:
        """Negative log marginal likelihood only (no O(n³) gradient terms).

        Exactly the value :meth:`_nll_and_grad` returns (same code path)
        minus the ``K⁻¹`` computation the gradient needs, which is the
        single most expensive part of an evaluation.
        """
        terms = self._nll_terms(log_params, sq_dists, y)
        return 1e25 if terms is None else terms[0]

    # -- fitting --------------------------------------------------------------------------

    def _subsample_rng(self) -> np.random.Generator:
        """RNG for the training-pool subsample.

        The first fit reproduces the historical stream
        (``default_rng(random_state)``); later fits on the *same*
        instance mix the fit counter into the seed so successive refits
        see different subsamples instead of silently reusing identical
        ``rng.choice`` indices forever.
        """
        if self.random_state is None:
            return np.random.default_rng()
        if self._fit_count == 0:
            return np.random.default_rng(self.random_state)
        return np.random.default_rng((self.random_state, self._fit_count))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegression":
        """Fit to ``(X, y)``, optimising hyper-parameters by marginal likelihood."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} targets")
        if X.shape[0] == 0:
            raise ValueError("cannot fit GaussianProcessRegression on no data")
        if X.shape[0] > self.max_training_points:
            rng = self._subsample_rng()
            keep = rng.choice(X.shape[0], size=self.max_training_points, replace=False)
            X, y = X[keep], y[keep]
        self._fit_count += 1
        if self.normalize_y:
            self._y_mean = float(np.mean(y))
            self._y_scale = float(np.std(y))
            if self._y_scale < 1e-12:
                self._y_scale = 1.0
        else:
            self._y_mean, self._y_scale = 0.0, 1.0
        y_std = (y - self._y_mean) / self._y_scale
        sq_dists = squared_distances(X, X)

        if self.optimize_hyperparameters and X.shape[0] >= 3:
            # scipy.optimize is half of ``import repro``'s time and only
            # fits use it, so runs and commands without a fit never load it.
            from scipy import optimize

            x0 = np.log([self.signal_variance, self.length_scale, self.noise_variance])
            result = optimize.minimize(
                self._nll_and_grad,
                x0,
                args=(sq_dists, y_std),
                jac=True,
                method="L-BFGS-B",
                bounds=[(-6.0, 6.0)] * 3,
                options={"maxiter": self.max_optimizer_iterations},
            )
            if np.all(np.isfinite(result.x)):
                self.signal_variance, self.length_scale, self.noise_variance = [
                    float(v) for v in np.exp(result.x)
                ]
        n = X.shape[0]
        K = rbf_from_sq_dists(sq_dists, self.signal_variance, self.length_scale)
        K += (self.noise_variance + self.jitter) * np.eye(n)
        self._chol = np.linalg.cholesky(K)
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, y_std)
        )
        self.X_train_, self.y_train_ = X, y_std
        self.log_marginal_likelihood_ = -self._nll_value(
            np.log([self.signal_variance, self.length_scale, self.noise_variance]),
            sq_dists,
            y_std,
        )
        return self

    # -- prediction ------------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether the model has been fitted."""
        return self._alpha is not None

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
        """Predictive mean (and optionally std) at the rows of ``X``."""
        if self._alpha is None or self.X_train_ is None or self._chol is None:
            raise RuntimeError("model is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K_star = rbf_kernel(X, self.X_train_, self.signal_variance, self.length_scale)
        mean = K_star @ self._alpha
        mean = mean * self._y_scale + self._y_mean
        if not return_std:
            return mean
        v = np.linalg.solve(self._chol, K_star.T)
        var = self.signal_variance + self.noise_variance - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12) * (self._y_scale**2)
        return mean, np.sqrt(var)

    def predict_one(self, x: np.ndarray) -> Tuple[float, float]:
        """Predict mean and std for a single feature vector."""
        mean, std = self.predict(np.atleast_2d(x), return_std=True)
        return float(mean[0]), float(std[0])

    def predict_mean_one(self, x: np.ndarray) -> float:
        """Predictive mean only for a single feature vector.

        Skips the triangular solve the predictive variance needs — the
        mean is one kernel row times the cached ``alpha`` — so hot-path
        callers that never look at the uncertainty (the per-event Beta
        progress distributions) do O(n·d) work instead of O(n²).
        """
        return float(self.predict(np.atleast_2d(x))[0])
