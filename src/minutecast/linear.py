"""Ordinary least squares fits for the single-regressor benchmark models.

Each benchmark regresses the five-minute return target on exactly one
lagged predictor column plus an intercept.  Fits are immutable and the
solver goes through an orthogonal decomposition (``numpy.linalg.lstsq``)
rather than the raw normal equations, which keeps near-collinear windows
from blowing up.  A genuinely rank-deficient window raises
:class:`~minutecast.errors.SingularFitError` so the caller can fall back
to the naive training-mean forecast instead of aborting the day.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, FitError, ShapeError, SingularFitError

__all__ = [
    "Benchmark",
    "OlsFit",
    "ols_fit",
    "ols_predict",
]


class Benchmark(enum.Enum):
    """The five single-regressor benchmark specifications."""

    AR1 = "ar1"
    RV = "rv"
    VIX = "vix"
    DVIX = "dvix"
    VRP = "vrp"

    @property
    def feature_name(self) -> str:
        """Name of the feature-table column this benchmark regresses on."""
        return _PREDICTOR_COLUMN[self]

    @classmethod
    def coerce(cls, which: Union["Benchmark", str]) -> "Benchmark":
        """Accept either a member or its string id; reject anything else."""
        if isinstance(which, cls):
            return which
        if isinstance(which, str):
            try:
                return cls(which.lower())
            except ValueError:
                pass
        raise ConfigError(f"unknown benchmark id: {which!r}")


_PREDICTOR_COLUMN = {
    Benchmark.AR1: "lag_r5",
    Benchmark.RV: "lag_r5_sq",
    Benchmark.VIX: "vix_lag",
    Benchmark.DVIX: "dvix_lag",
    Benchmark.VRP: "vrp_lag",
}


@dataclass(frozen=True)
class OlsFit:
    """An estimated intercept-plus-slopes regression.

    residual_variance uses the unbiased n - k - 1 denominator; it is NaN
    when the window has no spare degrees of freedom beyond the minimum.
    """

    intercept: float
    coef: np.ndarray
    residual_variance: float
    n_obs: int

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        if coef.ndim != 1:
            raise ShapeError("coef must be a 1-D vector")
        object.__setattr__(self, "coef", coef)

    @property
    def n_regressors(self) -> int:
        return self.coef.shape[0]


def ols_fit(X, y) -> OlsFit:
    """Least-squares fit of ``y = intercept + X @ coef`` by SVD.

    Requires n >= k + 2 observations.  A design matrix whose augmented
    form [1 | X] has deficient column rank raises SingularFitError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D, got ndim={X.ndim}")
    if y.ndim != 1:
        raise ShapeError(f"y must be 1-D, got ndim={y.ndim}")
    n, k = X.shape
    if y.shape[0] != n:
        raise ShapeError(f"X has {n} rows but y has {y.shape[0]}")
    if n < k + 2:
        raise FitError(f"need at least {k + 2} observations for {k} regressors, got {n}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise FitError("non-finite values in regression inputs")

    design = np.hstack([np.ones((n, 1)), X])
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k + 1:
        raise SingularFitError(f"design rank {rank} < {k + 1}; window is degenerate")

    residuals = y - design @ solution
    ssr = float(residuals @ residuals)
    dof = n - k - 1
    residual_variance = ssr / dof if dof > 0 else float("nan")
    return OlsFit(
        intercept=float(solution[0]),
        coef=solution[1:],
        residual_variance=residual_variance,
        n_obs=n,
    )


def ols_predict(fit: OlsFit, x) -> float:
    """Evaluate ``intercept + x @ coef`` at a single predictor vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != fit.n_regressors:
        raise ShapeError(
            f"predictor vector of length {fit.n_regressors} required, got shape {x.shape}"
        )
    return float(fit.intercept + x @ fit.coef)
