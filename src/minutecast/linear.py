"""Ordinary least squares fits for the single-regressor benchmark models.

Each benchmark regresses the five-minute return target on exactly one
lagged predictor column plus an intercept, so a fit has a closed form:
slope and intercept from the centred sums. One call fits a whole stack of
windows, ``(..., n, 1)``, each leading index on its own; a single window
is the case with no leading axes, and a stack fits bit for bit like its
windows one by one. A window whose regressor is constant has no slope: its
fit and forecast come back NaN, and the caller falls back to the naive
training-mean forecast for that window alone. After min-max scaling that
is the only singular case, because a non-constant column then holds both
0 and 1, so its centred sum of squares is at least 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ShapeError

__all__ = ["OlsFit", "ols_fit", "ols_predict"]


@dataclass(frozen=True)
class OlsFit:
    """Estimated intercepts (...,) and slopes (..., 1), one pair per window."""

    intercept: np.ndarray
    coef: np.ndarray


def ols_fit(X, y) -> OlsFit:
    """Least-squares fit of ``y = intercept + X[..., 0] * coef`` in closed form.

    X is (..., n, 1) and y is (..., n): every leading index is its own
    window, fitted as ``slope = sum(dx * dy) / sum(dx**2)`` over the
    centred data and ``intercept = mean(y) - slope * mean(x)``. A window
    whose regressor is constant has no slope and gets NaN; no other window
    is affected. Requires n >= 3 observations and finite inputs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim < 2 or X.shape[-1] != 1:
        raise ShapeError(f"X must be (..., n, 1), got shape {X.shape}")
    if y.shape != X.shape[:-1]:
        raise ShapeError(f"X has shape {X.shape} but y has {y.shape}")
    if X.shape[-2] < 3:
        raise FitError(f"need at least 3 observations, got {X.shape[-2]}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise FitError("non-finite values in regression inputs")

    # contiguous rows sum in the same order whatever the leading axes
    x = np.ascontiguousarray(X[..., 0])
    y = np.ascontiguousarray(y)
    x_mean = x.mean(axis=-1)
    y_mean = y.mean(axis=-1)
    dx = x - x_mean[..., None]
    dy = y - y_mean[..., None]
    # the mean of a constant column need not equal it, so test the range
    flat = x.max(axis=-1) == x.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(flat, np.nan, (dx * dy).sum(axis=-1) / (dx * dx).sum(axis=-1))
    return OlsFit(intercept=y_mean - slope * x_mean, coef=slope[..., None])


def ols_predict(fit: OlsFit, x):
    """Evaluate ``intercept + x[..., 0] * coef`` at predictors x of shape (..., 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (1,):
        raise ShapeError(f"predictor vectors of length 1 required, got shape {x.shape}")
    return fit.intercept + x[..., 0] * fit.coef[..., 0]
