"""Per-window MinMax scaling, one window or a stack of windows per call.

Fitted on training rows only; the same parameters scale both training and
test data, so test values may fall outside [0, 1]. Data is (..., rows,
columns): every function reduces or broadcasts over the last two axes, so a
(W, N, k) stack of W windows scales and inverts exactly as W separate
(N, k) calls would. Constant training columns are flagged degenerate: they
transform to 0.0 and invert to the stored constant, because a quiet
30-minute window can genuinely produce them. An entry with no finite scaled
form comes back non-finite instead of raising: every entry of a column
spanning more than the largest float, and any value whose distance from the
minimum overflows against a tiny span. Callers decide what that means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ShapeError


@dataclass(frozen=True)
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.mins.shape[-1]

    @property
    def degenerate(self) -> np.ndarray:
        """Boolean mask of the columns that were constant in training."""
        return self.maxs == self.mins


def fit_minmax(train_matrix) -> MinMaxScaler:
    """Columnwise min/max over the rows axis (-2). Requires at least 2 rows."""
    matrix = np.asarray(train_matrix, dtype=float)
    if matrix.ndim < 2:
        raise ShapeError(f"expected (..., rows, columns) data, got ndim={matrix.ndim}")
    if matrix.shape[-2] < 2:
        raise FitError(f"need at least 2 training rows, got {matrix.shape[-2]}")
    return MinMaxScaler(mins=matrix.min(axis=-2), maxs=matrix.max(axis=-2))


def transform(scaler: MinMaxScaler, matrix) -> np.ndarray:
    """(x - min) / (max - min) per column; degenerate columns map to 0.0.

    ``matrix`` is (..., rows, columns) with leading axes that broadcast
    against the scaler's. A column whose span is not a finite float scales
    to NaN throughout.
    """
    data = np.asarray(matrix, dtype=float)
    if data.ndim < 2 or data.shape[-1] != scaler.n_columns:
        raise ShapeError(
            f"scaler fitted on {scaler.n_columns} columns, got shape {data.shape}"
        )
    with np.errstate(all="ignore"):
        spans = scaler.maxs - scaler.mins
        spans = np.where(np.isfinite(spans), spans, np.nan)
        out = (data - scaler.mins[..., None, :]) / spans[..., None, :]
    return np.where(scaler.degenerate[..., None, :], 0.0, out)


def inverse_transform_target(scaler: MinMaxScaler, scaled_value, target_column: int):
    """Map scaled predictions back to data units for one fitted column.

    ``scaled_value`` broadcasts against the scaler's leading axes.
    Degenerate columns return their stored constant regardless of input.
    """
    if not 0 <= target_column < scaler.n_columns:
        raise ShapeError(
            f"column {target_column} not fitted (scaler has {scaler.n_columns})"
        )
    lo = scaler.mins[..., target_column]
    hi = scaler.maxs[..., target_column]
    with np.errstate(all="ignore"):
        out = np.where(hi == lo, lo, scaled_value * (hi - lo) + lo)
    return out[()]
