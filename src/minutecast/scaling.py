"""Per-window MinMax scaling.

Fitted on training rows only; the same parameters scale both training and
test data, so test values may fall outside [0, 1]. Constant training columns
are flagged degenerate: they transform to 0.0 and invert to the stored
constant, because a quiet 30-minute window can genuinely produce them.
A span tiny next to a probe's distance from the minimum can push the scaled
value past the largest float, and a column spanning more than the largest
float has no finite span at all; in both cases transform raises
NumericError rather than returning inf or a collapsed value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, NumericError, ShapeError


@dataclass(frozen=True)
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray
    degenerate: frozenset[int] = field(default_factory=frozenset)

    @property
    def n_columns(self) -> int:
        return len(self.mins)


def _as_matrix(data) -> np.ndarray:
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    return matrix


def fit_minmax(train_matrix) -> MinMaxScaler:
    """Columnwise min/max of the training rows. Requires at least 2 rows."""
    matrix = _as_matrix(train_matrix)
    if matrix.shape[0] < 2:
        raise FitError(f"need at least 2 training rows, got {matrix.shape[0]}")
    mins = matrix.min(axis=0)
    maxs = matrix.max(axis=0)
    degenerate = frozenset(int(i) for i in np.nonzero(maxs == mins)[0])
    return MinMaxScaler(mins=mins, maxs=maxs, degenerate=degenerate)


def transform(scaler: MinMaxScaler, matrix) -> np.ndarray:
    """(x - min) / (max - min) per column; degenerate columns map to 0.0.

    Raises NumericError, naming the first such column, when a fitted span
    is not a finite float or a finite input scales to a value that is not.
    """
    data = _as_matrix(matrix)
    if data.shape[1] != scaler.n_columns:
        raise ShapeError(
            f"scaler fitted on {scaler.n_columns} columns, got {data.shape[1]}"
        )
    with np.errstate(over="ignore"):
        spans = scaler.maxs - scaler.mins
    unbounded = ~np.isfinite(spans)
    if unbounded.any():
        col = int(np.flatnonzero(unbounded)[0])
        raise NumericError(
            f"scaling column {col}: span from {float(scaler.mins[col])!r} "
            f"to {float(scaler.maxs[col])!r} is not a finite float"
        )
    safe = np.where(spans == 0.0, 1.0, spans)
    with np.errstate(over="ignore"):
        out = (data - scaler.mins) / safe
    if scaler.degenerate:
        out[:, sorted(scaler.degenerate)] = 0.0
    overflow = np.isfinite(data) & ~np.isfinite(out)
    if overflow.any():
        col = int(np.flatnonzero(overflow.any(axis=0))[0])
        raise NumericError(
            f"scaling column {col} overflows: span {float(spans[col])!r} "
            f"from minimum {float(scaler.mins[col])!r}"
        )
    return out


def inverse_transform_target(scaler: MinMaxScaler, scaled_value: float, target_column: int) -> float:
    """Map a scaled prediction back to data units for one fitted column.

    Degenerate columns return their stored constant regardless of input.
    """
    if not 0 <= target_column < scaler.n_columns:
        raise ShapeError(
            f"column {target_column} not fitted (scaler has {scaler.n_columns})"
        )
    lo = float(scaler.mins[target_column])
    if target_column in scaler.degenerate:
        return lo
    hi = float(scaler.maxs[target_column])
    return scaled_value * (hi - lo) + lo
