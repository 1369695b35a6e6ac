"""Daily and aggregate forecast evaluation.

Daily scores compare each model against the per-window mean forecast that
ships with every forecast, so the out-of-sample R² is measured against
exactly the benchmark the window saw.  Aggregation trims daily
values to the TRIM_PERCENTILES band per metric before averaging.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError
from .rolling import _SKIPPED, _STATUSES, Forecasts

__all__ = [
    "DailyMetrics",
    "AggregateRow",
    "VariableStats",
    "SummaryStats",
    "REFERENCE_DATASET_STATS",
    "TRIM_PERCENTILES",
    "summary_stats",
    "compute_daily_metrics",
    "aggregate_report",
    "write_daily_metrics",
    "write_aggregate_report",
    "render_aggregate_table",
    "DAILY_METRICS_COLUMNS",
    "AGGREGATE_REPORT_COLUMNS",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DailyMetrics:
    """One day's scores for one model; r2_oos is None when undefined."""

    day: object
    model: str
    predictor_set: str
    rmse: float
    r2_oos: Optional[float]
    n: int
    n_ok: int
    n_fallback: int
    n_skipped: int

    def __post_init__(self):
        if self.n <= 0:
            raise ShapeError("daily metrics need at least one scored prediction")
        if self.rmse < 0.0:
            raise ShapeError("rmse cannot be negative")


@dataclass(frozen=True)
class AggregateRow:
    """Trimmed mean/median/std of one daily metric for one model."""

    model: str
    predictor_set: str
    metric: str
    mean: Optional[float]
    median: Optional[float]
    std: Optional[float]
    n_days_raw: int
    n_days_trimmed: int

    def __post_init__(self):
        if self.n_days_trimmed > self.n_days_raw:
            raise ShapeError("trimming cannot add days")


@dataclass(frozen=True)
class VariableStats:
    """Moment summary of one series; higher moments are None when degenerate."""

    mean: float
    std: float
    skewness: Optional[float]
    kurtosis: Optional[float]


@dataclass(frozen=True)
class SummaryStats:
    spy: VariableStats
    vix: VariableStats
    correlation: Optional[float]


# Published summary statistics of the 2005-2016 SPY/VIX minute dataset these
# methods were developed against.  Descriptive statistics and correlations
# are in percentage form, as printed: the SPY column describes one-minute
# percent log returns, the VIX column annualized index levels, and the
# correlation is scaled by 100.  Not reproducible from synthetic data; kept
# for documentation and sanity context only.
REFERENCE_DATASET_STATS = SummaryStats(
    spy=VariableStats(mean=0.0001, std=0.099, skewness=0.168, kurtosis=42.886),
    vix=VariableStats(mean=19.519, std=9.404, skewness=2.483, kurtosis=8.140),
    correlation=-0.432,
)


def _rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    errors = y - y_hat
    return float(np.sqrt(np.mean(errors * errors)))


def _r2_oos(y: np.ndarray, y_hat: np.ndarray, y_naive: np.ndarray) -> Optional[float]:
    """1 - SSE(model) / SSE(window mean); None when every target equals its window mean."""
    denominator = float(np.sum((y - y_naive) ** 2))
    if denominator == 0.0:
        return None
    numerator = float(np.sum((y - y_hat) ** 2))
    return 1.0 - numerator / denominator


# the percentile band of daily values that aggregate_report keeps, per metric
TRIM_PERCENTILES = (1.0, 99.0)


def _trimmed_stats(values: Sequence[float]) -> Tuple[float, float, float, int]:
    """Mean, median, n-1 std and count of the values inside the trim band.

    The band's edges interpolate linearly between order statistics, and
    values on an edge are kept, in their order.  Fewer than 3 values pass
    untrimmed, since a band needs interior mass; one value has std 0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size >= 3:
        lo, hi = np.percentile(arr, TRIM_PERCENTILES)
        arr = arr[(lo <= arr) & (arr <= hi)]
    if arr.size == 1:
        return float(arr[0]), float(arr[0]), 0.0, 1
    return float(arr.mean()), float(np.median(arr)), float(arr.std(ddof=1)), arr.size


def _variable_stats(values: np.ndarray) -> VariableStats:
    mean = float(values.mean())
    centered = values - mean
    m2 = float(np.mean(centered * centered))
    if m2 == 0.0:
        return VariableStats(mean=mean, std=0.0, skewness=None, kurtosis=None)
    std = math.sqrt(m2)
    skewness = float(np.mean(centered**3)) / m2**1.5
    kurtosis = float(np.mean(centered**4)) / (m2 * m2)
    return VariableStats(mean=mean, std=std, skewness=skewness, kurtosis=kurtosis)


def summary_stats(spy, vix) -> SummaryStats:
    """Moment summaries of two aligned minute series plus their correlation.

    Skewness is the third standardized moment; kurtosis the fourth, not
    excess (a normal sample scores near 3).  Degenerate series flag their
    higher moments and the correlation as None.
    """
    spy = np.asarray(spy, dtype=float)
    vix = np.asarray(vix, dtype=float)
    if spy.ndim != 1 or vix.ndim != 1:
        raise ShapeError("summary_stats expects 1-D series")
    if spy.shape != vix.shape:
        raise ShapeError(f"series lengths differ: {spy.shape[0]} vs {vix.shape[0]}")
    if spy.size < 4:
        raise ShapeError(f"need at least 4 observations, got {spy.size}")
    spy_stats = _variable_stats(spy)
    vix_stats = _variable_stats(vix)
    if spy_stats.std == 0.0 or vix_stats.std == 0.0:
        correlation = None
    else:
        correlation = float(np.corrcoef(spy, vix)[0, 1])
    return SummaryStats(spy=spy_stats, vix=vix_stats, correlation=correlation)


def compute_daily_metrics(forecasts: Forecasts) -> List[DailyMetrics]:
    """Score every (day, model, predictor set): one row of each day's block.

    A fallback forecast is scored like any other; a skipped one carries no
    forecast and is left out.  Rows with no scored forecast are left out;
    their count is logged.
    """
    rows = []
    excluded = 0
    for block in forecasts.blocks:
        for (model, predictor_set), y_hat, status in zip(block.models, block.y_hat, block.status):
            n_ok, n_fallback, n_skipped = np.bincount(status, minlength=len(_STATUSES)).tolist()
            if n_ok + n_fallback == 0:
                excluded += 1
                continue
            scored = status != _SKIPPED
            y = block.y_true[scored]
            rows.append(
                DailyMetrics(
                    day=block.day,
                    model=model,
                    predictor_set=predictor_set,
                    rmse=_rmse(y, y_hat[scored]),
                    r2_oos=_r2_oos(y, y_hat[scored], block.y_naive[scored]),
                    n=n_ok + n_fallback,
                    n_ok=n_ok,
                    n_fallback=n_fallback,
                    n_skipped=n_skipped,
                )
            )
    if excluded:
        log.debug("%d day-model groups had no scored predictions", excluded)
    return rows


_METRIC_FIELDS = (("rmse", lambda m: m.rmse), ("r2_oos", lambda m: m.r2_oos))


def aggregate_report(daily: Sequence[DailyMetrics]) -> List[AggregateRow]:
    """Per-model trimmed mean/median/std of each daily metric.

    Trimming happens independently per metric; days with an undefined R²
    drop out of the R² aggregate only, and the raw/trimmed day counts say
    how much survived.
    """
    groups: dict = {}
    for row in daily:
        groups.setdefault((row.model, row.predictor_set), []).append(row)

    out = []
    for (model, predictor_set), rows in sorted(groups.items()):
        for metric, getter in _METRIC_FIELDS:
            values = [getter(r) for r in rows if getter(r) is not None]
            if not values:
                out.append(
                    AggregateRow(
                        model=model, predictor_set=predictor_set, metric=metric,
                        mean=None, median=None, std=None,
                        n_days_raw=0, n_days_trimmed=0,
                    )
                )
                continue
            mean, median, std, kept = _trimmed_stats(values)
            out.append(
                AggregateRow(
                    model=model, predictor_set=predictor_set, metric=metric,
                    mean=mean, median=median, std=std,
                    n_days_raw=len(values), n_days_trimmed=kept,
                )
            )
    return out


DAILY_METRICS_COLUMNS = (
    "date", "model", "predictor_set", "rmse", "r2_oos",
    "n", "n_ok", "n_fallback", "n_skipped",
)

AGGREGATE_REPORT_COLUMNS = (
    "model", "predictor_set", "metric", "mean", "median", "std",
    "n_days_raw", "n_days_trimmed",
)


def _field(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_daily_metrics(rows: Sequence[DailyMetrics], path) -> None:
    """Write daily metrics as CSV; undefined R² becomes an empty field."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DAILY_METRICS_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.day.isoformat(), r.model, r.predictor_set,
                    repr(float(r.rmse)), _field(r.r2_oos),
                    r.n, r.n_ok, r.n_fallback, r.n_skipped,
                ]
            )


def write_aggregate_report(rows: Sequence[AggregateRow], path) -> None:
    """Write the aggregate report as CSV; empty-sample stats become empty fields."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGGREGATE_REPORT_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.model, r.predictor_set, r.metric,
                    _field(r.mean), _field(r.median), _field(r.std),
                    r.n_days_raw, r.n_days_trimmed,
                ]
            )


def render_aggregate_table(rows: Sequence[AggregateRow]) -> str:
    """Plain-text aggregate table for terminal output."""
    header = f"{'model':<10} {'predictors':<10} {'metric':<7} " \
             f"{'mean':>12} {'median':>12} {'std':>12} {'days':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        def cell(value):
            return "-" if value is None else f"{value:.6g}"
        lines.append(
            f"{r.model:<10} {r.predictor_set:<10} {r.metric:<7} "
            f"{cell(r.mean):>12} {cell(r.median):>12} {cell(r.std):>12} "
            f"{r.n_days_trimmed:>4}/{r.n_days_raw:<4}"
        )
    return "\n".join(lines)
