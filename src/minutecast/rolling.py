"""Rolling-window scheduling, per-window estimation, and the prediction store.

A trading day's feature table yields the indices of its test rows: each
test row's window is the row range of the feature rows whose targets fall
in the half hour before its minute, and the model fitted on that range
forecasts the test row's five-minute return.  Model fits never see the test
row's target, scalers are fitted on training rows only, and every
estimation seed is derived from (master seed, day, minute, model), so
results are identical regardless of worker count or scheduling order.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import hashlib
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, FitError, NumericError, ParseError
from .forest import ForestConfig, rf_fit, rf_predict
from .linear import Benchmark, ols_fit, ols_predict
# perfbench/trace.py wraps lstm_train and lstm_predict here by name, so both stay imported
from .lstm import TrainConfig, lstm_predict, lstm_train, train_windows
from .marketdata import (
    MAX_FEATURE_LAG,
    SESSION_END_MINUTE,
    SESSION_START_MINUTE,
    DaySeries,
    build_feature_rows,
)
from .scaling import fit_minmax, inverse_transform_target, transform

__all__ = [
    "TRAIN_WINDOW_MINUTES",
    "FIRST_PREDICTION_MINUTE",
    "TASKS_PER_DAY",
    "STATUS_OK",
    "STATUS_FALLBACK",
    "STATUS_SKIPPED",
    "STORE_COLUMNS",
    "PredictorSet",
    "ModelFamily",
    "ModelSpec",
    "PredictionRecord",
    "schedule_day",
    "derive_seed",
    "run_day",
    "run_sample",
    "write_store",
    "read_store",
]

log = logging.getLogger(__name__)

TRAIN_WINDOW_MINUTES = 30

# A scaled test predictor may lie at most this many training spans outside
# [0, 1]; farther out a fit only extrapolates, and the window falls back.
MAX_EXTRAPOLATION = 10.0

# Earliest minute with a complete feature row: every predictor lag must fit
# inside the session.
EARLIEST_FEATURE_MINUTE = SESSION_START_MINUTE + MAX_FEATURE_LAG

# The schedule predicts the session's final stretch, 10:11 through 15:50.
# The first few windows start at the earliest feature minute and are shorter
# than the full half hour; from 10:19 on every window has 30 rows.
FIRST_PREDICTION_MINUTE = 41
TASKS_PER_DAY = SESSION_END_MINUTE - FIRST_PREDICTION_MINUTE + 1

STATUS_OK = "ok"
STATUS_FALLBACK = "fallback"
STATUS_SKIPPED = "skipped"
_STATUSES = (STATUS_OK, STATUS_FALLBACK, STATUS_SKIPPED)


class PredictorSet(enum.Enum):
    """Which feature columns a window model trains on."""

    VIX = "vix"
    AR1 = "ar1"
    AGG = "agg"

    @property
    def columns(self) -> Tuple[str, ...]:
        return _PREDICTOR_SET_COLUMNS[self]

    @classmethod
    def coerce(cls, value) -> "PredictorSet":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise ConfigError(f"unknown predictor set id: {value!r}")


_PREDICTOR_SET_COLUMNS = {
    PredictorSet.VIX: ("vix_lag",),
    PredictorSet.AR1: ("lag_r5",),
    PredictorSet.AGG: ("lag_r5", "lag_r5_sq", "vix_lag", "dvix_lag", "vrp_lag"),
}


class ModelFamily(enum.Enum):
    NAIVE = "naive"
    OLS_BENCH = "ols"
    LSTM = "lstm"
    RF = "rf"


@dataclass(frozen=True)
class ModelSpec:
    """One fully configured window estimator.

    Use the factory classmethods; the raw constructor demands exactly the
    fields the family needs and rejects the rest.
    """

    family: ModelFamily
    benchmark: Optional[Benchmark] = None
    predictor_set: Optional[PredictorSet] = None
    train_config: Optional[TrainConfig] = None
    forest_config: Optional[ForestConfig] = None

    def __post_init__(self):
        if not isinstance(self.family, ModelFamily):
            raise ConfigError(f"unknown model family: {self.family!r}")
        if self.family is ModelFamily.OLS_BENCH:
            if self.benchmark is None:
                raise ConfigError("an OLS benchmark spec needs a benchmark id")
        elif self.benchmark is not None:
            raise ConfigError("benchmark only applies to OLS benchmark specs")
        if self.family in (ModelFamily.LSTM, ModelFamily.RF):
            if self.predictor_set is None:
                raise ConfigError(
                    f"{self.family.value} spec needs a predictor set"
                )
        elif self.predictor_set is not None:
            raise ConfigError(
                "predictor sets are fixed by definition for naive and OLS specs"
            )
        if self.family is ModelFamily.LSTM:
            if self.train_config is None:
                raise ConfigError("an LSTM spec needs a train config")
        elif self.train_config is not None:
            raise ConfigError("train_config only applies to LSTM specs")
        if self.family is ModelFamily.RF:
            if self.forest_config is None:
                raise ConfigError("an RF spec needs a forest config")
        elif self.forest_config is not None:
            raise ConfigError("forest_config only applies to RF specs")

    @classmethod
    def naive(cls) -> "ModelSpec":
        return cls(family=ModelFamily.NAIVE)

    @classmethod
    def ols(cls, which) -> "ModelSpec":
        return cls(family=ModelFamily.OLS_BENCH, benchmark=Benchmark.coerce(which))

    @classmethod
    def lstm(cls, predictors="vix", config: Optional[TrainConfig] = None) -> "ModelSpec":
        return cls(
            family=ModelFamily.LSTM,
            predictor_set=PredictorSet.coerce(predictors),
            train_config=config if config is not None else TrainConfig(),
        )

    @classmethod
    def rf(cls, predictors="agg", config: Optional[ForestConfig] = None) -> "ModelSpec":
        return cls(
            family=ModelFamily.RF,
            predictor_set=PredictorSet.coerce(predictors),
            forest_config=config if config is not None else ForestConfig(),
        )

    @property
    def model_id(self) -> str:
        if self.family is ModelFamily.NAIVE:
            return "naive"
        if self.family is ModelFamily.OLS_BENCH:
            return f"ols-{self.benchmark.value}"
        return self.family.value

    @property
    def predictor_set_id(self) -> str:
        if self.family is ModelFamily.NAIVE:
            return "none"
        if self.family is ModelFamily.OLS_BENCH:
            return self.benchmark.value
        return self.predictor_set.value

    @property
    def key(self) -> str:
        """Stable identity used for seeding and sorting."""
        return f"{self.model_id}:{self.predictor_set_id}"

    @property
    def feature_columns(self) -> Tuple[str, ...]:
        if self.family is ModelFamily.NAIVE:
            return ()
        if self.family is ModelFamily.OLS_BENCH:
            return (self.benchmark.feature_name,)
        return self.predictor_set.columns


@dataclass(frozen=True)
class PredictionRecord:
    """One model's forecast for one prediction minute."""

    day: dt.date
    minute: int
    model: str
    predictor_set: str
    y_true: float
    y_hat: float
    y_naive: float
    status: str

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ConfigError(f"unknown record status: {self.status!r}")

    @property
    def sort_key(self):
        return (self.day, self.minute, self.model, self.predictor_set)


def _window_length(minutes):
    """Training rows in the window of a test row at each given minute."""
    return minutes - np.maximum(minutes - TRAIN_WINDOW_MINUTES, EARLIEST_FEATURE_MINUTE)


def schedule_day(rows: np.ndarray) -> np.ndarray:
    """Indices of the day's schedulable test rows, ascending.

    Row i at minute m (10:11 through 15:50) is scheduled when the n rows
    before it hold exactly the minutes m - n .. m - 1, where the window
    starts at minute max(m - 30, EARLIEST_FEATURE_MINUTE) and n = m - start;
    its window is then the row range [i - n, i). A gapless day yields
    exactly 340 test rows. Data gaps thin the schedule instead of producing
    windows with holes.
    """
    minutes = rows["minute"]
    if np.any(rows["day"] != rows["day"][:1]):
        raise DataError("schedule_day expects rows from a single day")
    if np.any(np.diff(minutes) <= 0):
        raise DataError("feature rows must be sorted by minute")
    n_train = _window_length(minutes)
    first = np.arange(len(rows)) - n_train
    tests = np.flatnonzero(
        (minutes >= FIRST_PREDICTION_MINUTE) & (minutes <= SESSION_END_MINUTE) & (first >= 0)
    )
    # rows are strictly increasing, so a window whose first row sits at its
    # start minute holds every minute up to the test row
    tests = tests[minutes[first[tests]] == minutes[tests] - n_train[tests]]
    if len(tests) < TASKS_PER_DAY and len(rows):
        log.debug(
            "day %s: %d of %d windows schedulable", rows["day"][0], len(tests), TASKS_PER_DAY
        )
    return tests


def derive_seed(master_seed: int, day: dt.date, minute: int, model_key: str) -> int:
    """Stable per-window seed; hashing keeps parallel runs order-independent."""
    tag = f"{master_seed}:{day.isoformat()}:{minute}:{model_key}"
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _ols_forecasts(spec: ModelSpec, X, y, x_test, seeds) -> np.ndarray:
    """OLS: one closed-form fit over the stack; NaN where the regressor is constant."""
    return ols_predict(ols_fit(X, y), x_test)


def _rf_forecasts(spec: ModelSpec, X, y, x_test, seeds) -> np.ndarray:
    """RF: one forest per window, grown from its own seed; NaN where a fit fails."""
    forecasts = np.full(len(X), math.nan)
    for j, seed in enumerate(seeds):
        config = replace(spec.forest_config, seed=seed)
        try:
            forecasts[j] = rf_predict(rf_fit(X[j], y[j], config), x_test[j])
        except (FitError, NumericError):
            pass
    return forecasts


def _lstm_forecasts(spec: ModelSpec, X, y, x_test, seeds) -> np.ndarray:
    """LSTM: train the stack's windows as one batch; NaN where a window falls back.

    Windows train with per-window seeds, and results per window do not
    depend on which other windows shared the batch. A window falls back
    when it has no more rows than the sequence length, so it cannot form a
    training subsequence, when its training diverged, or when its forecast
    is not finite.
    """
    config = spec.train_config
    length = config.sequence_length
    W, n, _ = X.shape
    forecasts = np.full(W, math.nan)
    if n <= length:
        return forecasts
    fitted = train_windows(
        sliding_window_view(X, length, axis=1).transpose(0, 1, 3, 2),
        sliding_window_view(y, length, axis=1),
        config,
        seeds,
    )
    for j, params in enumerate(fitted):
        if params is None:
            continue
        # the `length` most recent feature vectors, ending at the test minute
        sequence = np.vstack([X[j, n - length + 1:], x_test[j]])
        try:
            forecasts[j] = lstm_predict(params, sequence)
        except NumericError:
            pass
    return forecasts


# every non-naive family: (spec, X (W, n, k), y (W, n), x_test (W, k), seeds) -> (W,)
_FORECASTS = {
    ModelFamily.OLS_BENCH: _ols_forecasts,
    ModelFamily.RF: _rf_forecasts,
    ModelFamily.LSTM: _lstm_forecasts,
}


def _run_model(
    rows: np.ndarray, tests: np.ndarray, spec: ModelSpec, master_seed: int
) -> List[PredictionRecord]:
    """One model over every scheduled test row, one record each in row order.

    A window whose inputs are not all finite is recorded as skipped, with
    no naive forecast when a target is among them; the naive model needs
    no fit. Every other window is scaled by its own training rows, all
    windows in one call, and fitted with a seed derived from (master seed,
    day, minute, model key); its forecast is mapped back to return units.
    A window with no finite scaled form or a test predictor more than
    MAX_EXTRAPOLATION training spans outside [0, 1], a fit that fails and a
    forecast that is not finite fall back to the training-window mean.
    """
    if not len(tests):
        return []
    day = rows["day"][0].item()
    minutes = rows["minute"]
    data = np.column_stack([rows[c] for c in spec.feature_columns + ("r5",)])
    k = data.shape[1] - 1
    test_minutes = minutes[tests].tolist()
    lengths = _window_length(minutes[tests])
    # every window as the 30 rows that end at its test row; a warm-up
    # window's missing rows repeat its first row, which moves no min or max
    gather = np.maximum(
        tests[:, None] + np.arange(-TRAIN_WINDOW_MINUTES, 0), (tests - lengths)[:, None]
    )
    windows = data[gather]
    test_rows = data[tests]
    finite = np.isfinite(windows).all(axis=1) & np.isfinite(test_rows)
    usable = finite.all(axis=1)
    # one window at a time: a mean along the stack's axis sums in another order
    y_naive = np.array([
        data[i - n:i, k].mean() if scored else math.nan
        for i, n, scored in zip(tests.tolist(), lengths.tolist(), finite[:, k].tolist())
    ])
    y_hat, ok = y_naive, usable
    if spec.family is not ModelFamily.NAIVE:
        # scaler statistics come from training rows only; the test predictors
        # are mapped with those statistics and the test target's scaled value
        # is discarded
        scaler = fit_minmax(windows)
        scaled = transform(scaler, windows)
        x_test = transform(scaler, test_rows[:, None, :])[:, 0, :k]
        in_range = (x_test >= -MAX_EXTRAPOLATION) & (x_test <= 1.0 + MAX_EXTRAPOLATION)
        fit = usable & np.isfinite(scaled).all(axis=(1, 2)) & in_range.all(axis=1)
        forecast = _FORECASTS[spec.family]
        yhat_scaled = np.full(len(tests), math.nan)
        # one stack per window length; a day's windows have 22 to 30 rows
        for n in sorted(set(lengths[fit].tolist())):
            j = np.flatnonzero(fit & (lengths == n))
            seeds = [derive_seed(master_seed, day, test_minutes[i], spec.key) for i in j.tolist()]
            yhat_scaled[j] = forecast(spec, scaled[j, -n:, :k], scaled[j, -n:, k], x_test[j], seeds)
        y_hat = inverse_transform_target(scaler, yhat_scaled, k)
        # a degenerate target inverts to its constant whatever the forecast
        ok = np.isfinite(yhat_scaled) & np.isfinite(y_hat)
    status = np.where(ok, STATUS_OK, np.where(usable, STATUS_FALLBACK, STATUS_SKIPPED))
    y_hat = np.where(ok, y_hat, np.where(usable, y_naive, math.nan))
    return [
        PredictionRecord(
            day=day,
            minute=minute,
            model=spec.model_id,
            predictor_set=spec.predictor_set_id,
            y_true=y_true,
            y_hat=forecast_value,
            y_naive=naive,
            status=state,
        )
        for minute, y_true, forecast_value, naive, state in zip(
            test_minutes, test_rows[:, k].tolist(), y_hat.tolist(),
            y_naive.tolist(), status.tolist(),
        )
    ]


def _check_roster(roster: Sequence[ModelSpec]) -> List[ModelSpec]:
    roster = list(roster)
    keys = [spec.key for spec in roster]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate model specs in roster: {sorted(keys)}")
    return roster


def run_day(
    rows: np.ndarray, roster: Sequence[ModelSpec], master_seed: int = 0
) -> List[PredictionRecord]:
    """Run every scheduled window of one day's feature table for every model.

    Output is sorted by (minute, model, predictor set); all models share the
    same schedule, so per-model record counts always match. A run over one
    window's rows alone is a one-window run.
    """
    roster = _check_roster(roster)
    tests = schedule_day(rows)
    records: List[PredictionRecord] = []
    for spec in roster:
        records.extend(_run_model(rows, tests, spec, master_seed))
    records.sort(key=lambda r: (r.minute, r.model, r.predictor_set))
    return records


def _run_series(
    series: DaySeries, roster: Sequence[ModelSpec], master_seed: int
) -> List[PredictionRecord]:
    return run_day(build_feature_rows(series), roster, master_seed)


def run_sample(
    days: Sequence[DaySeries],
    roster: Sequence[ModelSpec],
    master_seed: int = 0,
    workers: int = 1,
) -> List[PredictionRecord]:
    """Run a multi-day sample and merge all records into store order.

    Days are independent units of work.  Seeds derive from (master seed,
    day, minute, model), and the merged records are sorted, so any worker
    count produces the identical record list.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    days = list(days)
    roster = _check_roster(roster)
    if not days:
        return []
    job = partial(_run_series, roster=roster, master_seed=master_seed)
    if workers == 1 or len(days) == 1:
        chunks = [job(series) for series in days]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(days))) as pool:
            chunks = list(pool.map(job, days))
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: r.sort_key)
    return records


STORE_COLUMNS = (
    "date",
    "minute",
    "model",
    "predictor_set",
    "y_true",
    "y_hat",
    "y_naive",
    "status",
)


def write_store(records: Sequence[PredictionRecord], path) -> None:
    """Write records as CSV in store order.

    Floats are written with repr so reading the file back reproduces every
    value bit for bit.
    """
    ordered = sorted(records, key=lambda r: r.sort_key)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(STORE_COLUMNS)
        for r in ordered:
            writer.writerow(
                [
                    r.day.isoformat(),
                    r.minute,
                    r.model,
                    r.predictor_set,
                    repr(float(r.y_true)),
                    repr(float(r.y_hat)),
                    repr(float(r.y_naive)),
                    r.status,
                ]
            )


def read_store(path) -> List[PredictionRecord]:
    """Read a prediction store back into records."""
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(STORE_COLUMNS):
            raise ParseError(f"unexpected store header: {header!r}")
        for lineno, fields in enumerate(reader, start=2):
            if len(fields) != len(STORE_COLUMNS):
                raise ParseError(
                    f"line {lineno}: expected {len(STORE_COLUMNS)} fields, got {len(fields)}"
                )
            try:
                records.append(
                    PredictionRecord(
                        day=dt.date.fromisoformat(fields[0]),
                        minute=int(fields[1]),
                        model=fields[2],
                        predictor_set=fields[3],
                        y_true=float(fields[4]),
                        y_hat=float(fields[5]),
                        y_naive=float(fields[6]),
                        status=fields[7],
                    )
                )
            except (ValueError, ConfigError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    return records
