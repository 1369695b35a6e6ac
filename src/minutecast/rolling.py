"""Rolling-window scheduling, per-window estimation, and the prediction store.

A trading day becomes a sequence of window tasks: each task trains on the
feature rows whose targets fall in the half hour before the prediction
minute, then forecasts the one-minute-ahead five-minute return.  Model fits
never see the test row's target, scalers are fitted on training rows only,
and every estimation seed is derived from (master seed, day, minute, model),
so results are identical regardless of worker count or scheduling order.
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

from .errors import ConfigError, DataError, FitError, NumericError, ParseError, ShapeError
from .forest import ForestConfig, rf_fit, rf_predict
from .linear import Benchmark, ols_fit, ols_predict
from .lstm import TrainConfig, lstm_predict, lstm_train, train_windows
from .marketdata import (
    MAX_FEATURE_LAG,
    SESSION_END_MINUTE,
    SESSION_START_MINUTE,
    DaySeries,
    FeatureRow,
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
    "WindowTask",
    "PredictionRecord",
    "schedule_day",
    "derive_seed",
    "run_window",
    "run_day",
    "run_sample",
    "write_store",
    "read_store",
]

log = logging.getLogger(__name__)

TRAIN_WINDOW_MINUTES = 30

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
class WindowTask:
    """One rolling-window estimation: training rows, test row, anchor minute.

    Training targets cover the half hour before the prediction minute,
    truncated at the session's earliest feature minute, so warm-up windows
    near the open are shorter than 30 rows and all later windows are exact.
    """

    day: dt.date
    minute: int
    train_rows: Tuple[FeatureRow, ...]
    test_row: FeatureRow

    def __post_init__(self):
        rows = tuple(self.train_rows)
        object.__setattr__(self, "train_rows", rows)
        if not rows:
            raise ShapeError("window task has no training rows")
        expected_start = max(self.minute - TRAIN_WINDOW_MINUTES, EARLIEST_FEATURE_MINUTE)
        if rows[0].minute != expected_start:
            raise ShapeError(
                f"window starts at minute {rows[0].minute}, expected {expected_start}"
            )
        for offset, row in enumerate(rows):
            if row.minute != expected_start + offset:
                raise ShapeError("training minutes must be consecutive")
            if row.day != self.day:
                raise DataError("training rows must come from the task's day")
        if rows[-1].minute != self.minute - 1:
            raise ShapeError("training window must end the minute before prediction")
        if self.test_row.minute != self.minute:
            raise ShapeError("test row must sit at the prediction minute")
        if self.test_row.day != self.day:
            raise DataError("test row must come from the task's day")

    @property
    def n_train(self) -> int:
        return len(self.train_rows)


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


def schedule_day(rows: Sequence[FeatureRow]) -> List[WindowTask]:
    """Build the day's window tasks, one per schedulable prediction minute.

    A gapless day yields exactly 340 tasks, predicting 10:11 through 15:50.
    A task is emitted only when its test row and every required training
    row are present, so data gaps thin the schedule instead of producing
    windows with holes.
    """
    if not rows:
        return []
    day = rows[0].day
    by_minute = {}
    last_minute = None
    for row in rows:
        if row.day != day:
            raise DataError("schedule_day expects rows from a single day")
        if last_minute is not None and row.minute <= last_minute:
            raise DataError("feature rows must be sorted by minute")
        last_minute = row.minute
        by_minute[row.minute] = row

    tasks = []
    for minute in range(FIRST_PREDICTION_MINUTE, SESSION_END_MINUTE + 1):
        test_row = by_minute.get(minute)
        if test_row is None:
            continue
        start = max(minute - TRAIN_WINDOW_MINUTES, EARLIEST_FEATURE_MINUTE)
        train = []
        for m in range(start, minute):
            row = by_minute.get(m)
            if row is None:
                train = None
                break
            train.append(row)
        if train is None:
            continue
        tasks.append(
            WindowTask(day=day, minute=minute, train_rows=tuple(train), test_row=test_row)
        )
    if len(tasks) < TASKS_PER_DAY:
        log.debug(
            "day %s: %d of %d window tasks schedulable", day, len(tasks), TASKS_PER_DAY
        )
    return tasks


def derive_seed(master_seed: int, day: dt.date, minute: int, model_key: str) -> int:
    """Stable per-task seed; hashing keeps parallel runs order-independent."""
    tag = f"{master_seed}:{day.isoformat()}:{minute}:{model_key}"
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class _PreparedWindow:
    """A task scaled and ready to fit."""

    task: WindowTask
    y_naive: float
    scaler: object
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray


def _record(task: WindowTask, spec: ModelSpec, y_hat, y_naive, status) -> PredictionRecord:
    return PredictionRecord(
        day=task.day,
        minute=task.minute,
        model=spec.model_id,
        predictor_set=spec.predictor_set_id,
        y_true=float(task.test_row.r5),
        y_hat=float(y_hat),
        y_naive=float(y_naive),
        status=status,
    )


def _prepare_window(task: WindowTask, spec: ModelSpec):
    """Scale one window. Returns (record, None) when no fit is needed or
    possible, else (None, prepared)."""
    train_y = np.array([r.r5 for r in task.train_rows], dtype=float)
    if not np.all(np.isfinite(train_y)) or not math.isfinite(task.test_row.r5):
        return _record(task, spec, math.nan, math.nan, STATUS_SKIPPED), None
    y_naive = float(train_y.mean())
    if spec.family is ModelFamily.NAIVE:
        return _record(task, spec, y_naive, y_naive, STATUS_OK), None

    columns = spec.feature_columns
    train_X = np.array(
        [[getattr(row, c) for c in columns] for row in task.train_rows], dtype=float
    )
    test_x = np.array([getattr(task.test_row, c) for c in columns], dtype=float)
    if not np.all(np.isfinite(train_X)) or not np.all(np.isfinite(test_x)):
        return _record(task, spec, math.nan, y_naive, STATUS_SKIPPED), None

    # scaler statistics come from training rows only; the test predictors are
    # mapped with those statistics and the test target is never scaled
    matrix = np.hstack([train_X, train_y[:, None]])
    scaler = fit_minmax(matrix)
    k = train_X.shape[1]
    padded = np.append(test_x, 0.0)  # dummy slot for the target column
    try:
        scaled = transform(scaler, matrix)
        x_test = transform(scaler, padded[None, :])[0, :k]
    except NumericError:
        # no finite scaled form, e.g. a test value far outside a tiny training span
        return _record(task, spec, y_naive, y_naive, STATUS_FALLBACK), None
    return None, _PreparedWindow(
        task=task,
        y_naive=y_naive,
        scaler=scaler,
        x_train=scaled[:, :k],
        y_train=scaled[:, k],
        x_test=x_test,
    )


def _forecast_sequence(x_train: np.ndarray, x_test: np.ndarray, length: int) -> np.ndarray:
    # the `length` most recent feature vectors, ending at the test minute
    if length == 1:
        return x_test[None, :]
    return np.vstack([x_train[-(length - 1):], x_test[None, :]])


def _window_forecasts(spec: ModelSpec, preps, seeds) -> list:
    """OLS or RF: fit and forecast window by window; None where a fit fails."""
    forecasts = []
    for prep, seed in zip(preps, seeds):
        try:
            if spec.family is ModelFamily.OLS_BENCH:
                forecast = ols_predict(ols_fit(prep.x_train, prep.y_train), prep.x_test)
            else:
                config = replace(spec.forest_config, seed=seed)
                forecast = rf_predict(rf_fit(prep.x_train, prep.y_train, config), prep.x_test)
        except (FitError, NumericError):
            forecast = None
        forecasts.append(forecast)
    return forecasts


def _lstm_forecasts(spec: ModelSpec, preps, seeds) -> list:
    """LSTM: train same-length windows as one batch; None where a window falls back.

    All windows with the same row count share tensor shapes, so they train
    as one call with per-window seeds; results per window do not depend on
    which other windows shared the batch. A window with no more rows than
    the sequence length cannot form a training subsequence and falls back.
    """
    config = spec.train_config
    length = config.sequence_length
    forecasts = [None] * len(preps)
    groups: dict = {}
    for i, prep in enumerate(preps):
        if prep.x_train.shape[0] > length:
            groups.setdefault(prep.x_train.shape[0], []).append(i)

    for _, members in sorted(groups.items()):
        X = np.stack([
            sliding_window_view(preps[i].x_train, length, axis=0).transpose(0, 2, 1)
            for i in members
        ])
        Y = np.stack([sliding_window_view(preps[i].y_train, length) for i in members])
        try:
            fitted = train_windows(X, Y, config, [seeds[i] for i in members])
        except NumericError:
            # a diverged window poisons the whole batch; retrain each alone
            fitted = [_lstm_solo(preps[i], replace(config, seed=seeds[i])) for i in members]
        for i, params in zip(members, fitted):
            if params is None:
                continue
            prep = preps[i]
            try:
                forecasts[i] = lstm_predict(
                    params, _forecast_sequence(prep.x_train, prep.x_test, length)
                )
            except NumericError:
                pass
    return forecasts


def _lstm_solo(prep: _PreparedWindow, config: TrainConfig):
    try:
        return lstm_train(prep.x_train, prep.y_train, config)
    except NumericError:
        return None


def _finish(spec: ModelSpec, prep: _PreparedWindow, yhat_scaled) -> PredictionRecord:
    task = prep.task
    if yhat_scaled is not None:
        target_column = prep.scaler.n_columns - 1
        y_hat = inverse_transform_target(prep.scaler, float(yhat_scaled), target_column)
        if math.isfinite(y_hat):
            return _record(task, spec, y_hat, prep.y_naive, STATUS_OK)
    return _record(task, spec, prep.y_naive, prep.y_naive, STATUS_FALLBACK)


def _run_model(
    tasks: Sequence[WindowTask], spec: ModelSpec, master_seed: int
) -> List[PredictionRecord]:
    """One model over every task, one record per task in task order.

    Impossible inputs are recorded as skipped and the naive model needs no
    fit. Every other window is fitted on its scaled training rows with a
    seed derived from (master seed, day, minute, model key); its forecast
    is mapped back to return units, and a fit that fails falls back to the
    training-window mean.
    """
    prepared = [_prepare_window(task, spec) for task in tasks]
    preps = [prep for _, prep in prepared if prep is not None]
    seeds = [derive_seed(master_seed, p.task.day, p.task.minute, spec.key) for p in preps]
    forecast = _lstm_forecasts if spec.family is ModelFamily.LSTM else _window_forecasts
    forecasts = iter(forecast(spec, preps, seeds))
    return [
        record if prep is None else _finish(spec, prep, next(forecasts))
        for record, prep in prepared
    ]


def run_window(task: WindowTask, spec: ModelSpec, master_seed: int = 0) -> PredictionRecord:
    """Fit one model on one window and forecast the test minute.

    The same path as :func:`run_day` over a one-task schedule, so every
    schedulable minute yields a record for every model.
    """
    return _run_model([task], spec, master_seed)[0]


def _check_roster(roster: Sequence[ModelSpec]) -> List[ModelSpec]:
    roster = list(roster)
    keys = [spec.key for spec in roster]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate model specs in roster: {sorted(keys)}")
    return roster


def run_day(
    rows: Sequence[FeatureRow], roster: Sequence[ModelSpec], master_seed: int = 0
) -> List[PredictionRecord]:
    """Run every scheduled window of one day for every model in the roster.

    Output is sorted by (minute, model, predictor set); all models share the
    same schedule, so per-model record counts always match.
    """
    roster = _check_roster(roster)
    tasks = schedule_day(rows)
    records: List[PredictionRecord] = []
    for spec in roster:
        records.extend(_run_model(tasks, spec, master_seed))
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
