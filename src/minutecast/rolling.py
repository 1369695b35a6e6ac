"""Rolling-window scheduling, per-window estimation, and the prediction store.

A trading day's feature table yields the indices of its test rows: each
test row's window is the row range of the feature rows whose targets fall
in the half hour before its minute, and the model fitted on that range
forecasts the test row's five-minute return.  Model fits never see the test
row's target, scalers are fitted on training rows only, and every
estimation seed is derived from (master seed, day, minute, model), so
results are identical regardless of worker count or scheduling order.
Each day's windows are gathered and scaled once for the whole roster, and
every model reads its own columns of that stack, so a model's forecasts do
not depend on which other models run beside it.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import logging
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, FitError, NumericError, ParseError
from .forest import ForestConfig, rf_fit, rf_predict
from .linear import ols_fit, ols_predict
# perfbench/trace.py wraps lstm_train and lstm_predict here by name, so both stay imported
from .lstm import TrainConfig, lstm_predict, lstm_train, predict_windows, train_windows
from .marketdata import (
    MAX_FEATURE_LAG,
    SESSION_END_MINUTE,
    SESSION_START_MINUTE,
    DaySeries,
    build_feature_rows,
)
from .scaling import MinMaxScaler, fit_minmax, inverse_transform_target, transform

__all__ = [
    "TRAIN_WINDOW_MINUTES",
    "FIRST_PREDICTION_MINUTE",
    "TASKS_PER_DAY",
    "STATUS_OK",
    "STATUS_FALLBACK",
    "STATUS_SKIPPED",
    "STORE_COLUMNS",
    "PREDICTOR_COLUMNS",
    "OLS_BENCHMARKS",
    "PREDICTOR_SETS",
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


# The feature columns behind each predictor id: the five OLS benchmarks each
# regress on one lagged variable, and LSTM and RF read VIX, the lagged return
# or all five.
PREDICTOR_COLUMNS = {
    "ar1": ("lag_r5",),
    "rv": ("lag_r5_sq",),
    "vix": ("vix_lag",),
    "dvix": ("dvix_lag",),
    "vrp": ("vrp_lag",),
    "agg": ("lag_r5", "lag_r5_sq", "vix_lag", "dvix_lag", "vrp_lag"),
}
OLS_BENCHMARKS = ("ar1", "rv", "vix", "dvix", "vrp")  # the roster order of `ols`
PREDICTOR_SETS = ("vix", "ar1", "agg")


class ModelFamily(enum.Enum):
    NAIVE = "naive"
    OLS_BENCH = "ols"
    LSTM = "lstm"
    RF = "rf"


# per family: the predictor ids it accepts and the type of its config
_FAMILY_RULES = {
    ModelFamily.NAIVE: (("none",), type(None)),
    ModelFamily.OLS_BENCH: (OLS_BENCHMARKS, type(None)),
    ModelFamily.LSTM: (PREDICTOR_SETS, TrainConfig),
    ModelFamily.RF: (PREDICTOR_SETS, ForestConfig),
}


def _lower(value):
    return value.lower() if isinstance(value, str) else value


@dataclass(frozen=True)
class ModelSpec:
    """One fully configured window estimator: family, predictor id and config.

    Use the factory classmethods; the raw constructor rejects a predictor id
    the family does not accept and a config of the wrong type for it.
    """

    family: ModelFamily
    predictor_set_id: str = "none"
    config: Union[TrainConfig, ForestConfig, None] = None

    def __post_init__(self):
        if not isinstance(self.family, ModelFamily):
            raise ConfigError(f"unknown model family: {self.family!r}")
        ids, config_type = _FAMILY_RULES[self.family]
        if self.predictor_set_id not in ids:
            raise ConfigError(f"unknown {self.family.value} predictor id: {self.predictor_set_id!r}")
        if not isinstance(self.config, config_type):
            raise ConfigError(f"{self.family.value} spec cannot take a {type(self.config).__name__} config")

    @classmethod
    def naive(cls) -> "ModelSpec":
        return cls(ModelFamily.NAIVE)

    @classmethod
    def ols(cls, which) -> "ModelSpec":
        return cls(ModelFamily.OLS_BENCH, _lower(which))

    @classmethod
    def lstm(cls, predictors="vix", config: Optional[TrainConfig] = None) -> "ModelSpec":
        return cls(ModelFamily.LSTM, _lower(predictors), config or TrainConfig())

    @classmethod
    def rf(cls, predictors="agg", config: Optional[ForestConfig] = None) -> "ModelSpec":
        return cls(ModelFamily.RF, _lower(predictors), config or ForestConfig())

    @property
    def model_id(self) -> str:
        if self.family is ModelFamily.OLS_BENCH:
            return f"ols-{self.predictor_set_id}"
        return self.family.value

    @property
    def key(self) -> str:
        """Stable identity used for seeding and sorting."""
        return f"{self.model_id}:{self.predictor_set_id}"

    @property
    def feature_columns(self) -> Tuple[str, ...]:
        return PREDICTOR_COLUMNS.get(self.predictor_set_id, ())


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


# the store's record order, as a sort key
STORE_ORDER = attrgetter("day", "minute", "model", "predictor_set")


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
    # imported here: hashlib loads OpenSSL, and runs of unseeded models never hash
    import hashlib

    tag = f"{master_seed}:{day.isoformat()}:{minute}:{model_key}"
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _ols_forecasts(spec: ModelSpec, X, y, lengths, x_test, seeds) -> np.ndarray:
    """OLS: closed-form fits, one stack per window length; NaN where the regressor is constant."""
    forecasts = np.empty(len(X))
    for n in np.unique(lengths).tolist():
        j = np.flatnonzero(lengths == n)
        forecasts[j] = ols_predict(ols_fit(X[j, -n:], y[j, -n:]), x_test[j])
    return forecasts


def _rf_forecasts(spec: ModelSpec, X, y, lengths, x_test, seeds) -> np.ndarray:
    """RF: one forest per window, grown from its own seed; NaN where a fit fails."""
    forecasts = np.full(len(X), math.nan)
    for j, (n, seed) in enumerate(zip(lengths.tolist(), seeds)):
        config = replace(spec.config, seed=seed)
        try:
            forecasts[j] = rf_predict(rf_fit(X[j, -n:], y[j, -n:], config), x_test[j])
        except (FitError, NumericError):
            pass
    return forecasts


def _lstm_forecasts(spec: ModelSpec, X, y, lengths, x_test, seeds) -> np.ndarray:
    """LSTM: train every window as one batch, predict all in one pass; NaN where one falls back.

    Every window trains on all subsequences of its padded stack; those
    that start before the window's first row are masked, so they cannot
    reach its parameters. Windows train with per-window seeds, and results
    per window do not depend on which other windows shared the batch. A
    window falls back when it has no more rows than the sequence length,
    so every subsequence is masked, when its training diverged, or when
    its forecast is not finite.
    """
    config = spec.config
    length = config.sequence_length
    W, rows, _ = X.shape
    if rows <= length:
        return np.full(W, math.nan)
    # subsequence s spans stack rows s .. s + length - 1; it counts when they
    # are all the window's own, and only in a window with more rows than
    # `length`, the least lstm_train accepts
    starts = np.arange(rows - length + 1)
    mask = (starts >= (rows - lengths)[:, None]) & (lengths > length)[:, None]
    fitted = train_windows(
        sliding_window_view(X, length, axis=1).transpose(0, 1, 3, 2),
        sliding_window_view(y, length, axis=1),
        config,
        seeds,
        mask=mask,
    )
    # the `length` most recent feature vectors, ending at the test minute
    sequences = np.concatenate([X[:, rows - length + 1:], x_test[:, None]], axis=1)
    return predict_windows(fitted, sequences)


# every non-naive family: (spec, X (W, 30, k), y (W, 30), lengths (W,),
# x_test (W, k), seeds) -> (W,); window j's own rows are the last lengths[j];
# seeds is None for a family that draws no random numbers
_FORECASTS = {
    ModelFamily.OLS_BENCH: _ols_forecasts,
    ModelFamily.RF: _rf_forecasts,
    ModelFamily.LSTM: _lstm_forecasts,
}
_SEEDED_FAMILIES = (ModelFamily.RF, ModelFamily.LSTM)


class _DayStack(NamedTuple):
    """One day's windows over the roster's feature columns, the target last.

    Every (W, c) mask has one column per stack column; a model reads the
    columns of its own predictors and the target.
    """

    day: dt.date
    minutes: List[int]  # the test minutes
    columns: Dict[str, int]  # stack column of each feature name and of r5
    lengths: np.ndarray  # (W,) training rows per window
    y_true: List[float]
    y_naive: np.ndarray  # (W,) the window mean, NaN where a target is not finite
    finite: np.ndarray  # (W, c) the window's rows and test row are finite
    fittable: Optional[np.ndarray]  # (W, c) finite, scaled finite, test row in range
    scaler: Optional[MinMaxScaler]
    scaled: Optional[np.ndarray]  # (W, 30, c)
    x_test: Optional[np.ndarray]  # (W, c) the scaled test rows


def _stack_day(rows: np.ndarray, tests: np.ndarray, roster: Sequence[ModelSpec]) -> _DayStack:
    """Gather, mask and scale one day's windows once for every model in the roster.

    The stack holds the union of the roster's feature columns, in roster
    order, then the target r5. Min/max scaling works column by column, so a
    model's columns sliced from the stack are bit for bit what scaling them
    alone gives, and no model's forecasts depend on the rest of the roster.
    Scaler statistics come from training rows only; the test rows are
    mapped with those statistics and the test target's scaled value is
    discarded. A roster of naive models alone scales nothing.
    """
    names = list(dict.fromkeys(c for spec in roster for c in spec.feature_columns)) + ["r5"]
    data = np.column_stack([rows[c] for c in names])
    lengths = _window_length(rows["minute"][tests])
    # every window as the 30 rows that end at its test row; a warm-up
    # window's missing rows repeat its first row, which moves no min or max
    gather = np.maximum(
        tests[:, None] + np.arange(-TRAIN_WINDOW_MINUTES, 0), (tests - lengths)[:, None]
    )
    windows = data[gather]
    test_rows = data[tests]
    finite = np.isfinite(windows).all(axis=1) & np.isfinite(test_rows)
    # each row of a contiguous (windows, n) stack sums in the order of its
    # window's own mean, so one mean per window length gives the same bits
    y_naive = np.full(len(tests), math.nan)
    for n in np.unique(lengths).tolist():
        j = np.flatnonzero((lengths == n) & finite[:, -1])
        y_naive[j] = rows["r5"][tests[j, None] + np.arange(-n, 0)].mean(axis=1)
    fittable = scaler = scaled = x_test = None
    if any(spec.family is not ModelFamily.NAIVE for spec in roster):
        scaler = fit_minmax(windows)
        scaled = transform(scaler, windows)
        x_test = transform(scaler, test_rows[:, None, :])[:, 0]
        in_range = (x_test >= -MAX_EXTRAPOLATION) & (x_test <= 1.0 + MAX_EXTRAPOLATION)
        in_range[:, -1] = True  # no fit reads the scaled test target
        fittable = finite & np.isfinite(scaled).all(axis=1) & in_range
    return _DayStack(
        day=rows["day"][0].item(),
        minutes=rows["minute"][tests].tolist(),
        columns={name: c for c, name in enumerate(names)},
        lengths=lengths,
        y_true=test_rows[:, -1].tolist(),
        y_naive=y_naive,
        finite=finite,
        fittable=fittable,
        scaler=scaler,
        scaled=scaled,
        x_test=x_test,
    )


def _run_model(stack: _DayStack, spec: ModelSpec, master_seed: int) -> List[PredictionRecord]:
    """One model over every window of a day's stack, one record each in row order.

    A window whose inputs are not all finite is recorded as skipped, with
    no naive forecast when a target is among them; the naive model needs
    no fit. Every other window is fitted on its scaled columns, with a seed
    derived from (master seed, day, minute, model key) for the families
    that draw random numbers; its forecast is mapped back to return units.
    A window with no finite scaled form or a test predictor more than
    MAX_EXTRAPOLATION training spans outside [0, 1], a fit that fails and a
    forecast that is not finite fall back to the training-window mean.
    """
    cols = [stack.columns[c] for c in spec.feature_columns + ("r5",)]
    usable = stack.finite[:, cols].all(axis=1)
    y_hat, ok = stack.y_naive, usable
    if spec.family is not ModelFamily.NAIVE:
        k = len(cols) - 1
        yhat_scaled = np.full(len(usable), math.nan)
        j = np.flatnonzero(stack.fittable[:, cols].all(axis=1))
        if len(j):
            scaled = np.take(stack.scaled, cols, axis=2)
            seeds = None
            if spec.family in _SEEDED_FAMILIES:
                seeds = [
                    derive_seed(master_seed, stack.day, stack.minutes[i], spec.key)
                    for i in j.tolist()
                ]
            yhat_scaled[j] = _FORECASTS[spec.family](
                spec, scaled[j, :, :k], scaled[j, :, k], stack.lengths[j],
                np.take(stack.x_test[j], cols[:k], axis=1), seeds,
            )
        y_hat = inverse_transform_target(stack.scaler, yhat_scaled, cols[k])
        # a degenerate target inverts to its constant whatever the forecast
        ok = np.isfinite(yhat_scaled) & np.isfinite(y_hat)
    status = np.where(ok, STATUS_OK, np.where(usable, STATUS_FALLBACK, STATUS_SKIPPED))
    y_hat = np.where(ok, y_hat, np.where(usable, stack.y_naive, math.nan))
    day, model, predictor_set = stack.day, spec.model_id, spec.predictor_set_id
    return [
        PredictionRecord(day, minute, model, predictor_set, y_true, forecast, naive, state)
        for minute, y_true, forecast, naive, state in zip(
            stack.minutes, stack.y_true, y_hat.tolist(), stack.y_naive.tolist(), status.tolist()
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
    if not (len(tests) and roster):
        return []
    stack = _stack_day(rows, tests, roster)
    # every model has one record per test row, so taking the models in
    # (model, predictor set) order minute by minute gives the sorted day
    roster = sorted(roster, key=lambda spec: (spec.model_id, spec.predictor_set_id))
    per_model = [_run_model(stack, spec, master_seed) for spec in roster]
    return [record for minute in zip(*per_model) for record in minute]


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
        # imported here: the pool machinery costs a serial run's start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(days))) as pool:
            chunks = list(pool.map(job, days))
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=STORE_ORDER)
    return records


# the characters csv would quote a field for
_QUOTED = ',"\r\n'

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
    value bit for bit. No field is ever quoted: a model or predictor id
    holding a comma, a double quote or a line break raises ConfigError.
    """
    ordered = sorted(records, key=STORE_ORDER)
    for ids in {(r.model, r.predictor_set) for r in ordered}:
        for text in ids:
            if any(c in text for c in _QUOTED):
                raise ConfigError(f"store ids cannot hold {_QUOTED!r}: {text!r}")
    with open(path, "w", newline="") as handle:
        handle.write(",".join(STORE_COLUMNS) + "\n")
        for day, group in groupby(ordered, key=attrgetter("day")):
            date = day.isoformat()
            handle.writelines(
                f"{date},{r.minute},{r.model},{r.predictor_set},{float(r.y_true)!r},"
                f"{float(r.y_hat)!r},{float(r.y_naive)!r},{r.status}\n"
                for r in group
            )


def read_store(path) -> List[PredictionRecord]:
    """Read a prediction store back into records."""
    records = []
    dates = {}
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
                day = dates.get(fields[0])
                if day is None:
                    day = dates[fields[0]] = dt.date.fromisoformat(fields[0])
                records.append(
                    PredictionRecord(
                        day=day,
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
