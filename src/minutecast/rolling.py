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

import datetime as dt
import enum
import logging
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
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
    "DayForecasts",
    "Forecasts",
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
_OK, _FALLBACK, _SKIPPED = range(len(_STATUSES))  # a status's code in a DayForecasts block


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


class PredictionRecord(NamedTuple):
    """One model's forecast for one prediction minute: one row of the store."""

    day: dt.date
    minute: int
    model: str
    predictor_set: str
    y_true: float
    y_hat: float
    y_naive: float
    status: str


class DayForecasts(NamedTuple):
    """One day's forecasts from M models over its W windows.

    Row (w, j) of the store is model j's forecast at minutes[w]: the store
    is minute-major and model-minor, and `models` is sorted, so a block's
    rows are in store order as they stand.
    """

    day: dt.date
    minutes: np.ndarray  # (W,) the test minutes, ascending
    y_true: np.ndarray  # (W,)
    y_naive: np.ndarray  # (W,) the window mean, NaN where a target is not finite
    models: Tuple[Tuple[str, str], ...]  # the M (model, predictor set) ids, sorted
    y_hat: np.ndarray  # (M, W)
    status: np.ndarray  # (M, W) uint8 codes into _STATUSES


def _ranks(values, ordered) -> np.ndarray:
    """Each value's position in `ordered`, which holds every one of them."""
    rank = {v: i for i, v in enumerate(ordered)}
    return np.fromiter(map(rank.__getitem__, values), np.intp, len(values))


class Forecasts:
    """A run's forecasts: one DayForecasts block per day, in date order.

    Iterating yields one PredictionRecord per forecast in store order, by
    (day, minute, model, predictor set); len counts the forecasts.
    """

    def __init__(self, blocks: Sequence[DayForecasts] = ()):
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return sum(block.y_hat.size for block in self.blocks)

    def __iter__(self):
        for day, minutes, y_true, y_naive, models, y_hat, status in self.blocks:
            rows = zip(
                minutes.tolist(), y_true.tolist(), y_naive.tolist(),
                y_hat.T.tolist(), status.T.tolist(),
            )
            for minute, truth, naive, forecasts, codes in rows:
                for (model, predictor_set), forecast, code in zip(models, forecasts, codes):
                    yield PredictionRecord(
                        day, minute, model, predictor_set, truth, forecast, naive, _STATUSES[code]
                    )

    @classmethod
    def from_columns(
        cls, day, minute, model, predictor_set, y_true, y_hat, y_naive, status, first_line=1
    ) -> "Forecasts":
        """Blocks from the store's eight columns, their rows in any order.

        Position i of the columns is one row, which errors name as line
        first_line + i. Every row has a known status, and no (day, minute,
        model, predictor set) appears twice. Within a day every model has a
        row at every minute, and all of them hold the same y_true and
        y_naive at a minute, bit for bit. Anything else raises ParseError.
        """
        unknown = set(status) - set(_STATUSES)
        if unknown:
            i = next(i for i, s in enumerate(status) if s in unknown)
            raise ParseError(f"line {first_line + i}: unknown record status: {status[i]!r}")
        codes = _ranks(status, _STATUSES).astype(np.uint8)
        dates, models, predictor_sets = (sorted(set(c)) for c in (day, model, predictor_set))
        d = _ranks(day, dates)
        # (model, predictor set) as one rank that sorts as the pair does
        P = len(predictor_sets)
        k = _ranks(model, models) * P + _ranks(predictor_set, predictor_sets)
        m = np.array(minute, dtype=np.intp)
        shared = np.column_stack([np.array(y_true, dtype=float), np.array(y_naive, dtype=float)])
        y_hat = np.array(y_hat, dtype=float)
        # store order; the sort is stable, so a repeated row sorts after the row it repeats
        order = np.lexsort((k, m, d))
        d, m, k = d[order], m[order], k[order]
        repeat = (d[1:] == d[:-1]) & (m[1:] == m[:-1]) & (k[1:] == k[:-1])
        if repeat.any():
            line = first_line + order[1:][repeat].min()
            raise ParseError(f"line {line}: repeats the row of an earlier line")
        blocks = []
        bounds = np.searchsorted(d, np.arange(len(dates) + 1)).tolist()
        for date, start, stop in zip(dates, bounds, bounds[1:]):
            # a day's minutes are sorted; np.unique would import numpy.ma on first use
            first = np.ones(stop - start, dtype=bool)
            first[1:] = m[start + 1:stop] != m[start:stop - 1]
            minutes, present = m[start:stop][first], np.flatnonzero(np.bincount(k[start:stop]))
            if stop - start != len(minutes) * len(present):
                held = np.zeros((len(minutes), len(present)), dtype=bool)
                held[np.searchsorted(minutes, m[start:stop]),
                     np.searchsorted(present, k[start:stop])] = True
                w, j = np.argwhere(~held)[0]
                raise ParseError(
                    f"{date}: no row for minute {minutes[w]} of model "
                    f"{models[present[j] // P]!r}, predictor_set {predictor_sets[present[j] % P]!r}"
                )
            # sorted by (minute, model) and complete: row (w, j) of the grid
            grid = order[start:stop].reshape(len(minutes), len(present))
            bits = shared[grid].view(np.int64)
            differs = (bits != bits[:, :1]).any(axis=2)
            if differs.any():
                line = first_line + grid[differs].min()
                raise ParseError(f"line {line}: y_true or y_naive differs from another model's")
            blocks.append(DayForecasts(
                day=date,
                minutes=minutes,
                y_true=shared[grid[:, 0], 0],
                y_naive=shared[grid[:, 0], 1],
                models=tuple((models[j // P], predictor_sets[j % P]) for j in present.tolist()),
                y_hat=y_hat[grid.T],
                status=codes[grid.T],
            ))
        return cls(blocks)


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
    for n in sorted(set(lengths.tolist())):
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
    minutes: np.ndarray  # (W,) the test minutes
    columns: Dict[str, int]  # stack column of each feature name and of r5
    lengths: np.ndarray  # (W,) training rows per window
    y_true: np.ndarray  # (W,)
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
    for n in sorted(set(lengths.tolist())):
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
        minutes=rows["minute"][tests],
        columns={name: c for c, name in enumerate(names)},
        lengths=lengths,
        y_true=np.ascontiguousarray(test_rows[:, -1]),
        y_naive=y_naive,
        finite=finite,
        fittable=fittable,
        scaler=scaler,
        scaled=scaled,
        x_test=x_test,
    )


def _run_model(
    stack: _DayStack, spec: ModelSpec, master_seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One model over every window of a day's stack: its (W,) forecasts and status codes.

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
                    derive_seed(master_seed, stack.day, minute, spec.key)
                    for minute in stack.minutes[j].tolist()
                ]
            yhat_scaled[j] = _FORECASTS[spec.family](
                spec, scaled[j, :, :k], scaled[j, :, k], stack.lengths[j],
                np.take(stack.x_test[j], cols[:k], axis=1), seeds,
            )
        y_hat = inverse_transform_target(stack.scaler, yhat_scaled, cols[k])
        # a degenerate target inverts to its constant whatever the forecast
        ok = np.isfinite(yhat_scaled) & np.isfinite(y_hat)
    status = np.where(ok, _OK, np.where(usable, _FALLBACK, _SKIPPED)).astype(np.uint8)
    y_hat = np.where(ok, y_hat, np.where(usable, stack.y_naive, math.nan))
    return y_hat, status


def _check_roster(roster: Sequence[ModelSpec]) -> List[ModelSpec]:
    roster = list(roster)
    keys = [spec.key for spec in roster]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate model specs in roster: {sorted(keys)}")
    return roster


def run_day(
    rows: np.ndarray, roster: Sequence[ModelSpec], master_seed: int = 0
) -> DayForecasts:
    """Run every scheduled window of one day's feature table for every model.

    The block's models are the roster's, sorted by (model, predictor set);
    all models share the day's schedule. A day with no scheduled window
    gives a block with no minutes, and a run over one window's rows alone
    is a one-window run.
    """
    roster = sorted(
        _check_roster(roster), key=lambda spec: (spec.model_id, spec.predictor_set_id)
    )
    models = tuple((spec.model_id, spec.predictor_set_id) for spec in roster)
    tests = schedule_day(rows)
    if not (len(tests) and roster):
        none = np.empty(0)
        return DayForecasts(
            day=rows["day"][0].item() if len(rows) else None,
            minutes=tests, y_true=none, y_naive=none, models=models,
            y_hat=np.empty((len(models), 0)), status=np.empty((len(models), 0), dtype=np.uint8),
        )
    stack = _stack_day(rows, tests, roster)
    y_hat, status = zip(*(_run_model(stack, spec, master_seed) for spec in roster))
    return DayForecasts(
        day=stack.day,
        minutes=stack.minutes,
        y_true=stack.y_true,
        y_naive=stack.y_naive,
        models=models,
        y_hat=np.array(y_hat),
        status=np.array(status),
    )


def _run_series(series: DaySeries, roster: Sequence[ModelSpec], master_seed: int) -> DayForecasts:
    return run_day(build_feature_rows(series), roster, master_seed)


def run_sample(
    days: Sequence[DaySeries],
    roster: Sequence[ModelSpec],
    master_seed: int = 0,
    workers: int = 1,
) -> Forecasts:
    """Run a multi-day sample: one block per day, in date order.

    Days are independent units of work, and two with one date raise
    DataError. Seeds derive from (master seed, day, minute, model), so any
    worker count produces identical blocks.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    days = sorted(days, key=attrgetter("day"))
    for before, after in zip(days, days[1:]):
        if before.day == after.day:
            raise DataError(f"two day series share the date {after.day}")
    roster = _check_roster(roster)
    job = partial(_run_series, roster=roster, master_seed=master_seed)
    if workers == 1 or len(days) <= 1:
        return Forecasts(map(job, days))
    # imported here: the pool machinery costs a serial run's start-up time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(days))) as pool:
        return Forecasts(pool.map(job, days))


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


def _store_lines(block: DayForecasts) -> List[str]:
    """A block's store lines: each minute's fields and each model's ids formatted once."""
    if not block.y_hat.size:
        return []
    date = block.day.isoformat()
    leads = [f"{date},{minute}" for minute in block.minutes.tolist()]
    truths = [f"{value!r}," for value in block.y_true.tolist()]
    naives = [f",{value!r}," for value in block.y_naive.tolist()]
    lines = [""] * block.y_hat.size
    M = len(block.models)
    for j, ((model, predictor_set), y_hat, codes) in enumerate(
        zip(block.models, block.y_hat.tolist(), block.status.tolist())
    ):
        ids = f",{model},{predictor_set},"
        lines[j::M] = [
            f"{lead}{ids}{truth}{forecast!r}{naive}{_STATUSES[code]}\n"
            for lead, truth, forecast, naive, code in zip(leads, truths, y_hat, naives, codes)
        ]
    return lines


def write_store(forecasts: Forecasts, path) -> None:
    """Write a run's forecasts as CSV in store order.

    Floats are written with repr so reading the file back reproduces every
    value bit for bit. No field is ever quoted: a model or predictor id
    holding a comma, a double quote or a line break raises ConfigError.
    """
    for block in forecasts.blocks:
        for text in {text for ids in block.models for text in ids}:
            if any(c in text for c in _QUOTED):
                raise ConfigError(f"store ids cannot hold {_QUOTED!r}: {text!r}")
    with open(path, "w", newline="") as handle:
        handle.write(",".join(STORE_COLUMNS) + "\n")
        for block in forecasts.blocks:
            handle.writelines(_store_lines(block))


def _parse_column(texts, parse) -> list:
    """Parse one store column; a text that does not parse raises ParseError naming its line."""
    try:
        return list(map(parse, texts))
    except ValueError:
        for i, text in enumerate(texts, start=2):
            try:
                parse(text)
            except ValueError as exc:
                raise ParseError(f"line {i}: {exc}") from exc
        raise


def read_store(path) -> Forecasts:
    """Read a prediction store back into blocks, checking the store's invariant.

    Each line after the header holds the eight fields, none quoted; see
    Forecasts.from_columns for what each day's rows must hold. Every error
    is a ParseError naming its line.
    """
    with open(path) as handle:
        header = handle.readline()
        body = handle.read()
    if header.rstrip("\n").split(",") != list(STORE_COLUMNS):
        raise ParseError(f"unexpected store header: {header!r}")
    body = body[:-1] if body.endswith("\n") else body
    if not body:
        return Forecasts()
    lines = body.split("\n")
    n = len(STORE_COLUMNS)
    if '"' in body or set(map(str.count, lines, repeat(","))) != {n - 1}:
        for i, line in enumerate(lines, start=2):
            if '"' in line:
                raise ParseError(f"line {i}: store fields are never quoted")
            if line.count(",") != n - 1:
                got = line.count(",") + 1 if line else 0
                raise ParseError(f"line {i}: expected {n} fields, got {got}")
    # every line holds n fields, so field j of line i is field n * i + j of the body
    fields = body.replace("\n", ",").split(",")
    dates, minutes, models, predictor_sets, y_true, y_hat, y_naive, status = (
        fields[j::n] for j in range(n)
    )
    return Forecasts.from_columns(
        _parse_column(dates, dt.date.fromisoformat),
        _parse_column(minutes, int),
        models,
        predictor_sets,
        _parse_column(y_true, float),
        _parse_column(y_hat, float),
        _parse_column(y_naive, float),
        status,
        first_line=2,
    )
