"""Minute-bar ingestion, session filtering, and feature construction.

Minutes are integer offsets from 09:30 exchange-local time. The estimation
session keeps 09:40 through 15:50 inclusive (indices 10..380, 371 minutes);
the first and last ten minutes of the trading day are excluded because open
and close prints carry missing or repeated values.

A day's bars form one table (a structured array of BAR_DTYPE), one row per
in-session minute that has a bar, in ascending minute order. Its features
form another (FEATURE_DTYPE), one row per minute whose bars all exist. No
predictor overlaps the target span: the target is the five-minute log
return ending at minute m, and every predictor references minutes m-5 and
earlier.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError, ParseError

logger = logging.getLogger(__name__)

SESSION_START_MINUTE = 10   # 09:40
SESSION_END_MINUTE = 380    # 15:50
SESSION_MINUTES = SESSION_END_MINUTE - SESSION_START_MINUTE + 1

# Deepest lag any feature reaches behind its target minute (lag_r5 needs m-9).
MAX_FEATURE_LAG = 9

# Annualized VIX (percent, as quoted) to a per-minute unit:
# 1440 minutes per day, 252 trading days per year.
VIX_INTRADAY_DENOM = math.sqrt(1440.0) * math.sqrt(252.0)

# Days with fewer usable in-session bars than this are dropped by the loader.
MIN_USABLE_MINUTES = 40

CSV_HEADER = ("date", "time", "spy_price", "vix")

_BASE_MINUTE_OF_DAY = 9 * 60 + 30  # 09:30

# One bar-table row: a session minute, its SPY price and its annualized VIX
# (percent, as quoted).
BAR_DTYPE = np.dtype([
    ("minute", np.intp),
    ("spy_price", float),
    ("vix", float),
])

# One feature-table row: its day and minute, the target r5 and the lagged
# predictors (see build_feature_rows for each column's definition).
FEATURE_DTYPE = np.dtype([
    ("day", "datetime64[D]"),
    ("minute", np.intp),
    ("r5", float),
    ("lag_r5", float),
    ("lag_r5_sq", float),
    ("vix_lag", float),
    ("dvix_lag", float),
    ("vrp_lag", float),
])


def minute_to_time(minute: int) -> str:
    """Minute index to HH:MM, e.g. 41 -> '10:11'."""
    total = _BASE_MINUTE_OF_DAY + minute
    return f"{total // 60:02d}:{total % 60:02d}"


# a bar file repeats the same few hundred HH:MM texts every day, so each
# distinct text is split once; a text that raises is not cached, so it
# raises again on every row that holds it
@lru_cache(maxsize=4096)
def time_to_minute(text: str) -> int:
    """HH:MM to minute index. Raises ValueError on malformed input."""
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise ValueError(f"expected HH:MM, got {text!r}")
    hour, minute = int(parts[0]), int(parts[1])
    if not (0 <= hour < 24 and 0 <= minute < 60):
        raise ValueError(f"time out of range: {text!r}")
    return hour * 60 + minute - _BASE_MINUTE_OF_DAY


def bar_value_errors(spy_price: float, vix: float) -> list[str]:
    """Why a price/VIX pair cannot be a bar; empty when it can.

    A price must be finite and positive, a VIX finite and non-negative.
    Written as range tests so that NaN fails them too.
    """
    problems = []
    if not 0.0 < spy_price < math.inf:
        problems.append(f"spy_price must be finite and positive, got {spy_price}")
    if not 0.0 <= vix < math.inf:
        problems.append(f"vix must be finite and non-negative, got {vix}")
    return problems


@dataclass(frozen=True, eq=False)
class DaySeries:
    """One day's session-filtered bars: a BAR_DTYPE table, minutes strictly ascending.

    Absent minutes are gaps; the gap policy downstream is suppression of
    dependent feature rows, never imputation.
    """

    day: dt.date
    bars: np.ndarray

    def __post_init__(self):
        minute, price, vix = self.bars["minute"], self.bars["spy_price"], self.bars["vix"]
        bad = ~((0.0 < price) & (price < math.inf) & (0.0 <= vix) & (vix < math.inf))
        if bad.any():
            i = bad.argmax()
            raise DataError(bar_value_errors(float(price[i]), float(vix[i]))[0])
        outside = (minute < SESSION_START_MINUTE) | (minute > SESSION_END_MINUTE)
        if outside.any():
            raise DataError(
                f"bar at minute {minute[outside.argmax()]} outside session on {self.day}"
            )
        backwards = np.diff(minute) <= 0
        if backwards.any():
            raise DataError(
                f"bars out of order on {self.day} at minute {minute[backwards.argmax() + 1]}"
            )


@dataclass(frozen=True, slots=True)
class SynthParams:
    """Synthetic-data generator settings; a testing convenience, not a market model."""

    n_days: int
    seed: int
    return_vol: float = 0.0005
    vix_mean: float = 19.5
    vix_vol: float = 0.015
    vix_persistence: float = 0.97
    leverage_corr: float = -0.4

    def __post_init__(self):
        if self.n_days < 0:
            raise ConfigError("n_days must be non-negative")
        if not 0.0 <= self.vix_persistence < 1.0:
            raise ConfigError("vix_persistence must lie in [0, 1)")
        if self.vix_mean <= 0.0:
            raise ConfigError("vix_mean must be positive")
        if not -1.0 <= self.leverage_corr <= 1.0:
            raise ConfigError("leverage_corr must lie in [-1, 1]")
        if self.return_vol < 0.0 or self.vix_vol < 0.0:
            raise ConfigError("volatilities must be non-negative")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

@dataclass
class BarScan:
    """What one pass over a bar CSV found.

    ``by_day`` holds each day's in-session ``(minute, spy_price, vix)``
    tuples in file order, so in ascending minute order, leaving out
    rows with errors in their values. ``errors`` holds one ``"line N: ..."``
    message per problem, in file order; the file is usable exactly when it
    is empty. ``n_rows`` counts the non-blank rows after the header.
    """

    by_day: dict[dt.date, list[tuple[int, float, float]]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    n_rows: int = 0
    out_of_session: int = 0
    empty: bool = False


def scan_bars(path) -> BarScan:
    """Read a ``date,time,spy_price,vix`` CSV in one pass, collecting every error.

    A row with the wrong field count or an unparseable date, time or number
    is reported and otherwise ignored. Duplicate (day, minute) pairs and
    minutes that run backwards within a day are errors. Rows outside
    [09:40, 15:50] are counted and dropped before their values are checked.
    """
    scan = BarScan()
    last_minute: dict[dt.date, int] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            scan.empty = True
            return scan
        if tuple(h.strip() for h in header) != CSV_HEADER:
            scan.errors.append(f"line 1: expected header {','.join(CSV_HEADER)}")
            return scan
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            scan.n_rows += 1
            if len(row) != 4:
                scan.errors.append(f"line {lineno}: expected 4 fields, got {len(row)}")
                continue
            try:
                day = dt.date.fromisoformat(row[0].strip())
                minute = time_to_minute(row[1])
                price = float(row[2])
                vix = float(row[3])
            except ValueError as exc:
                scan.errors.append(f"line {lineno}: {exc}")
                continue
            previous = last_minute.get(day)
            if previous == minute:
                scan.errors.append(f"line {lineno}: duplicate bar {day} {row[1].strip()}")
            elif previous is not None and minute < previous:
                scan.errors.append(f"line {lineno}: non-monotone minutes within {day}")
            last_minute[day] = minute
            if not SESSION_START_MINUTE <= minute <= SESSION_END_MINUTE:
                scan.out_of_session += 1
                continue
            problems = bar_value_errors(price, vix)
            if problems:
                scan.errors.extend(f"line {lineno}: {p}" for p in problems)
            else:
                scan.by_day.setdefault(day, []).append((minute, price, vix))
    return scan


def load_minute_bars(path) -> list[DaySeries]:
    """Parse a ``date,time,spy_price,vix`` CSV into session-filtered day series.

    The file is read by :func:`scan_bars`, and its first error raises
    :class:`ParseError`. Days with fewer than MIN_USABLE_MINUTES usable
    bars are dropped and reported via logging.
    """
    scan = scan_bars(path)
    if scan.errors:
        raise ParseError(scan.errors[0])
    if scan.out_of_session:
        logger.debug("dropped %d out-of-session rows", scan.out_of_session)

    days = []
    for day in sorted(scan.by_day):
        bars = scan.by_day[day]
        if len(bars) < MIN_USABLE_MINUTES:
            logger.warning(
                "dropping %s: only %d usable minutes (< %d)",
                day, len(bars), MIN_USABLE_MINUTES,
            )
            continue
        days.append(DaySeries(day, np.array(bars, BAR_DTYPE)))
    return days


# ---------------------------------------------------------------------------
# feature arithmetic
# ---------------------------------------------------------------------------

def build_feature_rows(series: DaySeries) -> np.ndarray:
    """The day's feature table: one FEATURE_DTYPE row per minute whose bars all exist.

    Bars are laid out on the session grid with a presence mask, and each
    column is shifted-array arithmetic over that grid. For the row at minute m:

    - ``r5`` = log P(m) - log P(m-4), the target;
    - ``lag_r5`` = log P(m-5) - log P(m-9), and ``lag_r5_sq`` its square;
    - ``vix_lag`` = VIX(m-5) / VIX_INTRADAY_DENOM;
    - ``dvix_lag`` = vix_lag minus the same rescaled VIX at m-6;
    - ``vrp_lag`` = (log P(m-5) - log P(m-6))**2 - vix_lag**2.

    Row m needs bars at {m, m-4, m-5, m-6, m-9}; a missing bar suppresses
    exactly the rows that touch it (no forward fill). The suppressed count
    is reported via logging.
    """
    present = np.zeros(SESSION_MINUTES, dtype=bool)
    log_price = np.zeros(SESSION_MINUTES)
    vix = np.zeros(SESSION_MINUTES)
    slots = series.bars["minute"] - SESSION_START_MINUTE
    present[slots] = True
    # math.log per bar: np.log can round a price's log one ulp differently
    log_price[slots] = [math.log(p) for p in series.bars["spy_price"].tolist()]
    vix[slots] = series.bars["vix"]
    vix /= VIX_INTRADAY_DENOM

    def at(values, lag):
        # values at minute m - lag, for every candidate row minute m
        return values[MAX_FEATURE_LAG - lag:SESSION_MINUTES - lag]

    keep = at(present, 0) & at(present, 4) & at(present, 5) & at(present, 6) & at(present, 9)
    with np.errstate(over="ignore"):  # a huge VIX squares to inf, as a float product does
        lag_r5 = at(log_price, 5) - at(log_price, 9)
        r1_lag = at(log_price, 5) - at(log_price, 6)
        vix_lag = at(vix, 5)
        columns = {
            "minute": np.arange(SESSION_START_MINUTE + MAX_FEATURE_LAG, SESSION_END_MINUTE + 1),
            "r5": at(log_price, 0) - at(log_price, 4),
            "lag_r5": lag_r5,
            "lag_r5_sq": lag_r5 * lag_r5,
            "vix_lag": vix_lag,
            "dvix_lag": vix_lag - at(vix, 6),
            "vrp_lag": r1_lag * r1_lag - vix_lag * vix_lag,
        }
    table = np.zeros(np.count_nonzero(keep), FEATURE_DTYPE)
    table["day"] = series.day
    for name, values in columns.items():
        table[name] = values[keep]
    suppressed = len(keep) - len(table)
    if suppressed:
        logger.info("%s: %d feature rows suppressed by gaps", series.day, suppressed)
    return table


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def _correlated_innovations(rng, n: int, corr: float):
    z = rng.standard_normal((2, n))
    ret = z[0]
    vix = corr * z[0] + math.sqrt(max(0.0, 1.0 - corr * corr)) * z[1]
    return ret, vix


def _log_vix_path(params: SynthParams, innovations) -> np.ndarray:
    """AR(1) around log(vix_mean); positivity comes from working in logs."""
    n = len(innovations)
    mean_log = math.log(params.vix_mean)
    phi = params.vix_persistence
    path = np.empty(n)
    spread = params.vix_vol / math.sqrt(1.0 - phi * phi) if phi > 0 else params.vix_vol
    path[0] = mean_log + spread * innovations[0]
    for t in range(1, n):
        path[t] = mean_log + phi * (path[t - 1] - mean_log) \
            + params.vix_vol * innovations[t]
    return path


def _session_day(day: dt.date, log_price, log_vix) -> DaySeries:
    """A gapless day from log price (around 100) and log VIX paths, one value per minute."""
    bars = np.empty(SESSION_MINUTES, BAR_DTYPE)
    bars["minute"] = np.arange(SESSION_START_MINUTE, SESSION_END_MINUTE + 1)
    # math.exp per value: np.exp can round one ulp differently
    bars["spy_price"] = [100.0 * math.exp(x) for x in log_price]
    bars["vix"] = [math.exp(x) for x in log_vix]
    return DaySeries(day, bars)


def _day_rng(params: SynthParams, day: dt.date, stream: int = 0):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(params.seed, day.toordinal(), stream))
    )


def generate_synthetic_day(params: SynthParams, day: dt.date) -> DaySeries:
    """A gapless session: log-price random walk plus mean-reverting VIX.

    Return and log-VIX innovations are correlated at leverage_corr.
    Deterministic in (params.seed, day).
    """
    rng = _day_rng(params, day)
    n = SESSION_MINUTES
    ret_innov, vix_innov = _correlated_innovations(rng, n, params.leverage_corr)
    log_price = params.return_vol * np.cumsum(ret_innov)
    log_vix = _log_vix_path(params, vix_innov)
    return _session_day(day, log_price, log_vix)


def generate_affine_signal_day(
    params: SynthParams,
    day: dt.date,
    slope: float = 1.0,
    snr: float = 10.0,
) -> DaySeries:
    """A gapless day whose target is slope * vix_lag plus noise, at the given SNR.

    The five-minute log return ending at m is set to
    slope * intraday_vix(m-5) + eps, and the price path is defined by that
    recursion (log P(m) = log P(m-4) + r5(m)), which is always consistent.
    The noise standard deviation is the signal's own standard deviation
    divided by sqrt(snr). Used as the recoverable-signal test fixture.
    """
    if snr <= 0.0:
        raise ValueError("snr must be positive")
    rng = _day_rng(params, day, stream=1)
    n = SESSION_MINUTES
    _, vix_innov = _correlated_innovations(rng, n, params.leverage_corr)
    log_vix = _log_vix_path(params, vix_innov)
    vix_intraday = np.exp(log_vix) / VIX_INTRADAY_DENOM

    # signal[t] refers to target minute m = SESSION_START_MINUTE + t and
    # needs the VIX bar at m-5, so the first five minutes have no signal.
    signal = np.full(n, np.nan)
    signal[5:] = slope * vix_intraday[:-5]
    usable = signal[5:]
    noise_sd = float(usable.std()) / math.sqrt(snr)
    noise = noise_sd * rng.standard_normal(n)

    log_price = np.empty(n)
    log_price[:5] = 0.0
    for t in range(5, n):
        log_price[t] = log_price[t - 4] + signal[t] + noise[t]

    return _session_day(day, log_price, log_vix)


def business_days(start: dt.date, count: int) -> list[dt.date]:
    """The first `count` weekdays on or after `start`. No holiday calendar."""
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days
