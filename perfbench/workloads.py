"""Bar files for the benchmark workloads, generated from a seed.

The generator here is the benchmark's own: it shares no code with the
program's synthetic-data helpers, so a change to those cannot change what is
measured. Every generated day keeps its price and VIX paths in memory, so the
output checks in ``oracle.py`` can recompute each record from the same numbers
the bar file holds.

Minutes are offsets from 09:30; the program's session is 09:40-15:50
(minutes 10..380).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SESSION_START = 10
SESSION_END = 380
DAY_MINUTES = 390  # 09:30 .. 15:59, so rows outside the session can be written
VIX_DENOM = math.sqrt(1440.0) * math.sqrt(252.0)
FIRST_DATE = dt.date(2021, 1, 4)


@dataclass
class Day:
    """One generated day: full-length paths plus the minutes actually written."""

    date: dt.date
    price: np.ndarray        # (DAY_MINUTES,) positive prices
    vix: np.ndarray          # (DAY_MINUTES,) annualised VIX levels
    present: np.ndarray      # (DAY_MINUTES,) bool: a row is written for this minute
    signal: bool             # returns are driven by lagged VIX
    notes: list = field(default_factory=list)

    def session_mask(self) -> np.ndarray:
        mask = self.present.copy()
        mask[:SESSION_START] = False
        mask[SESSION_END + 1:] = False
        return mask


@dataclass(frozen=True)
class Workload:
    name: str
    models: str
    predictors: str
    roster: tuple        # (model, predictor set) pairs the run must write
    n_days: int          # days written to the bar file, the dropped short day included
    last_minute: int     # session close of every kept day


# ols-sample: the window pipeline over two weeks of full days.
# lstm-day / rf-day: one early-close day (09:40-11:00, 50 windows; 09:40-10:45,
# 35 windows, for the slower forest) so that a whole round, from a fresh
# interpreter to the checked report, takes seconds, not a minute.
WORKLOADS = {
    "ols-sample": Workload(
        "ols-sample", "naive, ols", "vix",
        (("naive", "none"),) + tuple((f"ols-{b}", b) for b in ("ar1", "rv", "vix", "dvix", "vrp")),
        11, SESSION_END,
    ),
    "lstm-day": Workload(
        "lstm-day", "naive, lstm", "vix, agg",
        (("naive", "none"), ("lstm", "vix"), ("lstm", "agg")), 1, 90,
    ),
    "rf-day": Workload("rf-day", "naive, rf", "agg", (("naive", "none"), ("rf", "agg")), 1, 75),
}


def _business_days(start: dt.date, count: int) -> list:
    out, day = [], start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _vix_path(rng, n: int, level: float, persistence: float, vol: float) -> np.ndarray:
    log_level = math.log(level)
    path = np.empty(n)
    path[0] = log_level
    shocks = vol * rng.standard_normal(n)
    for t in range(1, n):
        path[t] = log_level + persistence * (path[t - 1] - log_level) + shocks[t]
    return np.exp(path)


def _noise_day(rng, date: dt.date) -> Day:
    vix = _vix_path(rng, DAY_MINUTES, rng.uniform(14.0, 30.0), 0.98, 0.01)
    log_price = math.log(rng.uniform(250.0, 450.0)) + np.cumsum(
        6e-4 * rng.standard_normal(DAY_MINUTES)
    )
    return Day(date, np.exp(log_price), vix, np.ones(DAY_MINUTES, bool), signal=False)


def _signal_day(rng, date: dt.date) -> Day:
    """The five-minute return ending at m is an affine function of VIX at m-5
    plus noise small next to the signal's swing inside a half-hour window."""
    vix = _vix_path(rng, DAY_MINUTES, rng.uniform(14.0, 30.0), 0.995, 0.02)
    scaled = vix / VIX_DENOM
    slope = 2.0
    signal = slope * (scaled - scaled.mean())
    swing = np.std(np.diff(scaled)) * slope * math.sqrt(15.0)
    noise = 0.15 * swing * rng.standard_normal(DAY_MINUTES)
    log_price = np.empty(DAY_MINUTES)
    log_price[:5] = math.log(rng.uniform(250.0, 450.0)) + 1e-4 * rng.standard_normal(5)
    for m in range(5, DAY_MINUTES):
        log_price[m] = log_price[m - 4] + signal[m - 5] + noise[m]
    return Day(date, np.exp(log_price), vix, np.ones(DAY_MINUTES, bool), signal=True)


def _in_session_only(day: Day, last_minute: int) -> None:
    day.present[:SESSION_START] = False
    day.present[last_minute + 1:] = False


def generate(workload: Workload, seed: int) -> list:
    """The workload's days, deterministic in (workload, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, *workload.name.encode()]))
    dates = _business_days(FIRST_DATE, workload.n_days)
    if workload.name != "ols-sample":
        day = _signal_day(rng, dates[0])
        _in_session_only(day, workload.last_minute)
        return [day]

    days = []
    for index, date in enumerate(dates):
        day = (_signal_day if index % 2 == 0 else _noise_day)(rng, date)
        _in_session_only(day, SESSION_END)
        days.append(day)
    # rows before 09:40 and after 15:50, which the loader must drop
    for day in days[1::4]:
        day.present[:] = True
        day.notes.append("out-of-session rows")
    # missing minutes: scattered single bars on two days, a block on a third
    for day in (days[2], days[6]):
        gone = rng.choice(np.arange(SESSION_START, SESSION_END + 1), size=4, replace=False)
        day.present[gone] = False
        day.notes.append(f"missing minutes {sorted(int(m) for m in gone)}")
    start = int(rng.integers(100, 300))
    days[8].present[start:start + 3] = False
    days[8].notes.append(f"missing minutes {start}..{start + 2}")
    # a stale feed: VIX frozen for 50 minutes on a signal day
    stale = int(rng.integers(60, 300))
    days[4].vix[stale:stale + 50] = days[4].vix[stale]
    days[4].notes.append(f"stale vix {stale}..{stale + 49}")
    # too few bars to keep: the loader drops this day
    short = days[-1]
    short.present[:] = False
    short.present[rng.choice(np.arange(SESSION_START, SESSION_END + 1), 30, replace=False)] = True
    short.notes.append("30 bars, dropped")
    return days


def write_bars(days, path: Path) -> None:
    with open(path, "w") as handle:
        handle.write("date,time,spy_price,vix\n")
        for day in days:
            stamp = day.date.isoformat()
            for m in np.flatnonzero(day.present):
                total = 9 * 60 + 30 + int(m)
                handle.write(
                    f"{stamp},{total // 60:02d}:{total % 60:02d},"
                    f"{float(day.price[m])!r},{float(day.vix[m])!r}\n"
                )


def write_config(workload: Workload, bars: Path, out: Path, path: Path) -> None:
    path.write_text(
        f"input = {bars}\n"
        f"models = {workload.models}\n"
        f"predictors = {workload.predictors}\n"
        "seed = 11\n"
        "workers = 1\n"
        f"out = {out}\n"
    )
