"""Output checks worked out apart from the program.

Nothing here imports ``minutecast``. Every expected value comes from the
generated days (``workloads.Day``: prices, VIX and which minutes were written)
and from the CSVs the program wrote. Each check returns a list of problems;
an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from workloads import SESSION_END, SESSION_START, VIX_DENOM

FIRST_TASK = 41          # 10:11, the first prediction minute
FIRST_ROW = SESSION_START + 9  # a feature row reaches back to m-9
WINDOW = 30
MIN_BARS = 40            # days with fewer session bars are dropped

OLS_COLUMN = {"ar1": "lag_r5", "rv": "lag_r5_sq", "vix": "vix_lag", "dvix": "dvix_lag", "vrp": "vrp_lag"}

# R²_OOS floors on days where VIX carries the signal, per (model, predictor set).
R2_FLOOR = {("ols-vix", "vix"): 0.3, ("lstm", "vix"): 0.4, ("rf", "agg"): 0.3}


@dataclass(frozen=True)
class Record:
    date: str
    minute: int
    model: str
    pset: str
    y_true: float
    y_hat: float
    y_naive: float
    status: str


def read_predictions(path: Path) -> list:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["date", "minute", "model", "predictor_set", "y_true", "y_hat", "y_naive", "status"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return [
        Record(r[0], int(r[1]), r[2], r[3], float(r[4]), float(r[5]), float(r[6]), r[7])
        for r in rows[1:]
    ]


class DayFeatures:
    """Feature columns and the task schedule of one generated day."""

    def __init__(self, day):
        self.date = day.date.isoformat()
        present = day.session_mask()
        self.kept = int(present.sum()) >= MIN_BARS
        n = len(present)
        lp = np.log(day.price)
        scaled_vix = day.vix / VIX_DENOM
        self.r5 = np.full(n, np.nan)
        self.r5[4:] = lp[4:] - lp[:-4]
        self.cols = {
            "lag_r5": np.full(n, np.nan), "vix_lag": np.full(n, np.nan),
            "dvix_lag": np.full(n, np.nan), "vrp_lag": np.full(n, np.nan),
        }
        self.cols["lag_r5"][5:] = self.r5[:-5]
        self.cols["lag_r5_sq"] = self.cols["lag_r5"] ** 2
        self.cols["vix_lag"][5:] = scaled_vix[:-5]
        self.cols["dvix_lag"][6:] = scaled_vix[1:-5] - scaled_vix[:-6]
        self.cols["vrp_lag"][6:] = (lp[1:-5] - lp[:-6]) ** 2 - scaled_vix[1:-5] ** 2

        row = np.zeros(n, bool)
        for m in range(FIRST_ROW, SESSION_END + 1):
            row[m] = all(present[m - lag] for lag in (0, 4, 5, 6, 9))
        self.minutes = [
            m for m in range(FIRST_TASK, SESSION_END + 1)
            if self.kept and row[m] and row[max(m - WINDOW, FIRST_ROW):m].all()
        ]
        # each task's training rows, padded on the left for the short warm-up windows
        rows = np.array(self.minutes, dtype=int)[:, None] + np.arange(-WINDOW, 0)
        self._mask = rows >= FIRST_ROW
        self._rows = np.where(self._mask, rows, FIRST_ROW)
        self._count = self._mask.sum(axis=1)
        y = self.r5[self._rows]
        self.naive = dict(zip(self.minutes, self._mean(y).tolist()))
        self.target_range = dict(zip(self.minutes, zip(*(a.tolist() for a in self._range(y)))))
        self._ols = {}

    def _mean(self, values):
        return np.where(self._mask, values, 0.0).sum(axis=1) / self._count

    def _range(self, values):
        return (np.where(self._mask, values, np.inf).min(axis=1),
                np.where(self._mask, values, -np.inf).max(axis=1))

    def ols(self, column: str) -> dict:
        """Per task minute: (predictor column constant?, closed-form forecast)."""
        if column not in self._ols:
            x = self.cols[column][self._rows]
            y = self.r5[self._rows]
            dx = np.where(self._mask, x - self._mean(x)[:, None], 0.0)
            dy = np.where(self._mask, y - self._mean(y)[:, None], 0.0)
            lo, hi = self._range(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                beta = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
            forecast = self._mean(y) + beta * (self.cols[column][self.minutes] - self._mean(x))
            self._ols[column] = dict(zip(self.minutes, zip((lo == hi).tolist(), forecast.tolist())))
        return self._ols[column]


def _by_day(records) -> dict:
    out = {}
    for r in records:
        out.setdefault(r.date, []).append(r)
    return out


def check_schedule(features, records, roster) -> list:
    """Each model's (day, minute) set equals the tasks the generated gaps imply."""
    problems = []
    got = {}
    for r in records:
        got.setdefault((r.model, r.pset), {}).setdefault(r.date, []).append(r.minute)
    if set(got) != set(roster):
        problems.append(f"models {sorted(got)} != roster {sorted(roster)}")
    for key in roster:
        for f in features:
            minutes = got.get(key, {}).get(f.date, [])
            if len(set(minutes)) != len(minutes):
                problems.append(f"{key} {f.date}: duplicate minutes")
            if set(minutes) != set(f.minutes):
                problems.append(
                    f"{key} {f.date}: {len(minutes)} records, expected {len(f.minutes)} tasks"
                )
    extra = {r.date for r in records} - {f.date for f in features if f.kept}
    if extra:
        problems.append(f"records for days that should be dropped: {sorted(extra)}")
    return problems


def check_targets(features, records) -> list:
    """y_true is log P(m) - log P(m-4); y_naive is the window's mean target."""
    problems = []
    index = {f.date: f for f in features}
    for r in records:
        f = index[r.date]
        if r.minute not in f.naive:
            continue  # reported by check_schedule
        if abs(r.y_true - f.r5[r.minute]) > 1e-13:
            problems.append(f"{r.date} {r.minute} {r.model}: y_true {r.y_true} != {f.r5[r.minute]}")
        if abs(r.y_naive - f.naive[r.minute]) > 1e-13:
            problems.append(f"{r.date} {r.minute} {r.model}: y_naive {r.y_naive} != window mean")
        if r.status == "skipped":
            problems.append(f"{r.date} {r.minute} {r.model}: skipped on finite inputs")
    return problems[:20]


def check_naive(records) -> list:
    problems = []
    naive = [r for r in records if r.model == "naive"]
    for r in naive:
        if r.y_hat != r.y_naive or r.status != "ok":
            problems.append(f"{r.date} {r.minute}: naive y_hat {r.y_hat} != y_naive {r.y_naive}")
    for date, group in _by_day(naive).items():
        r2 = _r2(group)
        if r2 != 0.0:
            problems.append(f"{date}: naive R2_OOS {r2} != 0")
    return problems[:20]


def check_ols(features, records) -> list:
    """Closed-form single-regressor fit on raw features; fallback iff constant."""
    problems = []
    index = {f.date: f for f in features}
    for r in records:
        if not r.model.startswith("ols-"):
            continue
        f = index[r.date]
        if r.minute not in f.naive:
            continue
        constant, expect = f.ols(OLS_COLUMN[r.pset])[r.minute]
        if constant:
            if r.status != "fallback" or r.y_hat != r.y_naive:
                problems.append(f"{r.date} {r.minute} {r.model}: constant column, got {r.status}")
            continue
        if r.status != "ok":
            problems.append(f"{r.date} {r.minute} {r.model}: {r.status} on a varying column")
            continue
        lo, hi = f.target_range[r.minute]
        if abs(r.y_hat - expect) > 1e-10 * (hi - lo + abs(expect - f.naive[r.minute])):
            problems.append(f"{r.date} {r.minute} {r.model}: y_hat {r.y_hat} != closed form {expect}")
    return problems[:20]


def check_forest_range(features, records) -> list:
    """A forest averages training targets, so its forecast stays within their range."""
    problems = []
    index = {f.date: f for f in features}
    for r in records:
        if r.model != "rf" or r.status != "ok":
            continue
        target_range = index[r.date].target_range.get(r.minute)
        if target_range is None:
            continue
        lo, hi = target_range
        slack = 1e-12 * (hi - lo)
        if not lo - slack <= r.y_hat <= hi + slack:
            problems.append(f"{r.date} {r.minute}: rf y_hat {r.y_hat} outside [{lo}, {hi}]")
    return problems[:20]


def _scored(group):
    return [r for r in group if r.status in ("ok", "fallback")]


def _r2(group):
    scored = _scored(group)
    y = np.array([r.y_true for r in scored])
    y_hat = np.array([r.y_hat for r in scored])
    y_naive = np.array([r.y_naive for r in scored])
    denominator = float(np.sum((y - y_naive) ** 2))
    if denominator == 0.0:
        return None
    return 1.0 - float(np.sum((y - y_hat) ** 2)) / denominator


def check_signal_recovered(days, records) -> list:
    """R²_OOS above a floor on every day whose returns VIX drives."""
    problems = []
    signal_dates = {d.date.isoformat() for d in days if d.signal}
    groups = {}
    for r in records:
        if (r.model, r.pset) in R2_FLOOR and r.date in signal_dates:
            groups.setdefault((r.model, r.pset, r.date), []).append(r)
    for (model, pset, date), group in sorted(groups.items()):
        r2 = _r2(group)
        if r2 is None or r2 < R2_FLOOR[(model, pset)]:
            problems.append(f"{model}({pset}) {date}: R2_OOS {r2} below {R2_FLOOR[(model, pset)]}")
    return problems


def check_daily_metrics(records, daily_path: Path) -> list:
    """daily_metrics.csv agrees with RMSE, R²_OOS and counts from the records."""
    problems = []
    with open(daily_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    written = {(r[0], r[1], r[2]): r[3:] for r in rows}
    groups = {}
    for r in records:
        groups.setdefault((r.date, r.model, r.pset), []).append(r)
    expected_keys = {k for k, g in groups.items() if _scored(g)}
    if set(written) != expected_keys:
        problems.append(f"daily rows {len(written)} != scored groups {len(expected_keys)}")
    for key in sorted(expected_keys & set(written)):
        group = groups[key]
        scored = _scored(group)
        err = np.array([r.y_true - r.y_hat for r in scored])
        rmse = math.sqrt(float(np.mean(err * err)))
        r2 = _r2(group)
        statuses = [r.status for r in group]
        counts = [len(scored), statuses.count("ok"), statuses.count("fallback"), statuses.count("skipped")]
        rmse_w, r2_w, *counts_w = written[key]
        if not math.isclose(float(rmse_w), rmse, rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"{key}: rmse {rmse_w} != {rmse}")
        if (r2 is None) != (r2_w == "") or (r2 is not None and not math.isclose(float(r2_w), r2, rel_tol=1e-9, abs_tol=1e-12)):
            problems.append(f"{key}: r2_oos {r2_w!r} != {r2}")
        if [int(c) for c in counts_w] != counts:
            problems.append(f"{key}: counts {counts_w} != {counts}")
    return problems[:20]


def check_report_bytes(run_dir: Path, report_dir: Path) -> list:
    """`minutecast report` reproduces both derived CSVs byte for byte."""
    problems = []
    for name in ("daily_metrics.csv", "aggregate_report.csv"):
        a, b = run_dir / name, report_dir / name
        if not b.is_file() or a.read_bytes() != b.read_bytes():
            problems.append(f"{name} differs between run and report")
    return problems


def record_checks(days, features, records, roster) -> dict:
    """The checks that read only the prediction records."""
    return {
        "schedule": check_schedule(features, records, roster),
        "targets": check_targets(features, records),
        "naive": check_naive(records),
        "ols_closed_form": check_ols(features, records),
        "forest_range": check_forest_range(features, records),
        "signal_recovered": check_signal_recovered(days, records),
    }


def check_outputs(days, roster, run_dir: Path, report_dir: Path):
    """Run every check on one run's outputs. Returns (records, {name: problems})."""
    features = [DayFeatures(d) for d in days]
    try:
        records = read_predictions(run_dir / "predictions.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [], {"predictions_readable": [str(exc)]}
    results = record_checks(days, features, records, roster)
    try:
        results["daily_metrics"] = check_daily_metrics(records, run_dir / "daily_metrics.csv")
    except (OSError, ValueError, IndexError) as exc:
        results["daily_metrics"] = [str(exc)]
    results["report_bytes"] = check_report_bytes(run_dir, report_dir)
    return records, results


def self_check(days, roster, records, run_dir: Path) -> dict:
    """Feed corrupted copies of real records to the checks; each must fail.

    Returns {corruption: caught}.
    """
    features = [DayFeatures(d) for d in days]
    target = next(i for i, r in enumerate(records) if r.model != "naive" and r.status == "ok")
    nudged = list(records)
    nudged[target] = replace(records[target], y_hat=records[target].y_hat + 1e-4)
    dropped = records[:target] + records[target + 1:]
    flipped = list(records)
    flipped[target] = replace(records[target], status="fallback")
    caught = {}
    for name, copy in (("y_hat_nudged", nudged), ("record_dropped", dropped), ("status_flipped", flipped)):
        results = record_checks(days, features, copy, roster)
        results["daily_metrics"] = check_daily_metrics(copy, run_dir / "daily_metrics.csv")
        caught[name] = any(results.values())
    return caught
