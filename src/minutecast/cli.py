"""Command-line entry point.

Subcommands: synth (generate a synthetic minute-bar CSV), validate (data
diagnostics), run (the full forecasting pipeline), report (re-aggregate an
existing prediction store), gradcheck (analytic-vs-numeric gradient check).

Configuration is a flat key = value text file with a strict schema; command
line flags override file values.  Nothing reads the clock: every stochastic
path flows from the configured seed, so identical invocations write
identical bytes.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .errors import ConfigError, DataError, NumericError
from .forest import ForestConfig
from .lstm import TrainConfig, gradient_check
from .marketdata import (
    CSV_HEADER,
    MIN_USABLE_MINUTES,
    SESSION_MINUTES,
    SynthParams,
    business_days,
    generate_synthetic_day,
    load_minute_bars,
    minute_to_time,
    scan_bars,
)
from .metrics import (
    aggregate_report,
    compute_daily_metrics,
    render_aggregate_table,
    write_aggregate_report,
    write_daily_metrics,
)
from .rolling import OLS_BENCHMARKS, ModelSpec, read_store, run_sample, write_store

__all__ = ["RunConfig", "main", "build_roster", "load_run_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# First synthetic day when start_date is not set; input files are not filtered then.
SYNTH_START_DATE = dt.date(2020, 1, 2)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs, resolved from file plus flags.

    `lstm`, `rf` and `synth` are the settings of the two model families and
    of the generator; their defaults are TrainConfig's, ForestConfig's and
    SynthParams'. `synth_params()` takes n_days and seed from `synth_days`
    and `seed`, so `synth`'s own two are placeholders.
    """

    input: Optional[str] = None
    synth_days: Optional[int] = None
    start_date: Optional[dt.date] = None
    end_date: Optional[dt.date] = None
    seed: int = 0
    workers: int = 1
    out: str = "out"
    models: Tuple[str, ...] = ("naive", "ols-vix", "lstm")
    predictors: Tuple[str, ...] = ("vix",)
    lstm: TrainConfig = TrainConfig()
    rf: ForestConfig = ForestConfig()
    synth: SynthParams = SynthParams(n_days=0, seed=0)

    def __post_init__(self):
        if not self.models:
            raise ConfigError("at least one model is required")
        if not self.predictors:
            raise ConfigError("at least one predictor set is required")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.synth_days is not None and self.synth_days < 0:
            raise ConfigError(f"synth_days must be non-negative, got {self.synth_days}")
        if self.start_date and self.end_date and self.end_date < self.start_date:
            raise ConfigError("end_date precedes start_date")

    def synth_params(self) -> SynthParams:
        if self.synth_days is None:
            raise ConfigError("synthetic generation needs synth_days (or --days)")
        return replace(self.synth, n_days=self.synth_days, seed=self.seed)


def _to_optional_int(text: str) -> Optional[int]:
    return None if text == "" else int(text)


def _to_list(text: str) -> Tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


# key -> (parser, field). A key with no field sets the RunConfig field of its
# own name; a key with a field sets that field of the section its prefix
# names, so rf_trees sets rf.n_trees.
_CONFIG_SCHEMA = {
    "input": (str, None),
    "synth_days": (int, None),
    "start_date": (dt.date.fromisoformat, None),
    "end_date": (dt.date.fromisoformat, None),
    "seed": (int, None),
    "workers": (int, None),
    "out": (str, None),
    "models": (_to_list, None),
    "predictors": (_to_list, None),
    "lstm_hidden_dim": (int, "hidden_dim"),
    "lstm_epochs": (int, "epochs"),
    "lstm_learning_rate": (float, "learning_rate"),
    "lstm_sequence_length": (int, "sequence_length"),
    "lstm_clip_norm": (float, "clip_norm"),
    "lstm_init_scale": (float, "init_scale"),
    "rf_trees": (int, "n_trees"),
    "rf_min_leaf": (int, "min_leaf"),
    "rf_max_features": (_to_optional_int, "max_features"),
    "rf_block_length": (int, "block_length"),
    "rf_feature_mode": (str, "feature_mode"),
    "synth_return_vol": (float, "return_vol"),
    "synth_vix_mean": (float, "vix_mean"),
    "synth_vix_vol": (float, "vix_vol"),
    "synth_vix_persistence": (float, "vix_persistence"),
    "synth_leverage_corr": (float, "leverage_corr"),
}


def _parse_config_file(path) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _CONFIG_SCHEMA[key][0](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_run_config(config_path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    """Resolve a RunConfig: defaults, then the config file, then flags."""
    values = _parse_config_file(config_path) if config_path else {}
    values.update(overrides or {})
    run_values, sections = {}, {}
    for key, value in values.items():
        name = _CONFIG_SCHEMA[key][1]
        if name is None:
            run_values[key] = value
        else:
            sections.setdefault(key.split("_", 1)[0], {})[name] = value
    # the sections check their values here, whether or not this run uses them
    for section, changes in sections.items():
        run_values[section] = replace(getattr(RunConfig, section), **changes)
    return RunConfig(**run_values)


def build_roster(config: RunConfig) -> list:
    """Expand model ids into fully configured specs.

    `lstm` and `rf` fan out over the configured predictor sets; `ols` is
    shorthand for all five single-regressor benchmarks.
    """
    roster = []
    for model_id in config.models:
        if model_id == "naive":
            roster.append(ModelSpec.naive())
        elif model_id == "ols":
            roster.extend(ModelSpec.ols(bench) for bench in OLS_BENCHMARKS)
        elif model_id.startswith("ols-"):
            roster.append(ModelSpec.ols(model_id[len("ols-"):]))
        elif model_id == "lstm":
            roster.extend(ModelSpec.lstm(p, config.lstm) for p in config.predictors)
        elif model_id == "rf":
            roster.extend(ModelSpec.rf(p, config.rf) for p in config.predictors)
        else:
            raise ConfigError(f"unknown model id: {model_id!r}")
    return roster


def _synthetic_days(config: RunConfig) -> list:
    params = config.synth_params()
    dates = business_days(config.start_date or SYNTH_START_DATE, params.n_days)
    return [generate_synthetic_day(params, day) for day in dates]


def _load_days(config: RunConfig) -> list:
    if (config.input is None) == (config.synth_days is None):
        raise ConfigError("exactly one of 'input' and 'synth_days' must be set")
    if config.input is not None:
        source, days = config.input, load_minute_bars(config.input)
    else:
        source, days = f"{config.synth_days} synthetic days", _synthetic_days(config)
    days = [
        d for d in days
        if (config.start_date is None or config.start_date <= d.day)
        and (config.end_date is None or d.day <= config.end_date)
    ]
    if not days:
        raise DataError(f"no usable days in {source} within the date range")
    return days


def _write_bars(days, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for series in days:
            day = series.day.isoformat()
            for minute, price, vix in series.bars.tolist():
                writer.writerow([day, minute_to_time(minute), repr(price), repr(vix)])


def cmd_synth(config: RunConfig, out_path: str) -> int:
    days = _synthetic_days(config)
    _write_bars(days, out_path)
    n_rows = sum(len(series.bars) for series in days)
    print(f"wrote {len(days)} synthetic days ({n_rows} bars) to {out_path}")
    return EXIT_OK


def cmd_validate(path: str) -> int:
    scan = scan_bars(path)
    warns = ["file is empty"] if scan.empty else []
    if scan.out_of_session:
        warns.append(f"{scan.out_of_session} out-of-session rows (ignored downstream)")
    for day in sorted(scan.by_day):
        count = len(scan.by_day[day])
        print(f"{day}: {count} session bars")
        if count < MIN_USABLE_MINUTES:
            warns.append(
                f"{day}: only {count} usable bars (< {MIN_USABLE_MINUTES}); "
                "day would be dropped"
            )
        elif count < SESSION_MINUTES:
            warns.append(f"{day}: {SESSION_MINUTES - count} missing session minutes")
    for message in warns:
        print(f"warning: {message}")
    for message in scan.errors:
        print(f"error: {message}")
    print(
        f"{path}: {scan.n_rows} data rows, {len(scan.by_day)} days, "
        f"{len(scan.errors)} errors, {len(warns)} warnings"
    )
    return EXIT_OK if not scan.errors else EXIT_DATA


def _emit_reports(forecasts, out_dir: Path) -> None:
    """Write the two derived CSVs and print the aggregate table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    daily = compute_daily_metrics(forecasts)
    write_daily_metrics(daily, out_dir / "daily_metrics.csv")
    report = aggregate_report(daily)
    write_aggregate_report(report, out_dir / "aggregate_report.csv")
    print(render_aggregate_table(report))


def cmd_run(config: RunConfig) -> int:
    roster = build_roster(config)
    days = _load_days(config)
    forecasts = run_sample(
        days, roster, master_seed=config.seed, workers=config.workers
    )
    out_dir = Path(config.out)
    _emit_reports(forecasts, out_dir)
    write_store(forecasts, out_dir / "predictions.csv")
    print(
        f"\n{len(forecasts)} predictions, {len(days)} days, "
        f"{len(roster)} models -> {out_dir}/"
    )
    return EXIT_OK


def cmd_report(store_path: str, out: str) -> int:
    forecasts = read_store(store_path)
    if not forecasts:
        raise DataError(f"no records in {store_path}")
    _emit_reports(forecasts, Path(out))
    print(f"\nre-aggregated {len(forecasts)} predictions -> {out}/")
    return EXIT_OK


def cmd_gradcheck(**params) -> int:
    report = gradient_check(**params)
    for n, d, length, err in report.instances:
        print(f"n={n} d={d} L={length} max_rel_err={err:.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: max relative error {report.max_rel_err:.3e} over "
        f"{len(report.instances)} instances (tolerance {report.tolerance:g}, "
        f"epsilon {report.epsilon:g})"
    )
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minutecast",
        description="Minute-by-minute rolling-window return forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic minute-bar CSV")
    synth.add_argument("--config", help="key = value config file")
    # the bar CSV is not the run's `out` directory, so its dest is no config key
    synth.add_argument(
        "--out", dest="bars_out", metavar="OUT", default="synthetic_bars.csv",
        help="output CSV path",
    )
    synth.add_argument(
        "--days", dest="synth_days", metavar="DAYS", type=int,
        help="number of days (overrides synth_days)",
    )
    synth.add_argument("--seed", type=int, help="generator seed")

    validate = sub.add_parser("validate", help="diagnose a minute-bar CSV")
    validate.add_argument("path", help="bar CSV to inspect")

    run = sub.add_parser("run", help="run the forecasting pipeline")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--workers", type=int, help="parallel day workers")
    run.add_argument("--out", help="output directory")
    run.add_argument("--models", type=_to_list, help="comma list, e.g. naive,ols-vix,lstm,rf")
    run.add_argument("--predictors", type=_to_list, help="comma list for lstm/rf: vix,ar1,agg")

    report = sub.add_parser("report", help="re-aggregate an existing prediction store")
    report.add_argument("store", help="predictions.csv produced by run")
    report.add_argument("--out", default="out", help="output directory")

    grad = sub.add_parser("gradcheck", help="check analytic gradients numerically")
    grad.add_argument("--instances", dest="n_instances", metavar="INSTANCES", type=int)
    grad.add_argument("--seed", type=int)
    grad.add_argument("--eps", dest="epsilon", metavar="EPS", type=float)
    grad.add_argument("--tol", dest="tolerance", metavar="TOL", type=float)
    return parser


def _dispatch(args) -> int:
    if args.command == "validate":
        return cmd_validate(args.path)
    if args.command == "report":
        return cmd_report(args.store, args.out)
    # a flag's dest names the parameter or config key it sets; an unset flag sets nothing
    flags = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    if args.command == "gradcheck":
        return cmd_gradcheck(**flags)
    overrides = {key: value for key, value in flags.items() if key in _CONFIG_SCHEMA}
    config = load_run_config(args.config, overrides)
    if args.command == "synth":
        return cmd_synth(config, args.bars_out)
    return cmd_run(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
