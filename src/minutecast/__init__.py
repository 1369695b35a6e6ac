"""Minute-by-minute rolling-window forecasting of intraday equity returns.

The submodules layer bottom-up: marketdata (bars, the per-day feature
table, synthetic days), scaling, the three model families (linear, lstm,
forest), the rolling scheduler/runner, metrics, and the command-line front
end. The names re-exported here are the stable surface for library use.
"""

import logging

from .errors import (
    ConfigError,
    DataError,
    FitError,
    NumericError,
    ParseError,
    ShapeError,
)
from .forest import Forest, ForestConfig, rf_fit, rf_predict
from .linear import OlsFit, ols_fit, ols_predict
from .lstm import GradCheckReport, LstmParams, TrainConfig, gradient_check, lstm_predict, lstm_train
from .marketdata import (
    BAR_DTYPE,
    FEATURE_DTYPE,
    DaySeries,
    SynthParams,
    build_feature_rows,
    business_days,
    generate_synthetic_day,
    load_minute_bars,
    minute_to_time,
    time_to_minute,
)
from .metrics import (
    DailyMetrics,
    aggregate_report,
    compute_daily_metrics,
    r2_oos_daily,
    render_aggregate_table,
    rmse_daily,
    summary_stats,
)
from .rolling import (
    ModelSpec,
    PredictionRecord,
    read_store,
    run_day,
    run_sample,
    schedule_day,
    write_store,
)
from .scaling import MinMaxScaler, fit_minmax, inverse_transform_target, transform

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "DataError",
    "ParseError",
    "ShapeError",
    "NumericError",
    "FitError",
    "BAR_DTYPE",
    "DaySeries",
    "FEATURE_DTYPE",
    "SynthParams",
    "load_minute_bars",
    "build_feature_rows",
    "generate_synthetic_day",
    "business_days",
    "minute_to_time",
    "time_to_minute",
    "MinMaxScaler",
    "fit_minmax",
    "transform",
    "inverse_transform_target",
    "OlsFit",
    "ols_fit",
    "ols_predict",
    "TrainConfig",
    "LstmParams",
    "GradCheckReport",
    "lstm_train",
    "lstm_predict",
    "gradient_check",
    "ForestConfig",
    "Forest",
    "rf_fit",
    "rf_predict",
    "ModelSpec",
    "PredictionRecord",
    "schedule_day",
    "run_day",
    "run_sample",
    "write_store",
    "read_store",
    "DailyMetrics",
    "rmse_daily",
    "r2_oos_daily",
    "compute_daily_metrics",
    "aggregate_report",
    "render_aggregate_table",
    "summary_stats",
]

logging.getLogger(__name__).addHandler(logging.NullHandler())
