"""Golden store: pinned digests of a small end-to-end run.

Every family runs on a two-day bar file that exercises each record status:
a stretch of constant VIX makes ols-vix fall back, one gapped day thins the
schedule, and one bar quoting VIX at 1e200 overflows the squared intraday
VIX, so vrp_lag is -inf and every vrp or agg window that touches it is
skipped.

A change that moves a digest changes what the program writes. Re-pin only
together with a CHANGES.md entry giving the reason and the largest |dy_hat|.
The digests depend on the numpy/BLAS build they were pinned with (numpy
2.4.6): another build may round a matrix product differently.
"""

import datetime as dt
import hashlib

import numpy as np

from minutecast import cli, forest, lstm
from minutecast.marketdata import (
    SESSION_START_MINUTE,
    SynthParams,
    generate_synthetic_day,
    minute_to_time,
)

DAYS = (dt.date(2020, 3, 2), dt.date(2020, 3, 3))
LAST_MINUTE = 130  # 11:40: 90 windows on a gapless day keep the run short
CONSTANT_VIX = range(60, 101)  # day 1: vix_lag constant over rows 65..105
HUGE_VIX_MINUTE = 120  # day 1: vix_lag 1.7e197, vix_sq_lag and vrp_lag overflow
GAP = range(70, 73)  # day 2: three missing bars

RUN_CONFIG = """
input = {bars}
seed = 3
models = naive, ols, lstm, rf
predictors = vix, agg
lstm_epochs = 3
lstm_hidden_dim = 4
rf_trees = 3
"""

PREDICTION_SLICES = {
    ("lstm", "agg"): "faf912773a4d5e190c4b2ccda7e9765de905dbcbf73a8e9e7ce0b2d68077a990",
    ("lstm", "vix"): "a561c5a30c712652c65ccd7c2f129e3d3eeee50dc251ca15971eac7134931501",
    ("naive", "none"): "59fa8a13e15536992a267f711fe40c366918959ed0e66071edb29ff725dce4d1",
    ("ols-ar1", "ar1"): "5877fe9b55a66e177710401de8194d47cf61ffb8e308fb64abac918897543a9f",
    ("ols-dvix", "dvix"): "08b6e35583a1ba1a01fa5fcb8105a2a53c31727372302828dc1be2661cd4e5ab",
    ("ols-rv", "rv"): "678b039c1ce4af357ff346dba65f54a85a1b700d6da588be9e69f12e17a3319e",
    ("ols-vix", "vix"): "0a0cdad49eeb49d862e7a4175db0e25404d57b714606cf090eef126486397acf",
    ("ols-vrp", "vrp"): "b5c33804981b4cd8ff335f2e873162221147ea079e4fe4cadf5af4bf1ec88ac5",
    ("rf", "agg"): "0c5aadcc452f337ee56ad29d8556078bb9904e2f3e7f2768bf9f5715a0edee4b",
    ("rf", "vix"): "1ef4d76ccdafe97e21efd04d56920b799005fda6b376903cdf60ad7f65f69a1a",
}
DAILY_METRICS = "71315c4e1baad8ea976cae54eccecdd998d255147f9f6797219a325f6bf4170a"
AGGREGATE_REPORT = "380e54b68c1b820deec2adc4acbdc11ee2b65eb74ce8418f92a198287dec5103"
TRAIN_WINDOWS = "5c7120506928b15ee124f5aa73465258240da8bf51dbc305b014449e3c120c1c"
RF_FEATURE_MODES = "d8ddca4aeb7f634894a3db1e3938e0403726beb1e335ed68b00180d50b9a40a4"


def _bar_lines():
    params = SynthParams(n_days=len(DAYS), seed=17)
    lines = ["date,time,spy_price,vix"]
    for k, day in enumerate(DAYS):
        series = generate_synthetic_day(params, day)
        constant = series.bars[CONSTANT_VIX[0] - SESSION_START_MINUTE].vix_annual
        for bar in series.bars:
            m = bar.minute
            if m > LAST_MINUTE or (k == 1 and m in GAP):
                continue
            vix = bar.vix_annual
            if k == 0 and m in CONSTANT_VIX:
                vix = constant
            if k == 0 and m == HUGE_VIX_MINUTE:
                vix = 1e200
            lines.append(f"{day.isoformat()},{minute_to_time(m)},{bar.spy_price!r},{vix!r}")
    return lines


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_store(tmp_path, capsys):
    bars = tmp_path / "bars.csv"
    bars.write_text("\n".join(_bar_lines()) + "\n")
    config = tmp_path / "run.conf"
    config.write_text(RUN_CONFIG.format(bars=bars))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()

    lines = (out / "predictions.csv").read_text().splitlines()[1:]
    slices = {}
    for line in lines:
        fields = line.split(",")
        slices.setdefault((fields[2], fields[3]), []).append(line)
    statuses = {line.rsplit(",", 1)[1] for line in lines}
    assert statuses == {"ok", "fallback", "skipped"}
    assert any(line.endswith(",fallback") for line in slices[("ols-vix", "vix")])

    digests = {key: _sha("\n".join(rows).encode()) for key, rows in slices.items()}
    assert digests == PREDICTION_SLICES
    assert _sha((out / "daily_metrics.csv").read_bytes()) == DAILY_METRICS
    assert _sha((out / "aggregate_report.csv").read_bytes()) == AGGREGATE_REPORT


def test_train_windows_digest():
    rng = np.random.default_rng(2024)
    X = rng.uniform(0.0, 1.0, size=(3, 6, 5, 2))
    Y = rng.uniform(0.0, 1.0, size=(3, 6, 5))
    config = lstm.TrainConfig(hidden_dim=4, epochs=25, sequence_length=5)
    fitted = lstm.train_windows(X, Y, config, [11, 12, 13])
    vector = np.concatenate([lstm.flatten_params(p) for p in fitted])
    assert _sha(vector.astype("<f8").tobytes()) == TRAIN_WINDOWS


def test_rf_feature_modes_digest():
    # rf(agg) never runs with feature_mode="per-tree", so the store above
    # does not pin it; max_features 1 and 2 are below k = 4
    rng = np.random.default_rng(2025)
    windows = [(rng.normal(size=(30, 4)), rng.normal(size=30), rng.normal(size=(5, 4)))
               for _ in range(3)]
    forecasts = []
    for feature_mode in ("per-split", "per-tree"):
        for max_features in (1, None, 4):
            config = forest.ForestConfig(n_trees=10, max_features=max_features,
                                         feature_mode=feature_mode, seed=8)
            for X, y, probes in windows:
                fitted = forest.rf_fit(X, y, config)
                forecasts.extend(forest.rf_predict(fitted, x) for x in probes)
    assert _sha(repr(forecasts).encode()) == RF_FEATURE_MODES
