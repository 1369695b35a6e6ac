"""Golden store: pinned digests of a small end-to-end run.

Every family runs on a two-day bar file that exercises each record status:
a stretch of constant VIX makes ols-vix fall back, one gapped day thins the
schedule, and one bar quoting VIX at 1e200 overflows the squared intraday
VIX, so vrp_lag is -inf and every vrp or agg window that touches it is
skipped. Windows whose test predictor lies far outside their training range
(vix_lag and dvix_lag at minute 125, vrp_lag at 106) fall back, so every ok
record is finite and the metrics raise no overflow warning.

A change that moves a digest changes what the program writes. Re-pin only
together with a CHANGES.md entry giving the reason and the largest |dy_hat|.
The digests depend on the numpy/BLAS build they were pinned with (numpy
2.4.6): another build may round a matrix product differently.
"""

import datetime as dt
import hashlib

import numpy as np
import pytest

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
    ("lstm", "agg"): "5a96444a164db111742045618020334a175c3a42d50758347660ddcc394b5f0c",
    ("lstm", "vix"): "0122ec03140507a117c40d108dbbee2c807a418479dde051863b89f48b8c7a1b",
    ("naive", "none"): "59fa8a13e15536992a267f711fe40c366918959ed0e66071edb29ff725dce4d1",
    ("ols-ar1", "ar1"): "2acbdd7304f0b00e8626e174632944cff1c3601bd848622dccb0c0767fc94d5c",
    ("ols-dvix", "dvix"): "bf3c8c720fae6a3fdc26080f7ec816e302e371ba0bb353b4cb1346c5899e4e15",
    ("ols-rv", "rv"): "4bdbc3e44b01380cf9ef5ac9c0cdeb16802d05a221ac0c86b37c91318811fd20",
    ("ols-vix", "vix"): "20aad0e9d6fe66b2959855af88b78b88d6770422e72b180e60e8b877e50e8bd7",
    ("ols-vrp", "vrp"): "82e3d300aee36fdd3d254a1e4bd3b3cbba2837faf42dbdfe3701d4ad1a13e610",
    ("rf", "agg"): "f9efcdff2347339225197913391cdc30d79b57a70ed23618cf65de0508c3c107",
    ("rf", "vix"): "e4675affd149aa99ad5d05e15cc0ec218633b5259bba97c0925f7ab21175cdaa",
}
DAILY_METRICS = "1c25e0c03fbd30a064aba24a376b06ed72f283d535806ff7245fb0ad7308b663"
AGGREGATE_REPORT = "d135f9dec74cf96bb76d4f032eb96550fa3114a034a52d1def8fe674ea1701ce"
TRAIN_WINDOWS = "3e54c9aa818bf15aec97002bcb3c0078cd0ded2668c23baf9679b1f1a35a9c90"
RF_FEATURE_MODES = "8281cd35f740da0e7328446dfd36caa1da437eb214082469fcb2d59296bc632c"


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
