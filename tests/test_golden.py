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
The digests belong to the numpy build they were pinned with (numpy 2.4.6,
bundling OpenBLAS 0.3.31). That OpenBLAS picks a compute kernel for the CPU
at run time, and each kernel sums a matrix product's inner dimension in its
own order. Naive, OLS and RF records come out the same under every kernel,
so their digests are single. The LSTM slices, the metrics computed from
them and the batched training digest are kept once per kernel, in
KERNEL_DIGESTS, each computed by forcing the kernel with OPENBLAS_CORETYPE.
A kernel with no set fails both tests with a message that names it.
"""

import ctypes
import datetime as dt
import hashlib
from pathlib import Path

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
HUGE_VIX_MINUTE = 120  # day 1: vix_lag 1.7e197, vrp_lag overflows
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
    ("naive", "none"): "59fa8a13e15536992a267f711fe40c366918959ed0e66071edb29ff725dce4d1",
    ("ols-ar1", "ar1"): "2acbdd7304f0b00e8626e174632944cff1c3601bd848622dccb0c0767fc94d5c",
    ("ols-dvix", "dvix"): "bf3c8c720fae6a3fdc26080f7ec816e302e371ba0bb353b4cb1346c5899e4e15",
    ("ols-rv", "rv"): "4bdbc3e44b01380cf9ef5ac9c0cdeb16802d05a221ac0c86b37c91318811fd20",
    ("ols-vix", "vix"): "20aad0e9d6fe66b2959855af88b78b88d6770422e72b180e60e8b877e50e8bd7",
    ("ols-vrp", "vrp"): "82e3d300aee36fdd3d254a1e4bd3b3cbba2837faf42dbdfe3701d4ad1a13e610",
    ("rf", "agg"): "f9efcdff2347339225197913391cdc30d79b57a70ed23618cf65de0508c3c107",
    ("rf", "vix"): "e4675affd149aa99ad5d05e15cc0ec218633b5259bba97c0925f7ab21175cdaa",
}
RF_FEATURE_MODES = "8281cd35f740da0e7328446dfd36caa1da437eb214082469fcb2d59296bc632c"

# per OpenBLAS kernel, as scipy_openblas_get_corename64_ names it
KERNEL_DIGESTS = {
    "SkylakeX": {
        ("lstm", "agg"): "99557d5376d7a59ffcd9368f535f27ecb7fba33f8ac8be466cd23e87d8f68477",
        ("lstm", "vix"): "5219b02caa8f5ef8deadb1c1a630be7aca8f9dd3fceec6b0d33412d5c35a3f98",
        "daily_metrics": "3802010af509d40bf70ccb5ff9f607ffc314918b11a6c6ab6df4ca4617bc3074",
        "aggregate_report": "211e45c42ca959bef0be290afc332834097a2f9e8494c52fc754ecf3985c262a",
        "train_windows": "6b68c2f50b85c20cc1cc17752bcc0eba3bdf03356f59857ed6fb509beedf02c5",
    },
    "Haswell": {
        ("lstm", "agg"): "e6986333ff91c060f3e91e8601e0af2a64d9ee921b6d85f93fe5c50a7533e465",
        ("lstm", "vix"): "ea75327d94f62ac12fe073c4f64194486aa57312a0073bb8b92e44bb60b40e66",
        "daily_metrics": "7b7c260e1f738d945e27181c92872591c194314d2977cfe4ca596bb0bf89c19d",
        "aggregate_report": "aa6046af6cca3197556807ab0f1cac227e6d41f7b91e97cdc44243bd63b92b27",
        "train_windows": "2511d438b4cc848692a696704c2452cbc6e339d5b33a3a2e2961ba34c3393248",
    },
}


def openblas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS picked for this CPU, e.g. 'SkylakeX'."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown (numpy bundles no libscipy_openblas64_*.so)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def kernel_digests(kernel: str) -> dict:
    if kernel not in KERNEL_DIGESTS:
        pytest.fail(
            f"no LSTM digest set for OpenBLAS kernel {kernel}; the kept sets are "
            f"{', '.join(KERNEL_DIGESTS)} (compute one with OPENBLAS_CORETYPE)"
        )
    return KERNEL_DIGESTS[kernel]


def _bar_lines():
    params = SynthParams(n_days=len(DAYS), seed=17)
    lines = ["date,time,spy_price,vix"]
    for k, day in enumerate(DAYS):
        bars = generate_synthetic_day(params, day).bars.tolist()
        constant = bars[CONSTANT_VIX[0] - SESSION_START_MINUTE][2]
        for m, price, vix in bars:
            if m > LAST_MINUTE or (k == 1 and m in GAP):
                continue
            if k == 0 and m in CONSTANT_VIX:
                vix = constant
            if k == 0 and m == HUGE_VIX_MINUTE:
                vix = 1e200
            lines.append(f"{day.isoformat()},{minute_to_time(m)},{price!r},{vix!r}")
    return lines


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_golden_store(tmp_path, capsys):
    kernel = kernel_digests(openblas_kernel())
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
    lstm_slices = {key: kernel[key] for key in (("lstm", "agg"), ("lstm", "vix"))}
    assert digests == {**PREDICTION_SLICES, **lstm_slices}
    assert _sha((out / "daily_metrics.csv").read_bytes()) == kernel["daily_metrics"]
    assert _sha((out / "aggregate_report.csv").read_bytes()) == kernel["aggregate_report"]


def test_train_windows_digest():
    kernel = kernel_digests(openblas_kernel())
    rng = np.random.default_rng(2024)
    X = rng.uniform(0.0, 1.0, size=(3, 6, 5, 2))
    Y = rng.uniform(0.0, 1.0, size=(3, 6, 5))
    config = lstm.TrainConfig(hidden_dim=4, epochs=25, sequence_length=5)
    fitted = lstm.train_windows(X, Y, config, [11, 12, 13])
    vector = np.concatenate([lstm.flatten_params(p) for p in fitted])
    assert _sha(vector.astype("<f8").tobytes()) == kernel["train_windows"]


def test_kernel_without_digests_fails_naming_it():
    with pytest.raises(pytest.fail.Exception, match="OpenBLAS kernel Nehalem;"):
        kernel_digests("Nehalem")


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
