"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and states its tolerance inline. The
conftest hook prints a one-line verdict per criterion after the run.
"""

import dataclasses
import datetime as dt
import time

import numpy as np

from minutecast import cli, forest
from minutecast.linear import ols_fit, ols_predict
from minutecast.lstm import gradient_check
from minutecast.marketdata import (
    SynthParams,
    build_feature_rows,
    business_days,
    generate_affine_signal_day,
    generate_synthetic_day,
    minute_to_time,
)
from minutecast.metrics import (
    REFERENCE_DATASET_STATS,
    aggregate_report,
    compute_daily_metrics,
    r2_oos_daily,
    summary_stats,
)
from minutecast.rolling import ModelSpec, run_day, run_sample, schedule_day
from minutecast.scaling import fit_minmax, inverse_transform_target, transform
from test_forest import assert_trees_equal

DAY = dt.date(2021, 3, 1)


def test_criterion_1_gradient_check():
    started = time.perf_counter()
    report = gradient_check()
    elapsed = time.perf_counter() - started
    assert report.passed
    assert report.max_rel_err < 1e-4
    assert len(report.instances) >= 20
    for n, d, length, err in report.instances:
        assert 1 <= n <= 4 and 1 <= d <= 6 and 1 <= length <= 8
        assert err < 1e-4
    assert elapsed < 10.0


def test_criterion_2_ols_matches_normal_equations():
    rng = np.random.default_rng(42)
    for _ in range(200):
        X = rng.normal(size=(30, 1))
        y = rng.normal(size=30)
        fit = ols_fit(X, y)
        A = np.hstack([np.ones((30, 1)), X])
        beta = np.linalg.solve(A.T @ A, A.T @ y)
        assert abs(fit.intercept - beta[0]) < 1e-8
        assert abs(fit.coef[0] - beta[1]) < 1e-8

    x = np.linspace(-2.0, 3.0, 30).reshape(-1, 1)
    y = 0.3 - 1.7 * x[:, 0]
    fit = ols_fit(x, y)
    fitted = np.array([ols_predict(fit, row) for row in x])
    assert np.max(np.abs(y - fitted)) < 1e-10


def test_criterion_3_tree_and_forest_structure():
    rng = np.random.default_rng(7)

    # partition of unity over leaf indicators
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    config = forest.ForestConfig(n_trees=1, min_leaf=2, max_features=3)
    tree = forest.grow_tree(X, y, config, np.random.default_rng(0))
    for _ in range(1000):
        basis = forest.leaf_basis(tree, rng.normal(size=3))
        assert basis.sum() == 1.0
        assert set(np.unique(basis)) <= {0.0, 1.0}

    # root split attains the exhaustive SSE minimum on small samples; when
    # the minimizer is unique the exact (column, threshold) pair must match
    def exhaustive_root_splits(X, y, min_leaf):
        out = []
        for col in range(X.shape[1]):
            vals = np.unique(X[:, col])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = 0.5 * (lo + hi)
                mask = X[:, col] <= thr
                nl = int(mask.sum())
                if nl < min_leaf or X.shape[0] - nl < min_leaf:
                    continue
                left, right = y[mask], y[~mask]
                sse = float(((left - left.mean()) ** 2).sum()
                            + ((right - right.mean()) ** 2).sum())
                out.append((sse, col, thr))
        out.sort()
        return out

    for trial in range(40):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 4))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        config = forest.ForestConfig(n_trees=1, min_leaf=1, max_features=k)
        tree = forest.grow_tree(X, y, config, np.random.default_rng(trial))
        candidates = exhaustive_root_splits(X, y, 1)
        assert candidates
        assert tree.feature[0] >= 0
        chosen = [
            sse for sse, col, thr in candidates
            if col == tree.feature[0] and thr == tree.threshold[0]
        ]
        assert len(chosen) == 1
        best_sse = candidates[0][0]
        tol = 1e-9 * max(1.0, best_sse)
        assert chosen[0] <= best_sse + tol
        runner_up_gap = (
            candidates[1][0] - best_sse if len(candidates) > 1 else np.inf
        )
        if runner_up_gap > tol:
            assert (tree.feature[0], tree.threshold[0]) \
                == (candidates[0][1], candidates[0][2])

    # forest prediction is exactly the mean over trees
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    fitted = forest.rf_fit(X, y, forest.ForestConfig(n_trees=20, seed=3))
    for _ in range(50):
        x = rng.normal(size=2)
        per_tree = [forest.tree_predict(t, x) for t in fitted.trees]
        assert forest.rf_predict(fitted, x) == float(np.mean(per_tree))

    # a one-tree forest whose bootstrap starts its only block at row zero
    # and draws every feature is a plain deterministic regression tree
    n = 25
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    seed = next(
        s for s in range(400)
        if int(np.random.default_rng(
            np.random.SeedSequence(s).spawn(1)[0]).integers(0, n)) == 0
    )
    config = forest.ForestConfig(
        n_trees=1, min_leaf=3, max_features=3, block_length=n, seed=seed
    )
    degenerate = forest.rf_fit(X, y, config)
    cart = forest.grow_tree(X, y, config, np.random.default_rng(0))
    assert_trees_equal(degenerate.trees[0], cart)
    for _ in range(50):
        x = rng.normal(size=3)
        assert forest.rf_predict(degenerate, x) == forest.tree_predict(cart, x)


def test_criterion_4_gapless_day_schedule():
    series = generate_synthetic_day(SynthParams(n_days=1, seed=5), DAY)
    rows = build_feature_rows(series)
    tests = schedule_day(rows)
    assert len(tests) == 340
    minutes = rows["minute"][tests]
    assert minutes[0] == 41
    assert minute_to_time(minutes[0]) == "10:11"
    assert minutes[-1] == 380
    assert minute_to_time(minutes[-1]) == "15:50"
    assert list(minutes) == list(range(41, 381))


def test_criterion_5_naive_r2_is_zero_and_perfect_is_one():
    series = generate_synthetic_day(SynthParams(n_days=1, seed=9), DAY)
    records = run_day(build_feature_rows(series), [ModelSpec.naive()])
    assert len(records) == 340
    r2 = r2_oos_daily(records)
    assert r2 is not None  # the benchmark denominator is nonzero
    assert abs(r2) < 1e-12

    perfect = [dataclasses.replace(r, y_hat=r.y_true) for r in records]
    assert r2_oos_daily(perfect) == 1.0


def test_criterion_6_minmax_round_trip():
    rng = np.random.default_rng(31)
    matrix = rng.uniform(-50.0, 50.0, size=(20000, 5))
    scaler = fit_minmax(matrix)
    scaled = transform(scaler, matrix)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
    for column in range(5):
        back = np.array([
            inverse_transform_target(scaler, v, column) for v in scaled[:, column]
        ])
        assert np.max(np.abs(back - matrix[:, column])) < 1e-12

    constant = np.hstack([matrix[:100, :2], np.full((100, 1), 3.7)])
    scaler = fit_minmax(constant)
    scaled = transform(scaler, constant)
    assert np.all(np.isfinite(scaled))
    assert np.all(scaled[:, 2] == 0.0)
    assert inverse_transform_target(scaler, 0.0, 2) == 3.7


def test_criterion_7_signal_recovered_noise_rejected():
    started = time.perf_counter()

    params = SynthParams(n_days=20, seed=7, vix_persistence=0.5, vix_vol=0.1)
    days = [
        generate_affine_signal_day(params, day)
        for day in business_days(dt.date(2021, 1, 4), 20)
    ]
    roster = [ModelSpec.naive(), ModelSpec.ols("vix"), ModelSpec.lstm(predictors="vix")]
    metrics = compute_daily_metrics(run_sample(days, roster, master_seed=0))

    def mean_r2(model, predictor_set):
        values = [
            m.r2_oos for m in metrics
            if m.model == model and m.predictor_set == predictor_set
        ]
        assert len(values) == 20 and None not in values
        return float(np.mean(values))

    naive_r2 = mean_r2("naive", "none")
    ols_r2 = mean_r2("ols-vix", "vix")
    lstm_r2 = mean_r2("lstm", "vix")
    assert ols_r2 > 0.5
    assert lstm_r2 > 0.5
    assert ols_r2 > naive_r2
    assert lstm_r2 > naive_r2

    params = SynthParams(n_days=20, seed=11)
    days = [
        generate_synthetic_day(params, day)
        for day in business_days(dt.date(2021, 1, 4), 20)
    ]
    roster = [ModelSpec.naive()] \
        + [ModelSpec.ols(which) for which in ("ar1", "rv", "vix", "dvix", "vrp")] \
        + [ModelSpec.lstm(predictors="vix")]
    report = aggregate_report(compute_daily_metrics(run_sample(days, roster, master_seed=0)))
    r2_rows = [row for row in report if row.metric == "r2_oos"]
    assert len(r2_rows) == 7
    for row in r2_rows:
        assert row.mean is not None
        assert row.mean < 0.05

    assert time.perf_counter() - started < 600.0


WORKER_CONFIG = """
synth_days = 4
seed = 3
models = naive, ols-vix, lstm
predictors = vix
lstm_hidden_dim = 4
lstm_epochs = 10
"""


def test_criterion_8_worker_count_invariance(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(WORKER_CONFIG)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["run", "--config", str(config), "--out", str(serial),
                     "--workers", "1"]) == 0
    assert cli.main(["run", "--config", str(config), "--out", str(parallel),
                     "--workers", "8"]) == 0
    for name in ("predictions.csv", "daily_metrics.csv", "aggregate_report.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_criterion_9_sample_moment_calibration():
    rng = np.random.default_rng(17)
    spy = rng.standard_normal(100_000)
    vix = rng.standard_normal(100_000)
    stats = summary_stats(spy, vix)
    for leg in (stats.spy, stats.vix):
        assert abs(leg.skewness) < 0.05
        assert abs(leg.kurtosis - 3.0) < 0.1
    assert abs(stats.correlation) < 0.05

    reference = REFERENCE_DATASET_STATS
    assert (reference.spy.mean, reference.spy.std) == (0.0001, 0.099)
    assert (reference.spy.skewness, reference.spy.kurtosis) == (0.168, 42.886)
    assert (reference.vix.mean, reference.vix.std) == (19.519, 9.404)
    assert (reference.vix.skewness, reference.vix.kurtosis) == (2.483, 8.140)
    assert reference.correlation == -0.432
