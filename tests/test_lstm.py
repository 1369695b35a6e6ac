"""Tests for the LSTM kernel, its gradients, and the window trainer.

Training, prediction and the gradient check share one batched BPTT
kernel (``lstm._forward`` / ``lstm._backward``).  The oracle it is
checked against lives here: a per-sequence forward and backward pass
written step by step from the textbook equations, plus central finite
differences over the flattened parameter vector.  The batched trainer is
also checked against a manual single-sequence route (init, summed
gradient, clip, step) built from that oracle, so the two implementations
never validate each other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minutecast import lstm
from minutecast.errors import ConfigError, FitError, NumericError, ShapeError


def random_params(rng, n, d, scale=0.5):
    return lstm.LstmParams(
        w_x=rng.uniform(-scale, scale, size=(4 * d, n)),
        w_h=rng.uniform(-scale, scale, size=(4 * d, d)),
        b=rng.uniform(-scale, scale, size=4 * d),
        w_y=rng.uniform(-scale, scale, size=d),
        b_y=float(rng.uniform(-scale, scale)),
    )


EPS32 = float(np.finfo(np.float32).eps)


def as_float32(a):
    """a rounded to float32, held in float64: what training computes on."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _init_from_seed(cfg, n, seed):
    """The training initializer, spelled out: seeded uniform draws in
    declaration order at init_scale, rounded to float32 as training
    stores them."""
    rng = np.random.default_rng(seed)
    a = cfg.init_scale
    d = cfg.hidden_dim
    return lstm.LstmParams(
        w_x=as_float32(rng.uniform(-a, a, size=(4 * d, n))),
        w_h=as_float32(rng.uniform(-a, a, size=(4 * d, d))),
        b=as_float32(rng.uniform(-a, a, size=4 * d)),
        w_y=as_float32(rng.uniform(-a, a, size=d)),
        b_y=float(np.float32(rng.uniform(-a, a))),
    )


# ---------------------------------------------------------------------------
# the oracle: one sequence, one step at a time, per-gate blocks
# ---------------------------------------------------------------------------

def sigmoid(z):
    """The logistic function in its textbook form (the kernel uses tanh)."""
    return 1.0 / (1.0 + np.exp(-z))


def oracle_forward(params, seq):
    """Run the cell over an (L, n) sequence from zero state.

    Returns the per-step predictions and a dict of per-step activations
    (each (L, d)) for :func:`oracle_backward`.
    """
    seq = np.asarray(seq, dtype=float)
    L, d = seq.shape[0], params.d
    names = ("f", "i", "o", "p", "c", "c_prev", "h", "h_prev", "tc")
    acts = {k: np.empty((L, d)) for k in names}
    yhat = np.empty(L)
    c = np.zeros(d)
    h = np.zeros(d)
    for j in range(L):
        acts["c_prev"][j], acts["h_prev"][j] = c, h
        z = params.w_x @ seq[j] + params.w_h @ h + params.b
        f, i, o = sigmoid(z[:d]), sigmoid(z[d : 2 * d]), sigmoid(z[2 * d : 3 * d])
        p = np.tanh(z[3 * d :])
        c = f * c + i * p
        h = o * np.tanh(c)
        for k, v in (("f", f), ("i", i), ("o", o), ("p", p), ("c", c), ("h", h)):
            acts[k][j] = v
        acts["tc"][j] = np.tanh(c)
        yhat[j] = params.w_y @ h + params.b_y
    return yhat, acts


def oracle_backward(params, seq, y):
    """Flattened gradient of lstm_loss over one sequence, by BPTT."""
    seq = np.asarray(seq, dtype=float)
    yhat, a = oracle_forward(params, seq)
    L, d = seq.shape[0], params.d
    dY = (2.0 / L) * (yhat - np.asarray(y, dtype=float))
    g_wx = np.zeros_like(params.w_x)
    g_wh = np.zeros_like(params.w_h)
    g_b = np.zeros_like(params.b)
    g_wy = np.zeros_like(params.w_y)
    g_by = 0.0
    dh_carry = np.zeros(d)
    dc_carry = np.zeros(d)
    for j in range(L - 1, -1, -1):
        f, i, o, p, tc = a["f"][j], a["i"][j], a["o"][j], a["p"][j], a["tc"][j]
        dh = params.w_y * dY[j] + dh_carry
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        dz = np.concatenate([
            dc * a["c_prev"][j] * f * (1.0 - f),
            dc * p * i * (1.0 - i),
            dh * tc * o * (1.0 - o),
            dc * i * (1.0 - p * p),
        ])
        g_wx += np.outer(dz, seq[j])
        g_wh += np.outer(dz, a["h_prev"][j])
        g_b += dz
        g_wy += dY[j] * a["h"][j]
        g_by += dY[j]
        dh_carry = params.w_h.T @ dz
        dc_carry = dc * f
    return np.concatenate([g_wx.ravel(), g_wh.ravel(), g_b, g_wy, [g_by]])


def kernel_forward(params, seq):
    """The production kernel on one sequence; returns its workspace."""
    ws = lstm._sequence_workspace(params, seq)
    lstm._forward(ws, *lstm._batched(params))
    return ws


def kernel_gradient(params, seq, y):
    """The production kernel's flattened gradient of lstm_loss."""
    ws = kernel_forward(params, seq)
    y = np.asarray(y, dtype=float)
    grads = lstm._backward(ws, y[:, None, None], params.w_h[None], params.w_y[None])
    return np.concatenate([g.ravel() for g in grads])


def kernel_gates(ws):
    """Step-major (L, d) activations of a W = S = 1 workspace."""
    return {k: getattr(ws, k)[:, 0, 0] for k in ("F", "I", "O", "P", "C", "H")}


class TestLstmStep:
    def test_all_zero_parameters(self):
        params = lstm.LstmParams.zeros(n=3, d=4)
        x = np.array([[1.0, -2.0, 0.5]])
        assert lstm.lstm_predict(params, x) == 0.0
        gates = kernel_gates(kernel_forward(params, x))
        np.testing.assert_array_equal(gates["C"][0], np.zeros(4))
        np.testing.assert_array_equal(gates["H"][0], np.zeros(4))
        # gates sit at logistic(0) = 0.5 exactly
        np.testing.assert_array_equal(gates["F"][0], np.full(4, 0.5))
        np.testing.assert_array_equal(gates["I"][0], np.full(4, 0.5))
        np.testing.assert_array_equal(gates["O"][0], np.full(4, 0.5))
        np.testing.assert_array_equal(gates["P"][0], np.zeros(4))

    def test_output_bias_passthrough(self):
        params = lstm.LstmParams(
            w_x=np.zeros((8, 2)), w_h=np.zeros((8, 2)), b=np.zeros(8),
            w_y=np.zeros(2), b_y=0.7,
        )
        rng = np.random.default_rng(3)
        for _ in range(5):
            yhat = lstm.lstm_predict(params, rng.normal(size=(1, 2)))
            assert yhat == pytest.approx(0.7, abs=0)

    def test_scalar_hand_case(self):
        # d=1, n=1: candidate weight 1, input gate forced open, forget
        # gate forced shut, everything else zero, x=1 from rest.
        b = np.array([-30.0, 30.0, 0.0, 0.0])  # rows: f, i, o, c
        params = lstm.LstmParams(
            w_x=np.array([[0.0], [0.0], [0.0], [1.0]]),
            w_h=np.zeros((4, 1)), b=b, w_y=np.array([1.0]), b_y=0.0,
        )
        gates = kernel_gates(kernel_forward(params, [[1.0]]))
        c_expect = math.tanh(1.0) / (1.0 + math.exp(-30.0))  # ~ tanh(1) = 0.76159
        h_expect = 0.5 * math.tanh(c_expect)     # ~ 0.32101
        assert gates["C"][0, 0] == pytest.approx(c_expect, abs=1e-15)
        assert gates["H"][0, 0] == pytest.approx(h_expect, abs=1e-15)
        assert gates["C"][0, 0] == pytest.approx(0.76159, abs=5e-6)
        assert gates["H"][0, 0] == pytest.approx(0.32101, abs=5e-6)
        # w_y = 1, b_y = 0: the forecast is the hidden state
        assert lstm.lstm_predict(params, [[1.0]]) == pytest.approx(h_expect, abs=1e-15)

    def test_shape_errors(self):
        params = lstm.LstmParams.zeros(n=2, d=3)
        with pytest.raises(ShapeError):
            lstm.lstm_predict(params, np.array([[1.0]]))
        with pytest.raises(ShapeError):
            lstm.lstm_predict(params, np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            lstm.lstm_predict(params, np.zeros((2, 3, 2)))

    def test_non_finite_state_detected(self):
        # a NaN input turns the cell state non-finite, and so the forecast
        params = lstm.LstmParams.zeros(n=1, d=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                lstm.lstm_predict(params, np.array([[np.nan]]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gate_ranges(self, seed):
        # moderate weights and inputs keep |z| well below the level where
        # double precision rounds the sigmoids onto their bounds
        rng = np.random.default_rng(seed)
        params = random_params(rng, n=2, d=3, scale=0.5)
        seq = rng.normal(size=(4, 2)) * 1.5
        gates = kernel_gates(kernel_forward(params, seq))
        for g in (gates["F"], gates["I"], gates["O"]):
            assert np.all(g > 0.0) and np.all(g < 1.0)
        assert np.all(np.abs(gates["P"]) < 1.0)
        assert np.all(np.abs(gates["H"]) < 1.0)

    def test_gate_saturation_stays_on_closed_interval(self):
        # extreme inputs round onto the bounds but never beyond them
        params = lstm.LstmParams(
            w_x=np.full((4, 1), 100.0), w_h=np.zeros((4, 1)), b=np.zeros(4),
            w_y=np.ones(1), b_y=0.0,
        )
        gates = kernel_gates(kernel_forward(params, np.array([[5.0], [-5.0]])))
        for g in (gates["F"], gates["I"], gates["O"]):
            assert np.all(g >= 0.0) and np.all(g <= 1.0)
        assert np.all(np.abs(gates["P"]) <= 1.0)
        assert np.all(np.abs(gates["H"]) <= 1.0)


class TestLstmForward:
    def test_single_step_reduction(self):
        # a one-row sequence is one step from rest: the oracle's first step
        rng = np.random.default_rng(8)
        params = random_params(rng, n=3, d=2)
        x = rng.normal(size=(1, 3))
        expected, acts = oracle_forward(params, x)
        gates = kernel_gates(kernel_forward(params, x))
        assert lstm.lstm_predict(params, x) == pytest.approx(expected[0], rel=1e-14, abs=1e-16)
        np.testing.assert_allclose(gates["C"][0], acts["c"][0], rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(gates["H"][0], acts["h"][0], rtol=1e-14, atol=1e-16)

    def test_repeated_input_with_closed_forget_gate(self):
        # U_* = 0 and f ~ 0: each step sees the same gates and an almost
        # fully refreshed cell, so predictions line up across positions.
        d, n = 3, 2
        rng = np.random.default_rng(12)
        b = np.concatenate([np.full(d, -30.0), rng.normal(size=3 * d)])
        params = lstm.LstmParams(
            w_x=rng.normal(size=(4 * d, n)), w_h=np.zeros((4 * d, d)),
            b=b, w_y=rng.normal(size=d), b_y=0.3,
        )
        seq = np.tile(rng.normal(size=(1, n)), (6, 1))
        yhat = kernel_forward(params, seq).Yhat[:, 0, 0]
        assert np.max(np.abs(yhat - yhat[0])) < 1e-9

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, n=2, d=4)
        seq = rng.normal(size=(7, 2))
        assert lstm.lstm_predict(params, seq) == lstm.lstm_predict(params, seq)
        np.testing.assert_array_equal(
            kernel_forward(params, seq).Yhat, kernel_forward(params, seq).Yhat
        )

    def test_starts_from_zero_state(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, n=2, d=3)
        seq = rng.normal(size=(4, 2))
        gates = kernel_gates(kernel_forward(params, seq))
        # c_0 = f * 0 + i * p and h_0 = o * tanh(c_0), bit for bit
        np.testing.assert_array_equal(gates["C"][0], gates["I"][0] * gates["P"][0])
        np.testing.assert_array_equal(gates["H"][0], gates["O"][0] * np.tanh(gates["C"][0]))
        # nothing carries over from an earlier call
        alone = lstm.lstm_predict(params, seq)
        lstm.lstm_predict(params, rng.normal(size=(6, 2)) * 10.0)
        assert lstm.lstm_predict(params, seq) == alone

    def test_bad_feature_dimension(self):
        params = lstm.LstmParams.zeros(n=3, d=2)
        with pytest.raises(ShapeError):
            lstm.lstm_predict(params, np.zeros((5, 2)))
        with pytest.raises(ShapeError):
            lstm.lstm_predict(params, np.zeros((0, 3)))


class TestLstmLoss:
    def test_perfect_fit_is_zero(self):
        y = np.array([0.1, -0.2, 0.3])
        assert lstm.lstm_loss(y, y) == 0.0

    def test_hand_value(self):
        assert lstm.lstm_loss(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_paired_permutation_invariance(self):
        a = lstm.lstm_loss(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        b = lstm.lstm_loss(np.array([2.0, 1.0]), np.array([-1.0, 0.5]))
        assert a == b

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            lstm.lstm_loss(np.array([1.0]), np.array([1.0, 2.0]))


def finite_difference_gradient(params, seq, y, eps):
    def loss(theta):
        bumped = lstm.unflatten_params(theta, params.n, params.d)
        return lstm.lstm_loss(oracle_forward(bumped, seq)[0], y)

    theta = lstm.flatten_params(params)
    grad = np.empty_like(theta)
    for k in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[k] += eps
        up = loss(bumped)
        bumped[k] -= 2 * eps
        down = loss(bumped)
        grad[k] = (up - down) / (2 * eps)
    return grad


class TestLstmBackward:
    def test_zero_gradient_at_exact_fit(self):
        params = lstm.LstmParams.zeros(n=2, d=3)
        seq = np.random.default_rng(1).normal(size=(4, 2))
        assert np.all(kernel_gradient(params, seq, np.zeros(4)) == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(4):
            params = random_params(rng, n=2, d=3)
            seq = rng.uniform(-1, 1, size=(5, 2))
            y = rng.uniform(-1, 1, size=5)
            analytic = kernel_gradient(params, seq, y)
            numeric = finite_difference_gradient(params, seq, y, eps=1e-5)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_matches_oracle_bptt(self):
        rng = np.random.default_rng(78)
        for n, d, L in ((1, 1, 1), (2, 3, 5), (4, 6, 8)):
            params = random_params(rng, n=n, d=d)
            seq = rng.uniform(-1, 1, size=(L, n))
            y = rng.uniform(-1, 1, size=L)
            np.testing.assert_allclose(
                kernel_gradient(params, seq, y), oracle_backward(params, seq, y),
                rtol=1e-12, atol=1e-15,
            )

    def test_duplicated_pair_doubles_summed_gradient(self):
        # Gradients accumulate by summation across subsequences, so a
        # duplicated pair doubles the unclipped one-epoch step, up to
        # float32 rounding: each run rounds its update to half an ulp of
        # the parameters, and the doubled run's sum over the pair rounds
        # once more in each of the L steps and in their sum.
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(1, 1, 3, 2))
        Y = rng.uniform(0, 1, size=(1, 1, 3))
        cfg = lstm.TrainConfig(
            hidden_dim=2, epochs=1, sequence_length=3, clip_norm=1e9, seed=123
        )
        solo = lstm.train_windows(X, Y, cfg, [123])[0]
        doubled = lstm.train_windows(
            np.tile(X, (1, 2, 1, 1)), np.tile(Y, (1, 2, 1)), cfg, [123]
        )[0]
        init = lstm.flatten_params(_init_from_seed(cfg, n=2, seed=123))
        solo_step = init - lstm.flatten_params(solo)
        doubled_step = init - lstm.flatten_params(doubled)
        assert np.abs(doubled_step).max() > 1e-3
        L = cfg.sequence_length
        tolerance = EPS32 / 2 * (
            np.abs(lstm.flatten_params(doubled)) + 2.0 * np.abs(lstm.flatten_params(solo))
            + 2.0 * (L + 1) * np.abs(doubled_step).max()
        )
        assert np.all(np.abs(doubled_step - 2.0 * solo_step) <= tolerance)

    def test_target_shape_mismatch(self):
        cfg = lstm.TrainConfig(hidden_dim=2, sequence_length=3)
        with pytest.raises(ShapeError):
            lstm.lstm_train(np.zeros((6, 2)), np.zeros(7), cfg)
        with pytest.raises(ShapeError):
            lstm.train_windows(np.zeros((1, 4, 3, 2)), np.zeros((1, 4, 4)), cfg, [1])


class TestKernelBatchIndependence:
    """A window's kernel outputs do not depend on the other windows in
    its batch: every buffer and every matmul operand has the same layout
    per window whatever W is."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 5])
    def test_window_of_four_equals_window_alone(self, dtype, n):
        rng = np.random.default_rng(95)
        W, S, L, d = 4, 26, 5, 8
        X = rng.uniform(0, 1, size=(W, S, L, n)).astype(dtype)
        YL = rng.uniform(0, 1, size=(L, W, S)).astype(dtype)
        dead = rng.uniform(size=(W, S)) < 0.2
        params = [
            rng.uniform(-0.5, 0.5, size=shape).astype(dtype)
            for shape in ((W, 4 * d, n), (W, 4 * d, d), (W, 4 * d), (W, d), (W,))
        ]

        def run(X, YL, dead, params):
            ws = lstm._Workspace(X, d)
            yhat = lstm._forward(ws, *params).copy()
            grads = [g.copy() for g in lstm._backward(ws, YL, params[1], params[3], dead)]
            return yhat, grads

        yhat, grads = run(X, YL, dead, params)
        assert yhat.dtype == dtype and all(g.dtype == dtype for g in grads)
        for w in range(W):
            one = slice(w, w + 1)
            yhat_w, grads_w = run(
                np.ascontiguousarray(X[one]), np.ascontiguousarray(YL[:, one]),
                dead[one], [np.ascontiguousarray(p[one]) for p in params],
            )
            np.testing.assert_array_equal(yhat_w[:, 0], yhat[:, w])
            for g_w, g in zip(grads_w, grads):
                np.testing.assert_array_equal(g_w[0], g[w])


class TestWorkspaceDtype:
    def test_training_is_float32_and_check_and_prediction_are_float64(self, monkeypatch):
        seen = []

        class Recording(lstm._Workspace):
            def __init__(self, X, d):
                super().__init__(X, d)
                seen.append(self)

        def dtypes():
            found = {a.dtype for ws in seen for a in vars(ws).values() if isinstance(a, np.ndarray)}
            assert all(hasattr(ws, k) for ws in seen for k in ("F", "I", "O", "P", "C", "H"))
            seen.clear()
            return found

        monkeypatch.setattr(lstm, "_Workspace", Recording)
        rng = np.random.default_rng(96)
        cfg = lstm.TrainConfig(hidden_dim=2, epochs=2, sequence_length=3)
        fitted = lstm.train_windows(
            rng.uniform(0, 1, size=(2, 4, 3, 1)), rng.uniform(0, 1, size=(2, 4, 3)), cfg, [1, 2]
        )
        assert dtypes() == {np.dtype(np.float32)}
        assert lstm.gradient_check(n_instances=1, seed=3).passed
        assert dtypes() == {np.dtype(np.float64)}
        assert np.isfinite(lstm.predict_windows(fitted, rng.uniform(0, 1, size=(2, 3, 1)))).all()
        assert dtypes() == {np.dtype(np.float64)}


class TestGradientCheck:
    def test_passes_on_honest_gradients(self):
        report = lstm.gradient_check(n_instances=6, seed=11)
        assert report.passed
        assert report.max_rel_err < 1e-4
        assert len(report.instances) == 6
        for n, d, L, err in report.instances:
            assert 1 <= n <= 4 and 1 <= d <= 6 and 1 <= L <= 8

    def test_corruption_is_caught(self, monkeypatch):
        backward = lstm._backward

        def faulty(*args):
            g_wx, *rest = backward(*args)
            return (g_wx + 1e-3, *rest)

        monkeypatch.setattr(lstm, "_backward", faulty)
        report = lstm.gradient_check(n_instances=2, seed=11)
        assert not report.passed

    def test_checks_the_training_backward_pass(self, monkeypatch):
        # a fault in the kernel's backward pass moves what train_windows
        # returns and fails the check: both run the same _backward
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(2, 3, 4, 2))
        Y = rng.uniform(0, 1, size=(2, 3, 4))
        cfg = lstm.TrainConfig(hidden_dim=2, epochs=2, sequence_length=4, clip_norm=1e9)
        honest = lstm.train_windows(X, Y, cfg, [1, 2])
        backward = lstm._backward

        def faulty(*args):
            g_wx, g_wh, g_b, g_wy, g_by = backward(*args)
            return g_wx, g_wh, 1.01 * g_b, g_wy, g_by

        monkeypatch.setattr(lstm, "_backward", faulty)
        broken = lstm.train_windows(X, Y, cfg, [1, 2])
        assert not np.array_equal(lstm.flatten_params(honest[0]), lstm.flatten_params(broken[0]))
        assert not lstm.gradient_check(n_instances=2, seed=11).passed


def manual_one_epoch(X, y, cfg):
    """Independent spelling of one training epoch in float64: init,
    per-sequence BPTT, gradients summed across subsequences, global-norm
    clip, one descent step.  It starts from the float32-rounded init,
    inputs and targets that train_windows computes on.  Returns the
    parameter vector after the step and the step."""
    n = X.shape[1]
    X, y = as_float32(X), as_float32(y)
    params = _init_from_seed(cfg, n, cfg.seed)
    L = cfg.sequence_length
    S = X.shape[0] - L + 1
    grads = []
    for s in range(S):
        seq = X[s : s + L]
        targets = y[s : s + L]
        grads.append(oracle_backward(params, seq, targets))
    g = np.sum(grads, axis=0)
    norm = float(np.sqrt(g @ g))
    scale = min(1.0, cfg.clip_norm / norm) if norm > 0 else 1.0
    step = cfg.learning_rate * scale * g
    return lstm.flatten_params(params) - step, step


def assert_float32_step_matches(trained, X, y, cfg):
    """One float32 training epoch against :func:`manual_one_epoch`.

    Both start from the same float32 values, so they differ only by
    float32 rounding.  The update rounds to float32: half an ulp of each
    parameter.  The step carries the rounding of its float32 gradient, at
    most eps/2 relative per operation on the longest path to a gradient
    entry: L forward and L backward steps of fewer than
    2 * (d + n + 1) + 8 * d + 20 operations each (the matmul sums over
    d + n + 1 and 4d terms and the gate algebra), then one sum over the
    S * L per-step terms.  The clip rescales the whole step, so that part
    is bounded by the largest step entry.
    """
    theta, step = manual_one_epoch(X, y, cfg)
    n = X.shape[1]
    d, L = cfg.hidden_dim, cfg.sequence_length
    S = X.shape[0] - L + 1
    ops = 2 * L * (2 * (d + n + 1) + 8 * d + 20) + S * L
    tolerance = EPS32 / 2 * (np.abs(theta) + ops * np.abs(step).max())
    assert np.abs(step).max() > 1e-3
    assert np.all(np.abs(lstm.flatten_params(trained) - theta) <= tolerance)


class TestTraining:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, size=(12, 2))
        y = rng.uniform(0, 1, size=12)
        cfg = lstm.TrainConfig(hidden_dim=3, epochs=5, seed=99)
        a = lstm.lstm_train(X, y, cfg)
        b = lstm.lstm_train(X, y, cfg)
        np.testing.assert_array_equal(lstm.flatten_params(a), lstm.flatten_params(b))
        c = lstm.lstm_train(X, y, lstm.TrainConfig(hidden_dim=3, epochs=5, seed=100))
        assert not np.array_equal(lstm.flatten_params(a), lstm.flatten_params(c))

    def test_one_epoch_matches_manual_route(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 1, size=(11, 2))
        y = rng.uniform(0, 1, size=11)
        cfg = lstm.TrainConfig(hidden_dim=3, epochs=1, seed=77)
        assert_float32_step_matches(lstm.lstm_train(X, y, cfg), X, y, cfg)

    def test_one_epoch_matches_manual_route_with_clipping_active(self):
        # larger targets force a gradient norm above clip_norm
        rng = np.random.default_rng(32)
        X = rng.uniform(0, 1, size=(10, 1))
        y = rng.uniform(5, 9, size=10)
        cfg = lstm.TrainConfig(hidden_dim=2, epochs=1, clip_norm=0.5, seed=7)
        _, step = manual_one_epoch(X, y, cfg)
        assert np.sqrt(step @ step) == pytest.approx(cfg.learning_rate * cfg.clip_norm)
        assert_float32_step_matches(lstm.lstm_train(X, y, cfg), X, y, cfg)

    def test_batched_windows_match_solo_runs(self):
        rng = np.random.default_rng(41)
        W, S, L, n = 3, 6, 4, 2
        X = rng.uniform(0, 1, size=(W, S, L, n))
        Y = rng.uniform(0, 1, size=(W, S, L))
        cfg = lstm.TrainConfig(hidden_dim=3, epochs=20, sequence_length=L, seed=0)
        seeds = [5, 6, 7]
        batched = lstm.train_windows(X, Y, cfg, seeds)
        for w in range(W):
            solo = lstm.train_windows(X[w : w + 1], Y[w : w + 1], cfg, seeds[w : w + 1])[0]
            np.testing.assert_array_equal(
                lstm.flatten_params(batched[w]), lstm.flatten_params(solo)
            )

    @pytest.mark.parametrize("L", [3, 9])
    def test_chunked_batch_matches_one_window_at_a_time(self, L):
        # one window more than a chunk, so the last chunk holds one window;
        # L = 9 sums more steps than numpy's pairwise block of eight
        rng = np.random.default_rng(42)
        W, S, n = lstm.TRAIN_CHUNK_WINDOWS + 1, 3, 2
        X = rng.uniform(0, 1, size=(W, S, L, n))
        Y = rng.uniform(0, 1, size=(W, S, L))
        mask = rng.uniform(size=(W, S)) < 0.7
        cfg = lstm.TrainConfig(hidden_dim=2, epochs=3, sequence_length=L)
        seeds = list(range(100, 100 + W))
        batched = lstm.train_windows(X, Y, cfg, seeds, mask=mask)
        for w in range(W):
            solo = lstm.train_windows(
                X[w : w + 1], Y[w : w + 1], cfg, seeds[w : w + 1], mask=mask[w : w + 1]
            )[0]
            if solo is None:
                assert batched[w] is None and not mask[w].any()
            else:
                np.testing.assert_array_equal(
                    lstm.flatten_params(batched[w]), lstm.flatten_params(solo)
                )


    def test_overfits_constant_target(self):
        rng = np.random.default_rng(51)
        X = rng.uniform(0, 1, size=(10, 1))
        y = np.full(10, 0.5)
        cfg = lstm.TrainConfig(hidden_dim=2, seed=3)
        params = lstm.lstm_train(X, y, cfg)
        L = cfg.sequence_length
        losses = [
            lstm.lstm_loss(oracle_forward(params, X[s : s + L])[0], y[s : s + L])
            for s in range(10 - L + 1)
        ]
        assert np.mean(losses) < 1e-3

    def test_small_step_loss_is_monotone(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(0, 1, size=(10, 2))
        y = rng.uniform(0, 1, size=10)
        L = 5

        def window_loss(params):
            subs = [
                lstm.lstm_loss(oracle_forward(params, X[s : s + L])[0], y[s : s + L])
                for s in range(10 - L + 1)
            ]
            return float(np.mean(subs))

        losses = []
        for epochs in range(1, 25):
            cfg = lstm.TrainConfig(hidden_dim=2, learning_rate=1e-3, epochs=epochs, seed=13)
            losses.append(window_loss(lstm.lstm_train(X, y, cfg)))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-14)

    def test_window_too_short(self):
        cfg = lstm.TrainConfig(hidden_dim=2)
        with pytest.raises(FitError):
            lstm.lstm_train(np.zeros((5, 1)), np.zeros(5), cfg)

    def test_non_finite_window_rejected(self):
        cfg = lstm.TrainConfig(hidden_dim=2)
        X = np.zeros((8, 1))
        X[3, 0] = np.nan
        with pytest.raises(FitError):
            lstm.lstm_train(X, np.zeros(8), cfg)

    def test_shape_validation(self):
        cfg = lstm.TrainConfig(hidden_dim=2, sequence_length=3)
        X = np.zeros((2, 4, 3, 1))
        Y = np.zeros((2, 4, 3))
        with pytest.raises(ShapeError):
            lstm.train_windows(X, np.zeros((2, 4, 2)), cfg, [1, 2])
        with pytest.raises(ShapeError):
            lstm.train_windows(X, Y, cfg, [1])
        with pytest.raises(ShapeError):
            lstm.train_windows(np.zeros((2, 4, 4, 1)), np.zeros((2, 4, 4)), cfg, [1, 2])

    def test_empty_window_axis(self):
        cfg = lstm.TrainConfig(hidden_dim=2, sequence_length=3)
        assert lstm.train_windows(np.zeros((0, 4, 3, 1)), np.zeros((0, 4, 3)), cfg, []) == []

    def test_diverged_window_is_masked_and_siblings_are_untouched(self):
        # overflowing targets make one window's gradient non-finite; that
        # window comes back None and the others train bit for bit as they
        # do next to a finite window
        rng = np.random.default_rng(81)
        W, S, L, n = 4, 6, 5, 2
        X = rng.uniform(0, 1, size=(W, S, L, n))
        Y = rng.uniform(0, 1, size=(W, S, L))
        cfg = lstm.TrainConfig(hidden_dim=3, epochs=10, sequence_length=L)
        seeds = [3, 4, 5, 6]
        clean = lstm.train_windows(X, Y, cfg, seeds)
        Y[2] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"):
            masked = lstm.train_windows(X, Y, cfg, seeds)
        assert masked[2] is None
        for w in (0, 1, 3):
            assert np.array_equal(
                lstm.flatten_params(masked[w]), lstm.flatten_params(clean[w])
            )

    def test_overflowing_gradient_norm_is_masked(self):
        # one huge target leaves the gradient finite but overflows its
        # norm, so the clipped step would be zero for ever; the window is
        # masked instead of coming back untrained
        rng = np.random.default_rng(82)
        X = rng.uniform(0, 1, size=(2, 6, 5, 1))
        Y = rng.uniform(0, 1, size=(2, 6, 5))
        Y[0, 1, 3] = 1.7e308
        cfg = lstm.TrainConfig(hidden_dim=2, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            fitted = lstm.train_windows(X, Y, cfg, [1, 2])
        assert fitted[0] is None
        assert isinstance(fitted[1], lstm.LstmParams)

    def test_finite_gradient_with_overflowing_float32_norm_trains(self):
        # targets of 1e20 give a gradient that float32 holds but whose
        # squared norm it cannot: the clip norm is accumulated in float64,
        # so the window takes clipped steps instead of being masked
        rng = np.random.default_rng(83)
        X = rng.uniform(0, 1, size=(2, 6, 5, 1))
        Y = rng.uniform(0, 1, size=(2, 6, 5))
        Y[0] = 1e20
        cfg = lstm.TrainConfig(hidden_dim=2, epochs=1, seed=4)
        ws = lstm._Workspace(X[:1].astype(np.float32), cfg.hidden_dim)
        init = _init_from_seed(cfg, n=1, seed=4)
        lstm._forward(ws, *(a.astype(np.float32) for a in lstm._batched(init)))
        grads = lstm._backward(
            ws, np.ascontiguousarray(Y[:1].transpose(2, 0, 1), dtype=np.float32),
            init.w_h[None].astype(np.float32), init.w_y[None].astype(np.float32),
        )
        assert all(np.isfinite(g).all() for g in grads)
        norm = math.sqrt(sum(np.square(g, dtype=np.float64).sum() for g in grads))
        assert norm > math.sqrt(np.finfo(np.float32).max)
        fitted = lstm.train_windows(X, Y, cfg, [4, 5])
        assert isinstance(fitted[0], lstm.LstmParams)
        moved = lstm.flatten_params(fitted[0]) - lstm.flatten_params(init)
        # one step clipped to lr * clip_norm, up to float32 rounding
        assert np.sqrt(moved @ moved) == pytest.approx(
            cfg.learning_rate * cfg.clip_norm, rel=1e-4
        )
        assert isinstance(fitted[1], lstm.LstmParams)

    def test_divergence_raises_numeric_error(self):
        # pathologically large init saturates the gates and overflows the
        # backward pass into NaN; the trainer must refuse to return params
        rng = np.random.default_rng(71)
        X = rng.uniform(0.5, 1.0, size=(10, 1))
        y = rng.uniform(0, 1, size=10)
        cfg = lstm.TrainConfig(hidden_dim=4, init_scale=1e156, epochs=3, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                lstm.lstm_train(X, y, cfg)


class TestSubsequenceMask:
    def data(self, seed=43, W=3, S=6, L=4, n=2):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(W, S, L, n))
        Y = rng.uniform(0, 1, size=(W, S, L))
        cfg = lstm.TrainConfig(hidden_dim=3, epochs=15, sequence_length=L)
        return X, Y, cfg, [21, 22, 23][:W]

    @staticmethod
    def vectors(fitted):
        return [lstm.flatten_params(p) for p in fitted]

    def test_masked_subsequences_cannot_reach_the_parameters(self):
        X, Y, cfg, seeds = self.data()
        mask = np.ones(X.shape[:2], dtype=bool)
        mask[0, :2] = False
        mask[2, ::2] = False
        before = lstm.train_windows(X, Y, cfg, seeds, mask=mask)
        rng = np.random.default_rng(44)
        X[~mask] = rng.uniform(-50, 50, size=X[~mask].shape)
        Y[~mask] = rng.uniform(-50, 50, size=Y[~mask].shape)
        after = lstm.train_windows(X, Y, cfg, seeds, mask=mask)
        for a, b in zip(self.vectors(before), self.vectors(after)):
            np.testing.assert_array_equal(a, b)
        # the untouched window trains as with no mask at all
        np.testing.assert_array_equal(
            self.vectors(after)[1], self.vectors(lstm.train_windows(X, Y, cfg, seeds))[1]
        )

    def test_all_true_mask_is_no_mask(self):
        X, Y, cfg, seeds = self.data()
        unmasked = lstm.train_windows(X, Y, cfg, seeds)
        masked = lstm.train_windows(X, Y, cfg, seeds, mask=np.ones(X.shape[:2], dtype=bool))
        for a, b in zip(self.vectors(unmasked), self.vectors(masked)):
            np.testing.assert_array_equal(a, b)

    def test_window_without_live_subsequence_is_none(self):
        X, Y, cfg, seeds = self.data()
        mask = np.ones(X.shape[:2], dtype=bool)
        mask[1] = False
        fitted = lstm.train_windows(X, Y, cfg, seeds, mask=mask)
        assert fitted[1] is None
        clean = lstm.train_windows(X, Y, cfg, seeds)
        for w in (0, 2):
            np.testing.assert_array_equal(
                lstm.flatten_params(fitted[w]), lstm.flatten_params(clean[w])
            )

    def test_mask_shape_is_checked(self):
        X, Y, cfg, seeds = self.data()
        with pytest.raises(ShapeError):
            lstm.train_windows(X, Y, cfg, seeds, mask=np.ones((3, 5), dtype=bool))

class TestLstmPredict:
    def test_equals_last_forward_output(self):
        rng = np.random.default_rng(81)
        params = random_params(rng, n=2, d=3)
        seq = rng.normal(size=(5, 2))
        yhat, _ = oracle_forward(params, seq)
        assert lstm.lstm_predict(params, seq) == pytest.approx(yhat[-1], rel=1e-14, abs=1e-16)
        assert lstm.lstm_predict(params, seq) == kernel_forward(params, seq).Yhat[-1, 0, 0]

    def test_bias_only_model(self):
        params = lstm.LstmParams(
            w_x=np.zeros((4, 1)), w_h=np.zeros((4, 1)), b=np.zeros(4),
            w_y=np.zeros(1), b_y=-0.25,
        )
        seq = np.random.default_rng(2).normal(size=(5, 1))
        assert lstm.lstm_predict(params, seq) == pytest.approx(-0.25, abs=0)

    def test_single_step_sequence(self):
        rng = np.random.default_rng(91)
        params = random_params(rng, n=3, d=2)
        x = rng.normal(size=3)
        # the first step of a longer sequence is the one-row forecast
        longer = np.vstack([x, rng.normal(size=(4, 3))])
        first = kernel_forward(params, longer).Yhat[0, 0, 0]
        assert lstm.lstm_predict(params, x[None, :]) == pytest.approx(first, rel=1e-14, abs=1e-16)
        expected, _ = oracle_forward(params, x[None, :])
        assert lstm.lstm_predict(params, x[None, :]) == pytest.approx(
            expected[0], rel=1e-14, abs=1e-16
        )


class TestPredictWindows:
    def test_matches_lstm_predict_bitwise(self):
        rng = np.random.default_rng(92)
        fitted = [random_params(rng, n=2, d=3) for _ in range(5)]
        fitted[3] = None
        sequences = rng.uniform(-1, 1, size=(5, 4, 2))
        forecasts = lstm.predict_windows(fitted, sequences)
        assert forecasts.shape == (5,)
        for params, sequence, forecast in zip(fitted, sequences, forecasts):
            if params is None:
                assert math.isnan(forecast)
            else:
                assert forecast == lstm.lstm_predict(params, sequence)

    def test_non_finite_output_is_nan(self):
        rng = np.random.default_rng(93)
        fitted = [random_params(rng, n=1, d=2) for _ in range(2)]
        sequences = rng.uniform(-1, 1, size=(2, 3, 1))
        sequences[0, 1, 0] = math.nan
        forecasts = lstm.predict_windows(fitted, sequences)
        assert math.isnan(forecasts[0])
        assert forecasts[1] == lstm.lstm_predict(fitted[1], sequences[1])
        with pytest.raises(NumericError):
            lstm.lstm_predict(fitted[0], sequences[0])

    def test_no_fitted_window(self):
        assert np.isnan(lstm.predict_windows([None, None], np.zeros((2, 3, 1)))).all()

    def test_sequence_count_is_checked(self):
        params = random_params(np.random.default_rng(94), n=1, d=2)
        with pytest.raises(ShapeError):
            lstm.predict_windows([params, params], np.zeros((3, 4, 1)))


class TestParamPlumbing:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(14)
        params = random_params(rng, n=3, d=4)
        rebuilt = lstm.unflatten_params(lstm.flatten_params(params), 3, 4)
        np.testing.assert_array_equal(rebuilt.w_x, params.w_x)
        np.testing.assert_array_equal(rebuilt.w_h, params.w_h)
        np.testing.assert_array_equal(rebuilt.b, params.b)
        np.testing.assert_array_equal(rebuilt.w_y, params.w_y)
        assert rebuilt.b_y == params.b_y

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            lstm.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            lstm.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            lstm.TrainConfig(sequence_length=0)
        with pytest.raises(ConfigError):
            lstm.TrainConfig(clip_norm=-1.0)
        with pytest.raises(ConfigError):
            lstm.TrainConfig(seed=-5)
        with pytest.raises(ConfigError):
            lstm.TrainConfig(hidden_dim=0)

    def test_params_validation(self):
        with pytest.raises(ShapeError):
            lstm.LstmParams(w_x=np.zeros((7, 2)), w_h=np.zeros((7, 1)), b=np.zeros(7),
                            w_y=np.zeros(1), b_y=0.0)
        with pytest.raises(NumericError):
            lstm.LstmParams(w_x=np.full((4, 1), np.nan), w_h=np.zeros((4, 1)),
                            b=np.zeros(4), w_y=np.zeros(1), b_y=0.0)
