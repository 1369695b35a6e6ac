"""The recurrent cell: one forward step, the gradient check, a tiny fit.

The cell is written from scratch (no autograd), so the analytic
backward pass is the part most worth distrusting. The gradient check
compares it against central finite differences on random instances,
through the same kernel that training runs.
"""

import numpy as np
from scipy.special import expit

from minutecast.lstm import LstmParams, TrainConfig, gradient_check, lstm_predict, lstm_train


def main():
    # one step by hand on a 2-feature input, hidden width 3
    rng = np.random.default_rng(5)
    n, d = 2, 3
    params = LstmParams(
        w_x=0.3 * rng.standard_normal((4 * d, n)),
        w_h=0.3 * rng.standard_normal((4 * d, d)),
        b=np.zeros(4 * d),
        w_y=0.3 * rng.standard_normal(d),
        b_y=0.0,
    )
    x = np.array([0.4, -0.1])
    # the textbook equations, spelled out; the state starts at zero, so the
    # recurrent term and the forget gate drop out of the first step
    z = params.w_x @ x + params.b
    i, o = expit(z[d : 2 * d]), expit(z[2 * d : 3 * d])
    c = i * np.tanh(z[3 * d :])
    h = o * np.tanh(c)
    by_hand = float(params.w_y @ h + params.b_y)
    yhat = lstm_predict(params, x[None, :])  # a one-row sequence is one step
    print("single step from zero state on x = [0.4, -0.1]:")
    print(f"  cell state  c = {np.round(c, 4)}")
    print(f"  hidden      h = {np.round(h, 4)}")
    print(f"  prediction  yhat = {yhat:.4f} (by hand {by_hand:.4f})\n")

    report = gradient_check(n_instances=6, seed=99)
    print(f"gradient check on {len(report.instances)} random instances "
          f"(epsilon {report.epsilon:g}):")
    for n, d, length, err in report.instances:
        print(f"  n={n} d={d} L={length}  max rel err {err:.2e}")
    print(f"  worst {report.max_rel_err:.2e}  -> {'PASS' if report.passed else 'FAIL'}\n")

    # fit a short deterministic pattern; the interesting part is not the
    # accuracy but that training is fully reproducible from the seed
    t = np.arange(40)
    x = 0.5 + 0.4 * np.sin(t / 4.0)
    y = np.roll(x, -1)  # next value
    X = x.reshape(-1, 1)
    config = TrainConfig(hidden_dim=6, epochs=150, seed=2)
    fitted = lstm_train(X, y, config)
    again = lstm_train(X, y, config)
    assert np.array_equal(fitted.w_x, again.w_x)
    assert np.array_equal(fitted.w_h, again.w_h)
    assert np.array_equal(fitted.b, again.b)
    assert np.array_equal(fitted.w_y, again.w_y) and fitted.b_y == again.b_y

    window = X[-config.sequence_length:]
    pred = lstm_predict(fitted, window)
    print(f"one-step-ahead on the sine tail: predicted {pred:.4f}, "
          f"truth {y[-1]:.4f}")
    print("retraining with the same seed reproduced the parameters exactly")


if __name__ == "__main__":
    main()
