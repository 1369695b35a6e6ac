"""A from-scratch LSTM regressor for one-step-ahead return forecasting.

Single layer, trained per rolling window with full-batch gradient descent
and backpropagation through time; no autodiff framework is involved.
Training runs in float32; the gradient check and prediction run in
float64 through the same kernel, which takes its dtype from its inputs.
Fitted parameters come back as float64 arrays holding float32 values.

Parameters are stored packed: the four gates share one input matrix, one
recurrent matrix and one bias vector, stacked along the row axis in the
order forget, input, output, candidate.

There is one BPTT kernel, :func:`_forward` and :func:`_backward`, over a
batch of W windows with S subsequences of L steps each.  Training
(:func:`train_windows`, and :func:`lstm_train` for one window),
prediction (:func:`predict_windows`, and :func:`lstm_predict` for one
window) and the finite-difference check (:func:`gradient_check`) all run
through it, prediction with S = 1 and the check with W = S = 1, so the
gradient that is checked is the gradient that trains.
The sigmoid gates are ``0.5 * tanh(0.5 * z) + 0.5``, which cannot
overflow: the halving of z is folded into the gate rows of the weights,
which is exact, so one tanh covers every gate of a step.  A window that
diverges is masked inside its batch.

Windows of different lengths share one batch: every window carries the
same S subsequences, and a boolean mask marks the ones that count.  A
masked subsequence's output gradient is set to exact zeros, so it adds
exact zeros to every parameter gradient and whatever its inputs hold
cannot reach the parameters.  :func:`train_windows` runs its windows in
chunks of TRAIN_CHUNK_WINDOWS; no arithmetic of one window depends on
the others in its batch, so a window's parameters are bit for bit the
same in any chunk, alone included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, FitError, NumericError, ShapeError

# Windows per kernel batch in train_windows.  Smaller batches keep the
# per-step slabs in cache; larger ones pay the per-step Python overhead
# fewer times.  Picked by timing full 340-window model-days in float32.
TRAIN_CHUNK_WINDOWS = 128

__all__ = [
    "GradCheckReport",
    "LstmParams",
    "TrainConfig",
    "flatten_params",
    "gradient_check",
    "lstm_loss",
    "lstm_predict",
    "lstm_train",
    "predict_windows",
    "train_windows",
    "unflatten_params",
]


@dataclass(frozen=True)
class LstmParams:
    """Packed parameter set of the cell.

    w_x stacks the input weights of the four gates into a (4d, n) block,
    w_h the recurrent weights into (4d, d), b the biases into (4d,); row
    order is forget, input, output, candidate, so gate g of hidden unit k
    is row g * d + k of every block.  w_y and b_y map the hidden state to
    the scalar prediction.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    w_y: np.ndarray
    b_y: float

    def __post_init__(self):
        w_x = np.asarray(self.w_x, dtype=float)
        w_h = np.asarray(self.w_h, dtype=float)
        b = np.asarray(self.b, dtype=float)
        w_y = np.asarray(self.w_y, dtype=float)
        if w_x.ndim != 2 or w_x.shape[0] % 4 != 0 or w_x.shape[0] == 0:
            raise ShapeError(f"w_x must be (4d, n), got {w_x.shape}")
        d = w_x.shape[0] // 4
        if w_h.shape != (4 * d, d):
            raise ShapeError(f"w_h must be {(4 * d, d)}, got {w_h.shape}")
        if b.shape != (4 * d,):
            raise ShapeError(f"b must be ({4 * d},), got {b.shape}")
        if w_y.shape != (d,):
            raise ShapeError(f"w_y must be ({d},), got {w_y.shape}")
        for name, a in (("w_x", w_x), ("w_h", w_h), ("b", b), ("w_y", w_y)):
            if not np.isfinite(a).all():
                raise NumericError(f"non-finite entries in {name}")
        if not math.isfinite(self.b_y):
            raise NumericError("non-finite b_y")
        object.__setattr__(self, "w_x", w_x)
        object.__setattr__(self, "w_h", w_h)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w_y", w_y)
        object.__setattr__(self, "b_y", float(self.b_y))

    @property
    def n(self) -> int:
        """Input dimension."""
        return self.w_x.shape[1]

    @property
    def d(self) -> int:
        """Hidden dimension."""
        return self.w_x.shape[0] // 4

    @classmethod
    def zeros(cls, n: int, d: int) -> "LstmParams":
        return cls(
            w_x=np.zeros((4 * d, n)),
            w_h=np.zeros((4 * d, d)),
            b=np.zeros(4 * d),
            w_y=np.zeros(d),
            b_y=0.0,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the per-window training run.

    The defaults are declared, not tuned: they are what every reported
    run uses unless a config file overrides them.
    """

    hidden_dim: int = 8
    learning_rate: float = 0.05
    epochs: int = 200
    sequence_length: int = 5
    clip_norm: float = 1.0
    init_scale: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not (self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.sequence_length < 1:
            raise ConfigError(f"sequence_length must be >= 1, got {self.sequence_length}")
        if not (self.clip_norm > 0):
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if not (self.init_scale > 0):
            raise ConfigError(f"init_scale must be positive, got {self.init_scale}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


def lstm_loss(yhat, y) -> float:
    """Mean squared error over the paired sequence positions."""
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if yhat.shape != y.shape or yhat.ndim != 1:
        raise ShapeError(f"prediction/target shape mismatch: {yhat.shape} vs {y.shape}")
    diff = yhat - y
    return float(diff @ diff / diff.shape[0])


def flatten_params(params: LstmParams) -> np.ndarray:
    """Concatenate all tensors into one vector (w_x, w_h, b, w_y, b_y order)."""
    return np.concatenate(
        [params.w_x.ravel(), params.w_h.ravel(), params.b, params.w_y, [params.b_y]]
    )


def unflatten_params(vec, n: int, d: int) -> LstmParams:
    """Inverse of :func:`flatten_params` for given dimensions."""
    vec = np.asarray(vec, dtype=float)
    sizes = [4 * d * n, 4 * d * d, 4 * d, d, 1]
    if vec.shape != (sum(sizes),):
        raise ShapeError(f"expected vector of length {sum(sizes)}, got {vec.shape}")
    parts = np.split(vec, np.cumsum(sizes)[:-1])
    return LstmParams(
        w_x=parts[0].reshape(4 * d, n),
        w_h=parts[1].reshape(4 * d, d),
        b=parts[2],
        w_y=parts[3],
        b_y=float(parts[4][0]),
    )


def _init_window(rng: np.random.Generator, n: int, d: int, scale: float):
    """Seeded uniform init; draw order is part of the determinism contract."""
    w_x = rng.uniform(-scale, scale, size=(4 * d, n))
    w_h = rng.uniform(-scale, scale, size=(4 * d, d))
    b = rng.uniform(-scale, scale, size=4 * d)
    w_y = rng.uniform(-scale, scale, size=d)
    b_y = float(rng.uniform(-scale, scale))
    return w_x, w_h, b, w_y, b_y


class _Workspace:
    """Inputs and buffers of one batched BPTT over X of shape (W, S, L, n).

    Every buffer takes X's dtype: float32 when training, float64 for the
    gradient check and for prediction.  Slabs are step-major and keep the
    S subsequences on the last axis, so step j of window w is a (rows, S)
    block and a gate, the cell or the hidden state of one step is a
    contiguous run of d * S values per window.  A[j] stacks the hidden
    state entering step j (d rows, zero at step 0), the inputs of step j
    (n rows) and a row of ones, so that one matmul with the packed weights
    Wz = [w_h | w_x | b] gives all pre-activations of step j; A[j + 1]
    holds the hidden state that step j leaves.  G[j] holds the forget,
    input and output gates and the candidate, in parameter row order, and
    Cs[j] the cell state.
    F, I, O, P, C and H are (L, W, S, d) views, for inspection.
    All buffers live across epochs so the hot loop never allocates.  This
    loop dominates a full-sample run, hence the fuss.
    """

    def __init__(self, X: np.ndarray, d: int):
        W, S, L, n = X.shape
        H4 = 4 * d
        K = d + n + 1
        dtype = X.dtype
        self.shape = (W, S, L, n, d)
        self.A = np.zeros((L + 1, W, K, S), dtype)
        self.A[:L, :, d : d + n] = X.transpose(2, 0, 3, 1)
        self.A[:L, :, d + n] = 1.0
        # A[:L] with rows and columns swapped, the layout the weight
        # gradient's matmul runs fastest on; _backward refreshes its h columns
        self.AT = np.ascontiguousarray(self.A[:L].transpose(0, 1, 3, 2))
        self.Wz = np.empty((W, H4, K), dtype)
        # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5: Wz holds the gate rows
        # halved, and tanh's output of them is halved and shifted by 0.5
        self.w_half = np.ones((H4, K), dtype)
        self.w_half[: 3 * d] = 0.5
        self.g_half = np.ones((H4, S), dtype)
        self.g_half[: 3 * d] = 0.5
        self.g_shift = np.zeros((H4, S), dtype)
        self.g_shift[: 3 * d] = 0.5
        self.G = np.empty((L, W, H4, S), dtype)
        self.Cs = np.empty((L, W, d, S), dtype)
        self.TC = np.empty((L, W, d, S), dtype)
        self.Yhat = np.empty((L, W, S), dtype)
        self.dY = np.empty((L, W, S), dtype)
        self.DH = np.empty((L, W, d, S), dtype)
        self.DZ = np.empty((L, W, H4, S), dtype)
        self.dG = np.empty((W, 3 * d, S), dtype)
        self.dc = np.empty((W, d, S), dtype)
        self.t = np.empty((W, d, S), dtype)
        self.dh_carry = np.empty((W, d, S), dtype)
        self.dc_carry = np.empty((W, d, S), dtype)
        self.gz_steps = np.empty((L, W, H4, K), dtype)
        self.gz = np.empty((W, H4, K), dtype)
        self.gy_steps = np.empty((L, W, d, 1), dtype)
        self.gy = np.empty((W, d, 1), dtype)
        self.F, self.I, self.O, self.P = (
            self.G[:, :, k * d : (k + 1) * d].transpose(0, 1, 3, 2) for k in range(4)
        )
        self.C = self.Cs.transpose(0, 1, 3, 2)
        self.H = self.A[1:, :, :d].transpose(0, 1, 3, 2)


def _forward(ws: _Workspace, w_x, w_h, b, w_y, b_y) -> np.ndarray:
    """Run every subsequence from zero state; returns Yhat of shape (L, W, S).

    The parameters carry a leading window axis: w_x (W, 4d, n), w_h
    (W, 4d, d), b (W, 4d), w_y (W, d), b_y (W,).  Activations stay in the
    workspace for :func:`_backward`.
    """
    W, S, L, n, d = ws.shape
    A, G, C, TC, Wz = ws.A, ws.G, ws.Cs, ws.TC, ws.Wz
    np.concatenate([w_h, w_x, b[:, :, None]], axis=2, out=Wz)
    Wz *= ws.w_half
    for j in range(L):
        g = G[j]
        np.matmul(Wz, A[j], out=g)
        np.tanh(g, out=g)
        g *= ws.g_half
        g += ws.g_shift
        np.multiply(g[:, d : 2 * d], g[:, 3 * d :], out=C[j])
        if j:  # c = f * c_prev + i * p; the state before step 0 is zero
            np.multiply(g[:, :d], C[j - 1], out=ws.t)
            C[j] += ws.t
        np.tanh(C[j], out=TC[j])
        np.multiply(g[:, 2 * d : 3 * d], TC[j], out=A[j + 1][:, :d])
    np.matmul(w_y[:, None, :], A[1:, :, :d], out=ws.Yhat[:, :, None, :])
    ws.Yhat += b_y[:, None]
    return ws.Yhat


def _backward(ws: _Workspace, YL: np.ndarray, w_h, w_y, dead=None):
    """Gradients of the last :func:`_forward` against step-major targets YL.

    YL has shape (L, W, S).  Per window, the gradient is the sum over its
    S subsequences of each one's per-step mean-squared-error gradient.
    ``dead``, a (W, S) boolean array or None, marks subsequences that do
    not count: their output gradient is exactly zero, so every gradient
    term they feed is an exact zero.
    Returns (g_wx, g_wh, g_b, g_wy, g_by), batched like the parameters;
    the weight gradients are views of workspace buffers, overwritten by
    the next call.
    """
    W, S, L, n, d = ws.shape
    A, G, C, TC, DZ, DH = ws.A, ws.G, ws.Cs, ws.TC, ws.DZ, ws.DH
    dY, dG, dc, t, dh_carry, dc_carry = ws.dY, ws.dG, ws.dc, ws.t, ws.dh_carry, ws.dc_carry
    np.subtract(ws.Yhat, YL, out=dY)
    dY *= 2.0 / L
    if dead is not None:
        np.copyto(dY, 0.0, where=dead)
    np.multiply(w_y[:, :, None], dY[:, :, None, :], out=DH)  # every step's dh from its output
    w_hT = w_h.transpose(0, 2, 1)
    for j in range(L - 1, -1, -1):
        g, dz, dh = G[j], DZ[j], DH[j]
        if j < L - 1:  # nothing flows back into the last step
            dh += dh_carry
        # dc = dh * o * (1 - tanh(c)^2) + dc_carry
        np.multiply(TC[j], TC[j], out=dc)
        np.subtract(1.0, dc, out=dc)
        dc *= g[:, 2 * d : 3 * d]
        dc *= dh
        if j < L - 1:
            dc += dc_carry
        np.subtract(1.0, g[:, : 3 * d], out=dG)
        dG *= g[:, : 3 * d]  # sigmoid'(z) = (1 - g) * g, for the three gates at once
        if j:
            np.multiply(dc, C[j - 1], out=dz[:, :d])
        else:
            dz[:, :d] = 0.0
        np.multiply(dc, g[:, 3 * d :], out=dz[:, d : 2 * d])
        np.multiply(dh, TC[j], out=dz[:, 2 * d : 3 * d])
        dz[:, : 3 * d] *= dG
        # candidate: dc * i * (1 - p^2)
        np.multiply(g[:, 3 * d :], g[:, 3 * d :], out=t)
        np.subtract(1.0, t, out=t)
        t *= g[:, d : 2 * d]
        np.multiply(dc, t, out=dz[:, 3 * d :])
        if j:  # step 0 starts from the zero state: nothing to carry further
            np.matmul(w_hT, dz, out=dh_carry)
            np.multiply(dc, g[:, :d], out=dc_carry)

    # every step's weight gradients at once, then summed over the steps in
    # order: dz_j times step j's [h_prev, x, 1] for Wz, dy_j times h_j for w_y
    np.copyto(ws.AT[1:, :, :, :d], A[1:L, :, :d].transpose(0, 1, 3, 2))
    np.matmul(DZ, ws.AT, out=ws.gz_steps)
    np.sum(ws.gz_steps, axis=0, out=ws.gz)
    np.matmul(A[1:, :, :d], dY[:, :, :, None], out=ws.gy_steps)
    np.sum(ws.gy_steps, axis=0, out=ws.gy)
    # step by step: with W = 1, dY.sum(axis=(0, 2)) would sum in another order
    g_by = np.add.accumulate(dY.sum(axis=2), axis=0)[-1]
    gz = ws.gz
    return gz[:, :, d : d + n], gz[:, :, :d], gz[:, :, d + n], ws.gy[:, :, 0], g_by


def train_windows(
    X, Y, config: TrainConfig, seeds: Sequence[int], *, mask=None
) -> List[Optional[LstmParams]]:
    """Train one independent LSTM per window, all at once.

    X has shape (W, S, L, n): W windows, each contributing S overlapping
    length-L subsequences of n-dimensional scaled feature vectors.  Y has
    shape (W, S, L) holding the scaled per-step targets.  ``mask``, a
    (W, S) boolean array that defaults to all true, marks the
    subsequences that count; the others add exact zeros to every
    gradient, so windows of different lengths can share one batch.
    Window w is initialized from seeds[w] and optimized exactly as a solo
    run would be; the windows run in chunks of TRAIN_CHUNK_WINDOWS, and
    neither chunking nor batching changes a bit of the result.  Per
    window and epoch the gradient is the sum over the counted
    subsequences of each one's per-step mean-squared-error gradient,
    rescaled to clip_norm whenever its global norm exceeds it, then
    applied as one descent step.
    Summing rather than averaging over subsequences keeps the raw norm
    well above clip_norm on real windows, so the clip is what sets the
    step size and the defaults train at constant speed instead of
    stalling on the small-gradient plateau near initialization.

    The windows train in float32.  X and Y must be finite; a value beyond
    float32's range rounds to an infinity, and its window diverges.
    A window diverges when an epoch's forecasts, on every subsequence
    whether counted or not, or its gradient norm, or its final
    parameters, are not all finite.  From then on it takes no steps, and
    the other windows of the batch are unaffected.

    Returns one fitted LstmParams per window, in input order, and None
    for a window that diverged or has no counted subsequence.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    Y = np.ascontiguousarray(np.asarray(Y, dtype=float))
    if X.ndim != 4:
        raise ShapeError(f"X must be (W, S, L, n), got ndim={X.ndim}")
    if Y.shape != X.shape[:3]:
        raise ShapeError(f"Y shape {Y.shape} does not match X {X.shape[:3]}")
    W, S, L, n = X.shape
    if L != config.sequence_length:
        raise ShapeError(f"subsequence length {L} != configured {config.sequence_length}")
    mask = np.ones((W, S), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (W, S):
        raise ShapeError(f"mask shape {mask.shape} does not match {(W, S)} subsequences")
    if W == 0:
        return []
    if S < 1:
        raise FitError("no training subsequences")
    if len(seeds) != W:
        raise ShapeError(f"{W} windows but {len(seeds)} seeds")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise FitError("non-finite values in training data")

    fitted: List[Optional[LstmParams]] = []
    for start in range(0, W, TRAIN_CHUNK_WINDOWS):
        chunk = slice(start, start + TRAIN_CHUNK_WINDOWS)
        fitted.extend(_train_chunk(X[chunk], Y[chunk], ~mask[chunk], config, seeds[chunk]))
    return fitted


def _train_chunk(X, Y, dead, config: TrainConfig, seeds) -> List[Optional[LstmParams]]:
    """:func:`train_windows` on one kernel batch; ``dead`` is the negated mask.

    The kernel runs in float32: parameters, inputs, targets and every
    buffer.  Only the clip norm's sum of squares is taken in float64, so a
    finite gradient never has an overflowing norm.
    """
    W, S, L, n = X.shape
    d = config.hidden_dim
    H4 = 4 * d
    lr = config.learning_rate
    clip = config.clip_norm

    w_x = np.empty((W, H4, n), np.float32)
    w_h = np.empty((W, H4, d), np.float32)
    b = np.empty((W, H4), np.float32)
    w_y = np.empty((W, d), np.float32)
    b_y = np.empty(W, np.float32)
    for w, seed in enumerate(seeds):
        w_x[w], w_h[w], b[w], w_y[w], b_y[w] = _init_window(
            np.random.default_rng(int(seed)), n, d, config.init_scale
        )
    params = (w_x, w_h, b, w_y, b_y)

    ws = _Workspace(X.astype(np.float32), d)
    YL = np.ascontiguousarray(Y.transpose(2, 0, 1), dtype=np.float32)
    # a window with nothing to learn from must not come back as its init
    alive = ~dead.all(axis=1)
    for _ in range(config.epochs):
        Yhat = _forward(ws, *params)
        alive &= np.isfinite(Yhat).all(axis=(0, 2))
        grads = _backward(ws, YL, w_h, w_y, dead)

        sq = sum(np.square(g, dtype=np.float64).reshape(W, -1).sum(axis=1) for g in grads)
        alive &= np.isfinite(sq)
        rate = (lr * np.minimum(1.0, clip / np.maximum(np.sqrt(sq), 1e-300))).astype(np.float32)
        for p, g in zip(params, grads):
            # a diverged window keeps its parameters as they are
            per_window = (W,) + (1,) * (p.ndim - 1)
            np.subtract(p, rate.reshape(per_window) * g, out=p, where=alive.reshape(per_window))

    for p in params:
        alive &= np.isfinite(p.reshape(W, -1)).all(axis=1)
    return [
        LstmParams(w_x[w].copy(), w_h[w].copy(), b[w].copy(), w_y[w].copy(), float(b_y[w]))
        if alive[w] else None
        for w in range(W)
    ]


def lstm_train(X, y, config: TrainConfig) -> LstmParams:
    """Fit one window: scaled predictors X (N, k), scaled targets y (N,).

    Every contiguous run of sequence_length rows becomes one training
    subsequence with per-step targets.  Requires at least L + 1 rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D, got ndim={X.ndim}")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"y shape {y.shape} does not match {X.shape[0]} rows")
    L = config.sequence_length
    if X.shape[0] < L + 1:
        raise FitError(f"window has {X.shape[0]} rows; need at least {L + 1}")
    X_sub = sliding_window_view(X, L, axis=0).transpose(0, 2, 1)[None]
    Y_sub = sliding_window_view(y, L)[None]
    params = train_windows(X_sub, Y_sub, config, [config.seed])[0]
    if params is None:
        raise NumericError("training diverged")
    return params


def _batched(params: LstmParams):
    """The parameters as a batch of one window, in kernel argument order."""
    return (
        params.w_x[None], params.w_h[None], params.b[None], params.w_y[None],
        np.array([params.b_y]),
    )


def _sequence_workspace(params: LstmParams, sequence) -> _Workspace:
    """A kernel workspace for one (L, n) sequence: W = S = 1."""
    x_seq = _check_sequences(np.asarray(sequence, dtype=float)[None], params.n)
    return _Workspace(x_seq[:, None], params.d)


def _check_sequences(sequences, n: int) -> np.ndarray:
    """Validated (W, L, n) float sequences, contiguous."""
    x_seq = np.ascontiguousarray(np.asarray(sequences, dtype=float))
    if x_seq.ndim != 3 or x_seq.shape[2] != n:
        raise ShapeError(f"sequences must be (W, L, {n}), got {x_seq.shape}")
    if x_seq.shape[1] < 1:
        raise ShapeError("sequence must have at least one step")
    return x_seq


def predict_windows(fitted: Sequence[Optional[LstmParams]], sequences) -> np.ndarray:
    """Forecast every window in one forward pass over the kernel.

    ``sequences`` has shape (W, L, n): window w's L most recent feature
    vectors, run from zero state through fitted[w].  Returns the (W,)
    predictions at the last step, bit for bit what :func:`lstm_predict`
    gives each window, and NaN for a window whose parameters are None or
    whose outputs are not all finite.
    """
    forecasts = np.full(len(fitted), math.nan)
    live = [w for w, params in enumerate(fitted) if params is not None]
    if not live:
        return forecasts
    first = fitted[live[0]]
    x_seq = _check_sequences(sequences, first.n)
    if x_seq.shape[0] != len(fitted):
        raise ShapeError(f"{len(fitted)} windows but {x_seq.shape[0]} sequences")
    ws = _Workspace(np.ascontiguousarray(x_seq[live][:, None]), first.d)
    batch = [fitted[w] for w in live]
    yhat = _forward(
        ws,
        np.stack([p.w_x for p in batch]), np.stack([p.w_h for p in batch]),
        np.stack([p.b for p in batch]), np.stack([p.w_y for p in batch]),
        np.array([p.b_y for p in batch]),
    )[:, :, 0]
    forecasts[live] = np.where(np.isfinite(yhat).all(axis=0), yhat[-1], math.nan)
    return forecasts


def lstm_predict(params: LstmParams, sequence) -> float:
    """Run the cell from zero state over the most recent L feature vectors.

    Returns the prediction at the last step.  State always starts at zero:
    windows are independent and nothing leaks between them.  This is
    :func:`predict_windows` for one window.
    """
    forecast = predict_windows([params], np.asarray(sequence, dtype=float)[None])[0]
    if math.isnan(forecast):
        raise NumericError("non-finite prediction in forward pass")
    return float(forecast)


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients with central differences."""

    epsilon: float
    tolerance: float
    instances: Tuple[Tuple[int, int, int, float], ...]  # (n, d, L, max rel err)

    @property
    def max_rel_err(self) -> float:
        return max(e for _, _, _, e in self.instances)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def gradient_check(
    n_instances: int = 20,
    seed: int = 20240210,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare the kernel's analytic gradient with central finite differences.

    Draws random small instances (n <= 4, d <= 6, L <= 8) and reports the
    worst relative error per instance.  The denominator is floored at
    1e-6 so near-zero true gradients do not turn finite-difference noise
    into spurious failures.
    """
    if n_instances < 1:
        raise ConfigError("n_instances must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_instances):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        L = int(rng.integers(1, 9))
        params = LstmParams(
            w_x=rng.uniform(-0.5, 0.5, size=(4 * d, n)),
            w_h=rng.uniform(-0.5, 0.5, size=(4 * d, d)),
            b=rng.uniform(-0.5, 0.5, size=4 * d),
            w_y=rng.uniform(-0.5, 0.5, size=d),
            b_y=float(rng.uniform(-0.5, 0.5)),
        )
        seq = rng.uniform(-1.0, 1.0, size=(L, n))
        y = rng.uniform(-1.0, 1.0, size=L)

        ws = _sequence_workspace(params, seq)
        _forward(ws, *_batched(params))
        grads = _backward(ws, y[:, None, None], params.w_h[None], params.w_y[None])
        analytic = np.concatenate([g.ravel() for g in grads])

        def loss(vec):
            yhat = _forward(ws, *_batched(unflatten_params(vec, n, d)))
            return lstm_loss(yhat[:, 0, 0], y)

        theta = flatten_params(params)
        numeric = np.empty_like(theta)
        for k in range(theta.shape[0]):
            bumped = theta.copy()
            bumped[k] = theta[k] + epsilon
            up = loss(bumped)
            bumped[k] = theta[k] - epsilon
            down = loss(bumped)
            numeric[k] = (up - down) / (2.0 * epsilon)

        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        records.append((n, d, L, float(rel.max())))
    return GradCheckReport(epsilon=epsilon, tolerance=tolerance, instances=tuple(records))

