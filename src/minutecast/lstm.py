"""A from-scratch LSTM regressor for one-step-ahead return forecasting.

Single layer, trained per rolling window with full-batch gradient descent
and backpropagation through time.  Everything lives in double precision
and no autodiff framework is involved.

Parameters are stored packed: the four gates share one input matrix, one
recurrent matrix and one bias vector, stacked along the row axis in the
order forget, input, output, candidate.

There is one BPTT kernel, :func:`_forward` and :func:`_backward`, over a
batch of W windows with S subsequences of L steps each.  Training
(:func:`train_windows`, and :func:`lstm_train` for one window),
prediction (:func:`lstm_predict`) and the finite-difference check
(:func:`gradient_check`) all run through it, the last two with W = S = 1,
so the gradient that is checked is the gradient that trains.
The sigmoid gates are ``0.5 * tanh(0.5 * z) + 0.5``, which cannot
overflow, and a window that diverges is masked inside its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, FitError, NumericError, ShapeError

__all__ = [
    "GradCheckReport",
    "LstmParams",
    "TrainConfig",
    "flatten_params",
    "gradient_check",
    "lstm_loss",
    "lstm_predict",
    "lstm_train",
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

    Step-major activation slabs keep per-step reads and writes contiguous,
    but for the gate views F, I and O, which share one slab so that each
    step computes the three sigmoids, and their derivatives, in one pass.
    All buffers live across epochs so the hot loop never allocates.  This
    loop dominates a full-sample run, hence the fuss.
    """

    def __init__(self, X: np.ndarray, d: int):
        W, S, L, n = X.shape
        H4 = 4 * d
        self.shape = (W, S, L, n, d)
        self.X_flat = X.reshape(W, S * L, n)
        self.G = np.empty((L, W, S, 3 * d))
        self.F, self.I, self.O = (self.G[..., k * d : (k + 1) * d] for k in range(3))
        self.P = np.empty((L, W, S, d))
        self.C = np.empty((L, W, S, d))
        self.TC = np.empty((L, W, S, d))
        self.H = np.empty((L, W, S, d))
        self.DZ = np.empty((L, W, S, H4))
        self.Yhat = np.empty((L, W, S))
        self.dY = np.empty((L, W, S))
        self.zbuf = np.empty((W, S, H4))
        self.zeros_state = np.zeros((W, S, d))
        self.dh = np.empty((W, S, d))
        self.dh_carry = np.empty((W, S, d))
        self.dc_carry = np.empty((W, S, d))
        self.t1 = np.empty((W, S, d))
        self.t2 = np.empty((W, S, d))
        self.dG = np.empty((W, S, 3 * d))
        self.X_L = np.ascontiguousarray(X.transpose(2, 0, 1, 3))
        self.g_wx = np.empty((W, H4, n))
        self.g_wh = np.empty((W, H4, d))
        self.g_wy = np.empty((W, d))
        self.gx_tmp = np.empty((W, H4, n))
        self.gh_tmp = np.empty((W, H4, d))
        self.gy_tmp = np.empty((W, 1, d))


def _forward(ws: _Workspace, w_x, w_h, b, w_y, b_y) -> np.ndarray:
    """Run every subsequence from zero state; returns Yhat of shape (L, W, S).

    The parameters carry a leading window axis: w_x (W, 4d, n), w_h
    (W, 4d, d), b (W, 4d), w_y (W, d), b_y (W,).  Activations stay in the
    workspace for :func:`_backward`.
    """
    W, S, L, n, d = ws.shape
    H4 = 4 * d
    G, F, I, O, P, C, TC, H = ws.G, ws.F, ws.I, ws.O, ws.P, ws.C, ws.TC, ws.H
    Yhat, zbuf, zeros_state, t1 = ws.Yhat, ws.zbuf, ws.zeros_state, ws.t1
    X_proj = (ws.X_flat @ w_x.transpose(0, 2, 1)).reshape(W, S, L, H4)
    X_proj += b[:, None, None, :]
    X_proj = X_proj.transpose(2, 0, 1, 3)
    w_hT = w_h.transpose(0, 2, 1)
    for j in range(L):
        c_prev = C[j - 1] if j else zeros_state
        h_prev = H[j - 1] if j else zeros_state
        np.matmul(h_prev, w_hT, out=zbuf)
        zbuf += X_proj[j]
        np.multiply(zbuf[..., : 3 * d], 0.5, out=G[j])
        np.tanh(G[j], out=G[j])
        G[j] *= 0.5
        G[j] += 0.5  # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5
        np.tanh(zbuf[..., 3 * d :], out=P[j])
        np.multiply(F[j], c_prev, out=t1)
        np.multiply(I[j], P[j], out=C[j])
        C[j] += t1
        np.tanh(C[j], out=TC[j])
        np.multiply(O[j], TC[j], out=H[j])
        np.multiply(H[j], w_y[:, None, :], out=t1)
        np.sum(t1, axis=-1, out=Yhat[j])
        Yhat[j] += b_y[:, None]
    return Yhat


def _backward(ws: _Workspace, YL: np.ndarray, w_h, w_y):
    """Gradients of the last :func:`_forward` against step-major targets YL.

    YL has shape (L, W, S).  Per window, the gradient is the sum over its
    S subsequences of each one's per-step mean-squared-error gradient.
    Returns (g_wx, g_wh, g_b, g_wy, g_by), batched like the parameters;
    the weight gradients are workspace buffers, overwritten by the next
    call.
    """
    W, S, L, n, d = ws.shape
    G, F, I, O, P, C, TC, H, DZ = ws.G, ws.F, ws.I, ws.O, ws.P, ws.C, ws.TC, ws.H, ws.DZ
    dY, zeros_state = ws.dY, ws.zeros_state
    dh, dh_carry, dc_carry, t1, t2, dG = ws.dh, ws.dh_carry, ws.dc_carry, ws.t1, ws.t2, ws.dG
    g_wx, g_wh, g_wy = ws.g_wx, ws.g_wh, ws.g_wy
    gx_tmp, gh_tmp, gy_tmp = ws.gx_tmp, ws.gh_tmp, ws.gy_tmp
    np.subtract(ws.Yhat, YL, out=dY)
    dY *= 2.0 / L
    dh_carry[:] = 0.0
    dc_carry[:] = 0.0
    g_wx[:] = 0.0
    g_wh[:] = 0.0
    g_wy[:] = 0.0
    for j in range(L - 1, -1, -1):
        c_prev = C[j - 1] if j else zeros_state
        np.multiply(w_y[:, None, :], dY[j][:, :, None], out=dh)
        dh += dh_carry
        np.multiply(TC[j], TC[j], out=t1)
        np.subtract(1.0, t1, out=t1)
        t1 *= O[j]
        t1 *= dh
        t1 += dc_carry  # t1 is now dc
        np.subtract(1.0, G[j], out=dG)
        dG *= G[j]  # sigmoid'(z) = (1 - g) * g, for the three gates at once
        np.multiply(t1, c_prev, out=DZ[j][..., :d])
        np.multiply(t1, P[j], out=DZ[j][..., d : 2 * d])
        np.multiply(dh, TC[j], out=DZ[j][..., 2 * d : 3 * d])
        DZ[j][..., : 3 * d] *= dG
        np.multiply(P[j], P[j], out=t2)
        np.subtract(1.0, t2, out=t2)
        t2 *= I[j]
        np.multiply(t1, t2, out=DZ[j][..., 3 * d :])
        dzT = DZ[j].transpose(0, 2, 1)
        np.matmul(dzT, ws.X_L[j], out=gx_tmp)
        g_wx += gx_tmp
        np.matmul(dzT, H[j - 1] if j else zeros_state, out=gh_tmp)
        g_wh += gh_tmp
        np.matmul(dY[j][:, None, :], H[j], out=gy_tmp)
        g_wy += gy_tmp.reshape(W, d)
        np.matmul(DZ[j], w_h, out=dh_carry)
        np.multiply(t1, F[j], out=dc_carry)

    g_b = DZ.sum(axis=(0, 2))
    g_by = dY.sum(axis=(0, 2))
    return g_wx, g_wh, g_b, g_wy, g_by


def train_windows(X, Y, config: TrainConfig, seeds: Sequence[int]) -> List[Optional[LstmParams]]:
    """Train one independent LSTM per window, all at once.

    X has shape (W, S, L, n): W windows, each contributing S overlapping
    length-L subsequences of n-dimensional scaled feature vectors.  Y has
    shape (W, S, L) holding the scaled per-step targets.  Window w is
    initialized from seeds[w] and optimized exactly as a solo run would
    be; batching only rearranges the arithmetic.  Per window and epoch
    the gradient is the sum over the S subsequences of each one's
    per-step mean-squared-error gradient, rescaled to clip_norm whenever
    its global norm exceeds it, then applied as one descent step.
    Summing rather than averaging over subsequences keeps the raw norm
    well above clip_norm on real windows, so the clip is what sets the
    step size and the defaults train at constant speed instead of
    stalling on the small-gradient plateau near initialization.

    A window diverges when an epoch's forecasts or gradient norm, or its
    final parameters, are not all finite.  From then on it takes no
    steps, and the other windows of the batch are unaffected.

    Returns one fitted LstmParams per window, in input order, and None
    for a window that diverged.
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
    if W == 0:
        return []
    if S < 1:
        raise FitError("no training subsequences")
    if len(seeds) != W:
        raise ShapeError(f"{W} windows but {len(seeds)} seeds")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise FitError("non-finite values in training data")

    d = config.hidden_dim
    H4 = 4 * d
    lr = config.learning_rate
    clip = config.clip_norm

    w_x = np.empty((W, H4, n))
    w_h = np.empty((W, H4, d))
    b = np.empty((W, H4))
    w_y = np.empty((W, d))
    b_y = np.empty(W)
    for w, seed in enumerate(seeds):
        w_x[w], w_h[w], b[w], w_y[w], b_y[w] = _init_window(
            np.random.default_rng(int(seed)), n, d, config.init_scale
        )
    params = (w_x, w_h, b, w_y, b_y)

    ws = _Workspace(X, d)
    YL = np.ascontiguousarray(Y.transpose(2, 0, 1))
    alive = np.ones(W, dtype=bool)
    for _ in range(config.epochs):
        Yhat = _forward(ws, *params)
        alive &= np.isfinite(Yhat).all(axis=(0, 2))
        grads = _backward(ws, YL, w_h, w_y)

        sq = sum((g * g).reshape(W, -1).sum(axis=1) for g in grads)
        alive &= np.isfinite(sq)
        rate = lr * np.minimum(1.0, clip / np.maximum(np.sqrt(sq), 1e-300))
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
    x_seq = np.asarray(sequence, dtype=float)
    if x_seq.ndim != 2 or x_seq.shape[1] != params.n:
        raise ShapeError(f"sequence must be (L, {params.n}), got {x_seq.shape}")
    if x_seq.shape[0] < 1:
        raise ShapeError("sequence must have at least one step")
    return _Workspace(np.ascontiguousarray(x_seq[None, None]), params.d)


def lstm_predict(params: LstmParams, sequence) -> float:
    """Run the cell from zero state over the most recent L feature vectors.

    Returns the prediction at the last step.  State always starts at zero:
    windows are independent and nothing leaks between them.
    """
    ws = _sequence_workspace(params, sequence)
    yhat = _forward(ws, *_batched(params))[:, 0, 0]
    if not np.isfinite(yhat).all():
        raise NumericError("non-finite prediction in forward pass")
    return float(yhat[-1])


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
    corrupt: bool = False,
) -> GradCheckReport:
    """Compare the kernel's analytic gradient with central finite differences.

    Draws random small instances (n <= 4, d <= 6, L <= 8) and reports the
    worst relative error per instance.  The denominator is floored at
    1e-6 so near-zero true gradients do not turn finite-difference noise
    into spurious failures.  `corrupt` deliberately perturbs one analytic
    gradient entry; it exists so the checker itself can be shown to catch
    a broken backward pass.
    """
    if n_instances < 1:
        raise ConfigError("n_instances must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for idx in range(n_instances):
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
        if corrupt and idx == 0:
            analytic[0] += 1e-3

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

