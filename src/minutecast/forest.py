"""Regression trees, circular block bootstrap, and forest averaging.

Trees are grown by greedy recursive partitioning: at each node the
candidate (column, threshold) pair minimizing the summed squared error
of the two children wins, with thresholds taken as midpoints between
consecutive distinct sorted values.  Ties break toward the lowest column
index and then the lowest threshold, which makes growth deterministic
given the feature-subset draws.

A tree is stored as a flat node table in preorder (see Tree): a split's
left child is the next row and its right child is the row it names, so
growth appends one row per node and no node position is ever computed.
A tree also carries its leaf-basis reading: each leaf's basis function
is the literal product of path indicators, and exactly one basis
function is 1 at any input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, FitError, ShapeError

__all__ = [
    "Forest",
    "ForestConfig",
    "Tree",
    "block_bootstrap_indices",
    "grow_tree",
    "leaf_basis",
    "rf_fit",
    "rf_predict",
    "tree_predict",
]


@dataclass(frozen=True, eq=False)
class Tree:
    """A regression tree as a node table in preorder; row 0 is the root.

    Row i is a leaf when feature[i] == -1 and then predicts value[i].
    Otherwise x[feature[i]] <= threshold[i] routes to the left child,
    row i + 1, and anything else to the right child, row right[i]. The
    fields that do not apply to a row (threshold and right at a leaf,
    value at a split) hold NaN and -1. Trees compare by identity; compare
    the field arrays to compare structure.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int


# growth appends one record per node, so a finished tree is one conversion
_NODE = np.dtype([("feature", np.intp), ("threshold", float), ("right", np.intp), ("value", float)])


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters.

    max_features counts candidate columns per split; None resolves to
    max(1, ceil(k/3)) at fit time.  feature_mode selects whether the
    random subset is redrawn at every split or fixed once per tree.
    """

    n_trees: int = 100
    min_leaf: int = 3
    max_features: Optional[int] = None
    block_length: int = 5
    feature_mode: str = "per-split"
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_features is not None and self.max_features < 1:
            raise ConfigError(f"max_features must be >= 1, got {self.max_features}")
        if self.block_length < 1:
            raise ConfigError(f"block_length must be >= 1, got {self.block_length}")
        if self.feature_mode not in ("per-split", "per-tree"):
            raise ConfigError(f"feature_mode must be per-split or per-tree, got {self.feature_mode!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    def resolve_max_features(self, n_columns: int) -> int:
        if self.max_features is None:
            return max(1, math.ceil(n_columns / 3))
        if self.max_features > n_columns:
            raise ConfigError(
                f"max_features={self.max_features} exceeds {n_columns} available columns"
            )
        return self.max_features


@dataclass(frozen=True)
class Forest:
    trees: Tuple[Tree, ...]
    config: ForestConfig


def _best_split(X, y, min_leaf: int, columns):
    """Lowest-SSE (column, threshold) over midpoint candidates, or None.

    Iterates columns ascending with thresholds ascending inside each, and
    improves only on strictly smaller SSE, so the first optimum wins.
    """
    m = y.shape[0]
    best = None
    for col in columns:
        order = np.argsort(X[:, col])
        xv = X[order, col]
        ys = y[order]
        cs = np.cumsum(ys)
        cq = np.cumsum(ys * ys)
        total_s = cs[-1]
        total_q = cq[-1]
        cut = np.nonzero(xv[:-1] < xv[1:])[0]  # split after these positions
        if cut.size == 0:
            continue
        nl = cut + 1
        nr = m - nl
        valid = (nl >= min_leaf) & (nr >= min_leaf)
        if not valid.any():
            continue
        cut = cut[valid]
        nl = nl[valid]
        nr = nr[valid]
        sl = cs[cut]
        ql = cq[cut]
        sse = (ql - sl * sl / nl) + ((total_q - ql) - (total_s - sl) ** 2 / nr)
        pick = int(np.argmin(sse))  # first index on ties: lowest threshold
        if best is None or sse[pick] < best[0]:
            thr = 0.5 * (xv[cut[pick]] + xv[cut[pick] + 1])
            best = (float(sse[pick]), int(col), float(thr))
    return best


def _grow(X, y, min_leaf: int, max_features: int, rng, rows: list) -> None:
    """Append the rows of the subtree fitted to (X, y) to rows, in preorder."""
    best = None
    if y.shape[0] >= 2 * min_leaf and not np.all(y == y[0]):
        k = X.shape[1]
        if max_features < k:
            columns = np.sort(rng.choice(k, size=max_features, replace=False))
        else:
            columns = np.arange(k)
        best = _best_split(X, y, min_leaf, columns)
    if best is None:
        rows.append((-1, np.nan, -1, float(y.mean())))
        return
    _, col, thr = best
    mask = X[:, col] <= thr
    node = len(rows)
    rows.append(None)
    _grow(X[mask], y[mask], min_leaf, max_features, rng, rows)
    rows[node] = (col, thr, len(rows), np.nan)
    _grow(X[~mask], y[~mask], min_leaf, max_features, rng, rows)


def _build_tree(X, y, min_leaf: int, max_features: int, rng) -> Tree:
    rows = []
    _grow(X, y, min_leaf, max_features, rng, rows)
    table = np.array(rows, dtype=_NODE)
    return Tree(
        feature=table["feature"],
        threshold=table["threshold"],
        right=table["right"],
        value=table["value"],
        n_features=X.shape[1],
    )


def _training_data(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D, got ndim={X.ndim}")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"y shape {y.shape} does not match {X.shape[0]} rows")
    if y.shape[0] < 1:
        raise FitError("cannot grow a tree from zero rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise FitError("non-finite values in tree training data")
    return X, y


def grow_tree(X, y, config: ForestConfig, rng) -> Tree:
    """Grow one CART regression tree.

    Splitting stops when a node is pure, has fewer than 2*min_leaf rows,
    or no threshold leaves min_leaf rows on both sides; such nodes become
    leaves predicting their target mean (never an error).
    """
    X, y = _training_data(X, y)
    return _build_tree(X, y, config.min_leaf, config.resolve_max_features(X.shape[1]), rng)


def _checked_input(tree: Tree, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.n_features,):
        raise ShapeError(f"expected vector of length {tree.n_features}, got shape {x.shape}")
    return x


def tree_predict(tree: Tree, x) -> float:
    """Route x down the tree (<= goes left) and return its leaf mean."""
    x = _checked_input(tree, x)
    i = 0
    while tree.feature[i] >= 0:
        i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return float(tree.value[i])


def leaf_basis(tree: Tree, x) -> np.ndarray:
    """Evaluate every leaf's basis function at x, leaves in preorder.

    Each value is the literal product of the path indicators from the root
    down to its leaf, multiplied down both branches of every split, rather
    than the result of routing; so it independently witnesses the
    partition-of-unity property of the tree.
    """
    x = _checked_input(tree, x)
    reach = np.empty(tree.feature.shape[0])
    reach[0] = 1.0
    for i in np.flatnonzero(tree.feature >= 0):
        indicator = 1.0 if x[tree.feature[i]] <= tree.threshold[i] else 0.0
        reach[i + 1] = reach[i] * indicator
        reach[tree.right[i]] = reach[i] * (1.0 - indicator)
    return reach[tree.feature < 0]


def block_bootstrap_indices(n: int, block_length: int, rng) -> np.ndarray:
    """Circular block bootstrap: concatenated wrapped blocks, truncated to n.

    Each block starts uniformly in [0, n) and runs block_length positions
    modulo n, so every observation has equal inclusion probability. All
    block starts are drawn in one call.
    """
    if n < 1:
        raise ValueError(f"need at least one observation, got n={n}")
    if block_length < 1:
        raise ValueError(f"block_length must be >= 1, got {block_length}")
    starts = rng.integers(0, n, size=math.ceil(n / block_length))
    return ((starts[:, None] + np.arange(block_length)) % n).ravel()[:n]


def rf_fit(X, y, config: ForestConfig) -> Forest:
    """Fit a forest: per tree, one block-bootstrap draw, then growth.

    Tree b owns an independent generator spawned from the master seed, and
    always consumes its draws in the same order (bootstrap rows first,
    then feature subsets), so the forest is reproducible run to run. In
    per-tree mode the subset is drawn once and the tree grows on that
    column slice, with split variables mapped back to original indices.
    """
    X, y = _training_data(X, y)
    n, k = X.shape
    mf = config.resolve_max_features(k)

    trees = []
    for child in np.random.SeedSequence(config.seed).spawn(config.n_trees):
        rng = np.random.default_rng(child)
        rows = block_bootstrap_indices(n, config.block_length, rng)
        Xb = X[rows]
        yb = y[rows]
        if config.feature_mode == "per-tree":
            columns = np.sort(rng.choice(k, size=mf, replace=False))
            sub = _build_tree(Xb[:, columns], yb, config.min_leaf, mf, rng)
            feature = np.where(sub.feature >= 0, columns[sub.feature], -1)
            trees.append(replace(sub, feature=feature, n_features=k))
        else:
            trees.append(_build_tree(Xb, yb, config.min_leaf, mf, rng))
    return Forest(trees=tuple(trees), config=config)


def rf_predict(forest: Forest, x) -> float:
    """Arithmetic mean of the tree predictions at x."""
    return float(np.mean([tree_predict(tree, x) for tree in forest.trees]))
