"""Regression trees, circular block bootstrap, and forest averaging.

Trees are grown by greedy partitioning: at each node the candidate
(column, threshold) pair minimizing the summed squared error of the two
children wins, with thresholds taken as midpoints between consecutive
distinct sorted values (the lower value where the midpoint rounds to the
upper one). Sorts are stable, so tied values keep their order. Ties in the error break toward the lowest column index and then
the lowest threshold, which makes growth deterministic given the draws.

All trees of a forest grow together, one level at a time: each node of
the level that can still split is one row of a padded array, so a level
costs a fixed number of numpy calls however many trees and nodes it
holds. One generator per forest, np.random.default_rng(seed), makes
every draw, in this order:

1. every tree's block-bootstrap starts, in one call;
2. in per-tree mode, one row of k uniforms per tree;
3. in per-split mode, for each level, one row of k uniforms per node
   that can split, rows ordered by tree and then by the node's rank in
   the level.

The max_features smallest uniforms of a row pick that tree's or node's
columns. A leaf predicts the sequential (prefix) sum of its targets
divided by their count.

A tree is stored as a flat node table in preorder (see Tree): a split's
left child is the next row and its right child is the row it names. A
forest stacks its trees' tables into one (see Forest), which rf_predict
walks for all trees at once. A tree also carries its leaf-basis reading:
each leaf's basis function is the literal product of path indicators,
and exactly one basis function is 1 at any input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters.

    max_features counts candidate columns per split; None resolves to
    max(1, ceil(k/3)) at fit time.  feature_mode selects whether the
    random subset is redrawn at every split or fixed once per tree.
    seed seeds the forest's one generator; the module docstring gives
    the order of its draws.
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


@dataclass(frozen=True, eq=False)
class Forest:
    """Every tree of a fit in one node table.

    nodes stacks the trees' tables in tree order: tree t is rows
    offsets[t]:offsets[t + 1], laid out as in Tree, its right entries
    counting from its own first row. depth is the longest root-to-leaf
    path of any tree, so depth steps take every root to its leaf.
    """

    nodes: Tree
    offsets: np.ndarray
    depth: int
    config: ForestConfig

    @property
    def trees(self) -> Tuple[Tree, ...]:
        """Each tree as a view into nodes."""
        nodes = self.nodes
        return tuple(
            Tree(nodes.feature[a:b], nodes.threshold[a:b], nodes.right[a:b],
                 nodes.value[a:b], nodes.n_features)
            for a, b in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        )


def _draw_columns(rng, rows: int, k: int, max_features: int) -> np.ndarray:
    """Per row, the columns of its max_features smallest of k uniforms, ascending."""
    drawn = np.argsort(rng.random((rows, k)), axis=1, kind="stable")[:, :max_features]
    return np.sort(drawn, axis=1)


def _best_splits(X, idx, yp, count, columns, min_leaf: int):
    """Lowest-SSE (column, threshold) of every node that has a valid cut.

    Node j holds the rows idx[j, :count[j]] of X with targets yp[j], and
    may split on columns[j]; entries past count[j] are padding. Returns
    the positions of the nodes that split, and their columns and
    thresholds. Candidates run over the columns in the order given, and
    thresholds ascending inside each; the first minimum wins.
    """
    if not count.size:
        return count, count, np.empty(0)
    width = int(count.max())
    pad = np.arange(width) >= count[:, None, None]
    xo = np.where(pad, np.inf, X[idx[:, None, :width], columns[:, :, None]])
    order = np.argsort(xo, axis=2, kind="stable")  # padding sorts last
    xs = np.take_along_axis(xo, order, axis=2)
    ys = np.take_along_axis(yp[:, None, :width], order, axis=2)
    cs = np.cumsum(ys, axis=2)
    cq = np.cumsum(ys * ys, axis=2)
    m = count[:, None, None]
    total_s = np.take_along_axis(cs, m - 1, axis=2)
    total_q = np.take_along_axis(cq, m - 1, axis=2)
    nl = np.arange(1, width)  # rows left of a cut after sorted position nl - 1
    nr = m - nl
    valid = (xs[..., :-1] < xs[..., 1:]) & (nl >= min_leaf) & (nr >= min_leaf)
    sl = cs[..., :-1]
    ql = cq[..., :-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # nr <= 0 only past a node's rows
        sse = (ql - sl * sl / nl) + ((total_q - ql) - (total_s - sl) ** 2 / nr)
    cuts = columns.shape[1] * (width - 1)
    best = np.argmin(np.where(valid, sse, np.inf).reshape(-1, cuts), axis=1)
    found = np.flatnonzero(valid.reshape(-1, cuts).any(axis=1))
    col, cut = np.divmod(best[found], width - 1)
    lo = xs[found, col, cut]
    hi = xs[found, col, cut + 1]
    mid = 0.5 * (lo + hi)
    # a midpoint that rounds up to hi (adjacent floats, or lo + hi overflowing)
    # would send hi's rows left too, and a child could repeat its parent
    return found, columns[found, col], np.where(mid < hi, mid, lo)


def _grow(X, y, rows, config: ForestConfig, rng) -> Forest:
    """Grow one tree per row of rows, on the rows of X and y that it names.

    A node becomes a leaf when it is pure, has fewer than 2*min_leaf rows,
    or no threshold leaves min_leaf rows on both sides.
    """
    n_trees = rows.shape[0]
    k = X.shape[1]
    max_features = config.resolve_max_features(k)
    min_leaf = config.min_leaf
    per_tree = config.feature_mode == "per-tree"
    if per_tree:
        tree_columns = _draw_columns(rng, n_trees, k, max_features)

    # node j of the level belongs to tree[j] and holds the training rows
    # sample[start[j]:start[j] + count[j]], in the order its parent held them
    tree = np.arange(n_trees)
    count = np.full(n_trees, rows.shape[1])
    sample = rows.ravel()
    levels = []  # per level: tree, split mask, split features, thresholds, leaf values
    while tree.size:
        slot = np.arange(int(count.max()))
        pad = slot >= count[:, None]
        start = np.cumsum(count) - count
        idx = sample[np.minimum(start[:, None] + slot, sample.size - 1)]
        yp = np.where(pad, 0.0, y[idx])
        sums = np.cumsum(yp, axis=1)[np.arange(tree.size), count - 1]
        pure = np.all((yp == yp[:, :1]) | pad, axis=1)
        open_ = np.flatnonzero((count >= 2 * min_leaf) & ~pure)
        if per_tree:
            columns = tree_columns[tree[open_]]
        else:
            columns = _draw_columns(rng, open_.size, k, max_features)
        found, feature, threshold = _best_splits(
            X, idx[open_], yp[open_], count[open_], columns, min_leaf
        )
        parent = open_[found]
        split = np.zeros(tree.size, dtype=bool)
        split[parent] = True
        levels.append((tree, split, feature, threshold, sums[~split] / count[~split]))

        # children in (tree, rank) order: node r's split sends its rows, in
        # order, to the next level's nodes 2r (<= threshold) and 2r + 1
        rows_of = idx[parent]
        goes_right = X[rows_of, feature[:, None]] > threshold[:, None]
        child = 2 * np.arange(parent.size)[:, None] + goes_right
        child = np.where(pad[parent], 2 * parent.size, child).ravel()
        count = np.bincount(child, minlength=2 * parent.size + 1)[:-1]
        sample = rows_of.ravel()[np.argsort(child, kind="stable")[: count.sum()]]
        tree = np.repeat(tree[parent], 2)

    # subtree sizes, deepest level first; the children of a level's r-th
    # split are the next level's nodes 2r and 2r + 1
    sizes = [np.ones(levels[-1][1].size, dtype=np.intp)]
    for _, split, *_ in reversed(levels[:-1]):
        size = np.ones(split.size, dtype=np.intp)
        size[split] += sizes[0][0::2] + sizes[0][1::2]
        sizes.insert(0, size)

    # preorder rows, top level first: a left child follows its parent, and
    # the right child follows the left child's subtree
    offsets = np.concatenate(([0], np.cumsum(sizes[0])))
    table = Tree(
        feature=np.full(offsets[-1], -1, dtype=np.intp),
        threshold=np.full(offsets[-1], np.nan),
        right=np.full(offsets[-1], -1, dtype=np.intp),
        value=np.full(offsets[-1], np.nan),
        n_features=k,
    )
    at = offsets[:-1]
    for depth, (tree, split, feature, threshold, leaf_value) in enumerate(levels):
        table.value[at[~split]] = leaf_value
        parent = at[split]
        table.feature[parent] = feature
        table.threshold[parent] = threshold
        if parent.size:
            left = parent + 1
            right = left + sizes[depth + 1][0::2]
            table.right[parent] = right - offsets[tree[split]]
            at = np.stack((left, right), axis=1).ravel()
    return Forest(nodes=table, offsets=offsets, depth=len(levels) - 1, config=config)


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
    """Grow one CART regression tree on every row of (X, y), drawing from rng.

    Splitting stops when a node is pure, has fewer than 2*min_leaf rows,
    or no threshold leaves min_leaf rows on both sides; such nodes become
    leaves predicting their target mean, a sequential sum over the count
    (never an error). Growth and the column draws are those of one tree
    of rf_fit, without the bootstrap.
    """
    X, y = _training_data(X, y)
    return _grow(X, y, np.arange(X.shape[0])[None, :], config, rng).trees[0]


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


def block_bootstrap_indices(n_trees: int, n: int, block_length: int, rng) -> np.ndarray:
    """Circular block bootstrap rows for n_trees resamples of n observations.

    Row t concatenates wrapped blocks and is truncated to n. Each block
    starts uniformly in [0, n) and runs block_length positions modulo n,
    so every observation has equal inclusion probability. All block starts
    are drawn in one call, tree by tree.
    """
    if n < 1:
        raise ValueError(f"need at least one observation, got n={n}")
    if block_length < 1:
        raise ValueError(f"block_length must be >= 1, got {block_length}")
    starts = rng.integers(0, n, size=(n_trees, math.ceil(n / block_length)))
    blocks = (starts[:, :, None] + np.arange(block_length)) % n
    return blocks.reshape(n_trees, -1)[:, :n]


def rf_fit(X, y, config: ForestConfig) -> Forest:
    """Fit config.n_trees trees, each on its own block-bootstrap resample.

    One generator, np.random.default_rng(config.seed), makes every draw in
    the order the module docstring gives, so the forest is reproducible
    run to run and depends on no other fit's draws.
    """
    X, y = _training_data(X, y)
    rng = np.random.default_rng(config.seed)
    rows = block_bootstrap_indices(config.n_trees, X.shape[0], config.block_length, rng)
    return _grow(X, y, rows, config, rng)


def rf_predict(forest: Forest, x) -> float:
    """Arithmetic mean of the tree predictions at x.

    Every tree is walked at once for forest.depth steps; a walk that has
    reached its leaf stays there.
    """
    nodes = forest.nodes
    x = _checked_input(nodes, x)
    roots = forest.offsets[:-1]
    at = roots
    for _ in range(forest.depth):
        feature = nodes.feature[at]
        step = np.where(x[feature] <= nodes.threshold[at], at + 1, roots + nodes.right[at])
        at = np.where(feature < 0, at, step)
    return float(np.mean(nodes.value[at]))
