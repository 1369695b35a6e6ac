"""Tests for tree growth, leaf-basis evaluation, and forest averaging.

The split oracle re-derives the best root split by brute force: every
column, every midpoint between distinct values, SSE computed directly
from child means.  The production path uses prefix sums, so agreement
is meaningful.

The growth oracle is a recursive grower that handles one node at a time:
it visits the nodes breadth-first, draws each node's columns with its own
call, and writes each tree out in preorder by recursion. The production
grower handles a whole level of every tree per step and lays the trees
out with index arithmetic, so tree-for-tree equality checks both the
draw order and the layout.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minutecast import forest
from minutecast.errors import ConfigError, FitError, ShapeError


def exhaustive_root_split(X, y, min_leaf):
    """Brute-force (sse, col, thr) minimizer; ties to lowest col then thr."""
    best = None
    for col in range(X.shape[1]):
        vals = np.unique(X[:, col])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[:, col] <= thr
            nl = int(mask.sum())
            nr = X.shape[0] - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            left, right = y[mask], y[~mask]
            sse = float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())
            if best is None or sse < best[0]:
                best = (sse, col, thr)
    return best


def make_tree(feature, threshold, right, value, n_features):
    return forest.Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=float),
        n_features=n_features,
    )


def assert_trees_equal(a, b):
    """Every field of the two node tables matches, NaN equal to NaN."""
    assert a.n_features == b.n_features
    for name in ("feature", "threshold", "right", "value"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), strict=True)


def assert_forests_equal(a, b):
    assert a.config == b.config
    assert len(a.trees) == len(b.trees)
    for tree_a, tree_b in zip(a.trees, b.trees):
        assert_trees_equal(tree_a, tree_b)


def stacked_forest(trees, config):
    """A Forest holding hand-built trees in one table, as rf_fit lays them out."""
    depth = 0
    for tree in trees:
        level = np.zeros(tree.feature.shape[0], dtype=int)
        for i in np.flatnonzero(tree.feature >= 0):  # a parent's row precedes its children's
            level[i + 1] = level[tree.right[i]] = level[i] + 1
        depth = max(depth, int(level.max()))
    nodes = forest.Tree(
        *(np.concatenate([getattr(t, name) for t in trees])
          for name in ("feature", "threshold", "right", "value")),
        n_features=trees[0].n_features,
    )
    offsets = np.cumsum([0] + [t.feature.shape[0] for t in trees])
    return forest.Forest(nodes=nodes, offsets=offsets, depth=depth, config=config)


def heap_positions(tree):
    """(parent, leaf) heap positions; the children of j sit at 2j+1 and 2j+2."""
    split = tree.feature >= 0
    position = {0: 0}
    for i in np.flatnonzero(split):
        position[i + 1] = 2 * position[i] + 1
        position[tree.right[i]] = 2 * position[i] + 2
    return ({position[i] for i in np.flatnonzero(split)},
            {position[i] for i in np.flatnonzero(~split)})


def routed_leaf(tree, x):
    """Row of the leaf that x reaches, walking the table by hand."""
    i = 0
    while tree.feature[i] != -1:
        i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else int(tree.right[i])
    return i


def predict_from_basis(tree, x):
    """The tree as a weighted sum of its leaf basis functions."""
    return float(forest.leaf_basis(tree, x) @ tree.value[tree.feature < 0])


def oracle_block_bootstrap(n, block_length, rng):
    """Block starts drawn one at a time, each block cut to what is still missing."""
    out = np.empty(n, dtype=np.intp)
    filled = 0
    while filled < n:
        start = int(rng.integers(0, n))
        take = min(block_length, n - filled)
        out[filled : filled + take] = (start + np.arange(take)) % n
        filled += take
    return out


def oracle_best_split(X, y, min_leaf, columns):
    """Lowest-SSE (sse, column, threshold) over midpoint candidates, or None.

    Iterates columns ascending with thresholds ascending inside each, and
    improves only on strictly smaller SSE, so the first optimum wins.
    """
    m = y.shape[0]
    best = None
    for col in columns:
        order = np.argsort(X[:, col], kind="stable")
        xv = X[order, col]
        ys = y[order]
        cs = np.cumsum(ys)
        cq = np.cumsum(ys * ys)
        total_s = cs[-1]
        total_q = cq[-1]
        cut = np.nonzero(xv[:-1] < xv[1:])[0]  # split after these positions
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
            lo, hi = xv[cut[pick]], xv[cut[pick] + 1]
            thr = 0.5 * (lo + hi)
            if not thr < hi:  # rounded up to hi: split at lo
                thr = lo
            best = (float(sse[pick]), int(col), float(thr))
    return best


def oracle_columns(rng, k, max_features):
    """One tree's or node's columns: its max_features smallest of k uniforms."""
    return np.sort(np.argsort(rng.random(k), kind="stable")[:max_features])


def oracle_grow(X, y, rows, config, rng):
    """One tree per entry of rows, grown breadth-first a node at a time.

    Nodes are visited level by level, in tree order and then in order
    within the level, and each node that can split draws its own columns.
    """
    k = X.shape[1]
    mf = config.resolve_max_features(k)
    per_tree = config.feature_mode == "per-tree"
    tree_columns = [oracle_columns(rng, k, mf) for _ in rows] if per_tree else None
    roots = [{"tree": t, "rows": r} for t, r in enumerate(rows)]
    level = roots
    while level:
        following = []
        for node in level:
            Xn, yn = X[node["rows"]], y[node["rows"]]
            best = None
            if yn.shape[0] >= 2 * config.min_leaf and not np.all(yn == yn[0]):
                columns = tree_columns[node["tree"]] if per_tree else oracle_columns(rng, k, mf)
                best = oracle_best_split(Xn, yn, config.min_leaf, columns)
            if best is None:
                node["value"] = np.cumsum(yn)[-1] / yn.shape[0]
                continue
            _, col, thr = best
            mask = Xn[:, col] <= thr
            node["split"] = (col, thr)
            node["children"] = [{"tree": node["tree"], "rows": node["rows"][side]}
                                for side in (mask, ~mask)]
            following.extend(node["children"])
        level = following
    return [oracle_preorder(root, k) for root in roots]


def oracle_preorder(root, n_features):
    """The node table of a grown tree, written by a preorder recursion."""
    rows = []

    def emit(node):
        if "split" not in node:
            rows.append((-1, np.nan, -1, node["value"]))
            return
        at = len(rows)
        rows.append(None)
        emit(node["children"][0])
        rows[at] = (*node["split"], len(rows), np.nan)
        emit(node["children"][1])

    emit(root)
    return make_tree(*zip(*rows), n_features=n_features)


def oracle_rf_fit(X, y, config):
    """Per tree, its bootstrap drawn a block at a time, then oracle growth."""
    rng = np.random.default_rng(config.seed)
    rows = [oracle_block_bootstrap(X.shape[0], config.block_length, rng)
            for _ in range(config.n_trees)]
    return oracle_grow(X, y, rows, config, rng)


def figure_tree():
    """Hand-built topology: parents at heap positions {0, 2, 5},
    leaves at {1, 6, 11, 12}; rows in preorder."""
    return make_tree(
        feature=[0, -1, 1, 0, -1, -1, -1],
        threshold=[10.0, np.nan, 0.5, 7.0, np.nan, np.nan, np.nan],
        right=[2, -1, 6, 5, -1, -1, -1],
        # positions 0, 1, 2, 5, 11, 12, 6
        value=[np.nan, 1.0, np.nan, np.nan, 3.0, 4.0, 2.0],
        n_features=2,
    )


class TestGrowTree:
    def test_constant_target_single_leaf(self):
        X = np.arange(12.0).reshape(-1, 1)
        tree = forest.grow_tree(X, np.full(12, 2.5), forest.ForestConfig(min_leaf=1),
                                np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == 2.5

    def test_hand_worked_split(self):
        # candidates 1.5, 2.5, 3.5; SSE 66.67, 0, 66.67 -> split at 2.5
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        cfg = forest.ForestConfig(min_leaf=1, max_features=1)
        tree = forest.grow_tree(X, y, cfg, np.random.default_rng(0))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        assert forest.tree_predict(tree, np.array([1.5])) == 0.0
        assert forest.tree_predict(tree, np.array([3.7])) == 10.0

    def test_min_leaf_equal_to_n_forbids_split(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.arange(8.0)
        tree = forest.grow_tree(X, y, forest.ForestConfig(min_leaf=8),
                                np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == pytest.approx(3.5)

    def test_small_sample_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        tree = forest.grow_tree(X, np.array([1.0, 2.0, 9.0]),
                                forest.ForestConfig(min_leaf=2), np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]

    def test_root_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 3))
            X = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            cfg = forest.ForestConfig(min_leaf=1, max_features=k)
            tree = forest.grow_tree(X, y, cfg, np.random.default_rng(0))
            oracle = exhaustive_root_split(X, y, min_leaf=1)
            assert tree.feature[0] == oracle[1]
            assert tree.threshold[0] == pytest.approx(oracle[2], abs=1e-12)

    def test_duplicate_values_split_between_distinct_only(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0], [2.0], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 6.0, 6.0, 6.0])
        cfg = forest.ForestConfig(min_leaf=1, max_features=1)
        tree = forest.grow_tree(X, y, cfg, np.random.default_rng(0))
        assert tree.threshold[0] == 1.5
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.right[0] == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("lo, hi", [
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # adjacent floats: the midpoint rounds to hi
        (1.0e308, 1.7e308),  # lo + hi overflows: the midpoint is inf
    ])
    def test_split_between_close_or_huge_values_separates_them(self, lo, hi):
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = forest.ForestConfig(n_trees=3, min_leaf=1, block_length=4)
        tree = forest.grow_tree(X, y, cfg, np.random.default_rng(0))
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == lo
        assert tree.value[1:].tolist() == [0.0, 1.0]
        assert forest.tree_predict(tree, np.array([hi])) == 1.0
        assert_trees_equal(tree, oracle_grow(X, y, [np.arange(4)], cfg, np.random.default_rng(0))[0])
        for fitted, expected in zip(forest.rf_fit(X, y, cfg).trees, oracle_rf_fit(X, y, cfg)):
            assert_trees_equal(fitted, expected)

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        cfg = forest.ForestConfig(min_leaf=3, max_features=2)
        tree = forest.grow_tree(X, y, cfg, np.random.default_rng(1))
        routed = {}
        for row, target in zip(X, y):
            routed.setdefault(routed_leaf(tree, row), []).append(target)
        for leaf, targets in routed.items():
            assert tree.value[leaf] == pytest.approx(np.mean(targets), abs=1e-12)
            assert len(targets) >= 3

    def test_range_preservation(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        tree = forest.grow_tree(X, y, forest.ForestConfig(min_leaf=2, max_features=2),
                                np.random.default_rng(2))
        for _ in range(50):
            pred = forest.tree_predict(tree, rng.normal(size=2) * 3)
            assert y.min() <= pred <= y.max()

    def test_leaf_count_is_parent_count_plus_one(self):
        rng = np.random.default_rng(27)
        for seed in range(5):
            X = rng.normal(size=(25, 2))
            y = rng.normal(size=25)
            tree = forest.grow_tree(X, y, forest.ForestConfig(min_leaf=2, max_features=1),
                                    np.random.default_rng(seed))
            parents, leaves = heap_positions(tree)
            assert len(leaves) == len(parents) + 1

    def test_input_validation(self):
        cfg = forest.ForestConfig()
        with pytest.raises(ShapeError):
            forest.grow_tree(np.ones(5), np.ones(5), cfg, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forest.grow_tree(np.ones((5, 1)), np.ones(4), cfg, np.random.default_rng(0))
        with pytest.raises(FitError):
            forest.grow_tree(np.array([[np.nan]]), np.array([1.0]), cfg,
                             np.random.default_rng(0))


class TestTreePredict:
    def test_single_leaf_tree(self):
        tree = make_tree([-1], [np.nan], [-1], [1.25], n_features=3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert forest.tree_predict(tree, rng.normal(size=3)) == 1.25

    def test_figure_topology_positions(self):
        tree = figure_tree()
        parents, leaves = heap_positions(tree)
        assert parents == {0, 2, 5}
        assert leaves == {1, 6, 11, 12}
        assert forest.leaf_basis(tree, np.zeros(2)).shape == (4,)

    def test_figure_topology_partition_of_unity(self):
        tree = figure_tree()
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-5, 20, size=2)
            basis = forest.leaf_basis(tree, x)
            assert basis.sum() == 1.0
            assert np.count_nonzero(basis == 1.0) == 1
            assert np.count_nonzero(basis == 0.0) == len(basis) - 1

    def test_routing_equals_basis_formula(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        tree = forest.grow_tree(X, y, forest.ForestConfig(min_leaf=2, max_features=2),
                                np.random.default_rng(5))
        for _ in range(100):
            x = rng.normal(size=2) * 2
            assert forest.tree_predict(tree, x) == predict_from_basis(tree, x)

    def test_deep_chain_tree(self):
        # every split peels off the largest target, so the tree is a chain
        # of 149 splits whose deepest heap position is past 2**148
        n = 150
        X = np.arange(float(n)).reshape(-1, 1)
        y = np.exp(2.0 * np.arange(n))
        tree = forest.grow_tree(X, y, forest.ForestConfig(min_leaf=1),
                                np.random.default_rng(0))
        assert np.issubdtype(tree.right.dtype, np.integer)
        assert np.count_nonzero(tree.feature >= 0) == n - 1
        assert max(heap_positions(tree)[1]) > 2**148
        leaves = np.array([routed_leaf(tree, row) for row in X])
        for x in X:
            assert forest.tree_predict(tree, x) == y[leaves == routed_leaf(tree, x)].mean()
            assert forest.leaf_basis(tree, x).sum() == 1.0

    def test_length_mismatch(self):
        tree = figure_tree()
        with pytest.raises(ShapeError):
            forest.tree_predict(tree, np.array([1.0]))
        with pytest.raises(ShapeError):
            forest.leaf_basis(tree, np.array([1.0, 2.0, 3.0]))


class TestBlockBootstrap:
    def test_full_length_block_is_rotation(self):
        rng = np.random.default_rng(0)
        n = 12
        idx = forest.block_bootstrap_indices(1, n, n, rng)[0]
        assert sorted(idx) == list(range(n))
        steps = (np.diff(idx) - 1) % n
        assert np.all(steps == 0)

    def test_unit_block_is_iid_draws(self):
        rng = np.random.default_rng(1)
        idx = forest.block_bootstrap_indices(1, 500, 1, rng)[0]
        assert idx.shape == (500,)
        assert idx.min() >= 0 and idx.max() < 500
        # a length-1 block imposes no serial structure; draws should cover
        assert len(np.unique(idx)) > 250

    def test_blocks_are_contiguous_modulo_n(self):
        rng = np.random.default_rng(2)
        n, bl = 50, 7
        for _ in range(20):
            rows = forest.block_bootstrap_indices(3, n, bl, rng)
            assert rows.shape == (3, n)
            for start in range(0, n, bl):
                block = rows[:, start : start + bl]
                assert np.all((np.diff(block, axis=1) - 1) % n == 0)

    def test_block_longer_than_series(self):
        rng = np.random.default_rng(3)
        idx = forest.block_bootstrap_indices(1, 4, 99, rng)[0]
        assert idx.shape == (4,)
        assert np.all((np.diff(idx) - 1) % 4 == 0)

    def test_deterministic_given_state(self):
        a = forest.block_bootstrap_indices(4, 30, 5, np.random.default_rng(9))
        b = forest.block_bootstrap_indices(4, 30, 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_matches_one_draw_per_block_oracle(self):
        # one call for every tree's blocks draws what one call per block,
        # tree after tree, draws
        for seed in range(20):
            for n_trees in (1, 3):
                for n in (1, 2, 5, 22, 29, 30, 31, 64, 100):
                    for bl in (1, 3, 5, 7, 30, 99):
                        rng = np.random.default_rng(seed)
                        oracle_rng = np.random.default_rng(seed)
                        rows = forest.block_bootstrap_indices(n_trees, n, bl, rng)
                        oracle = [oracle_block_bootstrap(n, bl, oracle_rng)
                                  for _ in range(n_trees)]
                        np.testing.assert_array_equal(rows, np.array(oracle))
                        assert np.issubdtype(rows.dtype, np.integer)
                        assert rng.random() == oracle_rng.random()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            forest.block_bootstrap_indices(1, 0, 5, np.random.default_rng(0))


def find_identity_rotation_seed(n, limit=400):
    """Forest seed whose generator starts a one-tree, one-block bootstrap at 0."""
    for seed in range(limit):
        if int(np.random.default_rng(seed).integers(0, n)) == 0:
            return seed
    raise AssertionError("no identity-rotation seed found in range")


@st.composite
def growth_cases(draw):
    """(X, y, config): tied values, constant targets, n below 2*min_leaf."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a few distinct values make ties in X and y; many make them rare
    distinct_x = draw(st.sampled_from([1, 2, 3, 6, 1000]))
    X = rng.integers(0, distinct_x, size=(n, k)) * 0.25 + draw(st.sampled_from([0.0, -3.0]))
    y_kind = draw(st.sampled_from(["constant", "tied", "continuous"]))
    if y_kind == "constant":
        y = np.full(n, draw(st.sampled_from([0.0, 0.1, -2.5])))
    elif y_kind == "tied":
        y = rng.integers(0, 3, size=n) * 0.1
    else:
        y = rng.normal(size=n)
    config = forest.ForestConfig(
        n_trees=draw(st.integers(1, 6)),
        min_leaf=draw(st.integers(1, 5)),
        max_features=draw(st.integers(1, k)),
        block_length=draw(st.integers(1, n + 2)),
        feature_mode=draw(st.sampled_from(["per-split", "per-tree"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, y, config


class TestGrowthOracle:
    @given(case=growth_cases())
    @settings(max_examples=150, deadline=None)
    def test_forest_matches_recursive_oracle_tree_for_tree(self, case):
        X, y, config = case
        fitted = forest.rf_fit(X, y, config)
        oracle = oracle_rf_fit(X, y, config)
        assert len(fitted.trees) == len(oracle) == config.n_trees
        for tree, expected in zip(fitted.trees, oracle):
            assert_trees_equal(tree, expected)

    @given(case=growth_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grow_tree_matches_recursive_oracle(self, case, seed):
        X, y, config = case
        tree = forest.grow_tree(X, y, config, np.random.default_rng(seed))
        rows = [np.arange(X.shape[0])]
        assert_trees_equal(tree, oracle_grow(X, y, rows, config, np.random.default_rng(seed))[0])

    def test_seeded_windows_match_oracle(self):
        # default settings on 30-row windows, the shape every rf fit has
        rng = np.random.default_rng(61)
        for seed in range(3):
            X = np.round(rng.uniform(size=(30, 5)), 1)
            y = rng.uniform(size=30)
            config = forest.ForestConfig(n_trees=20, seed=seed)
            for tree, expected in zip(forest.rf_fit(X, y, config).trees,
                                      oracle_rf_fit(X, y, config)):
                assert_trees_equal(tree, expected)


class TestForest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        cfg = forest.ForestConfig(n_trees=10, seed=5)
        fitted = forest.rf_fit(X, y, cfg)
        assert_forests_equal(fitted, forest.rf_fit(X, y, cfg))
        other = forest.rf_fit(X, y, replace(cfg, seed=6))
        with pytest.raises(AssertionError):  # the trees differ, not just the seed
            assert_forests_equal(fitted, replace(other, config=cfg))

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 2))
        fitted = forest.rf_fit(X, np.full(20, 1.5), forest.ForestConfig(n_trees=5, seed=0))
        for tree in fitted.trees:
            assert tree.feature.tolist() == [-1]
            assert tree.value[0] == 1.5
        assert forest.rf_predict(fitted, np.zeros(2)) == 1.5

    def test_mean_of_two_leaves(self):
        f = stacked_forest(
            [make_tree([-1], [np.nan], [-1], [1.0], n_features=1),
             make_tree([-1], [np.nan], [-1], [3.0], n_features=1)],
            forest.ForestConfig(n_trees=2),
        )
        assert forest.rf_predict(f, np.array([0.0])) == 2.0

    def test_walk_over_trees_of_different_depths(self):
        # the walk runs the deepest tree's depth; shallower trees stay at their leaves
        trees = [make_tree([-1], [np.nan], [-1], [0.5], n_features=2), figure_tree(),
                 make_tree([1, -1, -1], [0.0, np.nan, np.nan], [2, -1, -1],
                           [np.nan, -1.0, 7.0], n_features=2)]
        f = stacked_forest(trees, forest.ForestConfig(n_trees=3))
        assert f.depth == 3
        for tree, view in zip(trees, f.trees):
            assert_trees_equal(view, tree)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(-5, 20, size=2)
            per_tree = [forest.tree_predict(t, x) for t in trees]
            assert forest.rf_predict(f, x) == float(np.mean(per_tree))

    def test_prediction_is_bitwise_mean_of_trees(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        fitted = forest.rf_fit(X, y, forest.ForestConfig(n_trees=7, seed=2))
        for _ in range(20):
            x = rng.normal(size=3)
            per_tree = [forest.tree_predict(t, x) for t in fitted.trees]
            assert forest.rf_predict(fitted, x) == np.mean(per_tree)
            assert min(per_tree) <= forest.rf_predict(fitted, x) <= max(per_tree)

    def test_degenerate_config_equals_plain_cart(self):
        rng = np.random.default_rng(43)
        n = 20
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        seed = find_identity_rotation_seed(n)
        cfg = forest.ForestConfig(
            n_trees=1, min_leaf=1, max_features=2, block_length=n, seed=seed
        )
        fitted = forest.rf_fit(X, y, cfg)
        cart = forest.grow_tree(X, y, cfg, np.random.default_rng(0))
        assert_trees_equal(fitted.trees[0], cart)
        for _ in range(50):
            x = rng.normal(size=2)
            assert forest.rf_predict(fitted, x) == forest.tree_predict(cart, x)

    def test_per_tree_mode_uses_one_subset_per_tree(self):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        cfg = forest.ForestConfig(
            n_trees=8, min_leaf=2, max_features=1, feature_mode="per-tree", seed=4
        )
        fitted = forest.rf_fit(X, y, cfg)
        assert_forests_equal(forest.rf_fit(X, y, cfg), fitted)
        for tree in fitted.trees:
            used = set(tree.feature[tree.feature >= 0].tolist())
            assert len(used) <= 1  # the tree's one drawn column
            assert all(0 <= v < 3 for v in used)
        # predictions still evaluate against full-width inputs
        forest.rf_predict(fitted, np.zeros(3))

    def test_max_features_resolution(self):
        assert forest.ForestConfig().resolve_max_features(7) == 3
        assert forest.ForestConfig().resolve_max_features(1) == 1
        assert forest.ForestConfig().resolve_max_features(3) == 1
        assert forest.ForestConfig(max_features=2).resolve_max_features(5) == 2
        with pytest.raises(ConfigError):
            forest.ForestConfig(max_features=4).resolve_max_features(3)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            forest.ForestConfig(n_trees=0)
        with pytest.raises(ConfigError):
            forest.ForestConfig(min_leaf=0)
        with pytest.raises(ConfigError):
            forest.ForestConfig(block_length=0)
        with pytest.raises(ConfigError):
            forest.ForestConfig(feature_mode="per-node")
        with pytest.raises(ConfigError):
            forest.ForestConfig(seed=-1)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_of_unity_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        tree = forest.grow_tree(X, y, forest.ForestConfig(min_leaf=1, max_features=1),
                                np.random.default_rng(seed))
        x = rng.uniform(-4, 4, size=2)
        basis = forest.leaf_basis(tree, x)
        assert basis.sum() == 1.0
        assert set(np.unique(basis)) <= {0.0, 1.0}
