"""Regression trees, leaf indicators, and the block-bootstrap forest."""

import numpy as np

from minutecast import forest


def show(tree):
    """Print the node table: one row per node, in preorder."""
    print("  row  feature  threshold  right   value")
    for i, (f, thr, right, value) in enumerate(
        zip(tree.feature, tree.threshold, tree.right, tree.value)
    ):
        if f < 0:
            print(f"  {i:3d}     leaf                     {value:6.3f}")
        else:
            print(f"  {i:3d}  x[{f}] <=  {thr:8.3f}  {right:5d}")
    print("  (a split's left child is the next row; its right child is row `right`)")


def main():
    rng = np.random.default_rng(3)
    # a step function with noise: splits should land near 0 and 1
    X = rng.uniform(-2, 3, size=(120, 1))
    y = np.where(X[:, 0] < 0, 0.0, np.where(X[:, 0] < 1, 2.0, 5.0))
    y = y + 0.05 * rng.standard_normal(120)

    config = forest.ForestConfig(n_trees=1, min_leaf=20, max_features=1)
    tree = forest.grow_tree(X, y, config, np.random.default_rng(0))
    print("single tree on a noisy three-step function (min_leaf=20):")
    show(tree)

    x = np.array([0.5])
    basis = forest.leaf_basis(tree, x)
    leaf_means = tree.value[tree.feature < 0]
    print(f"\nleaf basis at x=0.5: {basis}  (one hot over {len(basis)} leaves, in row order)")
    print(f"prediction via routing:     {forest.tree_predict(tree, x):.3f}")
    print(f"prediction via basis * means: {basis @ leaf_means:.3f}")

    # the bootstrap draws whole contiguous blocks (wrapping at the end) so
    # neighboring rows stay together, which matters for serial data
    idx = forest.block_bootstrap_indices(12, 4, np.random.default_rng(8))
    print(f"\nblock bootstrap of 12 rows, block length 4: {idx.tolist()}")

    fitted = forest.rf_fit(X, y, forest.ForestConfig(n_trees=30, min_leaf=5, seed=1))
    grid = np.linspace(-1.5, 2.5, 5)
    print(f"\n{len(fitted.trees)}-tree forest along the step function:")
    for g in grid:
        per_tree = [forest.tree_predict(t, [g]) for t in fitted.trees]
        mean = forest.rf_predict(fitted, [g])
        print(f"  x={g:5.2f}  forecast {mean:6.3f}  tree spread "
              f"[{min(per_tree):.3f}, {max(per_tree):.3f}]")


if __name__ == "__main__":
    main()
