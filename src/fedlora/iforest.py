"""Isolation forest built from scratch.

Trees recursively partition seeded subsamples on a uniformly random
feature at a uniformly random cut between that node's min and max.
Points that isolate in few splits get anomaly scores near 1; deep,
well-embedded points score low. Scores follow s(x) = 2^(-E[h(x)]/c(psi))
with the usual average-path-length normalizer.

Each tree is a flat node table. All trees of a forest grow together,
one level at a time: the forest's generator draws every tree's
subsample first, then one batch of (feature, cut) pairs per level for
all the nodes of that level that split. Scoring walks every tree at
once, one level per step, over fixed-size blocks of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import FeatureFrame

_EULER_GAMMA = 0.5772156649
# Rows scored together: the (trees, rows) position arrays stay small, so
# scoring adds little to peak memory however many rows arrive.
_SCORE_BLOCK = 128
# Subsample rows grown together: every tree of a small forest grows in one
# pass, while a large forest's per-level row arrays stay a few MB.
_GROW_ROWS = 1 << 17


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length in a binary tree of n points."""
    if n <= 1:
        return 0.0
    return 2.0 * (np.log(n - 1.0) + _EULER_GAMMA) - 2.0 * (n - 1.0) / n


@dataclass
class _Tree:
    """One isolation tree as flat node arrays; node 0 is the root.

    An internal node i sends a row to left[i] when x[feature[i]] <
    threshold[i] and to right[i] otherwise. A leaf has feature -1, both
    children pointing at itself, and leaf_value = depth + c(size): the
    path length of a row that ends there.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    height: int


@dataclass
class IForest:
    """Fitted forest plus the training-score distribution for thresholding."""

    trees: list[_Tree]
    subsample_size: int
    training_scores: np.ndarray
    n_features: int | None = None  # width of the fitted data; None when unknown


def _grow_forest(columns: np.ndarray, subsamples: np.ndarray, limit: int, rng, path_table) -> list[_Tree]:
    """Grow one tree per row of `subsamples` (trees, psi), all together, level by level.

    `columns` is the data feature-major. At each depth, one index array
    holds the rows of every open node (two or more rows, below the height
    limit) of every tree, each node's rows contiguous. An open node in
    which some feature varies splits; every other node is a leaf. One
    draw of shape (2, splits) per level gives each split its feature,
    uniform among those that vary, and its cut lo + (hi - lo) * u.
    """
    n_trees, psi = subsamples.shape
    rows = subsamples.ravel()
    size, tree = np.full(n_trees, psi), np.arange(n_trees)
    levels = []  # per depth: tree, depth, feature, threshold, left, right, leaf_value
    base = 0  # id of the level's first node
    for depth in range(limit + 1):
        ids = base + np.arange(size.size)
        base += size.size
        feature, threshold, left, right = np.full(ids.size, -1), np.full(ids.size, np.nan), ids, ids.copy()
        split = (size >= 2) & (depth < limit)
        sizes = size[split]
        gathered = columns.take(rows, axis=1)
        lows = np.minimum.reduceat(gathered, np.cumsum(sizes) - sizes, axis=1)
        highs = np.maximum.reduceat(gathered, np.cumsum(sizes) - sizes, axis=1)
        del gathered  # the level's largest array
        varies = highs > lows
        k = varies.sum(axis=0)
        node = k.nonzero()[0]  # the open nodes that split
        if node.size < k.size:  # the others hold equal rows: leaves, rows dropped
            rows = rows[np.repeat(k > 0, sizes)]
            sizes = sizes[node]
            split[split] = k > 0
        u = rng.random((2, node.size))
        # feature: the (j+1)-th of those that vary, j uniform in [0, k)
        q = (np.cumsum(varies[:, node], axis=0) <= (u[0] * k[node]).astype(np.intp)).sum(axis=0)
        lo = lows[q, node]
        cut = lo + (highs[q, node] - lo) * u[1]
        feature[split], threshold[split] = q, cut
        children = base + np.arange(node.size)
        left[split], right[split] = children, children + node.size
        go_left = columns.ravel().take(np.repeat(q, sizes) * columns.shape[1] + rows) < np.repeat(cut, sizes)
        n_left = np.add.reduceat(go_left, np.cumsum(sizes) - sizes, dtype=np.intp)
        leaf_value = np.where(split, np.nan, depth + path_table[size])
        levels.append((tree, np.full(ids.size, depth), feature, threshold, left, right, leaf_value))
        size, tree = np.concatenate([n_left, sizes - n_left]), np.tile(tree[split], 2)
        # left rows first, order kept; then drop the rows of children that are leaves
        rows = rows.take(np.argsort(~go_left, kind="stable"))
        rows = rows[np.repeat((size >= 2) & (depth + 1 < limit), size)]

    tree, depth, feature, threshold, left, right, leaf_value = map(np.concatenate, zip(*levels))
    del levels  # a second copy of every node
    # renumber tree by tree, each in level order (all left children of a level before
    # all right ones), so that each tree's root is its node 0
    order = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=n_trees)
    first = np.cumsum(counts) - counts
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(first, counts)
    fields = (feature, threshold, local[left], local[right], leaf_value, depth)
    per_tree = zip(*(np.split(a[order], first[1:]) for a in fields))
    return [_Tree(*arrays, height=int(d.max())) for *arrays, d in per_tree]


def _path_length_sums(trees: list[_Tree], x: np.ndarray) -> np.ndarray:
    """Per row, the sum over trees (in tree order) of the path length."""
    offsets = np.cumsum([0] + [t.feature.size for t in trees[:-1]])
    feature = np.maximum(np.concatenate([t.feature for t in trees]), 0)  # leaves loop on themselves
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + off for t, off in zip(trees, offsets)])
    right = np.concatenate([t.right + off for t, off in zip(trees, offsets)])
    leaf_value = np.concatenate([t.leaf_value for t in trees])
    height = max(t.height for t in trees)

    total = np.zeros(x.shape[0])
    for start in range(0, x.shape[0], _SCORE_BLOCK):
        block = x[start : start + _SCORE_BLOCK]
        b = block.shape[0]
        columns = block.T.ravel()  # feature f of row r sits at f * b + r
        row = np.arange(b)
        pos = np.repeat(offsets[:, None], b, axis=1)  # (trees, rows) node ids
        for _ in range(height):
            go_left = columns[feature[pos] * b + row] < threshold[pos]
            pos = np.where(go_left, left[pos], right[pos])
        sums = total[start : start + b]
        for lengths in leaf_value[pos]:  # tree by tree, as a serial sum would
            sums += lengths
    return total


def _values(frame) -> np.ndarray:
    x = frame.values if isinstance(frame, FeatureFrame) else np.asarray(frame, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D (rows, features) array, got {x.ndim}-D")
    return x


def fit_iforest(frame, n_trees: int = 100, max_samples: float = 0.27, seed: int = 0) -> IForest:
    """Fit n_trees isolation trees on subsamples of size round(max_samples * n)."""
    x = _values(frame)
    n = x.shape[0]
    if n < 8:
        raise ValueError("need at least 8 instances to fit an isolation forest")
    if not np.isfinite(x).all():
        raise ValueError("isolation forest input must be finite (no NaN or inf)")
    if np.all(x == x[0]):
        raise ValueError("degenerate data: all rows identical")
    if not 0.0 < max_samples <= 1.0:
        raise ValueError("max_samples fraction must lie in (0, 1]")
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")

    psi = min(n, max(2, round(max_samples * n)))
    limit = int(np.ceil(np.log2(psi)))
    path_table = np.array([average_path_length(size) for size in range(psi + 1)])
    rng = np.random.default_rng(seed)
    subsamples = np.array([rng.choice(n, size=psi, replace=False) for _ in range(n_trees)])
    columns = np.ascontiguousarray(x.T)  # feature-major: per-node reductions run along rows
    per_block = max(1, _GROW_ROWS // psi)
    blocks = np.split(subsamples, range(per_block, n_trees, per_block))
    trees = [tree for block in blocks for tree in _grow_forest(columns, block, limit, rng, path_table)]

    forest = IForest(trees, subsample_size=psi, training_scores=np.empty(0), n_features=x.shape[1])
    forest.training_scores = iforest_scores(forest, x)
    return forest


def iforest_scores(forest: IForest, frame) -> np.ndarray:
    """Anomaly scores in (0, 1); higher means easier to isolate."""
    if not forest.trees:
        raise ValueError("forest has no trees")
    x = _values(frame)
    if forest.n_features is not None and x.shape[1] != forest.n_features:
        raise ValueError(
            f"forest was fitted on {forest.n_features} features, got {x.shape[1]}"
        )
    mean_depth = _path_length_sums(forest.trees, x) / len(forest.trees)
    return 2.0 ** (-mean_depth / average_path_length(forest.subsample_size))


def _contamination_threshold(forest: IForest, contamination: float) -> float:
    """Training-score quantile above which a contamination share is flagged."""
    if not 0.0 < contamination <= 0.5:
        raise ValueError("contamination must lie in (0, 0.5]")
    return float(np.quantile(forest.training_scores, 1.0 - contamination))


def iforest_classify(forest: IForest, frame, contamination: float = 0.07) -> np.ndarray:
    """Flag scores at or above the (1 - contamination) quantile of training scores."""
    return iforest_scores(forest, frame) >= _contamination_threshold(forest, contamination)
