"""Isolation forest built from scratch.

Trees recursively partition seeded subsamples on a uniformly random
feature at a uniformly random cut between that node's min and max.
Points that isolate in few splits get anomaly scores near 1; deep,
well-embedded points score low. Scores follow s(x) = 2^(-E[h(x)]/c(psi))
with the usual average-path-length normalizer.

The whole forest is one flat node table in which siblings sit side by
side, so a node's right child is its left child's id plus one. All
trees of a forest grow together, one level at a time: the forest's
generator draws every tree's subsample first, then one batch of
(feature, cut) pairs per level for all the nodes of that level that
split. Scoring walks every tree at once, one level per step, over
fixed-size blocks of rows: per level, each row's position moves to
left + (x[feature] >= threshold), and a leaf points at itself.
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
class IForest:
    """Fitted forest as one node table, plus the training-score distribution.

    Node ids run over the whole forest, and tree t starts at roots[t]. An
    internal node i sends a row x to left[i] when x[feature[i]] <
    threshold[i] and to left[i] + 1 otherwise: siblings are adjacent. A
    leaf has feature 0, threshold +inf and left[i] == i, so a finite row
    stays on it, and leaf_value = depth + c(size): the path length of a
    row that ends there. height is the depth of the forest's deepest node.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    leaf_value: np.ndarray
    height: int
    subsample_size: int
    training_scores: np.ndarray
    n_features: int


def _grow_forest(columns: np.ndarray, subsamples: np.ndarray, limit: int, rng, path_table, base: int):
    """Grow one tree per row of `subsamples` (trees, psi), all together, level by level.

    `columns` is the data feature-major. At each depth, one index array
    holds the rows of every open node (two or more rows, below the height
    limit) of every tree, each node's rows contiguous. An open node in
    which some feature varies splits; every other node is a leaf. A
    feature varies where the node's first two rows differ on it; only a
    node where some feature ties there takes every feature's min and max.
    One draw of shape (2, splits) per level gives each split its feature,
    uniform among those that vary, and its cut lo + (hi - lo) * u, where
    lo and hi are the min and max of that feature alone.

    Nodes grow in level order, all left children of a level before all
    right ones, but are stored as sibling pairs: ids start at `base` with
    the roots, and the children of a level's k-th split are the next
    level's ids 2k and 2k + 1. Returns the roots, the feature, threshold,
    left and leaf_value arrays in id order, and the height.
    """
    n_trees, psi = subsamples.shape
    rows = subsamples.ravel()
    size = np.full(n_trees, psi)
    roots = base + np.arange(n_trees)
    ids = roots.copy()  # per node in growing order, its id
    levels = []  # per depth, in id order: feature, threshold, left, leaf_value
    for depth in range(limit + 1):
        if not size.size:
            break
        base += size.size
        feature, threshold, left = np.zeros(size.size, np.intp), np.full(size.size, np.inf), ids
        split = (size >= 2) & (depth < limit)
        sizes = size[split]
        starts = np.cumsum(sizes) - sizes
        # first two rows equal on a feature (equal rows, constant columns): unsure
        varies = columns[:, rows[starts]] != columns[:, rows[starts + 1]]
        unsure = ~varies.all(axis=0)
        if unsure.any():
            gathered = columns.take(rows[np.repeat(unsure, sizes)], axis=1)
            at = np.cumsum(sizes[unsure]) - sizes[unsure]
            varies[:, unsure] = np.maximum.reduceat(gathered, at, axis=1) > np.minimum.reduceat(gathered, at, axis=1)
        k = varies.sum(axis=0)
        node = k.nonzero()[0]  # the open nodes that split
        if node.size < k.size:  # the others hold equal rows: leaves, rows dropped
            rows = rows[np.repeat(k > 0, sizes)]
            sizes = sizes[node]
            starts = np.cumsum(sizes) - sizes
            split[split] = k > 0
        u = rng.random((2, node.size))
        # feature: the (j+1)-th of those that vary, j uniform in [0, k)
        q = (np.cumsum(varies[:, node], axis=0) <= (u[0] * k[node]).astype(np.intp)).sum(axis=0)
        value = columns.ravel().take(np.repeat(q, sizes) * columns.shape[1] + rows)  # each row's chosen feature
        lo = np.minimum.reduceat(value, starts)
        cut = lo + (np.maximum.reduceat(value, starts) - lo) * u[1]
        feature[split], threshold[split] = q, cut
        left[split] = base + 2 * np.arange(node.size)
        go_left = value < np.repeat(cut, sizes)
        n_left = np.add.reduceat(go_left, starts, dtype=np.intp)
        level = (feature, threshold, left, np.where(split, np.nan, depth + path_table[size]))
        levels.append(level if depth == 0 else [a.reshape(2, -1).T.ravel() for a in level])
        size = np.concatenate([n_left, sizes - n_left])
        ids = base + np.arange(size.size).reshape(-1, 2).T.ravel()
        # left rows first, order kept; then drop the rows of children that are leaves
        rows = rows.take(np.argsort(~go_left, kind="stable"))
        rows = rows[np.repeat((size >= 2) & (depth + 1 < limit), size)]
    return (roots, *map(np.concatenate, zip(*levels)), len(levels) - 1)


def _path_length_sums(forest: IForest, x: np.ndarray) -> np.ndarray:
    """Per row, the sum over trees (in tree order) of the path length."""
    total = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _SCORE_BLOCK):
        block = x[start : start + _SCORE_BLOCK]
        cells = block.ravel()  # feature f of row r sits at r * width + f
        row = np.arange(block.shape[0]) * block.shape[1]
        pos = forest.roots[:, None]  # node ids: (trees, 1), then (trees, rows)
        for _ in range(forest.height):
            pos = forest.left[pos] + (cells[forest.feature[pos] + row] >= forest.threshold[pos])
        # tree by tree, as a serial sum would (add.reduce over the trees would not)
        total[start : start + block.shape[0]] = np.add.accumulate(forest.leaf_value[pos], axis=0)[-1]
    return total


def _values(frame) -> np.ndarray:
    x = frame.values if isinstance(frame, FeatureFrame) else np.asarray(frame, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D (rows, features) array, got {x.ndim}-D")
    if not np.isfinite(x).all():
        raise ValueError("isolation forest input must be finite (no NaN or inf)")
    return x


def _check_max_samples(max_samples: float) -> None:
    if not 0.0 < max_samples <= 1.0:
        raise ValueError("max_samples fraction must lie in (0, 1]")


def _check_contamination(contamination: float) -> None:
    if not 0.0 < contamination <= 0.5:
        raise ValueError("contamination must lie in (0, 0.5]")


def fit_iforest(frame, n_trees: int = 100, max_samples: float = 0.27, seed: int = 0) -> IForest:
    """Fit n_trees isolation trees on subsamples of size round(max_samples * n)."""
    x = _values(frame)
    n = x.shape[0]
    if n < 8:
        raise ValueError("need at least 8 instances to fit an isolation forest")
    if np.all(x == x[0]):
        raise ValueError("degenerate data: all rows identical")
    _check_max_samples(max_samples)
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")

    psi = min(n, max(2, round(max_samples * n)))
    limit = int(np.ceil(np.log2(psi)))
    path_table = np.array([average_path_length(size) for size in range(psi + 1)])
    rng = np.random.default_rng(seed)
    subsamples = np.array([rng.choice(n, size=psi, replace=False) for _ in range(n_trees)])
    columns = np.ascontiguousarray(x.T)  # feature-major: per-node reductions run along rows
    per_block = max(1, _GROW_ROWS // psi)
    blocks, base = [], 0
    for trees in np.split(subsamples, range(per_block, n_trees, per_block)):
        blocks.append(_grow_forest(columns, trees, limit, rng, path_table, base))
        base += blocks[-1][1].size  # the next block's ids follow this block's nodes
    *table, heights = zip(*blocks)
    forest = IForest(
        *map(np.concatenate, table),
        height=max(heights),
        subsample_size=psi,
        training_scores=np.empty(0),
        n_features=x.shape[1],
    )
    forest.training_scores = iforest_scores(forest, x)
    return forest


def iforest_scores(forest: IForest, frame) -> np.ndarray:
    """Anomaly scores in (0, 1); higher means easier to isolate."""
    if not forest.roots.size:
        raise ValueError("forest has no trees")
    x = _values(frame)
    if x.shape[1] != forest.n_features:
        raise ValueError(
            f"forest was fitted on {forest.n_features} features, got {x.shape[1]}"
        )
    mean_depth = _path_length_sums(forest, x) / forest.roots.size
    return 2.0 ** (-mean_depth / average_path_length(forest.subsample_size))


def _contamination_threshold(forest: IForest, contamination: float) -> float:
    """Training-score quantile above which a contamination share is flagged."""
    _check_contamination(contamination)
    return float(np.quantile(forest.training_scores, 1.0 - contamination))


def iforest_classify(forest: IForest, frame, contamination: float = 0.07) -> np.ndarray:
    """Flag scores at or above the (1 - contamination) quantile of training scores."""
    return iforest_scores(forest, frame) >= _contamination_threshold(forest, contamination)
