"""Isolation forest built from scratch.

Trees recursively partition seeded subsamples on a uniformly random
feature at a uniformly random cut between that node's min and max.
Points that isolate in few splits get anomaly scores near 1; deep,
well-embedded points score low. Scores follow s(x) = 2^(-E[h(x)]/c(psi))
with the usual average-path-length normalizer.

Each tree is a flat node table grown with an explicit stack in
depth-first, left-first order, which is the order the RNG draws are
made in. Scoring walks every tree at once, one level per step, over
fixed-size blocks of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import FeatureFrame

_EULER_GAMMA = 0.5772156649
# Rows scored together: the (trees, rows) position arrays stay small, so
# scoring adds little to peak memory however many rows arrive.
_SCORE_BLOCK = 128


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
    contamination: float | None = None
    score_threshold: float | None = None
    n_features: int | None = None  # width of the fitted data; None when unknown


def _grow(subsample: np.ndarray, limit: int, rng: np.random.Generator, path_table) -> _Tree:
    """Grow one tree on a subsample given feature-major, shape (features, rows).

    The stack pops the left child right after its parent, so every node
    makes its draws (one feature, one cut) in the depth-first, left-first
    order of the recursive definition; the forest is therefore a pure
    function of the seed. A child that must be a leaf (one row or fewer,
    or at the height limit) draws nothing, so its rows are not copied.
    """
    feature, threshold, left, right, leaf_value = [], [], [], [], []
    height = 0
    # node columns (None for a known leaf), row count, depth, parent, parent's child links
    stack = [(subsample, subsample.shape[1], 0, -1, None)]
    while stack:
        columns, size, depth, parent, links = stack.pop()
        node = len(feature)
        if parent >= 0:
            links[parent] = node
        left.append(node)
        right.append(node)
        if columns is not None:
            lows = np.minimum.reduce(columns, axis=1)
            highs = np.maximum.reduce(columns, axis=1)
            splittable = (highs > lows).nonzero()[0]
        if columns is None or splittable.size == 0:  # or all rows equal: nothing to isolate
            feature.append(-1)
            threshold.append(np.nan)
            leaf_value.append(depth + path_table[size])
            height = max(height, depth)
            continue
        # same stream as rng.choice(splittable), without its overhead
        q = int(splittable[rng.integers(0, splittable.size)])
        p = float(rng.uniform(lows[q], highs[q]))
        feature.append(q)
        threshold.append(p)
        leaf_value.append(np.nan)
        mask = columns[q] < p
        n_left = int(np.count_nonzero(mask))
        # right first, so that the left subtree is popped, and draws, first
        for child_links, side, child_size in ((right, ~mask, size - n_left), (left, mask, n_left)):
            leaf = child_size <= 1 or depth + 1 >= limit
            child = None if leaf else columns.compress(side, axis=1)
            stack.append((child, child_size, depth + 1, node, child_links))
    return _Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        leaf_value=np.array(leaf_value),
        height=height,
    )


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
    # feature-major, so each node's per-feature reductions and splits run on contiguous rows
    columns = np.ascontiguousarray(x.T)
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        idx = rng.choice(n, size=psi, replace=False)
        trees.append(_grow(columns.take(idx, axis=1), limit, rng, path_table))

    forest = IForest(
        trees=trees, subsample_size=psi, training_scores=np.empty(0), n_features=x.shape[1]
    )
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
    threshold = _contamination_threshold(forest, contamination)
    forest.contamination = contamination
    forest.score_threshold = threshold
    return iforest_scores(forest, frame) >= threshold
