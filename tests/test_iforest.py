import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedlora import iforest
from fedlora.frame import FeatureFrame
from fedlora.iforest import (
    _contamination_threshold,
    average_path_length,
    fit_iforest,
    iforest_classify,
    iforest_scores,
)

EULER_GAMMA = 0.5772156649


def _frame(values):
    values = np.asarray(values, dtype=float)
    return FeatureFrame(values, np.array(["Manitou"] * len(values)))


def _cluster_with_outlier(n=256, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.05, size=(n, 5))
    values = np.vstack([values, np.full((1, 5), 50.0)])
    return _frame(values)


class TestFit:
    def test_same_seed_same_structure(self):
        frame = _cluster_with_outlier()
        a = fit_iforest(frame, n_trees=20, max_samples=0.3, seed=5)
        b = fit_iforest(frame, n_trees=20, max_samples=0.3, seed=5)
        assert np.array_equal(a.training_scores, b.training_scores)
        assert a.subsample_size == b.subsample_size

    def test_different_seed_differs(self):
        frame = _cluster_with_outlier()
        a = fit_iforest(frame, n_trees=20, max_samples=0.3, seed=5)
        b = fit_iforest(frame, n_trees=20, max_samples=0.3, seed=6)
        assert not np.array_equal(a.training_scores, b.training_scores)

    def test_subsample_size_rounded_fraction(self):
        rng = np.random.default_rng(1)
        for n, fraction in ((1000, 0.27), (500, 0.27), (123, 0.4)):
            frame = _frame(rng.normal(size=(n, 5)))
            forest = fit_iforest(frame, n_trees=3, max_samples=fraction, seed=0)
            assert forest.subsample_size == round(fraction * n)

    def test_tree_height_bounded(self):
        frame = _cluster_with_outlier(n=200, seed=2)
        forest = fit_iforest(frame, n_trees=10, max_samples=0.5, seed=2)
        limit = int(np.ceil(np.log2(forest.subsample_size)))

        def depth(node):
            child = forest.left[node]
            if child == node:
                return 0
            return 1 + max(depth(child), depth(child + 1))

        heights = [depth(root) for root in forest.roots]
        assert max(heights) == forest.height <= limit

    def test_too_few_instances(self):
        with pytest.raises(ValueError):
            fit_iforest(_frame(np.zeros((5, 5))), seed=0)

    def test_degenerate_identical_rows(self):
        with pytest.raises(ValueError, match="identical"):
            fit_iforest(_frame(np.ones((50, 5))), seed=0)

    def test_bad_fraction(self):
        frame = _cluster_with_outlier()
        with pytest.raises(ValueError):
            fit_iforest(frame, max_samples=0.0, seed=0)


def _duplicated_rows(seed):
    """40 distinct rows, each repeated 1-4 times, with a constant column."""
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(40, 5)).round(1)
    distinct[:, 3] = 2.5
    return np.repeat(distinct, rng.integers(1, 5, size=40), axis=0)


def _route(forest, root, x):
    """Rows of x reaching each node of one tree, and each node's depth, routed from its root."""
    reach, depth, stack = {root: np.arange(len(x))}, {root: 0}, [root]
    while stack:
        node = stack.pop()
        left = forest.left[node]
        if left == node:  # a leaf
            continue
        rows = reach[node]
        go_left = x[rows, forest.feature[node]] < forest.threshold[node]
        for child, part in ((left, rows[go_left]), (left + 1, rows[~go_left])):
            assert child not in reach  # every node has exactly one parent
            reach[child], depth[child] = part, depth[node] + 1
            stack.append(child)
    return reach, depth


class TestTreeInvariants:
    """Properties of every grown tree that hold whatever the random draws.

    With max_samples=1.0 each tree's subsample is the whole input, so the
    rows that reach a node when routed from the root are the rows the
    node was grown on.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_node_of_every_tree(self, seed):
        x = _duplicated_rows(seed)
        self.check(fit_iforest(x, n_trees=25, max_samples=1.0, seed=seed), x)

    def test_trees_grown_in_blocks(self, monkeypatch):
        # a forest with more subsample rows than one growing pass takes
        # grows in blocks of trees; here 4 trees a block, the last one short
        x = _duplicated_rows(3)
        monkeypatch.setattr(iforest, "_GROW_ROWS", 4 * len(x) + 1)
        self.check(fit_iforest(x, n_trees=25, max_samples=1.0, seed=3), x)

    @staticmethod
    def check(forest, x):
        assert forest.subsample_size == len(x)
        limit = int(np.ceil(np.log2(len(x))))
        owner = np.full(forest.left.size, -1)  # the tree each node belongs to
        heights = []
        for t, root in enumerate(forest.roots):
            reach, depth = _route(forest, root, x)
            nodes = np.fromiter(reach, dtype=np.intp)
            assert np.all(owner[nodes] == -1)  # no node is in two trees
            owner[nodes] = t
            for node, rows in reach.items():
                if forest.left[node] != node:
                    column = x[rows, forest.feature[node]]
                    assert rows.size >= 2 and column.min() < column.max()
                    assert column.min() <= forest.threshold[node] <= column.max()
                else:
                    assert forest.feature[node] == 0 and forest.threshold[node] == np.inf
                    assert (
                        depth[node] == limit
                        or rows.size <= 1
                        or np.all(x[rows] == x[rows[0]])
                    )
                    expected = depth[node] + average_path_length(rows.size)
                    assert forest.leaf_value[node] == expected
            heights.append(max(depth.values()))
        assert np.all(owner >= 0)  # every node is in some tree
        assert forest.height == max(heights) <= limit


def _grow_forest_full(columns, subsamples, limit, rng, path_table, base):
    """The grower with every open node's full per-feature min/max at each level.

    The oracle for `iforest._grow_forest`, which takes the full min/max
    only where a node's first two rows leave some feature in doubt and
    otherwise reduces the chosen feature alone. Both must grow the same
    forest from the same draws.
    """
    n_trees, psi = subsamples.shape
    rows = subsamples.ravel()
    size = np.full(n_trees, psi)
    roots = base + np.arange(n_trees)
    ids = roots.copy()
    levels = []
    for depth in range(limit + 1):
        if not size.size:
            break
        base += size.size
        feature, threshold, left = np.zeros(size.size, np.intp), np.full(size.size, np.inf), ids
        split = (size >= 2) & (depth < limit)
        sizes = size[split]
        gathered = columns.take(rows, axis=1)
        lows = np.minimum.reduceat(gathered, np.cumsum(sizes) - sizes, axis=1)
        highs = np.maximum.reduceat(gathered, np.cumsum(sizes) - sizes, axis=1)
        varies = highs > lows
        k = varies.sum(axis=0)
        node = k.nonzero()[0]
        if node.size < k.size:
            rows = rows[np.repeat(k > 0, sizes)]
            sizes = sizes[node]
            split[split] = k > 0
        u = rng.random((2, node.size))
        q = (np.cumsum(varies[:, node], axis=0) <= (u[0] * k[node]).astype(np.intp)).sum(axis=0)
        lo = lows[q, node]
        cut = lo + (highs[q, node] - lo) * u[1]
        feature[split], threshold[split] = q, cut
        left[split] = base + 2 * np.arange(node.size)
        go_left = columns.ravel().take(np.repeat(q, sizes) * columns.shape[1] + rows) < np.repeat(cut, sizes)
        n_left = np.add.reduceat(go_left, np.cumsum(sizes) - sizes, dtype=np.intp)
        level = (feature, threshold, left, np.where(split, np.nan, depth + path_table[size]))
        levels.append(level if depth == 0 else [a.reshape(2, -1).T.ravel() for a in level])
        size = np.concatenate([n_left, sizes - n_left])
        ids = base + np.arange(size.size).reshape(-1, 2).T.ravel()
        rows = rows.take(np.argsort(~go_left, kind="stable"))
        rows = rows[np.repeat((size >= 2) & (depth + 1 < limit), size)]
    return (roots, *map(np.concatenate, zip(*levels)), len(levels) - 1)


def _assert_same_as_oracle(x, **fit):
    forest = fit_iforest(x, **fit)
    with mock.patch.object(iforest, "_grow_forest", _grow_forest_full):
        oracle = fit_iforest(x, **fit)
    for name in ("roots", "feature", "threshold", "left", "leaf_value", "training_scores"):
        assert np.array_equal(getattr(forest, name), getattr(oracle, name), equal_nan=True), name
    assert forest.height == oracle.height


@st.composite
def _low_cardinality(draw):
    """8-60 rows of values in {0, 1, 2}, some columns constant, some rows repeated."""
    n_distinct = draw(st.integers(2, 15))
    cells = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=5 * n_distinct, max_size=5 * n_distinct))
    distinct = np.array(cells).reshape(n_distinct, 5)
    constant = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    distinct[:, constant] = 1.0
    repeats = draw(st.lists(st.integers(1, 4), min_size=n_distinct, max_size=n_distinct))
    x = np.repeat(distinct, repeats, axis=0)
    x = np.tile(x, (-(-8 // len(x)), 1))  # the fit needs 8 rows
    assume(not np.all(x == x[0]))
    return x[draw(st.permutations(range(len(x))))]


class TestGrowerMatchesFullReduction:
    """The two-row variation test and the chosen-feature min/max grow the full reduction's forest."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        x=_low_cardinality(),
        n_trees=st.integers(1, 8),
        max_samples=st.sampled_from([0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_low_cardinality_rows(self, x, n_trees, max_samples, seed):
        # ties, equal rows and constant columns: nodes the two-row test leaves
        # unsure, and nodes of equal rows that become leaves without a split
        _assert_same_as_oracle(x, n_trees=n_trees, max_samples=max_samples, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_continuous_rows(self, seed):
        x = np.random.default_rng(seed).normal(size=(600, 5))
        _assert_same_as_oracle(x, n_trees=40, max_samples=0.27, seed=seed)


class TestScores:
    def test_scores_in_open_unit_interval(self):
        frame = _cluster_with_outlier(seed=3)
        forest = fit_iforest(frame, n_trees=50, max_samples=0.3, seed=3)
        scores = iforest_scores(forest, frame)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_far_outlier_scores_highest(self):
        frame = _cluster_with_outlier(seed=4)
        forest = fit_iforest(frame, n_trees=100, max_samples=0.3, seed=4)
        scores = iforest_scores(forest, frame)
        assert int(np.argmax(scores)) == len(frame) - 1

    def test_deeper_path_scores_lower(self):
        # score is a strictly decreasing function of mean path length
        frame = _cluster_with_outlier(seed=5)
        forest = fit_iforest(frame, n_trees=50, max_samples=0.3, seed=5)
        scores = iforest_scores(forest, frame)
        depths = -np.log2(scores) * average_path_length(forest.subsample_size)
        order_by_depth = np.argsort(depths)
        assert np.array_equal(np.argsort(-scores), order_by_depth)

    def test_duplicated_inlier_scores_below_singleton(self):
        rng = np.random.default_rng(6)
        dup = np.tile([0.5, 0.5, 0.5, 0.5, 0.5], (100, 1)) + rng.normal(0, 1e-4, (100, 5))
        outlier = np.full((1, 5), 30.0)
        frame = _frame(np.vstack([dup, outlier]))
        forest = fit_iforest(frame, n_trees=50, max_samples=0.5, seed=6)
        scores = iforest_scores(forest, frame)
        assert scores[-1] > scores[:-1].max()

    def test_two_point_tree_hand_trace(self):
        # psi=2 with two distinct points: every tree's root splits them
        # into singletons, so each query walks exactly 1 edge; with c(2)
        # from the documented normalizer the score is 2^(-1/c(2))
        rng = np.random.default_rng(7)
        base = np.vstack([np.zeros(5), np.ones(5)])
        frame = _frame(np.vstack([base] * 4))  # 8 rows to satisfy the fit minimum
        forest = fit_iforest(frame, n_trees=10, max_samples=0.25, seed=7)
        assert forest.subsample_size == 2
        # force-check on trees whose subsample held both values; rebuild with
        # exactly two distinct rows instead: pad by tiny jitter on one axis
        values = np.vstack([np.zeros((4, 5)), np.ones((4, 5))])
        values[:, 0] += rng.normal(0, 1e-9, size=8)  # breaks exact duplicates
        frame = _frame(values)
        forest = fit_iforest(frame, n_trees=10, max_samples=0.25, seed=7)
        scores = iforest_scores(forest, np.array([[0.0] * 5, [1.0] * 5]))
        c2 = 2.0 * (np.log(1.0) + EULER_GAMMA) - 2.0 * (1.0 / 2.0)
        expected = 2.0 ** (-1.0 / c2)
        assert scores == pytest.approx([expected, expected], rel=1e-12)

    def test_normalizer_values(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(0) == 0.0
        assert average_path_length(2) == pytest.approx(2 * EULER_GAMMA - 1.0)
        # grows like 2 ln(n)
        assert average_path_length(1000) == pytest.approx(
            2 * (np.log(999) + EULER_GAMMA) - 2 * 999 / 1000
        )

    def test_unfitted_forest_errors(self):
        from fedlora.iforest import IForest

        no_nodes = np.empty(0, dtype=np.intp)
        empty = IForest(
            roots=no_nodes,
            feature=no_nodes,
            threshold=np.empty(0),
            left=no_nodes,
            leaf_value=np.empty(0),
            height=0,
            subsample_size=0,
            training_scores=np.empty(0),
            n_features=5,
        )
        with pytest.raises(ValueError):
            iforest_scores(empty, np.zeros((2, 5)))


class TestClassify:
    def test_contamination_flags_expected_count_on_training(self):
        rng = np.random.default_rng(8)
        frame = _frame(rng.normal(size=(1000, 5)))
        forest = fit_iforest(frame, n_trees=50, max_samples=0.27, seed=8)
        preds = iforest_classify(forest, frame, contamination=0.07)
        assert abs(int(preds.sum()) - 70) <= 1

    def test_tiny_contamination_flags_nothing(self):
        frame = _cluster_with_outlier(seed=9)
        forest = fit_iforest(frame, n_trees=20, max_samples=0.3, seed=9)
        preds = iforest_classify(forest, frame, contamination=1e-9)
        assert preds.sum() <= 1

    def test_half_contamination_flags_at_most_half(self):
        rng = np.random.default_rng(10)
        frame = _frame(rng.normal(size=(400, 5)))
        forest = fit_iforest(frame, n_trees=20, max_samples=0.3, seed=10)
        preds = iforest_classify(forest, frame, contamination=0.5)
        assert preds.sum() <= 201

    @pytest.mark.parametrize("contamination", [0.0, -0.1, 0.6])
    def test_contamination_out_of_range(self, contamination):
        frame = _cluster_with_outlier(seed=11)
        forest = fit_iforest(frame, n_trees=5, max_samples=0.3, seed=11)
        with pytest.raises(ValueError):
            iforest_classify(forest, frame, contamination)

    def test_classify_leaves_forest_unchanged(self):
        frame = _cluster_with_outlier(seed=12)
        forest = fit_iforest(frame, n_trees=5, max_samples=0.3, seed=12)
        before = copy.deepcopy(forest)
        preds = iforest_classify(forest, frame, contamination=0.07)
        expected = iforest_scores(forest, frame) >= _contamination_threshold(forest, 0.07)
        assert np.array_equal(preds, expected)
        assert vars(forest).keys() == vars(before).keys()
        for field in dataclasses.fields(forest):
            assert np.array_equal(getattr(forest, field.name), getattr(before, field.name), equal_nan=True)


class TestBadInput:
    """Malformed input raises ValueError, never another exception or a silent fit."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite(self, bad):
        values = np.random.default_rng(13).normal(size=(40, 5))
        values[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_iforest(values, n_trees=5, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scores_reject_non_finite(self, bad):
        forest = fit_iforest(_cluster_with_outlier(seed=15), n_trees=5, seed=0)
        rows = np.zeros((3, 5))
        rows[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            iforest_scores(forest, rows)

    def test_fit_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            fit_iforest(np.arange(40.0), n_trees=5, seed=0)

    def test_fit_rejects_zero_trees(self):
        frame = _cluster_with_outlier(seed=14)
        with pytest.raises(ValueError, match="n_trees"):
            fit_iforest(frame, n_trees=0, seed=0)

    def test_scores_reject_one_dimensional(self):
        forest = fit_iforest(_cluster_with_outlier(seed=16), n_trees=5, seed=0)
        with pytest.raises(ValueError, match="2-D"):
            iforest_scores(forest, np.zeros(5))

    def test_scores_reject_fewer_columns(self):
        forest = fit_iforest(_cluster_with_outlier(seed=17), n_trees=5, seed=0)
        with pytest.raises(ValueError, match="5 features"):
            iforest_scores(forest, np.zeros((3, 4)))

    def test_scores_reject_extra_columns(self):
        forest = fit_iforest(_cluster_with_outlier(seed=18), n_trees=5, seed=0)
        with pytest.raises(ValueError, match="5 features"):
            iforest_scores(forest, np.zeros((3, 6)))

    def test_scores_of_no_rows(self):
        forest = fit_iforest(_cluster_with_outlier(seed=19), n_trees=5, seed=0)
        assert iforest_scores(forest, np.zeros((0, 5))).shape == (0,)
