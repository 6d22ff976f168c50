import numpy as np
import pytest

from fedlora.frame import FeatureFrame
from fedlora.preprocess import (
    SplitSpec,
    apply_standardizer,
    fit_standardizer,
    stratified_split,
)


def _frame(values, machines=None):
    values = np.asarray(values, dtype=float)
    if machines is None:
        machines = np.array(["Manitou"] * len(values))
    return FeatureFrame(values, machines)


def _random_frame(n, seed=0, machine="Manitou"):
    rng = np.random.default_rng(seed)
    return FeatureFrame(rng.normal(size=(n, 5)), np.array([machine] * n))


class TestStandardizer:
    def test_two_instance_hand_case(self):
        frame = _frame([[0] * 5, [2] * 5])
        s = fit_standardizer(frame)
        assert np.allclose(s.mean, 1.0)
        assert np.allclose(s.std, np.sqrt(2.0))  # n-1 denominator

    def test_fixed_point_on_standard_data(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(5000, 5))
        values = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
        s = fit_standardizer(_frame(values))
        assert np.all(np.abs(s.mean) < 1e-12)
        assert np.allclose(s.std, 1.0)

    def test_constant_feature_stored_as_one(self):
        values = np.ones((10, 5)) * 7.0
        s = fit_standardizer(_frame(values))
        assert np.allclose(s.mean, 7.0)
        assert np.allclose(s.std, 1.0)

    def test_apply_gives_zero_mean_unit_std(self):
        frame = _random_frame(400, seed=2)
        out = apply_standardizer(frame, fit_standardizer(frame))
        assert np.all(np.abs(out.values.mean(axis=0)) < 1e-9)
        assert np.allclose(out.values.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_apply_twice_differs(self):
        frame = _random_frame(50, seed=3)
        s = fit_standardizer(frame)
        once = apply_standardizer(frame, s)
        twice = apply_standardizer(once, s)
        assert not np.allclose(once.values, twice.values)

    def test_rank_order_preserved(self):
        frame = _random_frame(200, seed=4)
        out = apply_standardizer(frame, fit_standardizer(frame))
        for j in range(5):
            assert np.array_equal(
                np.argsort(frame.values[:, j]), np.argsort(out.values[:, j])
            )

    def test_needs_two_instances(self):
        with pytest.raises(ValueError):
            fit_standardizer(_random_frame(1))

    def test_labels_and_machines_untouched(self):
        frame = _random_frame(20, seed=6)
        frame = frame.with_labels(np.arange(20) % 3 == 0)
        out = apply_standardizer(frame, fit_standardizer(frame))
        assert np.array_equal(out.labels, frame.labels)
        assert np.array_equal(out.machine_ids, frame.machine_ids)


class TestStratifiedSplit:
    def test_exact_division(self):
        tr, va, te = stratified_split(_random_frame(100), SplitSpec(seed=0))
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_two_strata_counts(self):
        frame = FeatureFrame(
            np.random.default_rng(0).normal(size=(300, 5)),
            np.array(["Manitou"] * 200 + ["AtlasD7"] * 100),
        )
        tr, va, te = stratified_split(frame, SplitSpec(seed=1))
        counts = tr.counts_by_machine()
        assert abs(counts["Manitou"] - 140) <= 1
        assert abs(counts["AtlasD7"] - 70) <= 1

    def test_deterministic(self):
        frame = _random_frame(97, seed=7)
        first = stratified_split(frame, SplitSpec(seed=5))
        second = stratified_split(frame, SplitSpec(seed=5))
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)
        third = stratified_split(frame, SplitSpec(seed=6))
        assert not all(
            np.array_equal(a.values, b.values) for a, b in zip(first, third)
        )

    def test_partition_property(self):
        # disjoint and covering, checked via a unique tag per row
        n = 157
        values = np.zeros((n, 5))
        values[:, 0] = np.arange(n)
        machines = np.array(["Manitou", "AtlasD7", "JawCrusher"] * 52 + ["Manitou"])
        frame = FeatureFrame(values, machines)
        parts = stratified_split(frame, SplitSpec(seed=3))
        tags = np.concatenate([p.values[:, 0] for p in parts])
        assert len(tags) == n
        assert len(np.unique(tags)) == n

    def test_stratum_proportions_within_one(self):
        rng = np.random.default_rng(9)
        machines = np.array(
            ["Manitou"] * 53 + ["AtlasD7"] * 17 + ["JawCrusher"] * 9 + ["DoosanDL200"] * 121
        )
        frame = FeatureFrame(rng.normal(size=(len(machines), 5)), machines)
        tr, va, te = stratified_split(frame, SplitSpec(seed=4))
        for part, ratio in ((tr, 0.7), (va, 0.15), (te, 0.15)):
            for machine, total in frame.counts_by_machine().items():
                got = part.counts_by_machine().get(machine, 0)
                assert abs(got - ratio * total) <= 1

    def test_small_stratum_errors(self):
        frame = FeatureFrame(
            np.zeros((5, 5)), np.array(["Manitou", "Manitou", "Manitou", "AtlasD7", "AtlasD7"])
        )
        with pytest.raises(ValueError, match="fewer than 3"):
            stratified_split(frame, SplitSpec(seed=0))

    @pytest.mark.parametrize(
        "ratios", [(0.5, 0.5, 0.5), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.7, 0.2, 0.2)]
    )
    def test_ratio_validation(self, ratios):
        with pytest.raises(ValueError):
            stratified_split(_random_frame(30), SplitSpec(*ratios, seed=0))

    def test_labels_travel_with_rows(self):
        frame = _random_frame(60, seed=10)
        labels = np.zeros(60, dtype=bool)
        labels[::7] = True
        frame = frame.with_labels(labels)
        frame.values[:, 0] = np.arange(60)  # row tag
        tr, va, te = stratified_split(frame, SplitSpec(seed=2))
        for part in (tr, va, te):
            for tag, lab in zip(part.values[:, 0], part.labels):
                assert lab == labels[int(tag)]
