import itertools
import re

import numpy as np
import pytest

from fedlora.frame import FEATURE_NAMES, FeatureFrame, Machine
from fedlora.labeling import (
    DEFAULT_RANGES,
    RangeSpec,
    iqr_bounds,
    label_by_iqr,
    label_by_range,
)


def _frame(values, machine="DoosanDL200"):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return FeatureFrame(values, np.array([machine] * len(values)))


def mid_range_instance(machine="DoosanDL200"):
    return [
        (lo + hi) / 2.0
        for lo, hi in (DEFAULT_RANGES.bounds(machine, f) for f in FEATURE_NAMES)
    ]


class TestIqrBounds:
    def test_constant_vector(self):
        assert iqr_bounds([5, 5, 5, 5]) == (5.0, 5.0)

    def test_hand_computed_interpolation(self):
        lo, hi = iqr_bounds([1, 2, 3, 4, 5, 6, 7, 8])
        assert lo == pytest.approx(-2.5)
        assert hi == pytest.approx(11.5)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=50)
        lo, hi = iqr_bounds(values)
        lo_c, hi_c = iqr_bounds(values + 10.0)
        assert lo_c == pytest.approx(lo + 10.0)
        assert hi_c == pytest.approx(hi + 10.0)

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            iqr_bounds([1, 2, 3])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            iqr_bounds([1, 2, 3, np.inf])


class TestRangeLabeling:
    def test_doosan_rpm_2500_is_anomalous(self):
        inst = mid_range_instance()
        inst[FEATURE_NAMES.index("rpm")] = 2500.0
        lv = label_by_range(_frame(inst))
        assert lv.instance_labels[0]
        assert lv.feature_flags[0, FEATURE_NAMES.index("rpm")]

    def test_mid_range_instance_is_normal(self):
        lv = label_by_range(_frame(mid_range_instance()))
        assert not lv.instance_labels[0]
        assert not lv.feature_flags.any()

    def test_manitou_battery_20v_is_anomalous(self):
        inst = mid_range_instance("Manitou")
        inst[0] = 20.0
        lv = label_by_range(_frame(inst, machine="Manitou"))
        assert lv.instance_labels[0]
        # 20 V would be fine on the 24-28 V machines
        inst24 = mid_range_instance()
        inst24[0] = 25.0
        assert not label_by_range(_frame(inst24)).instance_labels[0]

    def test_boundary_values_are_normal(self):
        lo_inst = [DEFAULT_RANGES.bounds("DoosanDL200", f)[0] for f in FEATURE_NAMES]
        hi_inst = [DEFAULT_RANGES.bounds("DoosanDL200", f)[1] for f in FEATURE_NAMES]
        lv = label_by_range(_frame([lo_inst, hi_inst]))
        assert not lv.instance_labels.any()

    def test_missing_machine_errors(self):
        spec = RangeSpec({"Manitou": DEFAULT_RANGES.ranges["Manitou"]})
        with pytest.raises(ValueError, match="does not cover"):
            label_by_range(_frame(mid_range_instance()), spec)

    @pytest.mark.parametrize("key", ["atlas-d7", "doosan_dl200", "Caterpillar"])
    def test_loose_or_unknown_machine_key_errors(self, key):
        # a loose key failed only at generation, naming the canonical id; an unknown one was ignored
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            RangeSpec({key: DEFAULT_RANGES.ranges["AtlasD7"]})

    def test_machine_member_key_is_accepted(self):
        spec = RangeSpec({Machine.MANITOU: DEFAULT_RANGES.ranges["Manitou"]})
        assert spec.covers("Manitou")
        assert not label_by_range(_frame(mid_range_instance("Manitou"), "Manitou"), spec).instance_labels.any()

    def test_affine_invariance(self):
        # transforming data and spec by the same affine map keeps labels
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 3000, size=(200, 5))
        frame = _frame(values)
        base = label_by_range(frame)
        scale, shift = 3.5, -41.0
        mapped_ranges = {
            "DoosanDL200": {
                f: (lo * scale + shift, hi * scale + shift)
                for f, (lo, hi) in DEFAULT_RANGES.ranges["DoosanDL200"].items()
            }
        }
        mapped = label_by_range(_frame(values * scale + shift), RangeSpec(mapped_ranges))
        assert np.array_equal(base.instance_labels, mapped.instance_labels)
        assert np.array_equal(base.feature_flags, mapped.feature_flags)


class TestIqrLabeling:
    def test_constant_features_no_anomalies(self):
        frame = _frame(np.ones((10, 5)))
        lv = label_by_iqr(frame)
        assert not lv.instance_labels.any()

    def test_planted_extreme_outlier_flagged(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0.0, 1.0, size=(100, 5))
        values[57, 3] = 100.0
        lv = label_by_iqr(_frame(values))
        assert lv.instance_labels[57]
        assert lv.feature_flags[57, 3]
        assert lv.instance_labels.sum() <= 12  # only genuine tails

    def test_widening_k_never_flags_more(self):
        rng = np.random.default_rng(3)
        values = rng.standard_t(df=3, size=(300, 5))
        frame = _frame(values)
        previous = None
        for k in (0.5, 1.0, 1.5, 2.0, 3.0):
            flagged = int(label_by_iqr(frame, k=k).instance_labels.sum())
            if previous is not None:
                assert flagged <= previous
            previous = flagged

    def test_bounds_per_machine_not_pooled(self):
        # two machines with distinct clusters: pooled bounds would flag
        # everything in the smaller cluster, per-machine bounds nothing
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=(50, 5))
        b = rng.uniform(100, 101, size=(50, 5))
        frame = FeatureFrame(
            np.vstack([a, b]),
            np.array(["Manitou"] * 50 + ["AtlasD7"] * 50),
        )
        lv = label_by_iqr(frame)
        assert not lv.instance_labels.any()


class TestAggregate:
    def test_exhaustive_over_5_flags(self):
        # every in/out pattern over the five features; a lower bound itself is normal
        combos = np.array(list(itertools.product([False, True], repeat=5)))
        lows = np.array([DEFAULT_RANGES.bounds("DoosanDL200", f)[0] for f in FEATURE_NAMES])
        lv = label_by_range(_frame(np.where(combos, lows - 1.0, lows)))
        assert np.array_equal(lv.feature_flags, combos)
        assert np.array_equal(lv.instance_labels, combos.any(axis=1))

    def test_label_vector_aggregation_is_or(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1000, 4000, size=(100, 5))
        lv = label_by_range(_frame(values))
        assert np.array_equal(lv.instance_labels, lv.feature_flags.any(axis=1))
