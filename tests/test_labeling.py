import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.frame import FEATURE_NAMES, MACHINES, FeatureFrame, Machine
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
    lows, highs = DEFAULT_RANGES.limits(machine)
    return list((lows + highs) / 2.0)


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

    @pytest.mark.parametrize("k", [np.nan, -3.0, np.inf, -np.inf])
    def test_non_finite_or_negative_k_raises(self, k):
        # label_by_iqr flagged nothing at k=nan and every row at k=-3; k=inf raised a RuntimeWarning
        values = np.random.default_rng(6).normal(size=(20, 5))
        with pytest.raises(ValueError, match="k must be finite and >= 0"):
            iqr_bounds(values[:, 0], k=k)
        with pytest.raises(ValueError, match="k must be finite and >= 0"):
            label_by_iqr(_frame(values), k=k)


class TestRangeSpec:
    @pytest.mark.parametrize(
        "pair",
        [(12, np.inf), (-np.inf, 12), (np.nan, 12), (12, np.nan), (-1e308, 1e308), (2, 1), (1, 1)]
        # a finite width whose anomalies, half a width past a bound, overflow
        + [(0, 1.7e308), (-1.7e308, 0), (1e308, 1.7e308)],
    )
    def test_pair_must_be_finite_ordered_with_a_finite_width(self, pair):
        # an infinite bound or width passed, then rng.uniform raised OverflowError in generate_synthetic;
        # the last three passed, then generate_synthetic overflowed with a RuntimeWarning
        with pytest.raises(ValueError, match="Manitou/battery"):
            RangeSpec({"Manitou": {"battery": pair}})

    def test_unknown_feature_raises(self):
        with pytest.raises(ValueError, match="'voltage'"):
            RangeSpec({"Manitou": {"voltage": (1.0, 2.0)}})

    def test_pairs_fill_one_read_only_float_table(self):
        spec = RangeSpec({"AtlasD7": {"rpm": (800, 2200)}})
        assert spec.table.shape == (2, len(MACHINES), len(FEATURE_NAMES))
        assert spec.table[:, MACHINES.index(Machine.ATLAS_D7), FEATURE_NAMES.index("rpm")].tolist() == [800.0, 2200.0]
        assert np.isnan(spec.table).sum() == spec.table.size - 2
        with pytest.raises(ValueError, match="read-only"):
            spec.table[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            DEFAULT_RANGES.limits("Manitou")[0, 0] = 1.0

    def test_limits_name_the_missing_features(self):
        spec = RangeSpec({"Manitou": {"battery": (12.0, 14.0), "rpm": (800.0, 2200.0)}})
        with pytest.raises(
            ValueError, match=r"does not cover machine 'Manitou'.*'consumption', 'water_temp', 'oil_pressure'"
        ):
            spec.limits(Machine.MANITOU)
        with pytest.raises(ValueError, match="does not cover machine 'AtlasD7'"):
            spec.limits("AtlasD7")

    def test_limits_take_a_member_and_reject_a_loose_id(self):
        manitou = [[12.6, 1.0, 800.0, 75.0, 1.0], [13.6, 40.0, 2200.0, 100.0, 7.0]]
        assert np.array_equal(DEFAULT_RANGES.limits(Machine.MANITOU), manitou)
        with pytest.raises(ValueError, match="'atlas-d7'"):
            DEFAULT_RANGES.limits("atlas-d7")


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
        lv = label_by_range(_frame(DEFAULT_RANGES.limits("DoosanDL200")))
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
        assert np.array_equal(spec.limits("Manitou"), DEFAULT_RANGES.limits("Manitou"))
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

    def test_too_few_rows_names_machine_and_feature(self):
        frame = FeatureFrame(np.ones((11, 5)), np.array(["Manitou"] * 10 + ["AtlasD7"]))
        message = "IQR bounds of machine 'AtlasD7', feature 'battery': need at least 4 values, got 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            label_by_iqr(frame)


class TestAggregate:
    def test_exhaustive_over_5_flags(self):
        # every in/out pattern over the five features; a lower bound itself is normal
        combos = np.array(list(itertools.product([False, True], repeat=5)))
        lows = DEFAULT_RANGES.limits("DoosanDL200")[0]
        lv = label_by_range(_frame(np.where(combos, lows - 1.0, lows)))
        assert np.array_equal(lv.feature_flags, combos)
        assert np.array_equal(lv.instance_labels, combos.any(axis=1))

    def test_label_vector_aggregation_is_or(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1000, 4000, size=(100, 5))
        lv = label_by_range(_frame(values))
        assert np.array_equal(lv.instance_labels, lv.feature_flags.any(axis=1))


def _per_feature_range_flags(frame, ranges):
    """The per-feature loop label_by_range ran before the ranges became one table: the reference."""
    flags = np.zeros((len(frame), len(FEATURE_NAMES)), dtype=bool)
    for mid, rows in frame.rows_by_machine().items():
        sub = frame.values[rows]
        for j, name in enumerate(FEATURE_NAMES):
            lo, hi = ranges[mid][name]
            flags[rows, j] = (sub[:, j] < lo) | (sub[:, j] > hi)
    return flags


_VALUES = st.floats(-1e300, 1e300)  # any pair of these has a finite width


@st.composite
def _ranges_and_frame(draw):
    """A complete finite spec, and a frame whose cells are free values, bounds or their float neighbours."""
    ranges = {
        m.value: {name: tuple(sorted(draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True))))
                  for name in FEATURE_NAMES}
        for m in MACHINES
    }
    codes = draw(st.lists(st.integers(0, len(MACHINES) - 1), max_size=20))
    values = [
        [draw(_VALUES | st.sampled_from([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]))
         for lo, hi in (ranges[MACHINES[code].value][name] for name in FEATURE_NAMES)]
        for code in codes
    ]
    frame = FeatureFrame(np.array(values, dtype=float).reshape(-1, len(FEATURE_NAMES)), np.array(codes, dtype=np.uint8))
    return ranges, frame


@settings(max_examples=150, deadline=None)
@given(case=_ranges_and_frame())
def test_range_flags_equal_the_per_feature_loop(case):
    ranges, frame = case
    lv = label_by_range(frame, RangeSpec(ranges))
    assert np.array_equal(lv.feature_flags, _per_feature_range_flags(frame, ranges))
    assert np.array_equal(lv.instance_labels, lv.feature_flags.any(axis=1))
