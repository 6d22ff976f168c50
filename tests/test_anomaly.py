import numpy as np
import pytest

from fedlora.anomaly import (
    DEFAULT_PERCENTILE_GRID,
    classify,
    confusion_by_machine,
    initial_threshold,
    reconstruction_errors,
    select_threshold,
    thresholds_by_machine,
)
from fedlora.autoencoder import ArchSpec, build_autoencoder, forward, set_weights
from fedlora.frame import FeatureFrame, concat_frames
from fedlora.metrics import confusion, f1


def _identity_like_model():
    # zero weights reconstruct zero: perfect on zero input
    model = build_autoencoder(ArchSpec(), seed=0)
    set_weights(model, np.zeros(model.n_params))
    return model


def _frame(values, machine="Manitou", labels=None):
    values = np.asarray(values, dtype=float)
    return FeatureFrame(values, np.array([machine] * len(values)), labels)


class TestReconstructionErrors:
    def test_perfect_reconstructor_zero_scores(self):
        model = _identity_like_model()
        assert np.all(reconstruction_errors(model, np.zeros((10, 5))) == 0.0)

    def test_farther_instance_scores_higher(self):
        model = _identity_like_model()  # reconstruction is always 0
        x = np.vstack([np.full(5, 0.1), np.full(5, 2.0)])
        scores = reconstruction_errors(model, x)
        assert scores[1] > scores[0]

    def test_scores_match_per_row_oracle(self):
        model = build_autoencoder(ArchSpec(), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 5))
        recon = forward(model, x)
        scores = reconstruction_errors(model, x)
        for i in range(30):
            acc = 0.0
            for j in range(5):
                acc += (x[i, j] - recon[i, j]) ** 2
            assert scores[i] == pytest.approx(acc / 5, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        model = build_autoencoder(ArchSpec(), seed=3)
        x = np.random.default_rng(4).normal(size=(7, 5))
        x[2, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruction_errors(model, _frame(x))


class TestInitialThreshold:
    def test_hundred_scores_interpolated(self):
        assert initial_threshold(np.arange(100.0)) == pytest.approx(83.16)

    def test_constant_scores(self):
        assert initial_threshold([3.3] * 10) == pytest.approx(3.3)

    def test_appending_larger_max_never_lowers(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, size=50)
        base = initial_threshold(scores)
        widened = initial_threshold(np.append(scores, 100.0))
        assert widened >= base

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            initial_threshold([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            initial_threshold([0.1, bad, 0.3])


class TestClassify:
    def test_infinite_threshold_all_normal(self):
        assert not classify([1.0, 5.0, 9.0], np.inf).any()

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            classify([1.0, 5.0, 9.0], np.nan)

    def test_below_min_all_anomalous(self):
        assert classify([1.0, 5.0, 9.0], 0.5).all()

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 1, size=200)
        t = 0.4
        assert np.array_equal(classify(scores, t), scores > t)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, size=100)
        lower = classify(scores, 0.3)
        higher = classify(scores, 0.6)
        # raising the threshold never turns a normal into an anomaly
        assert not np.any(higher & ~lower)


def _midpoint_oracle_f1(scores, labels):
    uniq = np.unique(scores)
    candidates = [(uniq[i] + uniq[i + 1]) / 2 for i in range(len(uniq) - 1)]
    candidates.append(uniq[-1] + 1.0)
    return max(f1(confusion(labels, scores > t)) for t in candidates)


class TestSelectThreshold:
    def test_separable_case(self):
        scores = np.array([0.1, 0.2, 0.9, 1.0])
        labels = np.array([False, False, True, True])
        res = select_threshold(scores, labels)
        assert res.f1 == 100.0
        assert 0.2 <= res.threshold < 0.9
        assert not res.degenerate

    def test_all_normal_degenerate(self):
        scores = np.array([0.5, 0.6, 0.7])
        res = select_threshold(scores, np.zeros(3, dtype=bool))
        assert res.degenerate
        assert res.threshold > 0.7
        assert res.f1 == 100.0
        assert not classify(scores, res.threshold).any()

    def test_all_anomalous_degenerate(self):
        scores = np.array([0.5, 0.6, 0.7])
        res = select_threshold(scores, np.ones(3, dtype=bool))
        assert res.degenerate
        assert classify(scores, res.threshold).all()

    def test_matches_midpoint_oracle_on_random_cases(self):
        rng = np.random.default_rng(10)
        full_grid = np.arange(0, 1001) / 10.0
        for _ in range(40):
            n = int(rng.integers(10, 200))
            labels = rng.random(n) < rng.uniform(0.1, 0.5)
            if labels.all() or not labels.any():
                continue
            scores = rng.normal(size=n)
            res = select_threshold(scores, labels, full_grid)
            assert res.f1 == pytest.approx(_midpoint_oracle_f1(scores, labels), abs=1e-9)

    def test_never_below_initial_threshold_f1(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(20, 300))
            labels = rng.random(n) < 0.2
            if labels.all() or not labels.any():
                continue
            scores = np.abs(rng.normal(size=n)) + labels * rng.uniform(0, 3)
            res = select_threshold(scores, labels)
            ref = f1(confusion(labels, classify(scores, initial_threshold(scores))))
            assert res.f1 >= ref - 1e-12

    def test_tie_breaks_to_lowest_percentile(self):
        # a flat stretch of the F1 landscape: every candidate separates
        # perfectly, so the lowest percentile must win
        scores = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        labels = np.array([False, False, False, True, True, True])
        res = select_threshold(scores, labels, np.array([50.0, 60.0, 70.0]))
        assert res.f1 == 100.0
        assert res.percentile == 50.0

    def test_default_grid_contains_84(self):
        assert 84.0 in DEFAULT_PERCENTILE_GRID

    def test_errors(self):
        with pytest.raises(ValueError):
            select_threshold([], [])
        with pytest.raises(ValueError):
            select_threshold([1.0, 2.0], [True])
        with pytest.raises(ValueError):
            select_threshold([np.nan, 1.0], [True, False])


def _model(seed):
    return build_autoencoder(ArchSpec(hidden_sizes=(4,)), seed=seed)


class TestThresholdsByMachine:
    def test_separable_client_reaches_perfect_f1(self):
        rng = np.random.default_rng(9)
        labels = np.array([False] * 20 + [True] * 10)
        values = rng.normal(size=(30, 5))
        values[20:] += 40.0  # far off the manifold
        val = _frame(values, labels=labels)
        errors = reconstruction_errors(_model(7), val)
        assert thresholds_by_machine(errors, val)["Manitou"].f1 == 100.0

    def test_all_normal_client_degenerate(self):
        val = _frame(np.random.default_rng(10).normal(size=(10, 5)), labels=np.zeros(10, bool))
        results = thresholds_by_machine(reconstruction_errors(_identity_like_model(), val), val)
        assert results["Manitou"].degenerate
        assert results["Manitou"].f1 == 100.0

    def test_machine_without_rows_has_no_entry(self):
        val = _frame(np.random.default_rng(11).normal(size=(12, 5)), "AtlasD7", np.arange(12) < 3)
        results = thresholds_by_machine(reconstruction_errors(_identity_like_model(), val), val)
        assert "Manitou" not in results and "AtlasD7" in results

    def test_thresholds_track_client_scale(self):
        rng = np.random.default_rng(12)
        labels = np.array([False] * 30 + [True] * 10)
        small = rng.normal(size=(40, 5)) * 0.1
        small[30:] += 2.0
        val = concat_frames([_frame(small, "Manitou", labels), _frame(small * 10.0, "AtlasD7", labels)])
        errors = reconstruction_errors(_model(10), val)
        results = thresholds_by_machine(errors, val)
        assert results["AtlasD7"].threshold > results["Manitou"].threshold

    def test_each_machine_thresholded_on_its_own_rows(self):
        rng = np.random.default_rng(13)
        machines = np.array(["AtlasD7", "Manitou"] * 20)
        val = FeatureFrame(rng.normal(size=(40, 5)), machines, rng.random(40) < 0.3)
        errors = rng.uniform(size=40)
        results = thresholds_by_machine(errors, val)
        assert list(results) == ["Manitou", "AtlasD7"]  # canonical machine order
        for machine, result in results.items():
            rows = machines == machine
            assert result == select_threshold(errors[rows], val.labels[rows])


def _labeled_test_frame(seed):
    rng = np.random.default_rng(seed)
    labels = rng.random(60) < 0.25
    values = rng.normal(size=(60, 5)) + labels[:, None] * 30.0
    machines = np.array((["Manitou"] * 30) + (["AtlasD7"] * 30))
    return FeatureFrame(values, machines, labels)


class TestConfusionByMachine:
    def test_infinite_threshold_all_predicted_normal(self):
        te = _labeled_test_frame(13)
        per = confusion_by_machine(reconstruction_errors(_model(11), te), te, np.inf)
        cm = per["Manitou"] + per["AtlasD7"]
        assert cm.tn == 0 and cm.fn == 0
        assert cm.tp + cm.fp == len(te)

    def test_counts_match_cross_module_oracle(self):
        # slicing one error vector equals scoring each machine's rows alone
        te = _labeled_test_frame(14)
        model, threshold = _model(12), 0.5
        per = confusion_by_machine(reconstruction_errors(model, te), te, threshold)
        for machine, sub in te.by_machine().items():
            oracle = confusion(sub.labels, classify(reconstruction_errors(model, sub), threshold))
            assert per[machine] == oracle

    def test_per_client_counts_sum_to_global(self):
        te = _labeled_test_frame(15)
        errors = reconstruction_errors(_model(13), te)
        per = confusion_by_machine(errors, te, 0.3)
        assert per["Manitou"] + per["AtlasD7"] == confusion(te.labels, classify(errors, 0.3))

    def test_single_machine_equals_global(self):
        te = _labeled_test_frame(16)
        sub = te.take(te.machine_ids == "Manitou")
        errors = reconstruction_errors(_model(14), sub)
        per = confusion_by_machine(errors, sub, 0.4)
        assert per == {"Manitou": confusion(sub.labels, classify(errors, 0.4))}

    def test_per_client_threshold_dict(self):
        te = _labeled_test_frame(17)
        errors = reconstruction_errors(_model(15), te)
        per = confusion_by_machine(errors, te, {"Manitou": 0.1, "AtlasD7": 0.9})
        assert set(per) == {"Manitou", "AtlasD7"}
        assert per["Manitou"] == confusion_by_machine(errors, te, 0.1)["Manitou"]
        assert per["AtlasD7"] == confusion_by_machine(errors, te, 0.9)["AtlasD7"]

    def test_machine_without_threshold_rejected(self):
        te = _labeled_test_frame(17)
        errors = reconstruction_errors(_model(15), te)
        with pytest.raises(ValueError, match="no threshold for machine 'AtlasD7'"):
            confusion_by_machine(errors, te, {"Manitou": 0.1})

    def test_unlabeled_frame_rejected(self):
        frame = _frame(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="no labels"):
            confusion_by_machine(np.zeros(4), frame, 0.5)
        with pytest.raises(ValueError, match="no labels"):
            thresholds_by_machine(np.zeros(4), frame)

    @pytest.mark.parametrize("n_scores", [0, 59, 61])
    def test_score_count_must_match_frame(self, n_scores):
        te = _labeled_test_frame(18)
        with pytest.raises(ValueError, match="scores for a frame of 60 rows"):
            confusion_by_machine(np.zeros(n_scores), te, 0.5)
        with pytest.raises(ValueError, match="scores for a frame of 60 rows"):
            thresholds_by_machine(np.zeros(n_scores), te)
