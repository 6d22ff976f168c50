import numpy as np
import pytest

from fedlora.metrics import (
    ConfusionMatrix,
    accuracy,
    all_metrics,
    confusion,
    f1,
    precision,
    summarize_runs,
    summary_rows,
    tnr,
    tpr,
)


class TestConfusion:
    def test_perfect_predictions(self):
        y = np.array([True, False, True, False])
        cm = confusion(y, y)
        assert (cm.fp, cm.fn) == (0, 0)
        assert (cm.tp, cm.tn) == (2, 2)

    def test_inverted_predictions(self):
        y = np.array([True, False, True, False])
        cm = confusion(y, ~y)
        assert (cm.tp, cm.tn) == (0, 0)
        assert (cm.fp, cm.fn) == (2, 2)

    def test_positive_is_normal_convention(self):
        # one anomaly missed (predicted normal) must land in FP
        cm = confusion(labels=[True], predictions=[False])
        assert cm.fp == 1 and cm.tp == cm.tn == cm.fn == 0
        # one normal flagged (false alarm) must land in FN
        cm = confusion(labels=[False], predictions=[True])
        assert cm.fn == 1 and cm.tp == cm.tn == cm.fp == 0

    def test_random_against_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            y = rng.random(n) < 0.3
            p = rng.random(n) < 0.4
            cm = confusion(y, p)
            tp = fp = tn = fn = 0
            for yi, pi in zip(y, p):
                if not yi and not pi:
                    tp += 1
                elif yi and not pi:
                    fp += 1
                elif yi and pi:
                    tn += 1
                else:
                    fn += 1
            assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([True, False], [True])


class TestMetricFormulas:
    def test_all_100_when_perfect(self):
        cm = ConfusionMatrix(tp=1, fp=0, tn=1, fn=0)
        assert all(v == 100.0 for v in all_metrics(cm).values())

    def test_hand_case(self):
        cm = ConfusionMatrix(tp=3, fp=1, tn=4, fn=2)
        assert accuracy(cm) == pytest.approx(70.0)
        assert precision(cm) == pytest.approx(75.0)
        assert tnr(cm) == pytest.approx(80.0)
        assert tpr(cm) == pytest.approx(60.0)
        assert f1(cm) == pytest.approx(66.67, abs=0.005)

    def test_f1_equals_harmonic_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(1, 1000, size=4)))
            harmonic = 2 * precision(cm) * tpr(cm) / (precision(cm) + tpr(cm))
            assert abs(f1(cm) - harmonic) < 1e-9

    def test_accuracy_decomposition(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(1, 1000, size=4)))
            p, n = cm.tp + cm.fn, cm.tn + cm.fp
            decomposed = (p * tpr(cm) + n * tnr(cm)) / (p + n)
            assert accuracy(cm) == pytest.approx(decomposed, abs=1e-9)

    def test_metrics_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 50, size=4)))
            for value in all_metrics(cm).values():
                assert 0.0 <= value <= 100.0

    def test_zero_denominators_flagged_not_raised(self):
        cm = ConfusionMatrix(tp=0, fp=0, tn=5, fn=0)
        assert precision(cm) == 0.0
        assert tpr(cm) == 0.0
        assert f1(cm) == 0.0
        assert tnr(cm) == 100.0

    def test_empty_matrix_all_flagged(self):
        cm = ConfusionMatrix(0, 0, 0, 0)
        assert all_metrics(cm) == dict.fromkeys(("accuracy", "precision", "tnr", "tpr", "f1"), 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestSummarize:
    def test_single_run(self):
        run = {"accuracy": 90.0, "precision": 91.0, "tnr": 92.0, "tpr": 93.0, "f1": 94.0}
        summary = summarize_runs([run])
        for metric, value in run.items():
            stats = summary["stats"][metric]
            assert stats["min"] == stats["max"] == stats["mean"] == stats["median"] == value
            assert stats["std"] == 0.0

    def test_two_runs_hand_case(self):
        runs = [
            {m: 90.0 for m in ("accuracy", "precision", "tnr", "tpr", "f1")},
            {m: 94.0 for m in ("accuracy", "precision", "tnr", "tpr", "f1")},
        ]
        stats = summarize_runs(runs)["stats"]["f1"]
        assert stats["mean"] == pytest.approx(92.0)
        assert stats["median"] == pytest.approx(92.0)
        assert stats["std"] == pytest.approx(2.828, abs=5e-4)  # n-1 denominator

    def test_constant_runs_zero_std(self):
        runs = [{m: 88.8 for m in ("accuracy", "precision", "tnr", "tpr", "f1")}] * 5
        summary = summarize_runs(runs)
        assert all(summary["stats"][m]["std"] == 0.0 for m in summary["stats"])

    def test_median_interpolates_even_counts(self):
        base = {m: 0.0 for m in ("accuracy", "precision", "tnr", "tpr", "f1")}
        runs = []
        for v in (10.0, 20.0, 30.0, 40.0):
            run = dict(base)
            run["f1"] = v
            runs.append(run)
        assert summarize_runs(runs)["stats"]["f1"]["median"] == pytest.approx(25.0)

    def test_min_le_median_le_max(self):
        rng = np.random.default_rng(4)
        runs = [
            {m: float(rng.uniform(0, 100)) for m in ("accuracy", "precision", "tnr", "tpr", "f1")}
            for _ in range(13)
        ]
        summary = summarize_runs(runs)
        for stats in summary["stats"].values():
            assert stats["min"] <= stats["median"] <= stats["max"]
        assert summary["run_count"] == 13

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            summarize_runs([])

    def test_rows_export_layout(self):
        run = {m: 50.0 for m in ("accuracy", "precision", "tnr", "tpr", "f1")}
        rows = summary_rows(summarize_runs([run]), "AE")
        assert len(rows) == 25  # 5 metrics x 5 statistics
        assert {r["model"] for r in rows} == {"AE"}
        assert {r["metric"] for r in rows} == {"Acc", "Pre", "TNR", "TPR", "F1"}
