"""Evaluation metrics under the positive = normal convention.

TP counts instances correctly classified as normal and TN instances
correctly classified as anomalies; FP is a missed anomaly and FN a
false alarm. All metrics are percentages. A zero denominator yields
0.0 rather than an error so sweep harnesses never abort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("accuracy", "precision", "tnr", "tpr", "f1")
METRIC_LABELS = {"accuracy": "Acc", "precision": "Pre", "tnr": "TNR", "tpr": "TPR", "f1": "F1"}
STATISTIC_NAMES = ("min", "max", "mean", "std", "median")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for v in (self.tp, self.fp, self.tn, self.fn):
            if v < 0:
                raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


def confusion(labels, predictions) -> ConfusionMatrix:
    """Count outcomes; both inputs are boolean with True = anomalous."""
    y = np.asarray(labels, dtype=bool)
    p = np.asarray(predictions, dtype=bool)
    if y.shape != p.shape:
        raise ValueError(f"labels {y.shape} and predictions {p.shape} differ in length")
    return ConfusionMatrix(
        tp=int(np.sum(~y & ~p)),
        fp=int(np.sum(y & ~p)),
        tn=int(np.sum(y & p)),
        fn=int(np.sum(~y & p)),
    )


def _ratio(num: int, den: int) -> float:
    return 100.0 * num / den if den > 0 else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp + cm.tn, cm.total)


def precision(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp, cm.tp + cm.fp)


def tnr(cm: ConfusionMatrix) -> float:
    """Specificity: fraction of anomalies correctly flagged."""
    return _ratio(cm.tn, cm.tn + cm.fp)


def tpr(cm: ConfusionMatrix) -> float:
    """Sensitivity/recall: fraction of normals kept normal."""
    return _ratio(cm.tp, cm.tp + cm.fn)


def f1(cm: ConfusionMatrix) -> float:
    den = cm.tp + 0.5 * (cm.fp + cm.fn)
    return 100.0 * cm.tp / den if den > 0 else 0.0


def all_metrics(cm: ConfusionMatrix) -> dict[str, float]:
    return {
        "accuracy": accuracy(cm),
        "precision": precision(cm),
        "tnr": tnr(cm),
        "tpr": tpr(cm),
        "f1": f1(cm),
    }


def summary_rows(summary: dict, model: str) -> list[dict]:
    """Flatten a summarize_runs summary to (model, metric, statistic, value) CSV rows."""
    stats = summary["stats"]
    return [
        {"model": model, "metric": METRIC_LABELS[metric], "statistic": stat, "value": stats[metric][stat]}
        for metric in METRIC_NAMES
        for stat in STATISTIC_NAMES
    ]


def summarize_runs(runs: list[dict[str, float]]) -> dict:
    """{"stats": {metric: {min/max/mean/std/median}}, "run_count": n} over per-run metric dicts.

    std is the sample std (n-1), 0 for one run.
    """
    if not runs:
        raise ValueError("no runs to summarize")
    stats: dict[str, dict[str, float]] = {}
    for metric in METRIC_NAMES:
        vals = np.array([run[metric] for run in runs], dtype=np.float64)
        stats[metric] = {
            "min": float(vals.min()),
            "max": float(vals.max()),
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "median": float(np.median(vals)),
        }
    return {"stats": stats, "run_count": len(runs)}
