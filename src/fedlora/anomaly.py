"""Reconstruction-error scoring and threshold selection.

An instance's anomaly score is the mean of its squared reconstruction
deviations over the five features, so scalar thresholds stay comparable
regardless of feature count. The decision threshold starts from the
84th percentile of the score distribution (acknowledging roughly 16%
outliers) and is then refined by sweeping score percentiles for the
best F1. The per-machine helpers slice one score vector by machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autoencoder as ae
from .frame import FeatureFrame
from .metrics import ConfusionMatrix, confusion

# Percentile sweep grid: 50.0, 50.1, ..., 99.9
DEFAULT_PERCENTILE_GRID = np.arange(500, 1000) / 10.0
INITIAL_PERCENTILE = 84.0


def squared_deviations(model: ae.AutoencoderModel, frame) -> np.ndarray:
    """Per-instance, per-feature squared reconstruction deviations (n, 5)."""
    x = frame.values if isinstance(frame, FeatureFrame) else np.asarray(frame, dtype=np.float64)
    err = ae.forward(model, x) - x
    return err * err


def reconstruction_errors(model: ae.AutoencoderModel, frame) -> np.ndarray:
    """Anomaly score per instance: mean squared deviation over features."""
    return squared_deviations(model, frame).mean(axis=1)


def initial_threshold(scores) -> float:
    """INITIAL_PERCENTILE of the score distribution (linear interpolation).

    Feed per-instance scores for the default per-instance convention, or
    a flattened squared_deviations matrix to pool per-feature deviations
    into one population instead.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no scores")
    return float(np.percentile(arr.ravel(), INITIAL_PERCENTILE))


@dataclass
class ThresholdResult:
    threshold: float
    f1: float  # percent
    percentile: float
    degenerate: bool = False


def classify(scores, threshold: float) -> np.ndarray:
    """True (anomalous) where score exceeds the threshold."""
    return np.asarray(scores, dtype=np.float64) > threshold


def select_threshold(scores, labels, percentile_grid=None) -> ThresholdResult:
    """Pick the F1-maximizing score-percentile threshold.

    Candidates are percentiles of the scores themselves (default grid
    50.0-99.9 in steps of 0.1); an instance is called anomalous when its
    score exceeds the candidate. Ties resolve to the lowest percentile.
    Single-class labels short-circuit to a degenerate result: a
    threshold above the max score when everything is normal, below the
    min when everything is anomalous.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.size == 0 or y.size == 0:
        raise ValueError("empty scores or labels")
    if s.shape != y.shape:
        raise ValueError("scores and labels differ in length")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")

    if not y.any():  # all normal
        t = float(np.nextafter(s.max(), np.inf))
        return ThresholdResult(t, 100.0, 100.0, degenerate=True)
    if y.all():  # all anomalous
        t = float(np.nextafter(s.min(), -np.inf))
        return ThresholdResult(t, 0.0, 0.0, degenerate=True)

    grid = DEFAULT_PERCENTILE_GRID if percentile_grid is None else np.asarray(percentile_grid)
    if grid.size == 0:
        raise ValueError("empty percentile grid")
    candidates = np.percentile(s, grid)

    # Sort scores once; prefix sums give the confusion counts for every
    # candidate without rescanning the data.
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    anom_prefix = np.concatenate([[0], np.cumsum(y[order])])
    n = s.size
    n_anom = int(y.sum())

    # predicted normal = scores <= t, i.e. the first k sorted instances
    k = np.searchsorted(sorted_scores, candidates, side="right")
    fp = anom_prefix[k]  # anomalies predicted normal
    tp = k - fp  # normals predicted normal
    fn = (n - n_anom) - tp  # normals predicted anomalous
    f1_values = np.where(tp > 0, 100.0 * tp / (tp + 0.5 * (fp + fn)), 0.0)

    best = int(np.argmax(f1_values))
    return ThresholdResult(
        threshold=float(candidates[best]),
        f1=float(f1_values[best]),
        percentile=float(grid[best]),
    )


def _machine_rows(scores, frame: FeatureFrame) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Scores as float64 plus the frame's rows per machine; the frame must be labeled."""
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != (len(frame),):
        raise ValueError(f"{s.size} scores for a frame of {len(frame)} rows")
    if frame.labels is None:
        raise ValueError("frame has no labels")
    return s, frame.rows_by_machine()


def thresholds_by_machine(scores, frame: FeatureFrame) -> dict[str, ThresholdResult]:
    """F1-maximizing threshold of each machine present, from its own rows' scores and labels."""
    s, rows = _machine_rows(scores, frame)
    return {mid: select_threshold(s[r], frame.labels[r]) for mid, r in rows.items()}


def confusion_by_machine(
    scores, frame: FeatureFrame, threshold: float | dict[str, float]
) -> dict[str, ConfusionMatrix]:
    """Each machine's confusion matrix, under one threshold or a dict with every machine's."""
    s, rows = _machine_rows(scores, frame)
    out = {}
    for mid, r in rows.items():
        t = threshold.get(mid) if isinstance(threshold, dict) else threshold
        if t is None:
            raise ValueError(f"no threshold for machine {mid!r}")
        out[mid] = confusion(frame.labels[r], classify(s[r], t))
    return out
