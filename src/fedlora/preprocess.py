"""Joining, z-score standardization, and stratified dataset splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import FeatureFrame


@dataclass
class Standardizer:
    """Per-feature mean and sample standard deviation (n-1 denominator).

    A zero deviation (constant feature) is stored as 1 so applying the
    transform never divides by zero.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def fit_standardizer(frame: FeatureFrame) -> Standardizer:
    """Fit per-feature mean/std on a frame of at least 2 instances, all finite."""
    if len(frame) < 2:
        raise ValueError("need at least 2 instances to fit a standardizer")
    if not np.isfinite(frame.values).all():
        raise ValueError("non-finite value in frame")
    mean = frame.values.mean(axis=0)
    std = frame.values.std(axis=0, ddof=1)
    std = np.where(std > 0.0, std, 1.0)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(frame: FeatureFrame, s: Standardizer) -> FeatureFrame:
    """Return a z-scored copy; labels are copied, machine codes shared (nothing writes them)."""
    labels = None if frame.labels is None else frame.labels.copy()
    return FeatureFrame(s.apply(frame.values), frame.machine_codes, labels)


@dataclass
class SplitSpec:
    """Train/val/test ratios, stratified by machine, seeded."""

    train: float = 0.70
    val: float = 0.15
    test: float = 0.15
    seed: int = 0

    def validate(self):
        for r in (self.train, self.val, self.test):
            if not 0.0 < r < 1.0:
                raise ValueError("each split ratio must lie in (0, 1)")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


def split_counts(n: int, spec: SplitSpec) -> list[int]:
    """Train, val and test rows of an n-row stratum, whatever the seed; ties go to the earlier part."""
    exact = [r * n for r in (spec.train, spec.val, spec.test)]
    base = [int(np.floor(e)) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def stratified_split(
    frame: FeatureFrame, spec: SplitSpec | None = None
) -> tuple[FeatureFrame, FeatureFrame, FeatureFrame]:
    """Split into disjoint train/val/test frames, per-machine proportions kept.

    Every machine stratum needs at least 3 instances. Counts follow the
    largest-remainder rule (ties favor train, then val), so each
    partition's stratum size is within one instance of ratio * stratum.
    Deterministic for a fixed seed.
    """
    spec = spec or SplitSpec()
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    picks: list[list[np.ndarray]] = [[], [], []]
    for mid, rows in frame.rows_by_machine().items():
        if rows.size < 3:
            raise ValueError(f"stratum {mid!r} has fewer than 3 instances")
        counts = split_counts(rows.size, spec)
        perm = rng.permutation(rows)
        picks[0].append(perm[: counts[0]])
        picks[1].append(perm[counts[0] : counts[0] + counts[1]])
        picks[2].append(perm[counts[0] + counts[1] :])

    parts = []
    for chunk in picks:
        idx = np.sort(np.concatenate(chunk))
        parts.append(frame.take(idx))
    return parts[0], parts[1], parts[2]
