"""Ground-truth anomaly labeling.

Two labeling routes are provided: manufacturer normal operating ranges
(one range per machine per feature) and statistical 1.5-IQR bounds
computed per machine. Per-feature flags are aggregated to one instance
label by logical OR: an instance is anomalous if at least one feature is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import FEATURE_NAMES, FeatureFrame, Machine

# Manufacturer normal operating ranges, per machine and feature.
# Battery differs for the Manitou (12 V system); all other signals share
# one range across machines.
_COMMON = {
    "consumption": (1.0, 40.0),   # liters/hour
    "rpm": (800.0, 2200.0),
    "water_temp": (75.0, 100.0),  # degrees Celsius
    "oil_pressure": (1.0, 7.0),   # bar
}


def _machine_ranges(battery: tuple[float, float]) -> dict[str, tuple[float, float]]:
    return {"battery": battery, **_COMMON}


@dataclass(frozen=True)
class RangeSpec:
    """Normal value range per (machine, feature), in native units."""

    ranges: dict[str, dict[str, tuple[float, float]]]

    def __post_init__(self):
        for mid, feats in self.ranges.items():
            Machine(mid)  # a canonical id or a member; a loose spelling raises
            for name, (lo, hi) in feats.items():
                if name not in FEATURE_NAMES:
                    raise ValueError(f"unknown feature {name!r} for {mid}")
                if not lo < hi:
                    raise ValueError(f"range for {mid}/{name} must have lower < upper")

    def bounds(self, machine_id: str, feature: str) -> tuple[float, float]:
        try:
            return self.ranges[machine_id][feature]
        except KeyError:
            raise ValueError(f"no range for machine {machine_id!r}, feature {feature!r}")

    def covers(self, machine_id: str) -> bool:
        feats = self.ranges.get(machine_id)
        return feats is not None and all(name in feats for name in FEATURE_NAMES)

    @staticmethod
    def from_dict(raw: dict) -> "RangeSpec":
        """Build from a plain {machine: {feature: [lo, hi]}} mapping (JSON config)."""
        ranges = {
            mid: {name: (float(lo), float(hi)) for name, (lo, hi) in feats.items()}
            for mid, feats in raw.items()
        }
        return RangeSpec(ranges)


DEFAULT_RANGES = RangeSpec(
    {
        Machine.MANITOU.value: _machine_ranges((12.6, 13.6)),
        Machine.ATLAS_D7.value: _machine_ranges((24.0, 28.0)),
        Machine.JAW_CRUSHER.value: _machine_ranges((24.0, 28.0)),
        Machine.DOOSAN_DL200.value: _machine_ranges((24.0, 28.0)),
    }
)


@dataclass
class LabelVector:
    """Per-feature anomaly flags plus the OR-aggregated instance label."""

    feature_flags: np.ndarray  # (n, 5) bool
    instance_labels: np.ndarray  # (n,) bool, True = anomalous

    def __post_init__(self):
        self.feature_flags = np.asarray(self.feature_flags, dtype=bool)
        self.instance_labels = np.asarray(self.instance_labels, dtype=bool)
        if self.feature_flags.shape[0] != self.instance_labels.shape[0]:
            raise ValueError("flag matrix and label vector lengths differ")

    def __len__(self) -> int:
        return self.instance_labels.shape[0]

    def anomaly_fraction(self) -> float:
        return float(np.mean(self.instance_labels)) if len(self) else 0.0


def iqr_bounds(values, k: float = 1.5) -> tuple[float, float]:
    """Tukey-style outlier bounds Q1 - k*IQR and Q3 + k*IQR.

    Quartiles use linear interpolation of order statistics. Requires at
    least 4 finite values.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 4:
        raise ValueError(f"need at least 4 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite value in input")
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    iqr = q3 - q1
    return float(q1 - k * iqr), float(q3 + k * iqr)


def label_by_range(frame: FeatureFrame, spec: RangeSpec = DEFAULT_RANGES) -> LabelVector:
    """Flag values strictly outside their machine's normal range.

    Boundary values count as normal. Every (machine, feature) present in
    the frame must be covered by the spec.
    """
    flags = np.zeros((len(frame), len(FEATURE_NAMES)), dtype=bool)
    for mid, rows in frame.rows_by_machine().items():
        if not spec.covers(mid):
            raise ValueError(f"range spec does not cover machine {mid!r}")
        sub = frame.values[rows]
        for j, name in enumerate(FEATURE_NAMES):
            lo, hi = spec.bounds(mid, name)
            flags[rows, j] = (sub[:, j] < lo) | (sub[:, j] > hi)
    return LabelVector(flags, flags.any(axis=1))


def label_by_iqr(frame: FeatureFrame, k: float = 1.5) -> LabelVector:
    """Flag values outside per-machine, per-feature 1.5-IQR bounds.

    Bounds are computed from each machine's own data, not the pooled set.
    """
    flags = np.zeros((len(frame), len(FEATURE_NAMES)), dtype=bool)
    for mid, rows in frame.rows_by_machine().items():
        sub = frame.values[rows]
        for j in range(len(FEATURE_NAMES)):
            lo, hi = iqr_bounds(sub[:, j], k=k)
            flags[rows, j] = (sub[:, j] < lo) | (sub[:, j] > hi)
    return LabelVector(flags, flags.any(axis=1))
