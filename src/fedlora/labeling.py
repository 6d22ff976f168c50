"""Ground-truth anomaly labeling.

Two labeling routes are provided: manufacturer normal operating ranges
(one range per machine per feature) and statistical 1.5-IQR bounds
computed per machine. Per-feature flags are aggregated to one instance
label by logical OR: an instance is anomalous if at least one feature is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frame import FEATURE_NAMES, MACHINES, N_FEATURES, FeatureFrame, Machine

# Manufacturer normal operating ranges, per machine and feature.
# Battery differs for the Manitou (12 V system); all other signals share
# one range across machines.
_COMMON = {
    "consumption": (1.0, 40.0),   # liters/hour
    "rpm": (800.0, 2200.0),
    "water_temp": (75.0, 100.0),  # degrees Celsius
    "oil_pressure": (1.0, 7.0),   # bar
}


@dataclass(frozen=True)
class RangeSpec:
    """Normal value range per (machine, feature), in native units.

    `ranges` maps a canonical machine id (or Machine member) to
    {feature: (lo, hi)}; each pair must have lo < hi and finite bounds
    ± width/2, the farthest an anomaly goes. `table` holds them as floats
    in one read-only (2, machines, features) array of lows and highs,
    indexed by machine code, NaN where no range was given.
    """

    ranges: dict[str, dict[str, tuple[float, float]]]
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.full((2, len(MACHINES), N_FEATURES), np.nan)
        for mid, feats in self.ranges.items():
            code = MACHINES.index(Machine(mid))  # a canonical id or a member; a loose spelling raises
            for name, (lo, hi) in feats.items():
                if name not in FEATURE_NAMES:
                    raise ValueError(f"unknown feature {name!r} for {mid}")
                lo, hi = float(lo), float(hi)
                margin = (hi - lo) / 2  # generate_synthetic puts anomalies up to this far out
                if not (lo < hi and math.isfinite(lo - margin) and math.isfinite(hi + margin)):
                    raise ValueError(f"range {mid}/{name} needs lower < upper, bounds finite ± width/2: ({lo}, {hi})")
                table[:, code, FEATURE_NAMES.index(name)] = lo, hi
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def limits(self, machine) -> np.ndarray:
        """The machine's (lows, highs): a read-only (2, 5) array, columns in FEATURE_NAMES order."""
        machine = Machine(machine)
        limits = self.table[:, MACHINES.index(machine)]
        missing = [name for name, lo in zip(FEATURE_NAMES, limits[0]) if math.isnan(lo)]
        if missing:
            raise ValueError(f"range spec does not cover machine {machine.value!r}: no range for {missing}")
        return limits


DEFAULT_RANGES = RangeSpec(
    {m.value: {"battery": (12.6, 13.6) if m is Machine.MANITOU else (24.0, 28.0), **_COMMON} for m in MACHINES}
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


IQR_MIN_VALUES = 4  # the values iqr_bounds needs


def iqr_bounds(values, k: float = 1.5) -> tuple[float, float]:
    """Tukey-style outlier bounds Q1 - k*IQR and Q3 + k*IQR.

    Quartiles use linear interpolation of order statistics. Requires at
    least `IQR_MIN_VALUES` finite values and a finite k >= 0.
    """
    if not (math.isfinite(k) and k >= 0):
        raise ValueError(f"k must be finite and >= 0, got {k}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < IQR_MIN_VALUES:
        raise ValueError(f"need at least {IQR_MIN_VALUES} values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite value in input")
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    iqr = q3 - q1
    return float(q1 - k * iqr), float(q3 + k * iqr)


def _flag(frame: FeatureFrame, limits) -> LabelVector:
    """Flag values strictly outside their machine's (lows, highs).

    `limits(machine_id, values)` gives them for one machine's rows.
    Bounds count as normal. A non-finite value anywhere raises.
    """
    if not np.isfinite(frame.values).all():
        raise ValueError("non-finite value in frame")
    flags = np.zeros((len(frame), N_FEATURES), dtype=bool)
    for mid, rows in frame.rows_by_machine().items():
        sub = frame.values[rows]
        lo, hi = limits(mid, sub)
        flags[rows] = (sub < lo) | (sub > hi)
    return LabelVector(flags, flags.any(axis=1))


def label_by_range(frame: FeatureFrame, spec: RangeSpec = DEFAULT_RANGES) -> LabelVector:
    """Flag values strictly outside their machine's normal range; the spec must cover every machine present."""
    return _flag(frame, lambda mid, sub: spec.limits(mid))


def _iqr_limits(mid: str, sub: np.ndarray, k: float) -> np.ndarray:
    """One machine's per-feature k-IQR (lows, highs); an error names the machine and feature."""
    bounds = []
    for name, column in zip(FEATURE_NAMES, sub.T):
        try:
            bounds.append(iqr_bounds(column, k))
        except ValueError as err:
            raise ValueError(f"IQR bounds of machine {mid!r}, feature {name!r}: {err}") from None
    return np.transpose(bounds)


def label_by_iqr(frame: FeatureFrame, k: float = 1.5) -> LabelVector:
    """Flag values outside per-machine, per-feature k-IQR bounds, from each machine's own data."""
    return _flag(frame, lambda mid, sub: _iqr_limits(mid, sub, k))
