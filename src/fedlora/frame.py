"""Core feature-matrix container shared by the whole pipeline.

Every model in this package consumes the same five machine signals:
battery voltage, fuel consumption, engine RPM, water temperature and
oil pressure. A FeatureFrame is a plain numpy matrix of those signals
plus the machine each row came from and (optionally) anomaly labels.

A row's machine is stored as a one-byte code, its index in MACHINES.
Only text read from a file goes through the loose `machine_from_name`;
any other id must be a canonical name, a Machine member or a code.
"""

from __future__ import annotations

import csv
from enum import Enum

import numpy as np

FEATURE_NAMES = ("battery", "consumption", "rpm", "water_temp", "oil_pressure")
N_FEATURES = len(FEATURE_NAMES)


class Machine(str, Enum):
    """The four monitored machines."""

    MANITOU = "Manitou"
    ATLAS_D7 = "AtlasD7"
    JAW_CRUSHER = "JawCrusher"
    DOOSAN_DL200 = "DoosanDL200"


MACHINES = tuple(Machine)
# the one code <-> name table: a machine's code is its index in MACHINES
_NAMES = np.array([m.value for m in MACHINES])
# the enum values are alphanumeric, so lower case is already their lookup key
_MACHINE_BY_KEY = {m.value.lower(): m for m in Machine}


def machine_from_name(name: str) -> Machine:
    """Resolve a machine from a loosely formatted identifier.

    Accepts enum values in any case plus identifiers with separators
    stripped (e.g. "atlas-d7", "doosan_dl200").
    """
    key = name.lower()
    machine = _MACHINE_BY_KEY.get(key) or _MACHINE_BY_KEY.get("".join(filter(str.isalnum, key)))
    if machine is None:
        raise ValueError(f"unknown machine id: {name!r}")
    return machine


def _machine_codes(machine_ids) -> np.ndarray:
    """uint8 codes of canonical machine names or Machine members; uint8 input already is codes.

    Anything else, a loose spelling included, raises ValueError.
    """
    if not isinstance(machine_ids, np.ndarray):
        # numpy would store a member's str(), "Machine.X", not its value
        machine_ids = [m.value if isinstance(m, Machine) else m for m in machine_ids]
    ids = np.asarray(machine_ids)
    if ids.dtype == np.uint8:
        if ids.size and ids.max() >= len(MACHINES):
            raise ValueError(f"unknown machine code: {ids.max()}")
        return ids
    codes = np.full(ids.shape, len(MACHINES), dtype=np.uint8)
    for code, name in enumerate(_NAMES):
        codes[ids == name] = code
    unknown = codes == len(MACHINES)
    if unknown.any():
        raise ValueError(f"unknown machine id: {ids[unknown].tolist()[0]!r}")
    return codes


class FeatureFrame:
    """Instances x 5 selected features, with machine ids and optional labels.

    `values` is float64 with columns in FEATURE_NAMES order.
    `machine_codes` is uint8, one code a row; `machine_ids` is the
    read-only array of names derived from it (built on every read).
    `labels`, when present, marks anomalous instances with True.
    """

    def __init__(self, values, machine_ids, labels=None):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_FEATURES:
            raise ValueError(
                f"feature matrix must be (n, {N_FEATURES}), got {self.values.shape}"
            )
        self.machine_codes = _machine_codes(machine_ids)
        if self.machine_codes.shape != (self.values.shape[0],):
            raise ValueError("machine_ids length must match instance count")
        self.labels = None if labels is None else np.asarray(labels, dtype=bool)
        if self.labels is not None and self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels length must match instance count")

    @property
    def machine_ids(self) -> np.ndarray:
        names = _NAMES[self.machine_codes]
        names.flags.writeable = False
        return names

    def __len__(self) -> int:
        return self.values.shape[0]

    def take(self, indices) -> "FeatureFrame":
        """Row subset by integer indices or boolean mask (a copy: fancy indexing copies)."""
        idx = np.asarray(indices)
        idx = np.flatnonzero(idx) if idx.dtype == bool else idx.astype(np.intp)
        labels = None if self.labels is None else self.labels[idx]
        return FeatureFrame(self.values[idx], self.machine_codes[idx], labels)

    def with_labels(self, labels) -> "FeatureFrame":
        return FeatureFrame(self.values.copy(), self.machine_codes.copy(), labels)

    def machines(self) -> list[str]:
        """Machine ids present, in canonical machine order."""
        return list(self.rows_by_machine())

    def rows_by_machine(self) -> dict[str, np.ndarray]:
        """Row indices of each machine present, canonical machine order."""
        rows = {m.value: np.flatnonzero(self.machine_codes == code) for code, m in enumerate(MACHINES)}
        return {mid: idx for mid, idx in rows.items() if idx.size}

    def by_machine(self) -> dict[str, "FeatureFrame"]:
        """Split into one frame per machine, canonical order."""
        return {mid: self.take(rows) for mid, rows in self.rows_by_machine().items()}

    def counts_by_machine(self) -> dict[str, int]:
        counts = np.bincount(self.machine_codes, minlength=len(MACHINES)).tolist()
        return {m.value: n for m, n in zip(MACHINES, counts) if n}


def concat_frames(frames: list[FeatureFrame]) -> FeatureFrame:
    """Stack frames row-wise. Labels are kept only if every frame has them."""
    if not frames:
        raise ValueError("nothing to concatenate")
    values = np.concatenate([f.values for f in frames], axis=0)
    codes = np.concatenate([f.machine_codes for f in frames], axis=0)
    labels = None
    if all(f.labels is not None for f in frames):
        labels = np.concatenate([f.labels for f in frames], axis=0)
    return FeatureFrame(values, codes, labels)


def write_dict_csv(path, fieldnames, rows) -> None:
    """Write dict rows under a header of `fieldnames`, in that column order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
