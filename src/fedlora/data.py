"""Telemetry acquisition: file ingestion and calibrated synthetic generation.

A RecordSet holds the five selected machine signals as columns, with NaN
marking an invalid reading. Sources are a canonical CSV layout, TTN-style
uplink JSON documents, or a synthetic generator tuned to the default
per-machine instance counts and anomaly rate.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter

import numpy as np

from .frame import MACHINES, N_FEATURES, FeatureFrame, Machine, machine_from_name
from .labeling import DEFAULT_RANGES, RangeSpec

# CSV column layout (header names, in order)
CSV_COLUMNS = (
    "timestamp",
    "machine_id",
    "battery_v",
    "consumption_lph",
    "rpm",
    "water_c",
    "oil_bar",
)
# CSV feature columns mapped onto internal feature order
CSV_FEATURES = ("battery_v", "consumption_lph", "rpm", "water_c", "oil_bar")

# The source bus marks unusable readings with an all-ones byte pattern;
# in text form that is the token "FF". An empty cell counts too.
INVALID_SENTINEL = "FF"

# Default per-machine instance counts of the calibration dataset.
DEFAULT_COUNTS = {
    Machine.MANITOU.value: 10150,
    Machine.ATLAS_D7.value: 388,
    Machine.JAW_CRUSHER.value: 6677,
    Machine.DOOSAN_DL200.value: 11507,
}
DEFAULT_ANOMALY_FRACTION = 0.1644

# 2023-03-01T00:00:00Z, start of the monitoring campaign
_SYNTHETIC_EPOCH = 1677628800


class RecordSet(FeatureFrame):
    """Telemetry rows as columns, plus provenance and an ingestion/cleaning audit.

    A RecordSet is an unlabeled FeatureFrame whose row i also has
    `timestamps[i]` (unix seconds, float64). NaN marks an invalid reading.
    `provenance` is "csv", "ttn_json" or "synthetic". The inherited `take`,
    `with_labels` and `by_machine` return plain FeatureFrames without
    timestamps, as `select_features` does.
    """

    def __init__(self, timestamps, machine_ids, values, provenance: str, audit: dict[str, int] | None = None):
        super().__init__(values, machine_ids)
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if self.timestamps.shape != (len(self),):
            raise ValueError(f"timestamps must be ({len(self)},), got {self.timestamps.shape}")
        self.provenance = provenance
        self.audit = {} if audit is None else audit

    def __iter__(self):
        """(timestamp, machine_id, values) per row, the tuple decode_ttn_uplink returns."""
        return zip(self.timestamps.tolist(), self.machine_ids.tolist(), self.values)


@dataclass
class GenConfig:
    """Synthetic generator settings.

    `counts` gives instances per machine; `scale` shrinks or grows all
    counts proportionally (rounded per machine). Anomalous instances get
    a uniform 1..5 distinct features displaced beyond their normal range
    by 10-50% of the range width, each on its own uniformly chosen side.
    Settings are checked when built and again when generated from.
    """

    counts: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    anomaly_fraction: float = DEFAULT_ANOMALY_FRACTION
    ranges: RangeSpec = field(default_factory=lambda: DEFAULT_RANGES)
    seed: int = 7
    scale: float = 1.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for mid, n in self.counts.items():
            Machine(mid)  # a canonical id or a member; a loose spelling raises
            if n < 0:
                raise ValueError(f"count for {mid} must be >= 0")
            if n:
                self.ranges.limits(mid)  # a counted machine needs all five ranges
        if not 0.0 <= self.anomaly_fraction <= 1.0:
            raise ValueError("anomaly_fraction must lie in [0, 1]")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    def effective_counts(self) -> dict[str, int]:
        return {mid: int(round(n * self.scale)) for mid, n in self.counts.items()}


def _parse_cell(text: str) -> float:
    """Parse one feature cell: number, or the invalid sentinel / empty (NaN)."""
    token = text.strip()
    if token == "" or token.upper() == INVALID_SENTINEL:
        return math.nan
    return float(token)  # may raise ValueError


def _record_set(timestamps: array, codes: array, values: array, provenance: str, skipped: int) -> RecordSet:
    """A RecordSet over the columns a reader collected; a non-finite reading becomes NaN."""
    readings = np.frombuffer(values).reshape(-1, N_FEATURES)
    readings[~np.isfinite(readings)] = np.nan
    ids = np.frombuffer(codes, dtype=np.uint8)
    return RecordSet(np.frombuffer(timestamps), ids, readings, provenance, {"rows_skipped": skipped})


class _MachineCodes(dict):
    """Machine code per id as a file spells it; each spelling is resolved once, an unknown id raises ValueError."""

    def __missing__(self, name: str) -> int:
        code = self[name] = MACHINES.index(machine_from_name(name))
        return code


def _record_end(again, at: int, first: int) -> int:
    """The line after the CSV record that starts at line `first` (0-based).

    `again` is a second handle on the file, `at` (<= first) lines in. The
    record is parsed again with the field size limit raised, so the csv
    module itself decides where its quoted fields end.
    """
    next(itertools.islice(again, first - at, first - at), None)
    reader = csv.reader(again)
    limit = csv.field_size_limit(2**31 - 1)  # above any real field, and a C long everywhere
    try:
        next(reader, None)
    finally:
        csv.field_size_limit(limit)
    return first + reader.line_num


def ingest_csv(path) -> RecordSet:
    """Read telemetry records from a CSV file with the CSV_COLUMNS header names.

    Rows that are short, hold an over-long field, whose timestamp or
    machine id fail to parse, or whose feature cells hold neither a number
    nor the invalid sentinel, are skipped and counted in the set's audit.
    Reading resumes after a skipped row's last line, also when an
    over-long quoted field spans lines. A header the reader cannot parse
    raises ValueError.
    """
    timestamps, codes, values = array("d"), array("B"), array("d")
    add_timestamp, add_code, add_readings = timestamps.append, codes.append, values.extend
    code = _MachineCodes()
    skipped = 0
    with open(path, newline="", encoding="utf-8") as fh, open(path, newline="", encoding="utf-8") as again:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:  # e.g. a header field over csv.field_size_limit()
            raise ValueError(f"unreadable CSV header in {path}: {exc}") from None
        # a header name that repeats maps to its last column
        column = {name: i for i, name in enumerate(header)}
        missing = [c for c in CSV_COLUMNS if c not in column]
        if missing:
            raise ValueError(f"CSV is missing mapped columns: {missing}")
        ts_col, id_col, *feature_cols = (column[c] for c in CSV_COLUMNS)
        features = itemgetter(*feature_cols)

        skipped_lines = 0  # lines consumed past the reader, so not in its line_num
        again_at = 0  # lines consumed by `again`
        while True:  # `first` is the line the next record starts on, less skipped_lines
            first = reader.line_num
            try:
                for row in reader:
                    first = reader.line_num
                    if not row:
                        continue
                    try:
                        ts = float(row[ts_col])
                        machine = code[row[id_col]]
                        cells = features(row)
                        try:
                            readings = list(map(float, cells))
                        except ValueError:  # a sentinel, empty or unparseable cell
                            readings = list(map(_parse_cell, cells))
                    except (ValueError, IndexError):
                        skipped += 1
                        continue
                    add_timestamp(ts)
                    add_code(machine)
                    add_readings(readings)
                break
            except csv.Error:  # a field over csv.field_size_limit()
                skipped += 1
                again_at = _record_end(again, again_at, first + skipped_lines)
                rest = again_at - reader.line_num - skipped_lines
                skipped_lines += sum(1 for _ in itertools.islice(fh, rest))

    if not codes:
        raise ValueError(f"no parseable rows in {path}")
    return _record_set(timestamps, codes, values, "csv", skipped)


def write_csv(rs: RecordSet, path) -> None:
    """Write records in the canonical CSV layout (invalid fields as the sentinel)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        columns = rs.timestamps.tolist(), rs.machine_ids.tolist(), rs.values.tolist()
        for ts, machine, row in zip(*columns):
            cells = [INVALID_SENTINEL if math.isnan(v) else repr(v) for v in row]
            writer.writerow([repr(ts) if ts % 1 else str(int(ts)), machine, *cells])


def _parse_rfc3339(text: str) -> float:
    """RFC 3339 timestamp to unix seconds. Tolerates padding, 'z' and long fractions."""
    try:
        dt = datetime.fromisoformat(text)  # the usual spelling, read as sent
    except ValueError:
        t = text.strip()
        if t.endswith(("Z", "z")):
            t = t[:-1] + "+00:00"
        # fromisoformat on 3.10 only takes up to 6 fractional digits
        if "." in t:
            head, _, rest = t.partition(".")
            frac = "".join(itertools.takewhile(str.isdigit, rest))
            t = head + "." + (frac[:6] or "0") + rest[len(frac):]
        dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def decode_ttn_uplink(text: str) -> tuple[float, str, np.ndarray]:
    """Decode one TTN-style uplink JSON document into (timestamp, machine_id, values).

    Expected shape: `end_device_ids.device_id`, `received_at` (RFC 3339)
    and `uplink_message.decoded_payload` with the five feature fields.
    Missing, null or non-finite payload fields become NaN; unknown extras
    are ignored. Input of any other shape raises ValueError.
    """
    timestamp, device, readings = _uplink(text)
    values = np.array(readings)
    values[~np.isfinite(values)] = np.nan
    return timestamp, machine_from_name(device).value, values


# the reading of a payload value that is not a float; a bool, str, list or object has none
_READING = {int: float, type(None): lambda _: math.nan}
# a payload's values in CSV_FEATURES order, and their types when all are floats
_FEATURES = itemgetter(*CSV_FEATURES)
_FLOATS = [float] * len(CSV_FEATURES)
# json.loads's own scanner, called without its input checks and whitespace skips
_SCAN = json.JSONDecoder().scan_once


def _uplink(text: str) -> tuple[float, str, Sequence[float]]:
    """decode_ttn_uplink's fields, with the device id as sent and non-finite readings kept."""
    try:
        doc, end = _SCAN(text, 0)
        whole = end == len(text)
    except (ValueError, TypeError, StopIteration, RecursionError):
        whole = False
    if not whole:  # bytes, surrounding whitespace or an error: json.loads accepts or names it
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed uplink JSON: {exc}") from exc
    if type(doc) is not dict:
        raise ValueError("uplink must be a JSON object")

    # an absent or empty object reads as {}
    ids = doc.get("end_device_ids") or {}
    if type(ids) is not dict:
        raise ValueError("uplink field 'end_device_ids' must be an object")
    device = ids.get("device_id")
    if not device or type(device) is not str:
        raise ValueError("uplink needs a non-empty string end_device_ids.device_id")
    received = doc.get("received_at")
    if not received or type(received) is not str:
        raise ValueError("uplink needs a non-empty string received_at")
    timestamp = _parse_rfc3339(received)
    message = doc.get("uplink_message") or {}
    if type(message) is not dict:
        raise ValueError("uplink field 'uplink_message' must be an object")
    payload = message.get("decoded_payload") or {}
    if type(payload) is not dict:
        raise ValueError("uplink field 'decoded_payload' must be an object")
    try:
        readings = _FEATURES(payload)
    except KeyError:  # a missing field reads as null
        readings = tuple(map(payload.get, CSV_FEATURES))
    if [*map(type, readings)] != _FLOATS:
        try:
            readings = [v if type(v) is float else _READING[type(v)](v) for v in readings]
        except (KeyError, OverflowError) as exc:  # a bool, str, list or object; an int beyond float
            raise ValueError(f"feature reading is not a number: {exc}") from exc
    return timestamp, device, readings


def encode_ttn_uplink(row: tuple[float, str, np.ndarray]) -> str:
    """Render a (timestamp, machine_id, values) row in the shape decode_ttn_uplink accepts."""
    timestamp, machine_id, values = row
    payload = {col: float(v) for col, v in zip(CSV_FEATURES, values) if math.isfinite(v)}
    received = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    doc = {
        "end_device_ids": {"device_id": machine_id},
        "received_at": received.isoformat().replace("+00:00", "Z"),
        "uplink_message": {"decoded_payload": payload},
    }
    return json.dumps(doc)


def ingest_ttn_json(path) -> RecordSet:
    """Read a file of TTN uplink documents (one JSON object per line)."""
    timestamps, codes, values = array("d"), array("B"), array("d")
    add_timestamp, add_code, add_readings = timestamps.append, codes.append, values.extend
    code = _MachineCodes()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                ts, device, readings = _uplink(line)
                machine = code[device]
            except ValueError:
                skipped += 1
                continue
            add_timestamp(ts)
            add_code(machine)
            add_readings(readings)
    if not codes:
        raise ValueError(f"no parseable uplinks in {path}")
    return _record_set(timestamps, codes, values, "ttn_json", skipped)


def clean(rs: RecordSet) -> RecordSet:
    """Drop rows with any invalid (non-finite) reading or a non-positive timestamp.

    A row failing both tests counts as an invalid feature. Removal counts
    by reason land in the returned set's audit. Cleaning is idempotent and
    preserves row order.
    """
    feature_ok = np.isfinite(rs.values).all(axis=1)
    epoch_ok = np.isfinite(rs.timestamps) & (rs.timestamps > 0)
    keep = feature_ok & epoch_ok
    audit = {
        "removed_invalid_feature": int(np.count_nonzero(~feature_ok)),
        "removed_invalid_epoch": int(np.count_nonzero(feature_ok & ~epoch_ok)),
    }
    return RecordSet(
        rs.timestamps[keep], rs.machine_codes[keep], rs.values[keep], rs.provenance, audit
    )


def select_features(rs: RecordSet) -> FeatureFrame:
    """View cleaned records as the 5-feature matrix, keeping machine ids."""
    if len(rs) == 0:
        raise ValueError("cannot select features from an empty record set")
    return FeatureFrame(rs.values, rs.machine_codes)


def generate_synthetic(cfg: GenConfig | None = None) -> RecordSet:
    """Generate a labeled-ready synthetic dataset.

    Normal instances sample every feature uniformly inside the machine's
    normal range. Anomalous instances (probability `anomaly_fraction`)
    displace a uniform 1..5 distinct features, each beyond its own
    uniformly chosen bound by 10-50% of the range width. Deterministic
    for a fixed seed. Each machine's rows are one reading a minute from
    the campaign start.
    """
    cfg = cfg or GenConfig()
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    counts = cfg.effective_counts()
    # (timestamps, machine ids, values) per machine; the empty first block
    # lets a config without rows concatenate
    blocks = [(np.empty(0), np.empty(0, dtype=np.uint8), np.empty((0, N_FEATURES)))]

    for code, machine in enumerate(MACHINES):
        count = counts.get(machine.value, 0)
        if count == 0:
            continue
        lows, highs = cfg.ranges.limits(machine)
        widths = highs - lows

        values = rng.uniform(lows, highs, size=(count, N_FEATURES))
        anomalous = rng.random(count) < cfg.anomaly_fraction
        n_anom = int(anomalous.sum())
        if n_anom:
            # real faults rarely disturb a single signal: displace a
            # uniform 1..5 features per anomalous instance
            n_displaced = rng.integers(1, N_FEATURES + 1, size=n_anom)
            # per row, in stream order: the features, their sides and their offsets
            draws = [(rng.choice(N_FEATURES, k, replace=False), rng.random(k), rng.uniform(0.1, 0.5, k))
                     for k in n_displaced]
            feats, side, scale = map(np.concatenate, zip(*draws))
            offset = scale * widths[feats]
            rows = np.repeat(np.flatnonzero(anomalous), n_displaced)
            values[rows, feats] = np.where(side < 0.5, highs[feats] + offset, lows[feats] - offset)

        timestamps = _SYNTHETIC_EPOCH + 60.0 * np.arange(count)
        blocks.append((timestamps, np.full(count, code, dtype=np.uint8), values))
    timestamps, codes, values = (np.concatenate(column) for column in zip(*blocks))
    return RecordSet(timestamps, codes, values, "synthetic")
