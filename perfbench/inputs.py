"""Ingest inputs: the synthetic campaign written as CSV and as TTN uplink JSON.

Both files carry the same rows with the same defects planted at fixed
rates, each defect class on its own rows. The manifest records how many
rows of each class were planted and the ingest and cleaning audits the
program must report for them, so a pass can be checked exactly.

The hostile probes are separate: inputs of the wrong shape that must be
rejected with ValueError, not crash the reader.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

# share of rows per defect class; classes take disjoint rows
DEFECT_RATES = {
    "invalid_cell": 0.010,  # CSV "FF", TTN null: one feature flagged invalid
    "empty_cell": 0.005,  # CSV empty cell, TTN field missing
    "unparseable": 0.002,  # CSV non-numeric cell, TTN truncated JSON
    "unknown_device": 0.002,
    "nonpositive_ts": 0.001,  # timestamp 0 or -60 s
}
# the audit counter that must account for each defect class
AUDIT_OF = {
    "invalid_cell": ("clean_audit", "removed_invalid_feature"),
    "empty_cell": ("clean_audit", "removed_invalid_feature"),
    "unparseable": ("ingest_audit", "rows_skipped"),
    "unknown_device": ("ingest_audit", "rows_skipped"),
    "nonpositive_ts": ("clean_audit", "removed_invalid_epoch"),
}
CSV_HEADER = ("timestamp", "machine_id", "battery_v", "consumption_lph", "rpm", "water_c", "oil_bar")
FEATURES = CSV_HEADER[2:]
CAMPAIGN_START = 1677628800  # 2023-03-01T00:00:00Z
UNKNOWN_DEVICE = "Komatsu-PC210"


def _rfc3339(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def plant_defects(n_rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Defect class index per row (-1 for clean rows) and the feature each cell defect hits."""
    rng = np.random.default_rng([seed, 0xDEF])
    kind = np.full(n_rows, -1)
    order = rng.permutation(n_rows)
    at = 0
    for k, rate in enumerate(DEFECT_RATES.values()):
        count = int(round(rate * n_rows))
        kind[order[at : at + count]] = k
        at += count
    return kind, rng.integers(len(FEATURES), size=n_rows)


def write_ingest_inputs(values: np.ndarray, machine_ids: np.ndarray, seed: int, out_dir: str) -> dict:
    """Write campaign.csv and campaign.ttn.jsonl with planted defects; return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    n = len(values)
    kind, feature = plant_defects(n, seed)
    names = list(DEFECT_RATES)

    # rows of each machine are one reading a minute from the campaign start
    timestamps = np.empty(n)
    for mid in np.unique(machine_ids):
        rows = np.flatnonzero(machine_ids == mid)
        timestamps[rows] = CAMPAIGN_START + 60.0 * np.arange(rows.size)

    csv_lines = [",".join(CSV_HEADER)]
    ttn_lines = []
    for i, (row, mid, ts) in enumerate(zip(values.tolist(), machine_ids.tolist(), timestamps.tolist())):
        defect = names[kind[i]] if kind[i] >= 0 else None
        if defect == "nonpositive_ts":
            ts = 0.0 if i % 2 else -60.0
        device = UNKNOWN_DEVICE if defect == "unknown_device" else mid
        cells = list(map(repr, row))
        fields = [f'"{name}": {cell}' for name, cell in zip(FEATURES, cells)]
        j = int(feature[i])
        if defect == "invalid_cell":
            cells[j] = "FF"
            fields[j] = f'"{FEATURES[j]}": null'
        elif defect == "empty_cell":
            cells[j] = ""
            del fields[j]
        elif defect == "unparseable":
            cells[j] = "n/a"
        csv_lines.append(f"{int(ts)},{device}," + ",".join(cells))
        # the json.dumps layout, written directly: ids and numbers need no escaping
        doc = (
            f'{{"end_device_ids": {{"device_id": "{device}"}}, "received_at": "{_rfc3339(ts)}", '
            f'"uplink_message": {{"decoded_payload": {{{", ".join(fields)}}}}}}}'
        )
        if defect == "unparseable":
            doc = doc[: len(doc) // 2]
        ttn_lines.append(doc)

    csv_path = os.path.join(out_dir, "campaign.csv")
    ttn_path = os.path.join(out_dir, "campaign.ttn.jsonl")
    for path, lines in ((csv_path, csv_lines), (ttn_path, ttn_lines)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    planted = {name: int((kind == k).sum()) for k, name in enumerate(names)}
    expected = {
        "ingest_audit": {"rows_skipped": 0},
        "clean_audit": {"removed_invalid_feature": 0, "removed_invalid_epoch": 0},
    }
    for name, count in planted.items():
        section, key = AUDIT_OF[name]
        expected[section][key] += count
    expected["n_instances"] = n - sum(planted.values())
    return {
        "seed": seed,
        "rows": n,
        "rates": DEFECT_RATES,
        "planted": planted,
        "expected": expected,
        "files": {"csv": csv_path, "ttn_json": ttn_path},
        "sha256": {fmt: file_sha256(path) for fmt, path in (("csv", csv_path), ("ttn_json", ttn_path))},
    }


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# valid JSON of the wrong shape; each should raise ValueError
HOSTILE_UPLINKS = {
    "uplink_array": "[]",
    "uplink_number": "1",
    "device_ids_not_object": json.dumps(
        {"end_device_ids": "Manitou", "received_at": "2023-03-01T00:00:00Z"}
    ),
    "received_at_number": json.dumps(
        {"end_device_ids": {"device_id": "Manitou"}, "received_at": CAMPAIGN_START}
    ),
    "payload_field_object": json.dumps(
        {
            "end_device_ids": {"device_id": "Manitou"},
            "received_at": "2023-03-01T00:00:00Z",
            "uplink_message": {"decoded_payload": {"battery_v": {"volts": 24.1}}},
        }
    ),
}


def run_probes(data_module, out_dir: str) -> dict[str, str]:
    """Feed each hostile input to the program; outcome per probe.

    "rejected" (ValueError) and "accepted" (no exception) pass; any other
    exception is a defect and is reported by its type name.
    """
    short_csv = os.path.join(out_dir, "short_row.csv")
    with open(short_csv, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + f"{CAMPAIGN_START},Manitou,24.1\n")

    probes = {
        name: (data_module.decode_ttn_uplink, text) for name, text in HOSTILE_UPLINKS.items()
    }
    probes["csv_short_row"] = (data_module.ingest_csv, short_csv)
    outcomes = {}
    for name, (fn, arg) in probes.items():
        try:
            fn(arg)
        except ValueError:
            outcomes[name] = "rejected"
        except Exception as exc:  # the probe's purpose is to classify any crash
            outcomes[name] = type(exc).__name__
        else:
            outcomes[name] = "accepted"
    return outcomes


def probe_defects(outcomes: dict[str, str]) -> int:
    return sum(o not in ("rejected", "accepted") for o in outcomes.values())
