"""Pin the file readers to a per-row reference, bit for bit.

`ingest_csv` must equal `csv.reader` plus `_parse_cell` applied row by
row, and `ingest_ttn_json` must equal `decode_ttn_uplink` applied to each
non-blank line: timestamps and readings compared as bytes, with the same
machine ids and audit. The files hold every row and cell form the readers
accept or skip, and the TTN payload types accepted and rejected are pinned too.
"""

import csv
import itertools
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedlora import data
from fedlora.data import (
    CSV_COLUMNS,
    CSV_FEATURES,
    RecordSet,
    _parse_cell,
    decode_ttn_uplink,
    ingest_csv,
    ingest_ttn_json,
)
from fedlora.frame import machine_from_name

HEADER = ",".join(CSV_COLUMNS)
# one over the csv module's default field size limit of 131,072 characters
LONG = 200_000

CSV_ROWS = [
    # finite reprs, including the extremes of float64
    "1677628800,Manitou,13.20567989045087,10.374566152803117,856.8383250862558,90.0060366788425,1.810202018949349",
    "1677628860,AtlasD7,5e-324,1.7976931348623157e+308,-0.0,0.1,2.220446049250313e-16",
    # whitespace-padded numbers and ids, a quoted number, an underscore literal
    " 1677628920 , Manitou , 13.0 ,\t20.5 ,1500 ,\" 85\",1_000",
    # the invalid sentinel in any case, empty and blank cells
    "1677628980,JawCrusher,FF,ff, FF ,,   ",
    # non-finite numbers, and numbers beyond float64 either way
    "1677629040,DoosanDL200,nan,inf,-inf,1e400,-nan",
    "1677629100,Manitou,NaN,Infinity,-Infinity,-1e400,1e-400",
    # an unparseable cell, a short row and an unknown device are skipped
    "1677629160,Manitou,13.0,n/a,1500,85,3",
    "1677629220,Manitou,13.0,20.0",
    "1677629280,Komatsu-PC210,13.0,20.0,1500,85,3",
    # loose id spellings
    "1677629340,atlas-d7,25.0,10.0,900,80,2",
    "1677629400,DOOSAN_DL200,25.0,10.0,900,80,2",
    "1677629460,Jaw Crusher,25.0,10.0,900,80,2",
    # blank lines are not rows; a line of spaces is a short row
    "",
    "",
    "   ",
    # bad and non-finite timestamps: the first two skip, the rest are kept
    "FF,Manitou,13.0,20.0,1500,85,3",
    ",Manitou,13.0,20.0,1500,85,3",
    "nan,Manitou,13.0,20.0,1500,85,3",
    "-60,Manitou,13.0,20.0,1500,85,3",
    "1.6776295e9,Manitou,13.0,20.0,1500,85,3",
    # an over-long quoted field holding a newline, then a row after it
    '1677629520,Manitou,"' + "9" * LONG + '\n9",20.0,1500,85,3',
    "1677629580,Manitou,13.0,20.0,1500,85,3,extra",
    # an over-long unquoted field, and a sentinel row after it
    "1677629640,Manitou,13.0," + "9" * LONG + ",1500,85,3",
    "1677629700,JawCrusher,26.0,30.0,FF,95,5",
]
# rows the reader must skip: n/a, short, unknown device, spaces, FF and empty
# timestamps, and the two over-long records
CSV_SKIPPED = 8
CSV_MACHINES = (
    ["Manitou", "AtlasD7", "Manitou", "JawCrusher", "DoosanDL200", "Manitou"]
    + ["AtlasD7", "DoosanDL200", "JawCrusher"]
    + ["Manitou"] * 4
    + ["JawCrusher"]
)


def _uplink(payload, device="Manitou", received_at="2023-03-01T00:00:00Z"):
    return json.dumps(
        {
            "end_device_ids": {"device_id": device},
            "received_at": received_at,
            "uplink_message": {"decoded_payload": payload},
        }
    )


FULL = {"battery_v": 13.0, "consumption_lph": 20.0, "rpm": 1500.0, "water_c": 85.0, "oil_bar": 3.0}

TTN_LINES = [
    _uplink(FULL),
    _uplink({**FULL, "rpm": 856.8383250862558, "oil_bar": 5e-324}),
    # accepted payload types: floats, ints, null, missing
    _uplink({**FULL, "battery_v": 24, "rpm": 0, "water_c": -7}),
    _uplink({**FULL, "battery_v": None, "consumption_lph": 2, "rpm": 1500}),
    _uplink({"battery_v": 13.0, "rpm": 1500.0}),
    _uplink({}),
    # non-finite values read as NaN rows, not skips
    _uplink(FULL).replace('"rpm": 1500.0', '"rpm": NaN').replace('"oil_bar": 3.0', '"oil_bar": -Infinity'),
    _uplink({**FULL, "rpm": 1e400, "oil_bar": -1e400}),
    # payload fields that are not JSON numbers make the row a skip: strings,
    # numeric or not, booleans, lists, objects and integers beyond float
    _uplink({**FULL, "battery_v": "1.5"}),
    _uplink({**FULL, "consumption_lph": " 2.5 "}),
    _uplink({**FULL, "water_c": "nan"}),
    _uplink({**FULL, "rpm": True}),
    _uplink({**FULL, "water_c": False}),
    _uplink({**FULL, "rpm": [1500]}),
    _uplink({**FULL, "rpm": {"value": 1500}}),
    _uplink(FULL).replace('"rpm": 1500.0', '"rpm": 1' + "0" * 400),
    _uplink(FULL).replace('"rpm": 1500.0', '"rpm": 1' + "0" * 5000),
    _uplink({**FULL, "rpm": "n/a"}),
    _uplink({**FULL, "rpm": ""}),
    # documents of the wrong shape, truncated JSON and an unknown device
    "[]",
    '{"end_device_ids": "Manitou", "received_at": "2023-03-01T00:00:00Z"}',
    _uplink(FULL)[:60],
    _uplink(FULL, device="Komatsu-PC210"),
    _uplink(FULL, device=""),
    _uplink(FULL, received_at="yesterday"),
    # loose ids and timestamp spellings
    _uplink(FULL, device="atlas-d7", received_at="2023-03-01T00:01:00.123456789+01:00"),
    _uplink(FULL, device="DOOSAN_DL200", received_at=" 2023-03-01T00:02:00.5z "),
    _uplink(FULL, device="Jaw Crusher", received_at="2023-03-01"),
    # blank and padded lines
    "",
    "   ",
    "  " + _uplink(FULL, received_at="2023-03-01T00:03:00Z") + "  ",
]
TTN_SKIPPED = 17


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _columns(rows, provenance, skipped):
    timestamps, machine_ids, values = zip(*rows)
    values = np.array(values, dtype=np.float64).reshape(-1, 5)
    values[~np.isfinite(values)] = np.nan
    return RecordSet(timestamps, machine_ids, values, provenance, {"rows_skipped": skipped})


def _reference_csv(path) -> RecordSet:
    """ingest_csv, one row at a time: csv.reader with the limit raised, then _parse_cell."""
    default = csv.field_size_limit()
    with open(path, newline="", encoding="utf-8") as fh:
        csv.field_size_limit(2**31 - 1)
        try:
            header, *records = list(csv.reader(fh))
        finally:
            csv.field_size_limit(default)
    column = {name: i for i, name in enumerate(header)}
    ts_col, id_col, *feature_cols = (column[c] for c in CSV_COLUMNS)
    rows, skipped = [], 0
    for row in records:
        if not row:
            continue
        if any(len(cell) > default for cell in row):
            skipped += 1
            continue
        try:
            rows.append(
                (
                    float(row[ts_col]),
                    machine_from_name(row[id_col]).value,
                    [_parse_cell(row[i]) for i in feature_cols],
                )
            )
        except (ValueError, IndexError):
            skipped += 1
    return _columns(rows, "csv", skipped)


def _reference_ttn(path) -> RecordSet:
    """ingest_ttn_json, one line at a time through decode_ttn_uplink."""
    rows, skipped = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                rows.append(decode_ttn_uplink(line.strip()))
            except ValueError:
                skipped += 1
    return _columns(rows, "ttn_json", skipped)


def _assert_identical(got: RecordSet, want: RecordSet):
    assert got.timestamps.dtype == want.timestamps.dtype == np.float64
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.shape == want.values.shape
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.machine_ids.dtype == want.machine_ids.dtype
    assert got.machine_ids.tolist() == want.machine_ids.tolist()
    assert got.provenance == want.provenance
    assert got.audit == want.audit


def test_ingest_csv_matches_per_row_reference(tmp_path):
    path = _write(tmp_path, "pinned.csv", [HEADER, *CSV_ROWS])
    limit = csv.field_size_limit()
    rs = ingest_csv(path)
    assert csv.field_size_limit() == limit
    _assert_identical(rs, _reference_csv(path))

    assert rs.audit == {"rows_skipped": CSV_SKIPPED}
    assert rs.machine_ids.tolist() == CSV_MACHINES
    assert rs.values[1].tolist() == [5e-324, 1.7976931348623157e308, -0.0, 0.1, 2.220446049250313e-16]
    assert np.signbit(rs.values[1, 2])
    assert rs.values[2].tolist() == [13.0, 20.5, 1500.0, 85.0, 1000.0]
    assert np.isnan(rs.values[3:5]).all() and np.isnan(rs.values[5, :4]).all()
    assert rs.values[5, 4] == 0.0  # 1e-400 underflows to zero, a valid reading
    assert rs.values[-1].tolist()[:2] == [26.0, 30.0] and np.isnan(rs.values[-1, 2])
    assert rs.timestamps[2] == 1677628920.0
    assert np.isnan(rs.timestamps[9])
    assert rs.timestamps[10:13].tolist() == [-60.0, 1677629500.0, 1677629580.0]


def test_ingest_csv_reads_nan_only_as_the_positive_quiet_nan(tmp_path):
    path = _write(tmp_path, "nans.csv", [HEADER, "1677628800,Manitou,-nan,nan,FF,inf,"])
    values = ingest_csv(path).values
    assert values.view(np.uint64).tolist() == [[np.float64(np.nan).view(np.uint64)] * 5]


def test_ingest_ttn_json_matches_per_line_reference(tmp_path):
    path = _write(tmp_path, "pinned.jsonl", TTN_LINES)
    rs = ingest_ttn_json(path)
    _assert_identical(rs, _reference_ttn(path))
    assert rs.audit == {"rows_skipped": TTN_SKIPPED}
    assert rs.machine_ids.tolist() == ["Manitou"] * 8 + ["AtlasD7", "DoosanDL200", "JawCrusher", "Manitou"]
    assert rs.timestamps[8:].tolist() == pytest.approx(
        [1677628800 + 60 - 3600 + 0.123456, 1677628800 + 120.5, 1677628800, 1677628980], abs=1e-6
    )


MISSING = object()


@pytest.mark.parametrize(
    "battery, expected",
    [
        (24, 24.0),
        (None, np.nan),
        (MISSING, np.nan),
        (1e400, np.nan),
    ],
    ids=["int", "null", "missing", "overflowed-float"],
)
def test_decode_ttn_accepted_payload_types(battery, expected):
    payload = {**FULL, "battery_v": battery}
    if battery is MISSING:
        del payload["battery_v"]
    _, _, values = decode_ttn_uplink(_uplink(payload))
    assert values.dtype == np.float64 and values.shape == (5,)
    np.testing.assert_array_equal(values, [expected, 20.0, 1500.0, 85.0, 3.0])
    assert values.view(np.uint64)[0] == np.float64(expected).view(np.uint64)


@pytest.mark.parametrize(
    "text",
    [
        _uplink({**FULL, "battery_v": [1.5]}),
        _uplink({**FULL, "battery_v": {"volts": 1.5}}),
        _uplink(FULL).replace('"battery_v": 13.0', '"battery_v": 1' + "0" * 400),
        _uplink({**FULL, "battery_v": "FF"}),
        _uplink({**FULL, "battery_v": "1.5"}),
        _uplink({**FULL, "battery_v": " 2.5 "}),
        _uplink({**FULL, "battery_v": "nan"}),
        _uplink({**FULL, "battery_v": True}),
        _uplink({**FULL, "battery_v": False}),
    ],
    ids=["list", "object", "beyond-float", "sentinel-string", "string", "padded-string", "nan-string", "true", "false"],
)
def test_decode_ttn_rejected_payload_types(text, tmp_path):
    with pytest.raises(ValueError):
        decode_ttn_uplink(text)
    rs = ingest_ttn_json(_write(tmp_path, "one.jsonl", [_uplink(FULL), text]))
    assert len(rs) == 1 and rs.audit == {"rows_skipped": 1}


def _reference_rfc3339(text: str) -> float:
    """The timestamp rule the TTN reader had before it tried fromisoformat on the text as sent."""
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    if "." in t:
        head, _, rest = t.partition(".")
        frac = "".join(itertools.takewhile(str.isdigit, rest))
        t = head + "." + (frac[:6] or "0") + rest[len(frac):]
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _two(low, high):
    return st.integers(low, high).map("{:02d}".format)


@st.composite
def _rfc3339_spellings(draw):
    """RFC 3339 dates and date-times, with or without a fraction and zone, some padded or out of range."""
    text = f"{draw(st.integers(1, 9999)):04d}-{draw(_two(1, 12))}-{draw(_two(1, 31))}"
    if draw(st.booleans()):
        text += draw(st.sampled_from("Tt ")) + f"{draw(_two(0, 24))}:{draw(_two(0, 59))}:{draw(_two(0, 60))}"
        digits = draw(st.integers(0, 12))
        if digits or draw(st.booleans()):
            text += draw(st.sampled_from(".,")) + draw(st.text("0123456789", min_size=digits, max_size=digits))
        text += draw(
            st.sampled_from(["", "Z", "z"])
            | st.builds("{}{}:{}".format, st.sampled_from("+-"), _two(0, 24), _two(0, 59))
        )
    pad = st.text(" \t", max_size=2)
    return draw(pad) + text + draw(pad)


@settings(max_examples=400, deadline=None)
@given(text=_rfc3339_spellings() | st.text("0123456789-:.,TtZz+ ", max_size=32))
def test_uplink_timestamp_equals_the_normalising_parse(text):
    line = _uplink(FULL, received_at=text)
    try:
        want = _reference_rfc3339(text)
    except Exception as exc:  # the reference names the error the decoder must raise
        with pytest.raises(type(exc)):
            data._uplink(line)
    else:
        assert data._uplink(line)[0] == want


_REFERENCE_READING = {int: float, type(None): lambda _: math.nan}


def _reference_readings(payload: dict) -> list[float]:
    """The per-value payload rule: a float as is, an int converted, null or missing as NaN."""
    try:
        return [v if type(v) is float else _REFERENCE_READING[type(v)](v) for v in map(payload.get, CSV_FEATURES)]
    except (KeyError, OverflowError) as exc:
        raise ValueError(f"feature reading is not a number: {exc}") from exc


_NOT_FLOAT = (
    st.integers(-(2**64), 2**64) | st.just(10**400) | st.none() | st.booleans() | st.text(max_size=3)
    | st.lists(st.floats(), max_size=1) | st.dictionaries(st.text(max_size=1), st.floats(), max_size=1)
)


@settings(max_examples=300, deadline=None)
@given(
    floats=st.fixed_dictionaries({name: st.floats() for name in CSV_FEATURES}),
    others=st.dictionaries(st.sampled_from(CSV_FEATURES + ("extra",)), _NOT_FLOAT, max_size=3),
    dropped=st.sets(st.sampled_from(CSV_FEATURES), max_size=2),
)
def test_uplink_readings_equal_the_per_value_rule(floats, others, dropped):
    payload = {**floats, **others}
    for name in dropped:
        del payload[name]
    line = _uplink(payload)
    payload = json.loads(line)["uplink_message"]["decoded_payload"]  # what the decoder sees
    try:
        want = _reference_readings(payload)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            data._uplink(line)
        assert str(got.value) == str(exc)
    else:
        got = data._uplink(line)[2]
        assert np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


_KEPT = "1677628800,Manitou,13.0,20.0,1500,85,3"
# over-long fields: unquoted, quoted with the line break after the limit, before it, and on both sides
_OVER_LONG = [
    "1677629400,Manitou,13.0," + "9" * LONG + ",1500,85,3",
    '1677629460,Manitou,"' + "9" * LONG + '\n9",20.0,1500,85,3',
    '1677629520,Manitou,"9\n' + "9" * LONG + '",20.0,1500,85,3',
    '1677629580,Manitou,"9\n\n' + "9" * LONG + '\n\n9",20.0,1500,85,3',
    '"' + "1" * LONG + '",Manitou,13.0,20.0,1500,85,3',
]
_RECORDS = [
    _KEPT,
    "1677628980,JawCrusher,FF,ff,,13,4",
    "1677629160,Manitou,13.0,n/a,1500,85,3",
    "1677629220,Manitou,13.0,20.0",
    "",
    # quoted fields that span lines but fit: kept, and skipped as unparseable
    '"1677629280\n",AtlasD7,25.0,10.0,900,80,2',
    '1677629340,AtlasD7,"2\n5.0",10.0,900,80,2',
    *_OVER_LONG,
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# over-long records first and last, back to back at the end, and all five back to back at the start
@example(records=_OVER_LONG[:2], at=1, end="")
@example(records=_OVER_LONG[2:], at=0, end="\n")
@example(records=_OVER_LONG, at=5, end="")
@given(
    records=st.lists(st.sampled_from(_RECORDS), max_size=8),
    at=st.integers(0, 8),
    end=st.sampled_from(["", "\n"]),
)
def test_ingest_csv_resumes_after_over_long_records(tmp_path, records, at, end):
    records = [*records[:at], _KEPT, *records[at:]]  # one kept row, so both readers return a set
    path = tmp_path / "recover.csv"
    path.write_text("\n".join([HEADER, *records]) + end, encoding="utf-8")
    _assert_identical(ingest_csv(path), _reference_csv(path))
