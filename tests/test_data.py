import csv
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedlora import data
from fedlora.data import (
    CSV_FEATURES,
    GenConfig,
    RecordSet,
    clean,
    decode_ttn_uplink,
    encode_ttn_uplink,
    generate_synthetic,
    ingest_csv,
    ingest_ttn_json,
    select_features,
    write_csv,
)
from fedlora.experiment import ExperimentConfig, load_dataset
from fedlora.frame import FEATURE_NAMES, MACHINES, FeatureFrame, Machine, concat_frames, machine_from_name
from fedlora.labeling import DEFAULT_RANGES, RangeSpec, label_by_range
from fedlora.preprocess import stratified_split

HEADER = "timestamp,machine_id,battery_v,consumption_lph,rpm,water_c,oil_bar"


def _same_rows(a: RecordSet, b: RecordSet) -> bool:
    return (
        np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.machine_ids, b.machine_ids)
        and np.array_equal(a.values, b.values, equal_nan=True)
    )


def _same_row(a, b) -> bool:
    return a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2], equal_nan=True)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_csv_identity(tmp_path):
    path = _write(
        tmp_path,
        HEADER
        + "\n1000,Manitou,13.0,20.0,1500,85,3\n"
        + "1060,AtlasD7,25.0,10.0,900,80,2\n"
        + "1120,JawCrusher,26.0,30.0,2000,95,5\n",
    )
    rs = ingest_csv(path)
    assert len(rs) == 3
    assert rs.provenance == "csv"
    assert rs.machine_ids[0] == Machine.MANITOU.value
    assert rs.values[1, 0] == 25.0
    assert np.isfinite(rs.values).all()


def test_ingest_csv_ff_sentinel(tmp_path):
    path = _write(tmp_path, HEADER + "\n1000,Manitou,13.0,FF,1500,85,3\n")
    values = ingest_csv(path).values[0]
    assert np.isnan(values[1])
    assert np.isfinite(values[[0, 2, 3, 4]]).all()


def test_ingest_csv_sentinel_case_and_empty(tmp_path):
    path = _write(tmp_path, HEADER + "\n1000,Manitou,ff,20.0,1500,,3\n")
    values = ingest_csv(path).values[0]
    assert np.isnan(values[0]) and np.isnan(values[3])


def test_ingest_csv_shuffled_columns_matches_canonical(tmp_path):
    canonical = _write(
        tmp_path,
        HEADER + "\n1000,Manitou,13.0,20.0,1500,85,3\n1060,AtlasD7,25.0,FF,900,80,2\n",
        "a.csv",
    )
    shuffled = _write(
        tmp_path,
        "oil_bar,machine_id,water_c,timestamp,battery_v,rpm,consumption_lph\n"
        "3,Manitou,85,1000,13.0,1500,20.0\n"
        "2,AtlasD7,80,1060,25.0,900,FF\n",
        "b.csv",
    )
    a, b = ingest_csv(canonical), ingest_csv(shuffled)
    assert _same_rows(a, b)


def test_ingest_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "nope.csv")


def test_ingest_csv_missing_column(tmp_path):
    path = _write(tmp_path, "timestamp,machine_id\n1000,Manitou\n")
    with pytest.raises(ValueError, match="missing mapped columns"):
        ingest_csv(path)


def test_ingest_csv_zero_rows(tmp_path):
    path = _write(tmp_path, HEADER + "\nnot_a_number,Manitou,1,1,1,1,1\n")
    with pytest.raises(ValueError, match="no parseable rows"):
        ingest_csv(path)


def test_ingest_csv_counts_skipped_rows(tmp_path):
    path = _write(
        tmp_path,
        HEADER
        + "\n1000,Manitou,13.0,20.0,1500,85,3\n"
        + "bad,Manitou,13.0,20.0,1500,85,3\n"
        + "1060,UnknownMachine,13.0,20.0,1500,85,3\n"
        + "1120,Manitou,garbage,20.0,1500,85,3\n",
    )
    rs = ingest_csv(path)
    assert len(rs) == 1
    assert rs.audit["rows_skipped"] == 3


MINIMAL_UPLINK = {
    "end_device_ids": {"device_id": "manitou"},
    "received_at": "2023-03-01T00:00:00Z",
    "uplink_message": {
        "decoded_payload": {
            "battery_v": 13.0,
            "consumption_lph": 20.0,
            "rpm": 1500.0,
            "water_c": 85.0,
            "oil_bar": 3.0,
        }
    },
}


def test_decode_ttn_minimal():
    timestamp, machine_id, values = decode_ttn_uplink(json.dumps(MINIMAL_UPLINK))
    assert machine_id == Machine.MANITOU.value
    assert timestamp == 1677628800.0
    assert values.tolist() == [13.0, 20.0, 1500.0, 85.0, 3.0]


def test_decode_ttn_missing_field_is_invalid():
    doc = json.loads(json.dumps(MINIMAL_UPLINK))
    del doc["uplink_message"]["decoded_payload"]["oil_bar"]
    _, _, values = decode_ttn_uplink(json.dumps(doc))
    assert np.isnan(values[4])
    assert np.isfinite(values[:4]).all()


def test_decode_ttn_ignores_extra_fields():
    doc = json.loads(json.dumps(MINIMAL_UPLINK))
    doc["uplink_message"]["decoded_payload"]["gps"] = [1, 2]
    doc["extra_top_level"] = {"a": 1}
    assert np.isfinite(decode_ttn_uplink(json.dumps(doc))[2]).all()


def test_ttn_round_trip():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 5, "AtlasD7": 4}, seed=3))
    rs.values[2, 3] = np.nan
    assert len(list(rs)) == len(rs)
    for row in rs:
        assert _same_row(decode_ttn_uplink(encode_ttn_uplink(row)), row)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.pop("end_device_ids"), "device_id"),
        (lambda d: d.pop("received_at"), "received_at"),
    ],
)
def test_decode_ttn_missing_required(mutate, match):
    doc = json.loads(json.dumps(MINIMAL_UPLINK))
    mutate(doc)
    with pytest.raises(ValueError, match=match):
        decode_ttn_uplink(json.dumps(doc))


def test_decode_ttn_malformed_json():
    with pytest.raises(ValueError, match="malformed"):
        decode_ttn_uplink("{not json")


def _decoded_or_error(text):
    try:
        timestamp, machine_id, values = decode_ttn_uplink(text)
    except ValueError as exc:
        return str(exc)
    return timestamp, machine_id, values.tolist()


def _no_scan(text, at):
    raise StopIteration(at)


_MINIMAL_TEXT = json.dumps(MINIMAL_UPLINK)
_MINIMAL_DECODED = (1677628800.0, "Manitou", [13.0, 20.0, 1500.0, 85.0, 3.0])


@pytest.mark.parametrize(
    "text,expected",
    [
        (_MINIMAL_TEXT.encode(), _MINIMAL_DECODED),
        (bytearray(_MINIMAL_TEXT.encode()), _MINIMAL_DECODED),
        (" \t" + _MINIMAL_TEXT + "\r\n", _MINIMAL_DECODED),
        ("\ufeff" + _MINIMAL_TEXT, "malformed uplink JSON: Unexpected UTF-8 BOM"),
        ("\ufeff".encode() + _MINIMAL_TEXT.encode(), _MINIMAL_DECODED),  # bytes decode as utf-8-sig
        ("[" * 100_000 + "]" * 100_000, "malformed uplink JSON: maximum recursion depth"),
        ('{"a": ' * 100_000 + "1" + "}" * 100_000, "malformed uplink JSON: maximum recursion depth"),
        (_MINIMAL_TEXT + " {}", "malformed uplink JSON: Extra data"),
    ],
    ids=["bytes", "bytearray", "whitespace", "bom", "bom-bytes", "deep-list", "deep-object", "extra-data"],
)
def test_decode_ttn_edge_texts_decode_as_json_loads_does(monkeypatch, text, expected):
    # the scanner shortcut keeps a document only when it spans the whole
    # text; every other text takes json.loads, so results and messages match
    decoded = _decoded_or_error(text)
    if isinstance(expected, str):
        assert decoded.startswith(expected)
    else:
        assert decoded == expected
    monkeypatch.setattr(data, "_SCAN", _no_scan)  # every text through json.loads
    assert _decoded_or_error(text) == decoded


def test_clean_removes_invalid_feature():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 4}, seed=0))
    rs.values[2, 2] = np.nan
    out = clean(rs)
    assert len(out) == 3
    assert out.audit["removed_invalid_feature"] == 1


def test_clean_removes_invalid_epoch():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 4}, seed=0))
    rs.timestamps[0] = 0.0
    out = clean(rs)
    assert len(out) == 3
    assert out.audit["removed_invalid_epoch"] == 1


def test_clean_noop_on_valid_set():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 10}, seed=0))
    assert _same_rows(clean(rs), rs)


def test_clean_counts_injected_corruptions():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 50}, seed=1))
    rng = np.random.default_rng(0)
    corrupt = rng.choice(50, size=7, replace=False)
    for i in corrupt:
        rs.values[i, int(rng.integers(5))] = np.nan
    out = clean(rs)
    assert len(out) == 43
    assert out.audit["removed_invalid_feature"] == 7


def test_clean_idempotent():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 30}, seed=2))
    rs.values[5, 0] = np.nan
    once = clean(rs)
    twice = clean(once)
    assert len(once) == 29
    assert _same_rows(once, twice)


def test_select_features_projection():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 6, "JawCrusher": 4}, seed=0))
    frame = select_features(clean(rs))
    assert frame.values.shape == (10, 5)
    assert len(FEATURE_NAMES) == 5
    # position-by-position match against the source records
    for i, (_, machine_id, values) in enumerate(rs):
        assert np.array_equal(frame.values[i], values)
        assert frame.machine_ids[i] == machine_id


def test_rows_by_machine_is_canonical_and_skips_absent_machines():
    ids = np.array(["DoosanDL200", "Manitou", "DoosanDL200", "Manitou", "Manitou"])
    frame = FeatureFrame(np.zeros((5, 5)), ids)
    rows = frame.rows_by_machine()
    assert list(rows) == frame.machines() == ["Manitou", "DoosanDL200"]
    assert rows["Manitou"].tolist() == [1, 3, 4]
    assert rows["DoosanDL200"].tolist() == [0, 2]
    assert frame.counts_by_machine() == {"Manitou": 3, "DoosanDL200": 2}
    assert FeatureFrame(np.zeros((0, 5)), np.array([], dtype=str)).machines() == []


_NAME_LISTS = st.lists(st.sampled_from([m.value for m in MACHINES]), max_size=30)


def _frame_and_records(names):
    n = len(names)
    return FeatureFrame(np.zeros((n, 5)), names), RecordSet(np.ones(n), names, np.zeros((n, 5)), "csv")


@given(names=_NAME_LISTS)
def test_machine_names_round_trip_through_codes(names):
    for table in _frame_and_records(names):
        assert table.machine_codes.dtype == np.uint8
        assert table.machine_codes.tolist() == [MACHINES.index(Machine(name)) for name in names]
        assert table.machine_ids.tolist() == names
        again = FeatureFrame(np.zeros((len(names), 5)), table.machine_codes)
        assert again.machine_ids.tolist() == names


@pytest.mark.parametrize("bad", ["caterpillar", "manitou", "Atlas-D7", ""])
def test_unknown_machine_id_raises_value_error(bad):
    for build in (
        lambda names: FeatureFrame(np.zeros((2, 5)), names),
        lambda names: RecordSet(np.ones(2), names, np.zeros((2, 5)), "csv"),
    ):
        with pytest.raises(ValueError, match=f"unknown machine id: {bad!r}"):
            build(np.array(["Manitou", bad]))
        with pytest.raises(ValueError, match="unknown machine code: 4"):
            build(np.array([0, 4], dtype=np.uint8))


@pytest.mark.parametrize("container", [list, tuple])
def test_machine_members_are_accepted_as_ids(container):
    # numpy stored a member as its str(), "Machine.JA", which no table knew
    members = container([Machine.JAW_CRUSHER, Machine.MANITOU])
    for table in _frame_and_records(members):
        assert table.machine_codes.tolist() == [2, 0]
        assert table.counts_by_machine() == {"Manitou": 1, "JawCrusher": 1}


@given(ids=st.lists(st.sampled_from(MACHINES) | st.sampled_from([m.value for m in MACHINES]), max_size=30))
def test_members_mixed_with_names_give_the_codes_of_the_names(ids):
    names = np.array([Machine(m).value for m in ids], dtype=str)
    for table in _frame_and_records(ids):
        assert table.machine_codes.tolist() == FeatureFrame(np.zeros((len(ids), 5)), names).machine_codes.tolist()


@pytest.mark.parametrize("key", ["atlas-d7", "manitou", "Jaw Crusher"])
def test_gen_config_rejects_a_loose_machine_key(key):
    # a loose key passed validation, then generated no rows for its machine
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        GenConfig(counts={"Manitou": 10, key: 50})


def test_gen_config_needs_all_five_ranges_of_every_counted_machine():
    spec = RangeSpec({"Manitou": DEFAULT_RANGES.ranges["Manitou"]})
    rs = generate_synthetic(GenConfig(counts={"Manitou": 3, "AtlasD7": 0}, ranges=spec))
    assert rs.counts_by_machine() == {"Manitou": 3}
    with pytest.raises(ValueError, match="does not cover machine 'AtlasD7'"):
        GenConfig(counts={"Manitou": 3, "AtlasD7": 1}, ranges=spec)


def test_gen_config_takes_machine_members_as_keys():
    rs = generate_synthetic(GenConfig(counts={Machine.ATLAS_D7: 5, "Manitou": 2}, seed=0))
    assert rs.counts_by_machine() == {"Manitou": 2, "AtlasD7": 5}


def test_record_set_is_a_frame_whose_row_subsets_drop_timestamps():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 3, "AtlasD7": 2}, seed=0))
    assert isinstance(rs, FeatureFrame)
    parts = [rs.take([0, 4]), rs.with_labels(np.ones(5, dtype=bool)), *rs.by_machine().values()]
    for part in parts:
        assert type(part) is FeatureFrame and not hasattr(part, "timestamps")
    assert parts[0].machine_ids.tolist() == ["Manitou", "AtlasD7"]


def test_machine_ids_is_a_read_only_view_of_the_codes():
    frame, records = _frame_and_records(["JawCrusher", "Manitou"])
    for table in (frame, records):
        with pytest.raises(ValueError, match="read-only"):
            table.machine_ids[0] = "Manitou"
        assert table.machine_codes.tolist() == [2, 0]


def test_loaded_frame_and_its_parts_hold_one_byte_codes():
    cfg = ExperimentConfig()
    cfg.data.scale = 0.05
    frame, _ = load_dataset(cfg)
    parts = [frame, *stratified_split(frame)]
    parts += [sub for part in parts for sub in part.by_machine().values()]
    parts.append(concat_frames(parts[1:4]))
    for part in parts:
        assert part.machine_codes.dtype == np.uint8
        assert part.machine_codes.nbytes == len(part) > 0


def test_select_features_empty_errors():
    rs = generate_synthetic(GenConfig(counts={"Manitou": 1}, seed=0))
    rs.values[0, 0] = np.nan
    with pytest.raises(ValueError):
        select_features(clean(rs))


def test_generate_deterministic():
    cfg = GenConfig(counts={"Manitou": 40, "AtlasD7": 20}, seed=42)
    assert _same_rows(generate_synthetic(cfg), generate_synthetic(cfg))
    other = generate_synthetic(GenConfig(counts={"Manitou": 40, "AtlasD7": 20}, seed=43))
    assert not _same_rows(other, generate_synthetic(cfg))


def test_generate_default_counts():
    rs = generate_synthetic()
    counts = rs.counts_by_machine()
    assert counts["Manitou"] == 10150
    assert counts["DoosanDL200"] == 11507
    assert counts["JawCrusher"] == 6677
    assert counts["AtlasD7"] == 388


def test_generate_range_label_rate_near_target():
    frame = select_features(generate_synthetic())
    lv = label_by_range(frame, DEFAULT_RANGES)
    assert abs(lv.anomaly_fraction() - 0.1644) < 0.01


def test_generated_anomalies_have_out_of_range_feature():
    cfg = GenConfig(counts={"Manitou": 500}, anomaly_fraction=0.5, seed=9)
    frame = select_features(generate_synthetic(cfg))
    lv = label_by_range(frame, DEFAULT_RANGES)
    # every instance flagged by the labeler has >= 1 feature outside; the
    # generator's anomaly rate should match the labeler's
    assert abs(lv.anomaly_fraction() - 0.5) < 0.07
    flagged = lv.feature_flags[lv.instance_labels]
    assert (flagged.sum(axis=1) >= 1).all()


def test_generate_scale_preserves_proportions():
    rs = generate_synthetic(GenConfig(scale=0.1, seed=5))
    counts = rs.counts_by_machine()
    assert counts["Manitou"] == 1015
    assert counts["DoosanDL200"] == 1151
    assert counts["JawCrusher"] == 668
    assert counts["AtlasD7"] == 39


@pytest.mark.parametrize(
    "kwargs",
    [
        {"counts": {"Manitou": -1}},
        {"anomaly_fraction": 1.5},
        {"anomaly_fraction": -0.1},
        {"scale": 0.0},
    ],
)
def test_generate_invalid_config(kwargs):
    with pytest.raises(ValueError):
        generate_synthetic(GenConfig(**kwargs))


def test_write_csv_round_trip(tmp_path):
    rs = generate_synthetic(GenConfig(counts={"Manitou": 8, "AtlasD7": 5}, seed=11))
    rs.values[3, 1] = np.nan
    path = tmp_path / "out.csv"
    write_csv(rs, path)
    back = ingest_csv(path)
    assert _same_rows(back, rs)


def _campaign_csv(tmp_path, n=30):
    """A synthetic campaign written as canonical CSV; returns its path and lines."""
    path = tmp_path / "campaign.csv"
    write_csv(generate_synthetic(GenConfig(counts={"Manitou": n}, seed=4)), path)
    return path, path.read_text(encoding="utf-8").splitlines()


def _set_cell(line: str, column: int, text: str) -> str:
    cells = line.split(",")
    cells[column] = text
    return ",".join(cells)


def test_non_finite_csv_cells_are_counted_invalid(tmp_path):
    from fedlora.experiment import ExperimentConfig, load_dataset

    path, lines = _campaign_csv(tmp_path)
    lines[3] = _set_cell(lines[3], 2, "nan")
    lines[7] = _set_cell(lines[7], 4, "inf")
    lines[9] = _set_cell(lines[9], 6, "-inf")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rs = ingest_csv(path)
    assert np.isnan(rs.values[[2, 6, 8], [0, 2, 4]]).all()
    cfg = ExperimentConfig()
    cfg.data.source = "csv"
    cfg.data.csv_path = str(path)
    frame, info = load_dataset(cfg)
    assert len(frame) == 27
    assert info["ingest_audit"] == {"rows_skipped": 0}
    assert info["clean_audit"] == {"removed_invalid_feature": 3, "removed_invalid_epoch": 0}


def test_non_finite_csv_timestamps_are_invalid_epochs(tmp_path):
    path, lines = _campaign_csv(tmp_path, n=6)
    for i, token in ((1, "nan"), (2, "inf"), (3, "-inf")):
        lines[i] = _set_cell(lines[i], 0, token)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = clean(ingest_csv(path))
    assert len(out) == 3
    assert out.audit == {"removed_invalid_feature": 0, "removed_invalid_epoch": 3}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_decode_ttn_non_finite_payload_is_invalid(token):
    text = json.dumps(MINIMAL_UPLINK).replace('"rpm": 1500.0', f'"rpm": {token}')
    _, _, values = decode_ttn_uplink(text)
    assert np.isnan(values[2])
    assert np.isfinite(values[[0, 1, 3, 4]]).all()


def test_ingest_ttn_counts_non_finite_payloads(tmp_path):
    from fedlora.data import ingest_ttn_json

    good = json.dumps(MINIMAL_UPLINK)
    path = tmp_path / "uplinks.jsonl"
    path.write_text(
        "\n".join([good, good.replace("13.0", "NaN"), good.replace("85.0", "Infinity"), good]),
        encoding="utf-8",
    )
    out = clean(ingest_ttn_json(path))
    assert len(out) == 2
    assert out.audit["removed_invalid_feature"] == 2


WRONG_SHAPED_UPLINKS = {
    "top_level_array": [],
    "top_level_number": 1,
    "device_ids_not_object": {"end_device_ids": "Manitou", "received_at": "2023-03-01T00:00:00Z"},
    "received_at_number": {"end_device_ids": {"device_id": "Manitou"}, "received_at": 1677628800},
    "payload_field_object": {
        "end_device_ids": {"device_id": "Manitou"},
        "received_at": "2023-03-01T00:00:00Z",
        "uplink_message": {"decoded_payload": {"battery_v": {"volts": 24.1}}},
    },
    "payload_field_beyond_float": {
        "end_device_ids": {"device_id": "Manitou"},
        "received_at": "2023-03-01T00:00:00Z",
        "uplink_message": {"decoded_payload": {"rpm": 10**400}},
    },
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPED_UPLINKS))
def test_decode_ttn_wrong_shape_raises_value_error(name):
    with pytest.raises(ValueError):
        decode_ttn_uplink(json.dumps(WRONG_SHAPED_UPLINKS[name]))


def test_ingest_csv_short_row_is_skipped(tmp_path):
    path = _write(
        tmp_path,
        HEADER + "\n1677628800,Manitou,24.1\n1677628860,Manitou,13.0,20.0,1500,85,3\n",
    )
    rs = ingest_csv(path)
    assert len(rs) == 1
    assert rs.audit["rows_skipped"] == 1


def test_ingest_csv_over_long_field_is_skipped(tmp_path):
    # 200,000 characters is over the csv module's default 131,072 field limit
    valid = "1677628800,Manitou,13.0,20.0,1500,85,3\n"
    long_row = "1677628830,Manitou," + "9" * 200_000 + ",20.0,1500,85,3\n"
    path = _write(tmp_path, HEADER + "\n" + valid + long_row + valid.replace("800", "860"))
    rs = ingest_csv(path)
    assert rs.timestamps.tolist() == [1677628800.0, 1677628860.0]
    assert rs.audit["rows_skipped"] == 1


@pytest.mark.parametrize(
    "cell",
    [
        # the newline right before the closing quote: the reader used to restart
        # there, open a new quoted field and swallow every following row
        '"' + "9" * 199_999 + '\n"',
        '"' + "9" * 150_000 + "\n" + "9" * 50_000 + '"',
        '"' + "9" * 100_000 + "\n" + "9" * 100_000 + '"',
        '"' + "9" * 150_000 + '\n,"",""\n""9"',
        '"' + "9" * 200_000 + '",1,"a\nb"',
    ],
    ids=["newline-at-end", "newline-past-limit", "newline-before-limit", "quotes-in-field", "quoted-tail"],
)
def test_ingest_csv_over_long_quoted_field_keeps_following_rows(tmp_path, cell):
    valid = "1677628800,Manitou,13.0,20.0,1500,85,3\n"
    long_row = "1677628830,Manitou," + cell + ",20.0,1500,85,3\n"
    path = _write(tmp_path, HEADER + "\n" + long_row + valid + valid.replace("800", "860"))
    rs = ingest_csv(path)
    assert rs.timestamps.tolist() == [1677628800.0, 1677628860.0]
    assert rs.audit["rows_skipped"] == 1


def test_ingest_csv_over_long_header_field_raises_value_error(tmp_path):
    path = _write(tmp_path, HEADER + "," + "h" * 200_000 + "\n1677628800,Manitou,13.0,20.0,1500,85,3\n")
    with pytest.raises(ValueError, match="header"):
        ingest_csv(path)


def test_ingest_csv_over_long_records_back_to_back(tmp_path):
    # each skip resumes reading at an offset that adds to the ones before it
    valid = "1677628800,Manitou,13.0,20.0,1500,85,3\n"
    first = "1677628830,Manitou," + '"' + "9" * 150_000 + "\n" + "9" * 50_000 + '",20.0,1500,85,3\n'
    second = "1677628840,Manitou," + '"' + "9" * 150_000 + '\n,"",""\n""9",20.0,1500,85,3\n'
    rows = [first, second, valid, second, first, valid.replace("800", "860")]
    path = _write(tmp_path, HEADER + "\n" + "".join(rows))
    limit = csv.field_size_limit()
    rs = ingest_csv(path)
    assert csv.field_size_limit() == limit
    assert rs.timestamps.tolist() == [1677628800.0, 1677628860.0]
    assert rs.audit["rows_skipped"] == 4


def test_ingest_csv_keeps_field_size_limit_when_it_raises(tmp_path):
    long_row = "1677628830,Manitou," + '"' + "9" * 200_000 + '\n",20.0,1500,85,3\n'
    path = _write(tmp_path, HEADER + "\n" + long_row)
    limit = csv.field_size_limit()
    with pytest.raises(ValueError, match="no parseable rows"):
        ingest_csv(path)
    assert csv.field_size_limit() == limit


def test_ingest_csv_only_short_rows_raises_value_error(tmp_path):
    path = _write(tmp_path, HEADER + "\n1677628800,Manitou,24.1\n")
    with pytest.raises(ValueError, match="no parseable rows"):
        ingest_csv(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)
# documents that reach the field checks: the expected keys holding arbitrary values
_UPLINK_LIKE = st.fixed_dictionaries(
    {},
    optional={
        "end_device_ids": _JSON | st.fixed_dictionaries({"device_id": _JSON}),
        "received_at": _JSON | st.just("2023-03-01T00:00:00Z"),
        "uplink_message": _JSON
        | st.fixed_dictionaries(
            {"decoded_payload": _JSON | st.dictionaries(st.sampled_from(CSV_FEATURES), _JSON)}
        ),
    },
)


@settings(max_examples=300, deadline=None)
@given(_JSON | _UPLINK_LIKE)
def test_decode_ttn_raises_only_value_error(doc):
    try:
        decode_ttn_uplink(json.dumps(doc))
    except ValueError:
        pass


# any character a UTF-8 text file can hold, weighted toward those that shape CSV and JSON
_CHARS = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\n\r\x00{}[]:.-+eE0123456789')
_CELLS = st.sampled_from(["1677628800", "Manitou", "24.1", "FF", "", "nan", "-inf", "1e999"])
_CSV_LINES = (
    st.sampled_from(["1677628800,Manitou,24.1,20,1500,85,3", "1677628860,AtlasD7,FF,,nan,1e999,3"])
    | st.lists(_CELLS | st.text(_CHARS, max_size=8), max_size=9).map(",".join)
    | st.text(_CHARS)
)
_TTN_LINES = st.sampled_from(
    [encode_ttn_uplink((1677628800.0, "Manitou", np.ones(5))), '{"received_at": "2023-03-01T00:00:00Z"}', "[]"]
) | st.text(_CHARS)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_lines=st.lists(_CSV_LINES, max_size=6), ttn_lines=st.lists(_TTN_LINES, max_size=4))
def test_readers_return_records_or_raise_value_error(tmp_path, csv_lines, ttn_lines):
    # the CSV text starts with a valid header, so the rows decide the outcome
    for reader, lines in ((ingest_csv, [HEADER, *csv_lines]), (ingest_ttn_json, ttn_lines)):
        text = "\n".join(lines)
        try:
            assert isinstance(reader(_write(tmp_path, text)), RecordSet)
        except ValueError:
            pass


# any character but a line break or a quote, so every line is one CSV record or one uplink
_LINE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters='\r\n"')
_KEPT_CSV = "1677628800,Manitou,24.1,20,1500,85,3"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(
        st.sampled_from([_KEPT_CSV, "1677628860,AtlasD7,FF,,nan,1e999,3", "", " "])
        | st.lists(_CELLS | st.text(_LINE_CHARS, max_size=8), max_size=9).map(",".join)
        | st.text(_LINE_CHARS),
        max_size=8,
    ),
    at=st.integers(0, 8),
)
def test_csv_kept_and_skipped_rows_add_up_to_the_data_lines(tmp_path, lines, at):
    lines.insert(at, _KEPT_CSV)  # one kept row, so the reader returns a set
    rs = ingest_csv(_write(tmp_path, "\n".join([HEADER, *lines])))
    assert len(rs) + rs.audit["rows_skipped"] == sum(1 for line in lines if line)


_KEPT_UPLINK = encode_ttn_uplink((1677628800.0, "Manitou", np.ones(5)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(
        st.sampled_from([_KEPT_UPLINK, encode_ttn_uplink((-60.0, "jaw-crusher", np.full(5, np.nan))), "[]", " "])
        | st.text(_LINE_CHARS),
        max_size=8,
    ),
    at=st.integers(0, 8),
)
def test_ttn_kept_and_skipped_rows_add_up_to_the_non_blank_lines(tmp_path, lines, at):
    lines.insert(at, _KEPT_UPLINK)
    rs = ingest_ttn_json(_write(tmp_path, "\n".join(lines)))
    assert len(rs) + rs.audit["rows_skipped"] == sum(1 for line in lines if line.strip())


def test_record_set_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        RecordSet(np.zeros(3), np.array(["Manitou"] * 2), np.zeros((3, 5)), "csv")
    with pytest.raises(ValueError):
        RecordSet(np.zeros(3), np.array(["Manitou"] * 3), np.zeros((3, 4)), "csv")


@pytest.mark.parametrize(
    "name, machine",
    [(m.value.swapcase(), m) for m in Machine]
    + [("atlas-d7", Machine.ATLAS_D7), ("doosan_dl200", Machine.DOOSAN_DL200)]
    + [(spelling, m) for m in Machine for spelling in (m.value, m.value.upper(), m.value.lower())]
    + [("Jaw Crusher", Machine.JAW_CRUSHER), ("doosan-dl-200", Machine.DOOSAN_DL200)],
)
def test_machine_from_name_accepts_loose_spellings(name, machine):
    assert machine_from_name(name) is machine


def test_machine_from_name_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown machine id: 'caterpillar'"):
        machine_from_name("caterpillar")
