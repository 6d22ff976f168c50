"""The benchmark's defect campaign, small enough for the unit tests.

`perfbench/inputs.py` writes the same rows as CSV and as TTN uplink JSON,
with defects planted at fixed rates, and a manifest of the audits the
program must report for them. It is loaded here by path and not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fedlora import data
from fedlora.data import GenConfig, generate_synthetic, ingest_csv, ingest_ttn_json
from fedlora.experiment import ExperimentConfig, load_dataset

_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", _INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _perfbench_inputs()


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    # 2,872 rows: every defect class gets at least two rows
    rs = generate_synthetic(GenConfig(scale=0.1, seed=11))
    out = tmp_path_factory.mktemp("campaign")
    return inputs.write_ingest_inputs(rs.values, rs.machine_ids, 11, str(out))


@pytest.mark.parametrize("fmt", ["csv", "ttn_json"])
def test_load_dataset_reports_the_planted_defects(campaign, fmt):
    assert min(campaign["planted"].values()) >= 2
    cfg = ExperimentConfig(runs=1)
    cfg.data.source = fmt
    cfg.data.csv_path = campaign["files"]["csv"]
    cfg.data.ttn_path = campaign["files"]["ttn_json"]
    frame, info = load_dataset(cfg)
    expected = campaign["expected"]
    assert info["ingest_audit"] == expected["ingest_audit"]
    assert info["clean_audit"] == expected["clean_audit"]
    assert info["n_instances"] == len(frame) == expected["n_instances"]


def test_csv_and_ttn_readers_agree(campaign):
    from_csv = ingest_csv(campaign["files"]["csv"])
    from_ttn = ingest_ttn_json(campaign["files"]["ttn_json"])
    assert from_csv.timestamps.tobytes() == from_ttn.timestamps.tobytes()
    assert from_csv.values.tobytes() == from_ttn.values.tobytes()
    assert np.array_equal(from_csv.machine_ids, from_ttn.machine_ids)
    assert from_csv.audit == from_ttn.audit == campaign["expected"]["ingest_audit"]


def test_hostile_probes_are_rejected(tmp_path):
    outcomes = inputs.run_probes(data, str(tmp_path))
    assert outcomes and set(outcomes.values()) == {"rejected"}, outcomes
    assert inputs.probe_defects(outcomes) == 0
