import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fedlora import autoencoder as ae
from fedlora.cli import main
from fedlora.experiment import (
    STAGE_CENTRAL,
    STAGE_FEDERATED,
    STAGE_LORAWAN,
    ExperimentConfig,
    config_from_dict,
    load_config,
    load_dataset,
    run_experiment,
    run_single,
)

TINY = {
    "data": {"scale": 0.02, "gen_seed": 3},
    "model": {"hidden_sizes": [8], "epochs": 6},
    "federated": {"epochs_per_round": 3, "rounds": 2, "budget": 6},
    "iforest": {"n_trees": 20},
    "runs": 2,
    "base_seed": 99,
}


def tiny_config(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return config_from_dict(raw)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.runs == 13
        assert cfg.model.hidden_sizes == [32]
        assert cfg.model.epochs == 80
        assert cfg.model.batch_size == 16
        assert cfg.model.activation == "tanh"
        assert cfg.threshold_reference == 0.16225

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"typo_field": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"model": {"hidden": [32]}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        cfg = load_config(path)
        assert cfg.runs == 2
        assert cfg.data.scale == 0.02

    def test_schedule_budget_enforced(self):
        with pytest.raises(ValueError):
            config_from_dict({"federated": {"epochs_per_round": 3, "rounds": 3, "budget": 80}})

    def test_int_where_float_expected(self):
        cfg = tiny_config(data={"scale": 1, "gen_seed": 3})
        assert cfg.data.scale == 1 and type(cfg.data.scale) is int

    def test_hash_stable_and_sensitive(self):
        a, b = tiny_config(), tiny_config()
        assert a.config_hash() == b.config_hash()
        c = tiny_config(base_seed=100)
        assert c.config_hash() != a.config_hash()


class TestLoadDataset:
    def test_synthetic_info_block(self):
        frame, info = load_dataset(tiny_config())
        assert info["provenance"] == "synthetic"
        assert info["n_instances"] == len(frame)
        assert info["labeling"]["iqr_scope"] == "per_machine"
        assert 0.0 < info["labeling"]["range_fraction"] < 1.0
        assert frame.labels is not None

    def test_csv_source(self, tmp_path):
        from fedlora.data import GenConfig, generate_synthetic, write_csv

        path = tmp_path / "data.csv"
        write_csv(generate_synthetic(GenConfig(counts={"Manitou": 30}, seed=1)), path)
        cfg = tiny_config()
        cfg.data.source = "csv"
        cfg.data.csv_path = str(path)
        frame, info = load_dataset(cfg)
        assert info["provenance"] == "csv"
        assert len(frame) == 30

    def test_ttn_source(self, tmp_path):
        from fedlora.data import GenConfig, encode_ttn_uplink, generate_synthetic

        rs = generate_synthetic(GenConfig(counts={"Manitou": 12}, seed=2))
        path = tmp_path / "uplinks.jsonl"
        path.write_text("\n".join(encode_ttn_uplink(r) for r in rs))
        cfg = tiny_config()
        cfg.data.source = "ttn_json"
        cfg.data.ttn_path = str(path)
        frame, info = load_dataset(cfg)
        assert info["provenance"] == "ttn_json"
        assert len(frame) == 12

    def test_iqr_labeling_method(self):
        cfg = tiny_config(labeling={"method": "iqr"})
        frame, info = load_dataset(cfg)
        assert info["labeling"]["method"] == "iqr"


class TestRunExperiment:
    def test_report_structure(self, tmp_path):
        cfg = tiny_config()
        report = run_experiment(cfg, out_dir=tmp_path, deterministic=True)
        assert set(report["comparison"]) == {"AE", "IF", "AEFL"}
        assert "per_client" in report
        assert len(report["lorawan_plan"]) > 0
        assert report["provenance"]["config_hash"] == cfg.config_hash()
        for name in ("comparison.csv", "per_client.csv", "lorawan_plan.csv", "report.json"):
            assert (tmp_path / name).exists()

    def test_each_summary_backed_by_runs(self, tmp_path):
        report = run_experiment(tiny_config(), deterministic=True)
        assert report["comparison"]["AE"]["run_count"] == 2
        assert len(report["runs_detail"]) == 2
        seeds = [r["run_seed"] for r in report["runs_detail"]]
        assert seeds == [99, 100]

    def test_stage_subsets(self):
        central_only = run_experiment(
            tiny_config(), deterministic=True, stages=(STAGE_CENTRAL,)
        )
        assert set(central_only["comparison"]) == {"AE", "IF"}
        assert "per_client" not in central_only
        fed_only = run_experiment(
            tiny_config(), deterministic=True, stages=(STAGE_FEDERATED,)
        )
        assert set(fed_only["comparison"]) == {"AEFL"}
        plan_only = run_experiment(tiny_config(), deterministic=True, stages=(STAGE_LORAWAN,))
        assert "comparison" not in plan_only
        assert plan_only["lorawan_plan"]

    def test_parallel_matches_serial(self):
        # all seeds train side by side in one lockstep call; each must
        # equal its own serial one-seed run
        cfg = tiny_config(runs=3)
        frame, _ = load_dataset(cfg)
        stages = (STAGE_CENTRAL, STAGE_FEDERATED)
        seeds = [cfg.base_seed + i for i in range(cfg.runs)]
        expected = [run_single(frame, cfg, seed, stages) for seed in seeds]
        assert run_experiment(cfg, stages=stages)["runs_detail"] == expected

    def test_joined_scope_and_global_scaling_modes_run(self):
        cfg = tiny_config(
            standardize_scope="joined",
            federated={
                "epochs_per_round": 3,
                "rounds": 2,
                "budget": 6,
                "standardize": "global",
            },
            threshold_population="pooled",
        )
        report = run_experiment(cfg, deterministic=True)
        assert set(report["comparison"]) == {"AE", "IF", "AEFL"}

    def test_thresholds_recorded(self):
        report = run_experiment(tiny_config(), deterministic=True)
        detail = report["runs_detail"][0]
        assert detail["federated"]["threshold"]["reference"] == 0.16225
        assert "global" in detail["federated"]["threshold"]
        assert detail["central"]["ae_threshold"]["selected"] > 0

    def test_unusable_sweep_budget_fails_before_loading(self, tmp_path):
        # the missing file would raise FileNotFoundError if the data loaded first
        cfg = tiny_config(
            data={"source": "csv", "csv_path": str(tmp_path / "missing.csv")},
            sweep={"enabled": True, "budget": 81},
        )
        with pytest.raises(ValueError, match="no schedule combinations for budget 81"):
            run_experiment(cfg)


class TestCli:
    def _cfg_file(self, tmp_path, extra=None):
        raw = json.loads(json.dumps(TINY))
        if extra:
            raw.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_generate(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "synthetic.csv").exists()
        assert "records" in capsys.readouterr().out

    def test_ingest(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        code = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "ingest_summary.json").exists()
        assert "instances after cleaning" in capsys.readouterr().out

    def test_label(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        code = main(["label", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "labels.csv").exists()
        out = capsys.readouterr().out
        assert "range-based anomaly fraction" in out

    def test_train_central(self, tmp_path):
        cfg = self._cfg_file(tmp_path, {"runs": 1})
        code = main(["train-central", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--deterministic"])
        assert code == 0
        assert (tmp_path / "o" / "comparison.csv").exists()
        text = (tmp_path / "o" / "comparison.csv").read_text()
        assert "AE" in text and "IF" in text and "AEFL" not in text

    def test_train_federated(self, tmp_path):
        cfg = self._cfg_file(tmp_path, {"runs": 1})
        code = main(["train-federated", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--deterministic"])
        assert code == 0
        assert "AEFL" in (tmp_path / "o" / "comparison.csv").read_text()
        assert (tmp_path / "o" / "per_client.csv").exists()

    def test_plan_lorawan_with_convention_flag(self, tmp_path):
        cfg = self._cfg_file(tmp_path)
        code = main(["plan-lorawan", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--convention", "total"])
        assert code == 0
        text = (tmp_path / "o" / "lorawan_plan.csv").read_text()
        assert "total" in text and "per_round" not in text

    def test_run_and_report(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path, {"runs": 1})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--deterministic"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "AEFL" in printed and "F1" in printed

    def test_seed_and_runs_overrides(self, tmp_path):
        cfg = self._cfg_file(tmp_path)
        out = tmp_path / "o"
        main(["run", "--config", str(cfg), "--out", str(out), "--deterministic",
              "--seed", "7", "--runs", "1"])
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["base_seed"] == 7
        assert report["provenance"]["runs"] == 1

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = self._cfg_file(tmp_path)
        monkeypatch.setenv("FEDLORA_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "synthetic.csv").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("document", ["[]", "1"])
    def test_non_object_config_is_an_error(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        assert main(["run", "--config", str(path)]) == 2
        assert "error: config must be a JSON object" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "document",
        [
            {"runs": "3"},
            {"runs": True},
            {"data": {"scale": "1"}},
            {"model": {"epochs": "x"}},
            {"model": {"hidden_sizes": 5}},
            {"data": {"counts": [1]}},
            # list items: 8.5 would train 8 units and [true] 1, while the report echoes them
            {"model": {"hidden_sizes": [8.5]}},
            {"model": {"hidden_sizes": [True]}},
            {"lorawan": {"hidden_sizes": [16, "32"]}},
            {"lorawan": {"spreading_factors": [7.0]}},
            {"lorawan": {"rounds": [1, None]}},
            # dict values: a string count crashed the generator, and true passed as a count
            {"data": {"counts": {"Manitou": "5"}}},
            {"data": {"counts": {"Manitou": True}}},
            # ranges map machine -> feature -> [lo, hi]
            {"data": {"ranges": {"battery": "x"}}},
            {"data": {"ranges": {"battery": [1]}}},
        ],
    )
    def test_wrongly_typed_value_is_an_error(self, tmp_path, capsys, document):
        with pytest.raises(ValueError, match="must be"):
            config_from_dict(document)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--config", str(path)]) == 2
        assert "error: config key" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "document, key",
        [
            ({"model": {"epochs": -3}}, "model.epochs"),
            ({"model": {"batch_size": 0}}, "model.batch_size"),
            ({"iforest": {"n_trees": 0}}, "iforest.n_trees"),
            ({"data": {"ranges": {"Manitou": {"battery": [1]}}}}, "data.ranges['Manitou']['battery']"),
            ({"data": {"ranges": {"Manitou": {"battery": [1, 2, 3]}}}}, "data.ranges['Manitou']['battery']"),
            # zero epochs ended the central stage in an IndexError on its empty loss trace
            ({"model": {"epochs": 0}}, "model.epochs"),
            # the rest failed late, some only after the central AE had trained
            ({"split": {"train": 1.0, "val": 0.0, "test": 0.0}}, "split"),
            ({"split": {"train": 0.8}}, "split"),
            ({"iforest": {"contamination": 0.6}}, "iforest.contamination"),
            ({"iforest": {"contamination": 0.0}}, "iforest.contamination"),
            ({"iforest": {"max_samples": 0.0}}, "iforest.max_samples"),
            ({"iforest": {"max_samples": 1.5}}, "iforest.max_samples"),
            ({"data": {"scale": 0.0}}, "data"),
            ({"data": {"anomaly_fraction": -0.1}}, "data"),
            ({"data": {"anomaly_fraction": 1.5}}, "data"),
            ({"data": {"ranges": {"Manitou": {"battery": [2, 1]}}}}, "data.ranges['Manitou']['battery']"),
            ({"data": {"ranges": {"Manitou": {"battery": [1, 1]}}}}, "data.ranges['Manitou']['battery']"),
            ({"sweep": {"runs": 0}}, "sweep.runs"),
            ({"sweep": {"runs": -1}}, "sweep.runs"),
            # these failed in the plan table, after both model stages had trained
            ({"lorawan": {"spreading_factors": [6]}}, "lorawan.spreading_factors"),
            ({"lorawan": {"spreading_factors": []}}, "lorawan.spreading_factors"),
            ({"lorawan": {"rounds": [0]}}, "lorawan.rounds"),
            ({"lorawan": {"rounds": []}}, "lorawan.rounds"),
            ({"lorawan": {"hidden_sizes": [0]}}, "lorawan.hidden_sizes"),
            ({"lorawan": {"hidden_sizes": []}}, "lorawan.hidden_sizes"),
            ({"model": {"activation": "gelu"}}, "model"),
            ({"model": {"hidden_sizes": [0]}}, "model"),
            ({"model": {"hidden_sizes": []}}, "model"),
        ],
    )
    def test_out_of_range_value_is_an_error(self, tmp_path, capsys, document, key):
        # these used to pass the config and fail only after the dataset was loaded
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            config_from_dict(document)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--config", str(path)]) == 2
        assert f"error: config key {key!r}" in capsys.readouterr().err


    def test_bad_plan_axis_fails_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train called")

        monkeypatch.setattr(ae, "train", no_training)
        cfg = tiny_config()
        cfg.lorawan.spreading_factors = [7, 6]
        with pytest.raises(ValueError, match=re.escape("'lorawan.spreading_factors'")):
            run_experiment(cfg)


def _non_json_leaves(obj, path="$"):
    """Paths of values json.dump writes only after a conversion (or not at all)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if type(key) is not str:
                yield f"{path} key {key!r}"
            yield from _non_json_leaves(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _non_json_leaves(value, f"{path}[{i}]")
    # exact types: numpy float64 and its kin subclass the built-ins
    elif type(obj) not in (str, int, float, bool, type(None)):
        yield f"{path}: {type(obj).__name__}"


class TestReportIsJsonNative:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"sweep": {"enabled": True, "runs": 1}},
            {
                "standardize_scope": "joined",
                "threshold_population": "pooled",
                "labeling": {"method": "iqr"},
                "federated": {"epochs_per_round": 3, "rounds": 2, "budget": 6, "standardize": "global"},
            },
        ],
    )
    def test_report_leaves(self, overrides):
        cfg = tiny_config(data={"scale": 0.01, "gen_seed": 3}, runs=1, **overrides)
        report = run_experiment(cfg)
        assert {"runs_detail", "comparison", "per_client", "lorawan_plan"} <= set(report)
        assert ("sweep" in report) == cfg.sweep.enabled
        assert list(_non_json_leaves(report)) == []

    def test_file_source_info(self, tmp_path):
        from fedlora.data import GenConfig, encode_ttn_uplink, generate_synthetic, write_csv

        rs = generate_synthetic(GenConfig(counts={"Manitou": 30, "AtlasD7": 20}, seed=1))
        write_csv(rs, tmp_path / "data.csv")
        (tmp_path / "uplinks.jsonl").write_text("\n".join(encode_ttn_uplink(r) for r in rs))
        for source, key, name in (("csv", "csv_path", "data.csv"), ("ttn_json", "ttn_path", "uplinks.jsonl")):
            cfg = tiny_config()
            cfg.data.source = source
            setattr(cfg.data, key, str(tmp_path / name))
            _, info = load_dataset(cfg)
            assert info["provenance"] == source
            assert list(_non_json_leaves(info)) == []


class TestDeterminism:
    def test_deterministic_reports_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            env = dict(os.environ)
            proc = subprocess.run(
                [sys.executable, "-m", "fedlora", "run", "--config", str(cfg_path),
                 "--out", str(out), "--deterministic"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestRangeOverride:
    def test_config_ranges_drive_generator_and_labeler(self):
        # shrink every normal range: values from the default band label anomalous
        wide = {m: {"battery": [0.0, 100.0], "consumption": [0.0, 100.0],
                    "rpm": [0.0, 5000.0], "water_temp": [0.0, 200.0],
                    "oil_pressure": [0.0, 50.0]}
                for m in ("Manitou", "AtlasD7", "JawCrusher", "DoosanDL200")}
        cfg = tiny_config(data={"scale": 0.02, "gen_seed": 3, "ranges": wide})
        frame, info = load_dataset(cfg)
        # generator sampled inside the wide ranges, so the wide-range labeler
        # finds exactly the generated anomaly fraction
        assert info["labeling"]["range_fraction"] == pytest.approx(0.1644, abs=0.05)

    def test_label_command_uses_config_ranges(self, tmp_path):
        wide = {m: {"battery": [0.0, 100.0], "consumption": [0.0, 100.0],
                    "rpm": [0.0, 5000.0], "water_temp": [0.0, 200.0],
                    "oil_pressure": [0.0, 50.0]}
                for m in ("Manitou", "AtlasD7", "JawCrusher", "DoosanDL200")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": {**TINY["data"], "ranges": wide}}))
        out = tmp_path / "o"
        assert main(["ingest", "--config", str(path), "--out", str(out)]) == 0
        assert main(["label", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        lines = (out / "labels.csv").read_text().splitlines()[1:]
        labels = [int(line.split(",")[2]) for line in lines]
        assert sum(labels) / len(labels) == summary["labeling"]["range_fraction"]

    def test_generated_csv_matches_synthetic_frame(self, tmp_path):
        # every data-section field the generator reads differs from its default
        wide = {m: {"battery": [0.0, 100.0], "consumption": [0.0, 100.0],
                    "rpm": [0.0, 5000.0], "water_temp": [0.0, 200.0],
                    "oil_pressure": [0.0, 50.0]}
                for m in ("Manitou", "AtlasD7", "JawCrusher", "DoosanDL200")}
        data = {"counts": {"Manitou": 300, "AtlasD7": 40, "DoosanDL200": 200},
                "anomaly_fraction": 0.3, "gen_seed": 11, "scale": 0.5, "ranges": wide}
        cfg = tiny_config(data=data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "data": data}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

        expected, _ = load_dataset(cfg)
        cfg.data.source = "csv"
        cfg.data.csv_path = str(tmp_path / "o" / "synthetic.csv")
        frame, info = load_dataset(cfg)
        assert info["ingest_audit"] == {"rows_skipped": 0}
        assert np.array_equal(frame.values, expected.values)
        assert np.array_equal(frame.machine_ids, expected.machine_ids)
        assert np.array_equal(frame.labels, expected.labels)
