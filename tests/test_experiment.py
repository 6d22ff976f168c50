import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora import autoencoder as ae
from fedlora import checks
from fedlora.cli import COMMANDS, main
from fedlora.experiment import (
    STAGE_CENTRAL,
    STAGE_FEDERATED,
    STAGE_LORAWAN,
    STAGE_SWEEP,
    ExperimentConfig,
    config_from_dict,
    load_config,
    load_dataset,
    run_experiment,
    write_report_files,
)
from fedlora.frame import FEATURE_NAMES, MACHINES
from fedlora.labeling import DEFAULT_RANGES
from fedlora.metrics import METRIC_LABELS, STATISTIC_NAMES

TINY = {
    "data": {"scale": 0.02, "gen_seed": 3},
    "model": {"hidden_sizes": [8], "epochs": 6},
    "federated": {"epochs_per_round": 3, "rounds": 2, "budget": 6},
    "iforest": {"n_trees": 20},
    "runs": 2,
    "base_seed": 99,
}


def _no_training(*args, **kwargs):
    raise AssertionError("train called")


def tiny_config(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return config_from_dict(raw)


# TINY with the sweep enabled, one run each for the study and the sweep
SWEEP_ON = {
    **TINY, "data": {"scale": 0.01, "gen_seed": 3}, "runs": 1, "sweep": {"enabled": True, "runs": 1}
}


@pytest.fixture(scope="module")
def sweep_on_run(tmp_path_factory):
    """The output directory of `fedlora run` on the SWEEP_ON config."""
    root = tmp_path_factory.mktemp("sweep_on")
    (root / "cfg.json").write_text(json.dumps(SWEEP_ON))
    assert main(["run", "--config", str(root / "cfg.json"), "--out", str(root / "o")]) == 0
    return root


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.runs == 13
        assert cfg.model.hidden_sizes == [32]
        assert cfg.model.epochs == 80
        assert cfg.model.batch_size == 16
        assert cfg.model.activation == "tanh"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"typo_field": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"model": {"hidden": [32]}})

    @pytest.mark.parametrize(
        "raw",
        [
            {"standardize_scope": "train_only"},
            {"threshold_population": "per_instance"},
            {"threshold_reference": 0.16225},
            {"sweep": {"budget": 80}},
        ],
    )
    def test_removed_keys_rejected(self, raw):
        with pytest.raises(ValueError, match=re.escape("unknown config key(s)")):
            config_from_dict(raw)

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
        stages = (STAGE_CENTRAL, STAGE_FEDERATED)
        seeds = [cfg.base_seed + i for i in range(cfg.runs)]
        expected = [
            run_experiment(tiny_config(runs=1, base_seed=seed), stages=stages)["runs_detail"][0]
            for seed in seeds
        ]
        assert run_experiment(cfg, stages=stages)["runs_detail"] == expected

    def test_global_scaling_mode_runs(self):
        cfg = tiny_config(
            federated={
                "epochs_per_round": 3,
                "rounds": 2,
                "budget": 6,
                "standardize": "global",
            },
        )
        report = run_experiment(cfg, deterministic=True)
        assert set(report["comparison"]) == {"AE", "IF", "AEFL"}

    @pytest.mark.parametrize("stage", [STAGE_CENTRAL, STAGE_FEDERATED])
    def test_empty_partition_fails_before_training(self, monkeypatch, stage):
        monkeypatch.setattr(ae, "train", _no_training)
        # 12 rows split 0.8/0.15/0.05 leave the test partition empty
        cfg = tiny_config(
            data={"counts": {"Manitou": 12}, "gen_seed": 3}, split={"train": 0.8, "val": 0.15, "test": 0.05}
        )
        message = "config key 'split' leaves a partition empty: train {'Manitou': 10}, val {'Manitou': 2}, test {}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg, stages=(stage,))

    @pytest.mark.parametrize("stages", [None, (STAGE_FEDERATED,), (STAGE_SWEEP,)])
    def test_machine_without_training_rows_fails_before_training(self, monkeypatch, stages):
        # per_client scalers come from each machine's training rows: AtlasD7's 4 rows all
        # land in validation and test, which the federated stage once dropped unscored
        monkeypatch.setattr(ae, "train", _no_training)
        cfg = tiny_config(
            data={"counts": {"Manitou": 100, "AtlasD7": 4}, "gen_seed": 3},
            split={"train": 0.1, "val": 0.45, "test": 0.45},
        )
        message = "config key 'split' leaves none to 'AtlasD7' train 0, val 2, test 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg, stages=stages)

    def test_one_row_training_partition_named(self, monkeypatch):
        monkeypatch.setattr(ae, "train", _no_training)
        cfg = tiny_config(
            data={"counts": {"Manitou": 4}, "gen_seed": 3}, split={"train": 0.25, "val": 0.5, "test": 0.25}
        )
        message = "config key 'split', training partition of seed 99: need at least 2 instances"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg, stages=(STAGE_CENTRAL,))

    def test_one_row_client_partition_named(self, monkeypatch):
        monkeypatch.setattr(ae, "train", _no_training)
        cfg = tiny_config(
            data={"counts": {"Manitou": 100, "AtlasD7": 5}, "gen_seed": 3},
            split={"train": 0.3, "val": 0.35, "test": 0.35},
        )
        message = "config key 'split', training partition of machine 'AtlasD7': need at least 2 instances"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg, stages=(STAGE_FEDERATED,))

    def test_range_study_with_a_three_row_machine_reports_no_iqr_fraction(self, tmp_path):
        cfg = tiny_config(data={"counts": {"Manitou": 12, "AtlasD7": 3}}, runs=1)
        report = run_experiment(cfg, out_dir=tmp_path)
        assert report["dataset"]["labeling"]["iqr_fraction"] is None
        _assert_csvs_render_report(tmp_path)
        cfg.labeling.method = "iqr"  # the IQR labels themselves still need 4 rows a machine
        message = "IQR bounds of machine 'AtlasD7', feature 'battery': need at least 4 values, got 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg)

    def test_small_forest_partition_named(self):
        cfg = tiny_config(data={"counts": {"Manitou": 10}, "gen_seed": 3}, runs=1)
        message = "central stage, training partition of seed 99: need at least 8 instances"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg, stages=(STAGE_CENTRAL,))

    def test_thresholds_recorded(self):
        report = run_experiment(tiny_config(), deterministic=True)
        detail = report["runs_detail"][0]
        assert detail["federated"]["threshold"]["reference"] == 0.16225
        assert "global" in detail["federated"]["threshold"]
        assert detail["central"]["ae_threshold"]["selected"] > 0


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

    def test_only_the_full_pipeline_adds_the_enabled_sweep(self, sweep_on_run):
        # a named stage runs alone, even on a config with the sweep enabled
        out = sweep_on_run / "plan"
        assert main(["plan-lorawan", "--config", str(sweep_on_run / "cfg.json"), "--out", str(out)]) == 0
        assert not (out / "sweep.csv").exists()
        assert "sweep" not in json.loads((out / "report.json").read_text())
        full = sweep_on_run / "o"
        assert (full / "sweep.csv").exists()
        assert "sweep" in json.loads((full / "report.json").read_text())

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = self._cfg_file(tmp_path)
        monkeypatch.setenv("FEDLORA_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "synthetic.csv").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subcommand_accepts_exactly_its_rows_flags(self, subcommand_flags, command):
        assert subcommand_flags[command] == COMMANDS[command].flags.split()

    def test_table_names_every_subcommand(self, subcommand_flags):
        assert list(subcommand_flags) == list(COMMANDS)
        # 34 per-command flags; every command but run leaves out what it does not read
        assert sum(len(row.flags.split()) for row in COMMANDS.values()) == 34

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--runs", "3"],
            ["ingest", "--seed", "5"],
            ["label", "--convention", "total"],
            ["train-central", "--convention", "total"],
            ["train-federated", "--check"],
            ["sweep", "--convention", "per_round"],
            ["plan-lorawan", "--seed", "7"],
            ["plan-lorawan", "--runs", "3"],
            ["report", "--seed", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flag_a_command_does_not_read_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_check_before_a_command_runs_the_self_checks(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(checks, "CHECKS", (checks.check_planner_figures,))
        cfg = self._cfg_file(tmp_path)
        out = tmp_path / "o"
        assert main(["--check", "generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "synthetic.csv").exists()
        assert "CHECK ok   planner_figures" in capsys.readouterr().out

    def test_check_before_run_applies_the_report_gates(self, tmp_path, capsys, monkeypatch):
        failing = {"comparison": {m: {"stats": {"f1": {"mean": 89.0}, "tnr": {"mean": 98.0}}}
                                  for m in ("AE", "AEFL")}}
        monkeypatch.setattr(checks, "CHECKS", ())
        monkeypatch.setattr("fedlora.cli.run_experiment", lambda *a, **k: failing)
        printed = []
        for argv in (["--check", "run", "--out", str(tmp_path)],
                     ["run", "--out", str(tmp_path), "--check"]):
            assert main(argv) == 1
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "CHECK FAIL e2e: AE F1 89.00 below 90" in printed[0]

    def test_generate_seed_sets_gen_seed(self, tmp_path):
        def generate(name, extra=None, flags=()):
            out = tmp_path / name
            out.mkdir()
            cfg = self._cfg_file(out, extra)
            assert main(["generate", "--config", str(cfg), "--out", str(out), *flags]) == 0
            return (out / "synthetic.csv").read_bytes()

        by_flag = generate("flag", flags=["--seed", "11"])
        assert by_flag == generate("config", {"data": {**TINY["data"], "gen_seed": 11}})
        assert by_flag != generate("default")

    def test_generate_negative_seed_names_gen_seed(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        assert main(["generate", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "error: config key 'data.gen_seed' must be >= 0" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan-lorawan", "--config", "{cfg}", "--out", "{file}"],  # FileExistsError
            ["ingest", "--config", "{dir}"],  # IsADirectoryError
            ["report", "--out", "{file}"],  # NotADirectoryError
        ],
        ids=["out-is-a-file", "config-is-a-directory", "report-out-is-a-file"],
    )
    def test_file_errors_exit_2(self, argv, tmp_path, capsys):
        paths = {"cfg": self._cfg_file(tmp_path), "file": tmp_path / "file", "dir": tmp_path}
        paths["file"].write_text("")
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
            # NaN or inf trained the whole central stage, then failed in select_threshold
            ({"model": {"learning_rate": float("nan")}}, "model.learning_rate"),
            ({"model": {"learning_rate": float("inf")}}, "model.learning_rate"),
            ({"model": {"learning_rate": float("-inf")}}, "model.learning_rate"),
            # these trained or labeled silently
            ({"model": {"learning_rate": 0.0}}, "model.learning_rate"),
            ({"model": {"learning_rate": -0.001}}, "model.learning_rate"),
            ({"labeling": {"iqr_k": float("nan")}}, "labeling.iqr_k"),
            ({"labeling": {"iqr_k": -3}}, "labeling.iqr_k"),
            # these failed in the loader or inside numpy, naming no key
            ({"data": {"scale": float("nan")}}, "data"),
            ({"data": {"scale": float("inf")}}, "data"),
            ({"data": {"gen_seed": -1}}, "data.gen_seed"),
            ({"base_seed": -1}, "base_seed"),
            # an infinite bound or width passed, then generate_synthetic raised OverflowError
            ({"data": {"ranges": {"Manitou": {"battery": [12, float("inf")]}}}}, "data.ranges['Manitou']['battery']"),
            ({"data": {"ranges": {"Manitou": {"battery": [-1e308, 1e308]}}}}, "data.ranges['Manitou']['battery']"),
            # anomalies half a width past the upper bound overflowed in generate_synthetic
            ({"data": {"ranges": {"Manitou": {"rpm": [0, 1.7e308]}}}}, "data.ranges['Manitou']['rpm']"),
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


    @pytest.mark.parametrize(
        "data, machine",
        [
            # a loose counts key passed, then generated no rows for its machine
            ({"counts": {"atlas-d7": 50}}, "atlas-d7"),
            ({"counts": {"manitou": 50}}, "manitou"),
            # a loose ranges key failed only at load time, naming 'AtlasD7'; an unknown one was ignored
            ({"ranges": {"atlas-d7": {"battery": [24, 28]}}}, "atlas-d7"),
            ({"ranges": {"Caterpillar": {"battery": [24, 28]}}}, "Caterpillar"),
            ({"ranges": {"Caterpillar": {}}}, "Caterpillar"),
        ],
    )
    def test_loose_or_unknown_machine_key_is_an_error(self, data, machine):
        with pytest.raises(ValueError, match=r"config key .*data.*" + re.escape(repr(machine))):
            config_from_dict({"data": data})

    @pytest.mark.parametrize("source", ["synthetic", "csv", "ttn_json"])
    def test_ranges_must_cover_every_counted_machine(self, source):
        # an override that left out a counted machine failed only in load_dataset
        manitou = {name: [lo, hi] for name, lo, hi in zip(FEATURE_NAMES, *DEFAULT_RANGES.limits("Manitou"))}
        data = {"source": source, "ranges": {"Manitou": manitou}}
        with pytest.raises(ValueError, match=r"config key 'data'.*'AtlasD7'.*'battery'"):
            config_from_dict({"data": data})
        gapped = {"Manitou": {name: pair for name, pair in manitou.items() if name != "rpm"}}
        with pytest.raises(ValueError, match=r"config key 'data'.*'Manitou'.*\['rpm'\]"):
            config_from_dict({"data": {**data, "ranges": gapped, "counts": {"Manitou": 10}}})
        # narrowing the counts to the covered machine is the way out; a zero count needs no ranges
        config_from_dict({"data": {**data, "counts": {"Manitou": 10, "AtlasD7": 0}}})

    def test_infinite_scale_is_a_cli_error(self, tmp_path, capsys):
        # an uncaught OverflowError traceback and exit 1 before
        path = tmp_path / "bad.json"
        path.write_text('{"data": {"scale": Infinity}}')
        assert main(["ingest", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error: config key 'data'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


def _summary_rows(summary: dict, **fixed) -> list[dict]:
    # report.json sorts its keys: the CSV order is the metrics' and statistics' own
    return [
        {**fixed, "metric": label, "statistic": stat, "value": str(summary["stats"][metric][stat])}
        for metric, label in METRIC_LABELS.items()
        for stat in STATISTIC_NAMES
    ]


_CSV_HEADERS = {
    "comparison": ["model", "metric", "statistic", "value"],
    "per_client": ["model", "machine", "metric", "statistic", "value"],
    "sweep": ["epochs_per_round", "rounds", "f1", "accuracy", "tpr", "tnr", "initial_loss", "final_loss"],
    "lorawan_plan": ["arch", "hidden", "params", "bytes", "sf", "rounds", "convention", "messages", "hours"],
}


def _assert_csvs_render_report(out) -> None:
    """Each CSV under out has its header and holds exactly its section of out/report.json."""
    report = json.loads((out / "report.json").read_text())
    expected = {
        "comparison": [
            row for model in ("AE", "IF", "AEFL") if model in report.get("comparison", {})
            for row in _summary_rows(report["comparison"][model], model=model)
        ],
        "per_client": [
            row for machine, summary in report.get("per_client", {}).items()
            for row in _summary_rows(summary, model="AEFL", machine=machine)
        ],
        **{
            key: [{k: str(v) for k, v in row.items()} for row in report.get(key, [])]
            for key in ("sweep", "lorawan_plan")
        },
    }
    expected = {key: rows for key, rows in expected.items() if key in report}
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(f"{key}.csv" for key in expected)
    for key, rows in expected.items():
        with open(out / f"{key}.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == _CSV_HEADERS[key], key
            assert list(reader) == rows, key


class TestReportFiles:
    def test_each_csv_renders_its_report_section(self, sweep_on_run):
        _assert_csvs_render_report(sweep_on_run / "o")

    def test_section_without_rows_writes_its_header(self, tmp_path):
        # a report section with no rows once raised IndexError and wrote nothing
        write_report_files({"per_client": {}, "sweep": []}, tmp_path)
        assert (tmp_path / "per_client.csv").read_text() == "model,machine,metric,statistic,value\n"
        _assert_csvs_render_report(tmp_path)


def _small_configs():
    """Small study configs: most machines get 8-40 rows, so a fair share of draws reach the report."""
    machines = [m.value for m in MACHINES]
    rows = st.integers(0, 4).flatmap(lambda big: st.integers(8, 40) if big else st.integers(0, 7))
    return st.fixed_dictionaries(
        {
            "data": st.fixed_dictionaries(
                {"counts": st.fixed_dictionaries({m: rows for m in machines}), "gen_seed": st.integers(0, 99)}
            ),
            "labeling": st.fixed_dictionaries({"method": st.sampled_from(["range", "iqr"])}),
            "split": st.sampled_from(
                [{"train": 0.7, "val": 0.15, "test": 0.15}, {"train": 0.8, "val": 0.15, "test": 0.05},
                 {"train": 0.5, "val": 0.25, "test": 0.25}]
            ),
            "model": st.fixed_dictionaries(
                {
                    "hidden_sizes": st.just([4]),
                    "epochs": st.just(2),
                    "activation": st.sampled_from(list(ae.ACTIVATIONS)),
                    "batch_size": st.sampled_from([1, 7, 16, 1000]),
                }
            ),
            "federated": st.just({"epochs_per_round": 1, "rounds": 2, "budget": 2}),
            "iforest": st.fixed_dictionaries({"n_trees": st.integers(1, 3)}),
            "lorawan": st.just({"hidden_sizes": [4], "spreading_factors": [7], "rounds": [2]}),
            "runs": st.integers(1, 2),
        }
    )


@settings(max_examples=60, deadline=None)
@given(raw=_small_configs())
def test_small_study_raises_value_error_or_writes_a_parsable_report(raw):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        try:
            run_experiment(config_from_dict(raw), out_dir=out)
        except ValueError:
            assert not (out / "report.json").exists()
            return
        _assert_csvs_render_report(out)


class TestReportIsJsonNative:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"sweep": {"enabled": True, "runs": 1}},
            {
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
