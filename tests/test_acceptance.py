"""Release gate: one test per shipped guarantee, at its stated tolerance.

The conditions themselves live in `fedlora.checks`, which `fedlora --check`
also runs; each criterion here runs its check under a wall-clock budget,
and criteria 7, 8 and 10 first run the pipeline they judge.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion, including the wall-clock budget each one ran under.
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

from fedlora import checks
from fedlora.experiment import (
    STAGE_CENTRAL,
    STAGE_FEDERATED,
    config_from_dict,
    load_dataset,
    run_experiment,
    sweep_schedules,
)


@contextmanager
def criterion(number: int, budget_seconds: float, title: str):
    start = perf_counter()
    try:
        yield
        elapsed = perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
        )
    except Exception:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS [{elapsed:.1f}s]")


def test_criterion_1_size_accounting():
    with criterion(1, 1.0, "size accounting"):
        checks.check_size_accounting()


def test_criterion_2_lorawan_planner_figures():
    with criterion(2, 1.0, "LoRaWAN planner figures"):
        checks.check_planner_figures()


def test_criterion_3_fedavg_property_suite():
    with criterion(3, 5.0, "FedAvg properties, 1000 cases"):
        checks.check_fedavg_properties()


def test_criterion_4_threshold_selection_vs_oracle():
    with criterion(4, 10.0, "threshold sweep vs midpoint oracle, 100+ instances"):
        checks.check_threshold_sweep()


def test_criterion_5_metric_identities():
    with criterion(5, 5.0, "metric identities, 10^4 matrices"):
        checks.check_metric_identities()


def test_criterion_6_gradient_check():
    with criterion(6, 10.0, "backprop vs central differences"):
        checks.check_gradients()


def test_criterion_7_end_to_end_default_dataset():
    with criterion(7, 600.0, "end-to-end on the default dataset"):
        cfg = config_from_dict({"runs": 1})  # all other defaults: full counts, 16.44%, seed fixed
        report = run_experiment(cfg, stages=(STAGE_CENTRAL, STAGE_FEDERATED))
        info = report["dataset"]
        counts = info["counts_by_machine"]
        assert counts == {
            "Manitou": 10150,
            "AtlasD7": 388,
            "JawCrusher": 6677,
            "DoosanDL200": 11507,
        }
        assert abs(info["labeling"]["range_fraction"] - 0.1644) < 0.01

        result = report["runs_detail"][0]
        checks.check_e2e(result["central"]["AE"]["metrics"], result["federated"]["AEFL"]["metrics"])


def test_criterion_8_epoch_round_sweep():
    with criterion(8, 1800.0, "epoch/round sweep, 10 combos"):
        cfg = config_from_dict(
            {
                "data": {"scale": 0.1},  # desk-scale flag: 10x reduction
                "sweep": {"enabled": True, "runs": 1},
                "runs": 1,
            }
        )
        frame, _ = load_dataset(cfg)
        checks.check_sweep(sweep_schedules(frame, cfg))


def test_criterion_9_iforest_recovers_planted_outliers():
    with criterion(9, 30.0, "isolation forest outlier recovery"):
        checks.check_iforest_recovery()


def test_criterion_10_determinism(tmp_path):
    with criterion(10, 600.0, "byte-identical deterministic reports"):
        raw = {
            "data": {"scale": 0.05, "gen_seed": 12},
            "model": {"hidden_sizes": [16], "epochs": 10},
            "federated": {"epochs_per_round": 5, "rounds": 2, "budget": 10},
            "iforest": {"n_trees": 30},
            "runs": 2,
            "base_seed": 321,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))

        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "fedlora", "run", "--config", str(cfg_path),
                 "--out", str(out), "--deterministic"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

        # parallel execution reproduces the same metric values
        out = tmp_path / "parallel"
        proc = subprocess.run(
            [sys.executable, "-m", "fedlora", "run", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        serial = json.loads(blobs[0].decode())
        parallel = json.loads((out / "report.json").read_text())
        assert parallel["comparison"] == serial["comparison"]
        assert parallel["per_client"] == serial["per_client"]
