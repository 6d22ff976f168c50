"""A small study pinned to the report the seed-at-a-time runner produced.

`study_frozen.json` holds `runs_detail`, `comparison` and `sweep` of a
3-run study (central, federated and the ten-split sweep at 2 runs) on
the 0.01-scale synthetic campaign. Any change to how the study's seeds
are scheduled, batched or stacked must reproduce them exactly.

Re-freeze (only for a deliberate change of results) with
`python tests/test_study_frozen.py`.
"""

import json
from pathlib import Path

from fedlora.experiment import (
    STAGE_CENTRAL,
    STAGE_FEDERATED,
    STAGE_SWEEP,
    _pyify,
    config_from_dict,
    run_experiment,
)

FROZEN = Path(__file__).with_name("study_frozen.json")
KEYS = ("runs_detail", "comparison", "sweep")
CONFIG = {
    "data": {"scale": 0.01, "gen_seed": 5},
    "model": {"hidden_sizes": [8], "epochs": 6},
    "federated": {"epochs_per_round": 2, "rounds": 3, "budget": 6},
    "iforest": {"n_trees": 20},
    "sweep": {"enabled": True, "runs": 2},
    "runs": 3,
    "base_seed": 41,
}


def study() -> dict:
    report = run_experiment(
        config_from_dict(CONFIG), stages=(STAGE_CENTRAL, STAGE_FEDERATED, STAGE_SWEEP)
    )
    # through JSON, as report.json stores it
    return json.loads(json.dumps(_pyify({key: report[key] for key in KEYS})))


def test_study_matches_frozen():
    frozen = json.loads(FROZEN.read_text())
    result = study()
    for key in KEYS:
        assert result[key] == frozen[key], key


if __name__ == "__main__":
    FROZEN.write_text(json.dumps(study(), indent=1, sort_keys=True) + "\n")
