"""A small study pinned to the report the seed-at-a-time runner produced.

`study_frozen.json` holds `runs_detail`, `comparison` and `sweep` of a
3-run study (central, federated and the ten-split sweep at 2 runs) on
the 0.01-scale synthetic campaign. Any change to how the study's seeds
are scheduled, batched or stacked must reproduce them exactly.

It also holds, per run, the sha256 of the central isolation forest's
scores on the standardized test partition. At this scale the IF
confusion counts in `runs_detail` barely depend on the trees, so the
digests are what pin the forest itself.

Re-freeze (only for a deliberate change of results) with
`python tests/test_study_frozen.py`.
"""

import hashlib
import json
from pathlib import Path

from fedlora.experiment import (
    _TAG_IFOREST,
    STAGE_CENTRAL,
    STAGE_FEDERATED,
    STAGE_SWEEP,
    _derive_seed,
    _partitions,
    config_from_dict,
    load_dataset,
    run_experiment,
)
from fedlora.iforest import fit_iforest, iforest_scores
from fedlora.preprocess import apply_standardizer

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
    return json.loads(json.dumps({key: report[key] for key in KEYS}))


def iforest_digests() -> list[str]:
    """Per run, the sha256 of the central forest's scores on the test partition."""
    cfg = config_from_dict(CONFIG)
    frame, _ = load_dataset(cfg)
    digests = []
    for seed in range(cfg.base_seed, cfg.base_seed + cfg.runs):
        *raw, scaler = _partitions(frame, cfg, seed)
        tr, _, te = (apply_standardizer(part, scaler) for part in raw)
        forest = fit_iforest(
            tr,
            n_trees=cfg.iforest.n_trees,
            max_samples=cfg.iforest.max_samples,
            seed=_derive_seed(seed, _TAG_IFOREST),
        )
        digests.append(hashlib.sha256(iforest_scores(forest, te).tobytes()).hexdigest())
    return digests


def test_study_matches_frozen():
    frozen = json.loads(FROZEN.read_text())
    result = study()
    for key in KEYS:
        assert result[key] == frozen[key], key


def test_iforest_scores_match_frozen():
    frozen = json.loads(FROZEN.read_text())
    assert iforest_digests() == frozen["iforest_test_sha256"]


if __name__ == "__main__":
    frozen = {**study(), "iforest_test_sha256": iforest_digests()}
    FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
