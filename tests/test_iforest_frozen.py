"""Isolation-forest scores pinned to values frozen from the level-by-level grower.

`iforest_frozen_scores.npz` holds, for each case, the training and
held-out inputs and the scores the forest gives them for two seeds. Any
change to the tree layout or to the scoring loop must reproduce them bit
for bit: the forest draws from its RNG in the same order and sums path
lengths in the same order.

- central: a standardized 1,006-row training partition of the 0.05-scale
  synthetic campaign and its 215-row test partition (psi 272, 100 trees);
- duplicates: rows repeated exactly, with one constant column, so many
  nodes hold several identical rows and cannot be split;
- psi2: a subsample of two rows per tree.

Re-freeze (only for a deliberate change of the forest's draws) with
`python tests/test_iforest_frozen.py`; it rewrites the scores and keeps
the stored inputs.
"""

from pathlib import Path

import numpy as np
import pytest

from fedlora.iforest import fit_iforest, iforest_scores

FROZEN = Path(__file__).with_name("iforest_frozen_scores.npz")

# case: (n_trees, max_samples, psi, seeds)
CASES = {
    "central": (100, 0.27, 272, (11, 12)),
    "duplicates": (50, 0.5, 150, (21, 22)),
    "psi2": (30, 0.05, 2, (31, 32)),
}
PARAMS = [(case, seed) for case, (*_, seeds) in CASES.items() for seed in seeds]


@pytest.fixture(scope="module")
def frozen():
    with np.load(FROZEN) as data:
        return dict(data)


def scores(inputs: dict, case: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training and held-out scores of one case's forest."""
    n_trees, max_samples, psi, _ = CASES[case]
    forest = fit_iforest(inputs[f"{case}_train"], n_trees=n_trees, max_samples=max_samples, seed=seed)
    assert forest.subsample_size == psi
    return forest.training_scores, iforest_scores(forest, inputs[f"{case}_test"])


@pytest.mark.parametrize("case,seed", PARAMS)
def test_scores_match_frozen(frozen, host_kernel, case, seed):
    training, held_out = scores(frozen, case, seed)
    assert np.array_equal(training, frozen[f"{case}_seed{seed}_training_scores"]), host_kernel
    assert np.array_equal(held_out, frozen[f"{case}_seed{seed}_test_scores"]), host_kernel


if __name__ == "__main__":
    with np.load(FROZEN) as data:
        arrays = {key: data[key] for key in data.files if not key.endswith("_scores")}
    for case, seed in PARAMS:
        training, held_out = scores(arrays, case, seed)
        arrays[f"{case}_seed{seed}_training_scores"] = training
        arrays[f"{case}_seed{seed}_test_scores"] = held_out
    np.savez_compressed(FROZEN, **arrays)
