"""Isolation-forest baseline on data with far-out planted outliers.

Fits 100 trees on subsamples of 27% of the data and flags the top 7%
of anomaly scores (the contamination assumption). Planted outliers sit
ten range-widths outside a machine's normal band, so almost every one
is recovered.
"""

import numpy as np

from fedlora import DEFAULT_RANGES, GenConfig, generate_synthetic, select_features
from fedlora.frame import FeatureFrame
from fedlora.iforest import fit_iforest, iforest_classify, iforest_scores

rng = np.random.default_rng(5)
frame = select_features(generate_synthetic(GenConfig(scale=0.15, anomaly_fraction=0.0, seed=5)))

n = len(frame)
planted = rng.random(n) < 0.07
values, names = frame.values.copy(), frame.machine_ids  # names derived once, not per row
for row in np.flatnonzero(planted):
    j = int(rng.integers(5))
    lo, hi = DEFAULT_RANGES.limits(names[row])[:, j]
    width = hi - lo
    values[row, j] = hi + 10 * width if rng.random() < 0.5 else lo - 10 * width
frame = FeatureFrame(values, names, planted)
print(f"{n} instances, {planted.sum()} planted outliers (10x range displacement)")

forest = fit_iforest(frame, n_trees=100, max_samples=0.27, seed=5)
print(f"forest: {forest.roots.size} trees, subsample size {forest.subsample_size}")

scores = iforest_scores(forest, frame)
print(f"median score, inliers:  {np.median(scores[~planted]):.3f}")
print(f"median score, planted:  {np.median(scores[planted]):.3f}")

preds = iforest_classify(forest, frame, contamination=0.07)
threshold = np.quantile(forest.training_scores, 1 - 0.07)  # the cut iforest_classify applies
recovered = np.sum(preds & planted) / planted.sum()
false_alarms = np.sum(preds & ~planted)
print(f"\nflagged {preds.sum()} instances at contamination 0.07 "
      f"(score threshold {threshold:.3f})")
print(f"recovered {recovered:.1%} of planted outliers, {false_alarms} false alarms")
