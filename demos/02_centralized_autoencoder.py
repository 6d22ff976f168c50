"""Centralized autoencoder anomaly detection, end to end.

Trains the default 5-32-5 tanh autoencoder on normal instances, picks
the decision threshold by sweeping score percentiles for the best F1
(starting from the 84th-percentile initial estimate), and evaluates on
the held-out test split.
"""

import numpy as np

from fedlora import (
    ArchSpec,
    GenConfig,
    SplitSpec,
    TrainConfig,
    all_metrics,
    apply_standardizer,
    build_autoencoder,
    classify,
    confusion,
    fit_standardizer,
    generate_synthetic,
    initial_threshold,
    label_by_range,
    reconstruction_errors,
    select_features,
    select_threshold,
    stratified_split,
    train,
)

frame = select_features(generate_synthetic(GenConfig(scale=0.1, seed=7)))
frame = frame.with_labels(label_by_range(frame).instance_labels)
tr, va, te = stratified_split(frame, SplitSpec(seed=1))

scaler = fit_standardizer(tr)
tr, va, te = (apply_standardizer(f, scaler) for f in (tr, va, te))

model = build_autoencoder(ArchSpec(hidden_sizes=(32,), activation="tanh"), seed=0)
normal_train = tr.take(~tr.labels)
trace = train(model, normal_train, TrainConfig(epochs=80, batch_size=16),
              shuffle_rng=np.random.default_rng(0))
print(f"trained on {len(normal_train)} normal instances")
print(f"loss: first epoch {trace[0]:.5f} -> last epoch {trace[-1]:.6f}")

val_errors = reconstruction_errors(model, va)
start = initial_threshold(val_errors)
chosen = select_threshold(val_errors, va.labels)
print(f"\n84th-percentile starting threshold: {start:.6f}")
print(f"swept threshold: {chosen.threshold:.6f} at percentile {chosen.percentile}"
      f" (validation F1 {chosen.f1:.2f})")

test_errors = reconstruction_errors(model, te)
cm = confusion(te.labels, classify(test_errors, chosen.threshold))
print(f"\ntest confusion (positive = normal): TP={cm.tp} FP={cm.fp} TN={cm.tn} FN={cm.fn}")
for name, value in all_metrics(cm).items():
    print(f"  {name:9s} {value:6.2f}")

anom = te.labels
print(f"\nmedian score, normal instances:    {np.median(test_errors[~anom]):.6f}")
print(f"median score, anomalous instances: {np.median(test_errors[anom]):.6f}")
