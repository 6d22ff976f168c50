"""Federated training across the four machine clients.

Each machine standardizes and trains on its own normal data; the server
aggregates weight vectors by sample-count-weighted averaging after every
local epoch (80 rounds of 1 epoch, the model-comparison protocol). The
global model scores the pooled validation rows and the test rows once
each. The global threshold comes from the pooled validation sweep; each
client then fine-tunes a local threshold on its own slice of the
validation errors and is evaluated on its own slice of the test errors.
"""

import numpy as np

from fedlora import (
    ArchSpec,
    FLSchedule,
    GenConfig,
    SplitSpec,
    TrainConfig,
    all_metrics,
    apply_standardizer,
    build_autoencoder,
    classify,
    concat_frames,
    confusion,
    confusion_by_machine,
    fit_standardizer,
    generate_synthetic,
    label_by_range,
    make_clients,
    reconstruction_errors,
    run_schedule,
    select_features,
    select_threshold,
    stratified_split,
    thresholds_by_machine,
)

REFERENCE = 0.16225  # the fixed reference threshold, printed for comparison

frame = select_features(generate_synthetic(GenConfig(scale=0.1, seed=7)))
frame = frame.with_labels(label_by_range(frame).instance_labels)
tr, va, te = stratified_split(frame, SplitSpec(seed=2))

# per-client standardization: each machine scales with its own statistics
train_by_m, val_by_m, test_parts = {}, {}, []
for machine, tr_m in tr.by_machine().items():
    scaler = fit_standardizer(tr_m)
    normal = tr_m.take(~tr_m.labels)
    train_by_m[machine] = apply_standardizer(normal, scaler)
    val_by_m[machine] = apply_standardizer(va.by_machine()[machine], scaler)
    test_parts.append(apply_standardizer(te.by_machine()[machine], scaler))
test = concat_frames(test_parts)

arch = ArchSpec(hidden_sizes=(32,), activation="tanh")
clients = make_clients(train_by_m, arch, seed=0)
for c in clients:
    print(f"client {c.client_id:12s} {c.n_samples:5d} training instances")

global_model = build_autoencoder(arch, seed=0)
schedule = FLSchedule(epochs_per_round=1, rounds=80)
[history] = run_schedule(schedule, [clients], [global_model], TrainConfig(batch_size=16))

# one history row per (round, client), clients in order; a round's loss is their mean
rounds = history[-1]["round"]
round_losses = np.array([row["mean_loss"] for row in history]).reshape(rounds, -1).mean(axis=1)
print(f"\nran {rounds} rounds; "
      f"mean client loss round 1: {round_losses[0]:.4f}, "
      f"round 80: {round_losses[-1]:.6f}")
print(f"final global weight checksum: {history[-1]['global_checksum']:#018x}")

pooled_val = concat_frames(list(val_by_m.values()))
val_errors = reconstruction_errors(global_model, pooled_val)
test_errors = reconstruction_errors(global_model, test)
chosen = select_threshold(val_errors, pooled_val.labels)
print(f"\nglobal threshold {chosen.threshold:.6f} "
      f"(percentile {chosen.percentile}, reference {REFERENCE})")

cm = confusion(test.labels, classify(test_errors, chosen.threshold))
print("global test metrics:", {k: round(v, 2) for k, v in all_metrics(cm).items()})

results = thresholds_by_machine(val_errors, pooled_val)
per_client = confusion_by_machine(test_errors, test, {m: r.threshold for m, r in results.items()})
print("\nper-client thresholds and test F1:")
for machine, cm in per_client.items():
    print(f"  {machine:12s} threshold {results[machine].threshold:.6f} "
          f"F1 {all_metrics(cm)['f1']:6.2f}")
