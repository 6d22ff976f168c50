"""Sweep every epoch-per-round split of the 80-epoch training budget.

More aggregation rounds mean more LoRaWAN messages (see demo 05); this
sweep shows what the communication buys in model quality. Runs at 10%
scale; pass a config with scale 1.0 for the full-size study.
"""

from fedlora.experiment import config_from_dict, load_dataset, sweep_schedules
from fedlora.lorawan import PROFILES, messages_required

cfg = config_from_dict(
    {
        "data": {"scale": 0.1},
        "sweep": {"enabled": True, "runs": 1},
        "runs": 1,
    }
)
frame, info = load_dataset(cfg)
print(f"dataset: {info['n_instances']} instances at 10% scale\n")

rows = sweep_schedules(frame, cfg)
print("epochs/round  rounds  msgs(SF7)      F1     Acc     TNR   loss start->end")
for row in rows:
    msgs = messages_required(357 * 4, row["rounds"], PROFILES[7], "per_round")
    print(
        f"{row['epochs_per_round']:10d} {row['rounds']:7d} {msgs:10d} "
        f"{row['f1']:8.2f} {row['accuracy']:7.2f} {row['tnr']:7.2f}   "
        f"{row['initial_loss']:.3f} -> {row['final_loss']:.6f}"
    )

best = max(rows, key=lambda r: r["f1"])
print(f"\nbest F1 {best['f1']:.2f} at {best['epochs_per_round']} epochs "
      f"x {best['rounds']} rounds")
print("fewer rounds cut messages sharply while the final loss stays low;")
print("a single aggregation is the cheapest but least consolidated option")
