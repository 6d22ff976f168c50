"""Message and airtime budgets for shipping model updates over LoRaWAN.

Every round a client uplinks its float32 weight payload, fragmented to
the spreading factor's payload cap; duty-cycle rules then put a floor
on the wall-clock hours the exchange takes.
"""

from fedlora import (
    ArchSpec,
    PROFILES,
    fragmentation_plan,
    messages_required,
    param_count,
    plan_table,
    training_hours,
)

print("spreading factor profiles:")
for sf, profile in PROFILES.items():
    print(f"  SF{sf}: max payload {profile.max_payload:3d} B, "
          f"min send interval {profile.min_periodicity:6.1f} s")

print("\nweight payloads (float32):")
for hidden in (16, 32, 64, 128):
    params = param_count(ArchSpec(hidden_sizes=(hidden,)))
    print(f"  hidden {hidden:3d}: {params:5d} params = {params * 4:5d} B "
          f"= {params * 4 / 1024:.2f} KB")

model_bytes = param_count(ArchSpec(hidden_sizes=(32,))) * 4
plan = fragmentation_plan(model_bytes, PROFILES[7])
print(f"\none 32-hidden update at SF7 splits into {len(plan)} fragments: {plan}")

print("\nmessages and minimum hours for 80 rounds (per-round fragmentation):")
for sf in (7, 9, 12):
    nm = messages_required(model_bytes, 80, PROFILES[sf], "per_round")
    print(f"  SF{sf:2d}: {nm:5d} messages, {training_hours(nm, PROFILES[sf]):7.2f} h")

print("\nbudget-table arithmetic (single ceiling over the total, rounded-KB sizes):")
for kb, sf, rounds in ((0.70, 7, 1), (1.39, 7, 80), (1.39, 12, 80), (5.52, 12, 80)):
    nm = messages_required(kb * 1024, rounds, PROFILES[sf], "total")
    print(f"  {kb:.2f} KB x {rounds:2d} rounds at SF{sf:2d}: {nm:5d} messages "
          f"({training_hours(nm, PROFILES[sf]):.4f} h)")

rows = plan_table([ArchSpec(hidden_sizes=(h,)) for h in (16, 32, 64, 128)],
                  [7, 8, 9, 10, 11, 12], [1, 20, 80], "per_round")
worst = max(rows, key=lambda r: r["hours"])
print(f"\nfull plan: {len(rows)} rows; slowest cell is hidden {worst['hidden']} "
      f"at SF{worst['sf']} x {worst['rounds']} rounds: {worst['hours']:.1f} h")
