"""Self-test of the benchmark harness on a tiny configuration.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at the tiny size (data.scale
0.05, one seed, 2 epochs, 2 rounds) and checks that:

- BENCHMARK.json names exactly the workloads and metrics the harness
  emits, with the same units;
- every end-to-end and per-layer metric, ops_failed_frac and the
  workload's quality metrics are emitted with a unit, and the result
  line has its four required keys;
- traced passes record no calls into layers a workload must not touch;
- the ingest audits match the planted defects exactly;
- two seeds give different ingest inputs but the same metric set, and
  one seed gives byte-identical reports and quality twice.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run

QUALITY_OF = {"central": ("ae_f1", "if_f1"), "federated": ("aefl_f1", "aefl_final_loss")}
# per-layer counts that must be zero on a workload
IDLE_COUNTS = {
    "central": ("federated.fedavg_calls",),
    "federated": ("iforest.rows_scored",),
    "ingest": ("autoencoder.train_calls", "autoencoder.steps"),
}


def main() -> int:
    run.cap_threads()
    run.bootstrap()
    import harness

    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
            print(f"FAIL {message}")

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check(
        [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS),
        "BENCHMARK.json workloads differ from the harness",
    )
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e_units == harness.END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from the harness")
    check(
        layer_units == {n: harness.unit_of(n) for n in harness.PER_LAYER_NAMES},
        "BENCHMARK.json per_layer differs from the harness",
    )

    out_root = os.path.join(run.OUT_DIR, "selftest")
    os.makedirs(out_root, exist_ok=True)

    def run_tiny(workload: str, seed: int, trace: bool):
        return harness.run_workload(workload, seed, 0.0, trace, "tiny", out_root)

    for workload in harness.WORKLOADS:
        for trace in (False, True):
            tag = f"{workload} trace={int(trace)}"
            res = run_tiny(workload, 1, trace)
            line = json.loads(json.dumps(res.result_line()))
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys {sorted(line)}")
            check(line["attempted"] >= 1, f"{tag}: nothing attempted")
            wanted = layer_units if trace else e2e_units
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            check(got == wanted, f"{tag}: metrics {sorted(got)} differ from BENCHMARK.json")
            for name, m in line["metrics"].items():
                check(
                    isinstance(m["value"], float) and math.isfinite(m["value"]),
                    f"{tag}: {name} is not a finite number",
                )
            extras = ("ops_failed_frac",) + QUALITY_OF.get(workload, ())
            for name in extras:
                check(name in res.metrics and res.metrics[name][1], f"{tag}: {name} missing or without unit")
            if workload == "ingest":
                check(res.failed == 0, f"{tag}: ingest audits differ from the planted defects")
            if trace:
                for name in IDLE_COUNTS[workload]:
                    check(res.metrics[name][0] == 0, f"{tag}: {name} should be zero")

    a, b = run_tiny("ingest", 1, False), run_tiny("ingest", 2, False)
    check(a.manifest["sha256"] != b.manifest["sha256"], "ingest inputs do not depend on the seed")
    check(set(a.metrics) == set(b.metrics), "two ingest seeds give different metric sets")

    c1, c2 = run_tiny("central", 5, False), run_tiny("central", 5, False)
    check(c1.passes[0].digests == c2.passes[0].digests, "central report differs between runs of one seed")
    check(
        all(c1.metrics[q][0] == c2.metrics[q][0] for q in QUALITY_OF["central"]),
        "central quality differs between runs of one seed",
    )

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
