"""Host-speed calibration for the benchmark's timed metrics.

The shared host this benchmark was built on (a 2-vCPU Xeon VM) runs the
same pass at speeds up to 2x apart, for seconds to tens of minutes at a
time, and the process's CPU time stretches with it (it is not steal
time). Raw times therefore drift between two sets of runs made minutes
apart by more than any useful bound.

`reference_kernel` is fixed work shaped like the workloads: small dense
minibatch steps like the autoencoder's, CSV and JSON parsing like the
ingest path, and recursive random partitioning like the isolation
forest. It calls nothing in fedlora, so no change to the package moves
it. The harness runs it between passes and between set-ups and reports
calibrated seconds: the time on a host where the kernel takes
REF_NOMINAL_S. Across runs made over an hour on that host, calibrated
pass times spread a quarter to a half as much as raw ones.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

# about the reference kernel's wall time, in seconds, on a quiet moment of
# the host above; calibrated seconds are raw seconds there
REF_NOMINAL_S = 0.05
REF_REPEATS = 2

_ROWS = np.linspace(-1.0, 1.0, 1024 * 5).reshape(1024, 5)
_CSV = "\n".join(
    f"{1677628800 + 60 * i},M{i % 4},{12 + (i % 7) * 0.1:.2f},{(i % 13) * 0.37:.3f},{800 + i % 900},{70 + i % 20}"
    for i in range(6000)
)
_JSON = json.dumps(
    [{"dev": f"M{i % 4}", "t": 1677628800 + 60 * i, "p": {"rpm": 800 + i % 900, "oil": (i % 11) * 0.3}} for i in range(3000)]
)
_TREE_ROWS = np.random.default_rng(0).standard_normal((256, 5))


def _tree_depth(rows: np.ndarray, rng: np.random.Generator, depth: int) -> int:
    if depth >= 8 or len(rows) <= 1:
        return depth
    col = int(rng.integers(rows.shape[1]))
    lo, hi = rows[:, col].min(), rows[:, col].max()
    if lo == hi:
        return depth
    cut = rng.uniform(lo, hi)
    mask = rows[:, col] < cut
    return max(_tree_depth(rows[mask], rng, depth + 1), _tree_depth(rows[~mask], rng, depth + 1))


def reference_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the fixed reference work."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    w1 = np.full((5, 32), 0.05)
    w2 = np.full((32, 5), 0.05)
    for step in range(4 * len(_ROWS) // 16):
        x = _ROWS[(step * 16) % len(_ROWS) :][:16]
        h = np.tanh(x @ w1)
        g = h @ w2 - x
        w2 -= 0.001 * (h.T @ g)
        w1 -= 0.001 * (x.T @ ((g @ w2.T) * (1.0 - h * h)))
    parsed = [(int(r[0]), r[1], *map(float, r[2:])) for r in csv.reader(io.StringIO(_CSV))]
    docs = json.loads(_JSON)
    by_dev: dict[str, float] = {}
    for doc in docs:
        by_dev[doc["dev"]] = by_dev.get(doc["dev"], 0.0) + doc["p"]["oil"]
    rng = np.random.default_rng(1)
    depths = [_tree_depth(_TREE_ROWS, rng, 0) for _ in range(24)]
    if len(parsed) != 6000 or len(by_dev) != 4 or not depths:
        raise RuntimeError("reference kernel produced unexpected results")
    return time.perf_counter() - t0, time.process_time() - c0


def reference_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of the fastest of REF_REPEATS kernel runs.

    A burst of host load that lands on one run makes it read slow; the
    pass beside it sees the same burst diluted over a longer time.
    """
    runs = [reference_kernel() for _ in range(REF_REPEATS)]
    return min(r[0] for r in runs), min(r[1] for r in runs)


def calibrate(raw: float, ref: float) -> float:
    """Scale a raw time to a host where the reference kernel takes REF_NOMINAL_S."""
    return raw * REF_NOMINAL_S / ref
