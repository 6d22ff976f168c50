"""fedlora benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload central --seed 1 --seconds 25 --trace 0

Workloads are `central`, `federated` and `ingest` (see harness.py for
why each exists). Every input is generated from --seed. The command sets
up the workload several times (each in a fresh interpreter, timed as
setup_s), runs one untimed warm-up pass, then runs passes through
`fedlora.experiment.run_experiment` until --seconds have been measured.
Timed metrics are medians over those passes. Each pass's outputs are
checked; the last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb); the three times are in seconds calibrated for host speed
against a fixed reference kernel (see calibration.py), with the raw
medians printed beside them. --trace 1 alternates untraced and traced passes and
reports the per-layer metrics from spans recorded around the package's
public functions, plus the tracing overhead.

Results, the environment record and traced spans are written under
.perfbench_out/ in the checkout. The package is imported from src/ of
the checkout, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench_out"
# One BLAS/OpenMP thread: the model's matrices are 16x5 batches, so extra
# threads add only contention and noise on a small shared machine.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread caps must be set before numpy is imported")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = threads


def bootstrap() -> None:
    """Import fedlora from this checkout's src/ and work from the checkout root."""
    src = ROOT / "src"
    if not (src / "fedlora" / "__init__.py").is_file():
        raise SystemExit(f"fedlora sources not found under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    import fedlora

    if Path(fedlora.__file__).resolve().parent != src / "fedlora":
        raise SystemExit(f"imported fedlora from {fedlora.__file__}, not from {src}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("central", "federated", "ingest"))
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    # internal: one timed set-up in a fresh interpreter
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work-dir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    bootstrap()
    import harness

    if args.setup_only:
        harness.setup_inputs(args.workload, args.seed, harness.SIZES[args.size], args.work_dir)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    res = harness.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.size,
        OUT_DIR,
    )
    harness.write_outputs(res, OUT_DIR)
    harness.print_report(res)
    print(json.dumps(res.result_line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
