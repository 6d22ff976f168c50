"""Workloads, timed passes, output checks and metrics of the fedlora benchmark.

Every pass goes through the package's public entry point,
`fedlora.experiment.run_experiment`, serially (`deterministic=True`) in
this process. The process-pool path of `_execute_runs` is left
unmeasured on purpose: on a small shared machine it would time the
scheduler, not the program.

Workloads, and why each was chosen:

- central: the centralized stage on the synthetic dataset at
  data.scale 0.05 (1,436 instances), two model seeds a pass. AE
  training and IF fit and scoring do almost all the work; the
  federated layer does none.
- federated: the federated stage (1 epoch x 80 rounds) on the same
  dataset. `autoencoder.train` serves 320 short calls per seed over
  ragged client partitions, plus 80 `fedavg` and checksum steps; the IF
  does nothing.
- ingest: the LoRaWAN stage over the default campaign (28,722 rows)
  read back from CSV and from TTN uplink JSON, with planted defects.
  The data layer parses instead of generating, and no model runs.

Passes are kept short (about 0.5-2 s) so that one run holds a dozen
or more of them, and timed metrics are medians over passes.

The timed end-to-end metrics (`setup_s`, `wall_s`, `cpu_s`) are
calibrated seconds (see calibration.py): the reference kernel runs
before the first set-up and after each, and before the first timed pass
and after each, and every raw time is scaled by the mean of the two
reference times beside it. The raw medians are printed and saved beside
them as `raw_setup_s`, `raw_wall_s` and `raw_cpu_s`, with
`ref_kernel_s`, the run's median reference time.

Operations: one seed-run in central and federated, one input row in
ingest. An operation fails when its pass's output check fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import fedlora
from fedlora import data as fl_data
from fedlora import experiment, lorawan

import calibration
import inputs
import tracing

AE_F1_MIN = 90.0
AEFL_F1_MIN = 90.0
# budget pinned by the paper: 1.39 KB model, SF7, 80 rounds, "total" convention
PINNED_PLAN = {"kb": 1.39, "sf": 7, "rounds": 80, "messages": 513, "hours": 0.8835}
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics, per pass, from the traced passes. Each group names the
# end-to-end metric and workload it should move.
PER_LAYER_NAMES = (
    # wall_s on central and federated (minor)
    "data.generate_s",
    # wall_s and peak_rss_mb on ingest
    "data.ingest_csv_s",
    "data.ingest_ttn_s",
    "data.clean_s",
    "data.select_s",
    "data.rows_kept",
    # hostile probes that crash instead of raising ValueError (ingest)
    "data.probe_defects",
    # wall_s on ingest
    "labeling.range_s",
    "labeling.iqr_s",
    # wall_s on central and federated (minor; ingest does not split)
    "preprocess.split_s",
    "preprocess.scale_s",
    # wall_s on central (few long calls) and federated (many short calls)
    "autoencoder.train_s",
    "autoencoder.train_calls",
    "autoencoder.steps",
    "autoencoder.step_us",
    # wall_s on central and federated
    "anomaly.errors_s",
    "anomaly.threshold_s",
    # wall_s on central only
    "iforest.fit_s",
    "iforest.score_s",
    "iforest.rows_scored",
    # wall_s on federated only; idle_share once clients run together
    "federated.round_s",
    "federated.round_self_s",
    "federated.fedavg_s",
    "federated.fedavg_calls",
    "federated.checksum_s",
    "federated.idle_share",
    # wall_s on ingest (negligible; kept so regressions show)
    "lorawan.plan_s",
    "lorawan.rows",
    # wall_s on all workloads
    "experiment.load_s",
    "experiment.report_s",
    "experiment.self_s",
    # traced wall_s / untraced wall_s - 1
    "trace.overhead_frac",
)
QUALITY_UNITS = {"ae_f1": "%", "if_f1": "%", "aefl_f1": "%", "aefl_final_loss": "mse"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in QUALITY_UNITS:
        return QUALITY_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


@dataclass(frozen=True)
class Size:
    """How much work one pass does; `full` is the benchmark, `tiny` the self-test."""

    data_scale: float
    ingest_scale: float
    seeds: int
    epochs: int
    rounds: int


SIZES = {
    "full": Size(data_scale=0.05, ingest_scale=1.0, seeds=2, epochs=80, rounds=80),
    "tiny": Size(data_scale=0.05, ingest_scale=0.05, seeds=1, epochs=2, rounds=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    # span names a traced pass must record, and span-name prefixes it must not
    requires: tuple[str, ...]
    forbids: tuple[str, ...]


_MODEL_SPANS = (
    "experiment.run_experiment",
    "experiment.load_dataset",
    "experiment.write_report_files",
    "data.generate_synthetic",
    "labeling.label_by_range",
    "preprocess.stratified_split",
    "preprocess.fit_standardizer",
    "autoencoder.train",
    "anomaly.reconstruction_errors",
    "anomaly.select_threshold",
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "central",
            _MODEL_SPANS + ("iforest.fit_iforest", "iforest.iforest_classify"),
            ("federated.",),
        ),
        Workload(
            "federated",
            _MODEL_SPANS + ("federated.run_round", "federated.fedavg", "federated.fnv1a64"),
            ("iforest.",),
        ),
        Workload(
            "ingest",
            (
                "experiment.run_experiment",
                "experiment.load_dataset",
                "experiment.write_report_files",
                "data.ingest_csv",
                "data.ingest_ttn_json",
                "data.clean",
                "data.select_features",
                "labeling.label_by_range",
                "labeling.label_by_iqr",
                "lorawan.plan_table",
            ),
            ("autoencoder.train", "iforest.", "federated.", "data.generate_synthetic"),
        ),
    )
}


def derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0] % 2**31)


def _synthetic_config(seed: int, scale: float, runs: int = 1) -> experiment.ExperimentConfig:
    cfg = experiment.ExperimentConfig(runs=runs, base_seed=derive_seed(seed, 2))
    cfg.data.gen_seed = derive_seed(seed, 1)
    cfg.data.scale = scale
    return cfg


@dataclass
class Job:
    label: str
    cfg: experiment.ExperimentConfig
    stages: tuple
    out_dir: str


def make_jobs(workload: str, seed: int, size: Size, work_dir: str, manifest: dict | None) -> list[Job]:
    if workload == "ingest":
        jobs = []
        for fmt in ("csv", "ttn_json"):
            cfg = experiment.ExperimentConfig(runs=1)
            cfg.data.source = fmt
            cfg.data.csv_path = manifest["files"]["csv"]
            cfg.data.ttn_path = manifest["files"]["ttn_json"]
            jobs.append(Job(fmt, cfg, (experiment.STAGE_LORAWAN,), os.path.join(work_dir, fmt)))
        return jobs
    cfg = _synthetic_config(seed, size.data_scale, runs=size.seeds)
    cfg.model.epochs = size.epochs
    cfg.federated.rounds = cfg.federated.budget = size.rounds
    return [Job(workload, cfg, (workload,), os.path.join(work_dir, workload))]


def expected_instances(size: Size) -> int:
    gen = fl_data.GenConfig(scale=size.data_scale)
    return sum(gen.effective_counts().values())


def setup_inputs(workload: str, seed: int, size: Size, work_dir: str) -> dict:
    """Generate the workload's inputs from its seed; returns the manifest."""
    if workload == "ingest":
        frame, _ = experiment.load_dataset(_synthetic_config(seed, size.ingest_scale))
        manifest = inputs.write_ingest_inputs(
            frame.values, frame.machine_ids, seed, os.path.join(work_dir, "inputs")
        )
    else:
        frame, _ = experiment.load_dataset(_synthetic_config(seed, size.data_scale))
        if len(frame) != expected_instances(size):
            raise RuntimeError(f"dataset has {len(frame)} instances, expected {expected_instances(size)}")
        manifest = {"seed": seed, "rows": len(frame)}
    with open(os.path.join(work_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def timed_setup(workload: str, seed: int, size_name: str, work_dir: str) -> tuple[list[float], list[float]]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter (import plus input generation).

    Returns the set-up times and the reference times before the first
    set-up and after each.
    """
    cmd = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--setup-only",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--size",
        size_name,
        "--work-dir",
        work_dir,
    ]
    times, refs = [], [calibration.reference_seconds()[0]]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # a blocking wait: Popen.wait(timeout=...) polls in steps of up to
        # 50 ms, which would quantize the set-up time
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - t0)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        refs.append(calibration.reference_seconds()[0])
    return times, refs


def _cpu_seconds() -> float:
    """CPU seconds of this process (all threads, BLAS included) and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _report_digest(out_dir: str) -> str:
    return inputs.file_sha256(os.path.join(out_dir, "report.json"))


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    digests: dict[str, str]
    # calibrated wall and CPU seconds (see the module docstring)
    cal_wall_s: float = 0.0
    cal_cpu_s: float = 0.0
    ref_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    probes: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: tracing.SpanRecorder | None = None


def run_pass(jobs: list[Job], tracer: tracing.Tracer | None) -> tuple[Pass, list[dict]]:
    recorder = None
    if tracer is not None:
        recorder = tracing.SpanRecorder()
        tracer.install(recorder)
    try:
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        reports = [
            experiment.run_experiment(job.cfg, out_dir=job.out_dir, deterministic=True, stages=job.stages)
            for job in jobs
        ]
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    digests = {job.label: _report_digest(job.out_dir) for job in jobs}
    return Pass(tracer is not None, wall, cpu, digests, spans=recorder), reports


def _mean(values) -> float:
    return float(np.mean(values))


def check_central(report: dict) -> tuple[int, int, list[str], dict]:
    runs = report["runs_detail"]
    bad = [
        f"run {r['run_seed']}: ae_f1 {r['central']['AE']['metrics']['f1']:.3f} < {AE_F1_MIN}"
        for r in runs
        if r["central"]["AE"]["metrics"]["f1"] < AE_F1_MIN
    ]
    quality = {
        "ae_f1": _mean([r["central"]["AE"]["metrics"]["f1"] for r in runs]),
        "if_f1": _mean([r["central"]["IF"]["metrics"]["f1"] for r in runs]),
    }
    return len(runs), len(bad), bad, quality


def check_federated(report: dict) -> tuple[int, int, list[str], dict]:
    runs = report["runs_detail"]
    bad = []
    failed = 0
    for r in runs:
        fed = r["federated"]
        problems = []
        if fed["AEFL"]["metrics"]["f1"] < AEFL_F1_MIN:
            problems.append(f"aefl_f1 {fed['AEFL']['metrics']['f1']:.3f} < {AEFL_F1_MIN}")
        if not fed["final_loss"] < fed["initial_loss"]:
            problems.append(f"final loss {fed['final_loss']} >= initial {fed['initial_loss']}")
        failed += bool(problems)
        bad += [f"run {r['run_seed']}: {msg}" for msg in problems]
    quality = {
        "aefl_f1": _mean([r["federated"]["AEFL"]["metrics"]["f1"] for r in runs]),
        "aefl_final_loss": _mean([r["federated"]["final_loss"] for r in runs]),
    }
    return len(runs), failed, bad, quality


def check_ingest(report: dict, manifest: dict, label: str) -> tuple[int, int, list[str], dict]:
    ds = report["dataset"]
    expected = manifest["expected"]
    got = {
        "ingest_audit": ds["ingest_audit"],
        "clean_audit": ds["clean_audit"],
        "n_instances": ds["n_instances"],
    }
    bad = [
        f"{label}: {key} is {got[key]}, planted {expected[key]}"
        for key in ("ingest_audit", "clean_audit", "n_instances")
        if got[key] != expected[key]
    ]
    return manifest["rows"], manifest["rows"] if bad else 0, bad, {}


def check_plan() -> list[str]:
    p = PINNED_PLAN
    row = lorawan.plan_table([p["kb"] * 1024], [p["sf"]], [p["rounds"]], "total")[0]
    if row["messages"] != p["messages"] or abs(row["hours"] - p["hours"]) > 5e-5:
        return [f"plan_table gives {row['messages']} messages / {row['hours']:.4f} h, pinned {p['messages']} / {p['hours']}"]
    return []


def check_pass(workload: str, p: Pass, reports: list[dict], jobs: list[Job], manifest: dict, first: Pass | None) -> None:
    """Gate a pass's outputs; a failing check fails every operation it covers."""
    pass_failures = check_plan() if workload == "ingest" else []
    if first is not None:
        pass_failures += [
            f"{label}: report.json sha256 {digest[:12]} differs from first pass {first.digests[label][:12]}"
            for label, digest in p.digests.items()
            if digest != first.digests[label]
        ]
    for job, report in zip(jobs, reports):
        if workload == "central":
            ops, failed, bad, quality = check_central(report)
        elif workload == "federated":
            ops, failed, bad, quality = check_federated(report)
        else:
            ops, failed, bad, quality = check_ingest(report, manifest, job.label)
        p.attempted += ops
        p.failed += ops if pass_failures else failed
        p.failures += bad
        p.quality.update(quality)
    p.failures = pass_failures + p.failures


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "fedlora": fedlora.__version__,
        "execution": "serial (deterministic=True); process pool left unmeasured",
        "ref_nominal_s": calibration.REF_NOMINAL_S,
    }


def percentile_summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for pct in (99.9, 99.0, 95.0, 90.0):
        if len(samples) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(samples, pct))
            break
    return out


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    env: dict
    setup_times: list[float]
    setup_refs: list[float]
    warmup: Pass
    passes: list[Pass]
    manifest: dict
    aliases: list[str]
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.warmup.attempted + sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return self.warmup.failed + sum(p.failed for p in self.passes)

    def result_line(self) -> dict:
        names = PER_LAYER_NAMES if self.trace else tuple(END_TO_END_UNITS)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]} for n in names},
        }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(res: Result) -> None:
    untraced = [p for p in res.passes if not p.traced]
    traced = [p for p in res.passes if p.traced]
    refs = res.setup_refs
    m = {
        "setup_s": _median(
            [calibration.calibrate(t, (a + b) / 2) for t, a, b in zip(res.setup_times, refs, refs[1:])]
        ),
        "wall_s": _median([p.cal_wall_s for p in untraced]),
        "cpu_s": _median([p.cal_cpu_s for p in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_setup_s": _median(res.setup_times),
        "raw_wall_s": _median([p.wall_s for p in untraced]),
        "raw_cpu_s": _median([p.cpu_s for p in untraced]),
        "ref_kernel_s": _median([p.ref_wall_s for p in res.passes]),
    }
    probe_defects = sum(inputs.probe_defects(p.probes) for p in untraced)
    probes = sum(len(p.probes) for p in untraced)
    ops = sum(p.attempted for p in untraced) + probes
    m["ops_failed_frac"] = (sum(p.failed for p in untraced) + probe_defects) / ops if ops else 0.0
    m["ops_attempted"] = ops
    for key in QUALITY_UNITS:
        vals = [p.quality[key] for p in untraced if key in p.quality]
        if vals:
            m[key] = _median(vals)
    if traced:
        for name in PER_LAYER_NAMES[:-1]:
            m[name] = _median([p.layers[name] for p in traced])
        m["trace.overhead_frac"] = _median([p.cal_wall_s for p in traced]) / m["wall_s"] - 1.0
    res.metrics = {name: (float(v), unit_of(name)) for name, v in m.items()}


def verify_coverage(workload: Workload, p: Pass) -> list[str]:
    calls = tracing.span_calls(p.spans)
    problems = [f"{name} recorded no calls" for name in workload.requires if not calls.get(name)]
    problems += [
        f"{name} recorded {n} calls, expected none on {workload.name}"
        for name, n in calls.items()
        if name.startswith(workload.forbids)
    ]
    return problems


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size_name: str,
    out_root: str,
) -> Result:
    """Set up, warm up, then run passes until `seconds` have been measured."""
    spec = WORKLOADS[workload]
    size = SIZES[size_name]
    work_dir = os.path.join(out_root, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup_times, setup_refs = timed_setup(workload, seed, size_name, work_dir)
        with open(os.path.join(work_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)

        jobs = make_jobs(workload, seed, size, work_dir, manifest)
        # one untimed warm-up pass, so lazy set-up in the libraries is not
        # timed; it is checked like any pass and holds the reference digests
        warmup, reports = run_pass(jobs, None)
        if workload == "ingest":
            warmup.probes = inputs.run_probes(fl_data, work_dir)
        check_pass(workload, warmup, reports, jobs, manifest, None)

        tracer = tracing.Tracer() if trace else None
        passes: list[Pass] = []
        start = time.perf_counter()
        ref = calibration.reference_seconds()
        while True:
            use_trace = trace and bool(passes) and not passes[-1].traced
            p, reports = run_pass(jobs, tracer if use_trace else None)
            before, ref = ref, calibration.reference_seconds()
            p.ref_wall_s = (before[0] + ref[0]) / 2
            p.cal_wall_s = calibration.calibrate(p.wall_s, p.ref_wall_s)
            p.cal_cpu_s = calibration.calibrate(p.cpu_s, (before[1] + ref[1]) / 2)
            if use_trace:
                problems = verify_coverage(spec, p)
                if problems:
                    raise RuntimeError("traced pass failed coverage: " + "; ".join(problems))
                p.layers = tracing.layer_metrics(p.spans)
            if workload == "ingest":
                p.probes = inputs.run_probes(fl_data, work_dir)
            check_pass(workload, p, reports, jobs, manifest, warmup)
            if use_trace:
                p.layers["data.probe_defects"] = inputs.probe_defects(p.probes)
            passes.append(p)
            measured = time.perf_counter() - start >= seconds
            if measured and (not trace or any(q.traced for q in passes)):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    aliases = tracer.aliases if tracer else []
    res = Result(workload, seed, trace, environment(), setup_times, setup_refs, warmup, passes, manifest, aliases)
    summarize(res)
    return res


def _pass_record(p: Pass) -> dict:
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p) if f.name != "spans"}


def write_outputs(res: Result, out_root: str) -> str:
    """Results (environment, passes, metrics) as JSON, plus spans of traced passes."""
    stem = os.path.join(out_root, f"{res.workload}-seed{res.seed}-trace{int(res.trace)}")
    doc = {
        "workload": res.workload,
        "seed": res.seed,
        "environment": res.env,
        "raw_setup_s": res.setup_times,
        "setup_ref_s": res.setup_refs,
        "inputs": {k: v for k, v in res.manifest.items() if k != "files"},
        "wall_s": percentile_summary([p.cal_wall_s for p in res.passes if not p.traced]),
        "raw_wall_s": percentile_summary([p.wall_s for p in res.passes if not p.traced]),
        "warmup": _pass_record(res.warmup),
        "passes": [_pass_record(p) for p in res.passes],
        "traced_aliases": res.aliases,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    traced = [p.spans for p in res.passes if p.traced]
    if traced:
        names = sorted({n for rec in traced for n in rec.names})
        cols: dict[str, list] = {k: [] for k in ("pass_index", "name", "start", "end", "parent", "seed")}
        for i, rec in enumerate(traced):
            cols["pass_index"].append(np.full(len(rec), i))
            cols["name"].append(np.array([names.index(rec.names[j]) for j in rec.name_id], dtype=np.int32))
            for key in ("start", "end", "parent", "seed"):
                cols[key].append(np.frombuffer(getattr(rec, key), dtype=np.dtype(getattr(rec, key).typecode)))
        np.savez_compressed(
            stem + "-spans.npz",
            names=np.array(names),
            **{k: np.concatenate(v) for k, v in cols.items()},
        )
    return stem + ".json"


def print_report(res: Result) -> None:
    env = res.env
    print(f"# fedlora benchmark: workload={res.workload} seed={res.seed} trace={int(res.trace)}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# raw setup_s runs: {', '.join(f'{t:.3f}' for t in res.setup_times)}")
    for i, p in [("warm-up", res.warmup)] + list(enumerate(res.passes)):
        digests = " ".join(f"{label}:sha256={d}" for label, d in p.digests.items())
        print(
            f"pass {i} {'traced' if p.traced else 'untraced'} wall_s={p.cal_wall_s:.4f} "
            f"cpu_s={p.cal_cpu_s:.4f} raw_wall_s={p.wall_s:.4f} raw_cpu_s={p.cpu_s:.4f} "
            f"ops={p.attempted} failed={p.failed} {digests}"
        )
        for failure in p.failures:
            print(f"  FAILED {failure}")
        for name, outcome in p.probes.items():
            print(f"  probe {name}: {outcome}")
    summary = percentile_summary([p.cal_wall_s for p in res.passes if not p.traced])
    extra = " ".join(f"{k}={v:.4f}" for k, v in summary.items() if k.startswith("p"))
    print(f"wall_s median over n={summary['n']} untraced passes {extra}".rstrip())
    for name, (value, unit) in res.metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"attempted={res.attempted} failed={res.failed}")
