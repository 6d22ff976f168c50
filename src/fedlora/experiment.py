"""Configuration-driven experiment runner and report writer.

One JSON config describes the whole study: data source, labeling,
splits, model defaults, the federated schedule, budget-plan axes, run
count and seeds. run_experiment() executes the requested stages over
`runs` seeds (base_seed + i), summarizes the metrics, and writes the
CSV/JSON report artifacts. Reports contain no wall-clock state, so a
fixed config and seed reproduce them byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import anomaly
from . import autoencoder as ae
from . import federated as fl
from . import lorawan
from .data import (
    DEFAULT_ANOMALY_FRACTION,
    DEFAULT_COUNTS,
    GenConfig,
    clean,
    generate_synthetic,
    ingest_csv,
    ingest_ttn_json,
    select_features,
)
from .frame import FeatureFrame, concat_frames, write_dict_csv
from .iforest import _check_contamination, _check_max_samples, fit_iforest, iforest_classify
from .labeling import DEFAULT_RANGES, IQR_MIN_VALUES, RangeSpec, label_by_iqr, label_by_range
from .metrics import all_metrics, confusion, summarize_runs, summary_rows
from .preprocess import SplitSpec, apply_standardizer, fit_standardizer, split_counts, stratified_split

# sub-stream tags for deriving per-component seeds from a run seed
_TAG_SPLIT, _TAG_AE_INIT, _TAG_AE_SHUFFLE, _TAG_IFOREST, _TAG_FL = 1, 2, 3, 4, 5

STAGE_CENTRAL = "central"
STAGE_FEDERATED = "federated"
STAGE_SWEEP = "sweep"
STAGE_LORAWAN = "lorawan"


@dataclass
class DataSection:
    source: str = "synthetic"  # synthetic | csv | ttn_json
    csv_path: str | None = None
    ttn_path: str | None = None
    counts: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    anomaly_fraction: float = DEFAULT_ANOMALY_FRACTION
    gen_seed: int = 7
    scale: float = 1.0
    ranges: dict[str, dict[str, list[float]]] | None = None  # overrides the built-in normal ranges


@dataclass
class LabelingSection:
    method: str = "range"  # range | iqr
    iqr_k: float = 1.5


@dataclass
class SplitSection:
    train: float = 0.70
    val: float = 0.15
    test: float = 0.15


@dataclass
class ModelSection:
    hidden_sizes: list[int] = field(default_factory=lambda: [32])
    activation: str = "tanh"
    epochs: int = 80
    batch_size: int = 16
    learning_rate: float = 0.001


@dataclass
class IForestSection:
    n_trees: int = 100
    contamination: float = 0.07
    max_samples: float = 0.27


@dataclass
class FederatedSection:
    # one epoch per round for the model-comparison protocol; the sweep
    # explores the other budget splits
    epochs_per_round: int = 1
    rounds: int = 80
    budget: int = 80
    # per_client scaling keeps client data homogeneous (and raw statistics
    # private); "global" fits one scaler on the joined training data
    standardize: str = "per_client"


@dataclass
class SweepSection:
    enabled: bool = False
    runs: int | None = None  # defaults to the experiment run count


@dataclass
class LoRaWANSection:
    hidden_sizes: list[int] = field(default_factory=lambda: [16, 32, 64, 128])
    spreading_factors: list[int] = field(default_factory=lambda: [7, 8, 9, 10, 11, 12])
    rounds: list[int] = field(default_factory=lambda: [1, 2, 4, 5, 8, 10, 16, 20, 40, 80])
    convention: str = "per_round"


@dataclass
class ExperimentConfig:
    data: DataSection = field(default_factory=DataSection)
    labeling: LabelingSection = field(default_factory=LabelingSection)
    split: SplitSection = field(default_factory=SplitSection)
    model: ModelSection = field(default_factory=ModelSection)
    iforest: IForestSection = field(default_factory=IForestSection)
    federated: FederatedSection = field(default_factory=FederatedSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    lorawan: LoRaWANSection = field(default_factory=LoRaWANSection)
    runs: int = 13
    base_seed: int = 1234
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def validate(self):
        if self.data.source not in ("synthetic", "csv", "ttn_json"):
            raise ValueError(f"unknown data source {self.data.source!r}")
        if self.labeling.method not in ("range", "iqr"):
            raise ValueError(f"unknown labeling method {self.labeling.method!r}")
        if self.federated.standardize not in ("global", "per_client"):
            raise ValueError("federated.standardize must be global or per_client")
        if self.lorawan.convention not in lorawan.CONVENTIONS:
            raise ValueError(f"lorawan.convention must be one of {lorawan.CONVENTIONS}")
        for key, value in (
            ("runs", self.runs),
            ("sweep.runs", self.runs if self.sweep.runs is None else self.sweep.runs),
            ("model.epochs", self.model.epochs),
            ("model.batch_size", self.model.batch_size),
            ("iforest.n_trees", self.iforest.n_trees),
            *(("lorawan.rounds", rounds) for rounds in self.lorawan.rounds),
        ):
            if value < 1:
                raise ValueError(f"config key {key!r} must be >= 1, got {value}")
        lr, k = self.model.learning_rate, self.labeling.iqr_k
        for key, value, ok, rule in (
            ("model.learning_rate", lr, np.isfinite(lr) and lr > 0, "finite and > 0"),
            ("labeling.iqr_k", k, np.isfinite(k) and k >= 0, "finite and >= 0"),
            ("data.gen_seed", self.data.gen_seed, self.data.gen_seed >= 0, ">= 0"),
            ("base_seed", self.base_seed, self.base_seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"config key {key!r} must be {rule}, got {value}")
        plan = self.lorawan
        for key in ("hidden_sizes", "spreading_factors", "rounds"):
            if not getattr(plan, key):
                raise ValueError(f"config key 'lorawan.{key}' must be a non-empty list")
        for h in plan.hidden_sizes:
            _checked("lorawan.hidden_sizes", lambda: ae.ArchSpec(hidden_sizes=(h,)))
        for sf in plan.spreading_factors:
            _checked("lorawan.spreading_factors", lorawan.profile_for, sf)
        _checked("model", _arch, self)
        for mid, feats in (self.data.ranges or {}).items():
            for name, bounds in feats.items():
                key = f"data.ranges[{mid!r}][{name!r}]"
                if len(bounds) != 2:
                    raise ValueError(f"config key {key!r} must be a [lo, hi] pair, got {bounds}")
                _checked(key, RangeSpec, {mid: {name: bounds}})
        _checked("split", SplitSpec(self.split.train, self.split.val, self.split.test).validate)
        _checked("data", _gen_config, self.data)
        _checked("iforest.contamination", _check_contamination, self.iforest.contamination)
        _checked("iforest.max_samples", _check_max_samples, self.iforest.max_samples)
        fl.FLSchedule(self.federated.epochs_per_round, self.federated.rounds, self.federated.budget)


def _checked(key: str, check, *args) -> None:
    """Run a component's own check, naming the config key in the error it raises."""
    try:
        check(*args)
    except ValueError as err:
        raise ValueError(f"config key {key!r}: {err}") from None


def _build_section(cls, raw: dict, path: str | None = None):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - names
    if unknown:
        where = f" under {path!r}" if path else ""
        raise ValueError(f"unknown config key(s){where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        _check_type(f"{path}.{name}" if path else name, value, hints[name])
    return cls(**raw)


def _check_type(key: str, value, hint) -> None:
    """Reject a JSON value its field's type hint does not admit, list items and dict values too."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None: None, or a value X admits
        if value is not None:
            _check_type(key, value, args[0])
        return
    if typing.get_origin(hint) in (list, dict):
        _check_type(key, value, typing.get_origin(hint))
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for i, item in items:
            _check_type(f"{key}[{i!r}]", item, args[-1])
        return
    allowed = (hint, int) if hint is float else (hint,)
    # a JSON boolean is a Python int, but not a number here
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        expected = " or ".join(t.__name__ for t in allowed)
        raise ValueError(f"config key {key!r} must be {expected}, got {type(value).__name__}")


# the config's sections by name: the fields a factory builds by default
_SECTION_TYPES = {
    f.name: f.default_factory
    for f in dataclasses.fields(ExperimentConfig)
    if f.default_factory is not dataclasses.MISSING
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config, rejecting unknown keys and wrongly typed values anywhere in the document."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    cfg = _build_section(ExperimentConfig, {k: v for k, v in raw.items() if k not in _SECTION_TYPES})
    for key, cls in _SECTION_TYPES.items():
        if key in raw:
            if not isinstance(raw[key], dict):
                raise ValueError(f"config section {key!r} must be an object")
            setattr(cfg, key, _build_section(cls, raw[key], key))
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def _derive_seed(run_seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([run_seed, tag]).generate_state(1)[0])


def _gen_config(section: DataSection) -> GenConfig:
    """Synthetic generator settings named by a config's data section."""
    return GenConfig(
        counts=dict(section.counts),
        anomaly_fraction=section.anomaly_fraction,
        ranges=RangeSpec(section.ranges) if section.ranges else DEFAULT_RANGES,
        seed=section.gen_seed,
        scale=section.scale,
    )


def load_dataset(cfg: ExperimentConfig) -> tuple[FeatureFrame, dict]:
    """Acquire, clean, project and label the dataset named by the config."""
    section = cfg.data
    # the section's normal ranges drive both the generator and the range labels
    gen = _gen_config(section)
    if section.source == "synthetic":
        rs = generate_synthetic(gen)
    elif section.source == "csv":
        if not section.csv_path:
            raise ValueError("data.source is csv but data.csv_path is not set")
        rs = ingest_csv(section.csv_path)
    else:
        if not section.ttn_path:
            raise ValueError("data.source is ttn_json but data.ttn_path is not set")
        rs = ingest_ttn_json(section.ttn_path)

    cleaned = clean(rs)
    provenance, ingest_audit = rs.provenance, rs.audit
    del rs  # the raw columns: only their provenance and audit reach the report
    frame = select_features(cleaned)
    range_lv = label_by_range(frame, gen.ranges)
    counts = frame.counts_by_machine()
    # a range-labeled study only reports the IQR fraction, undefined for a machine with
    # fewer rows than quartiles need (an IQR-labeled study raises there)
    few = cfg.labeling.method == "range" and min(counts.values(), default=IQR_MIN_VALUES) < IQR_MIN_VALUES
    iqr_lv = None if few else label_by_iqr(frame, k=cfg.labeling.iqr_k)
    chosen = range_lv if cfg.labeling.method == "range" else iqr_lv
    # on the cleaned arrays: with_labels would copy them, only for this frame to be dropped
    frame = FeatureFrame(frame.values, frame.machine_codes, chosen.instance_labels)

    info = {
        "provenance": provenance,
        "ingest_audit": ingest_audit,
        "clean_audit": cleaned.audit,
        "n_instances": len(frame),
        "counts_by_machine": counts,
        "labeling": {
            "method": cfg.labeling.method,
            "range_fraction": range_lv.anomaly_fraction(),
            "iqr_fraction": None if iqr_lv is None else iqr_lv.anomaly_fraction(),
            "iqr_scope": "per_machine",
        },
    }
    return frame, info


def _partitions(frame: FeatureFrame, cfg: ExperimentConfig, run_seed: int):
    """The run's raw train, val and test partitions, none empty, and a scaler fitted on train."""
    spec = SplitSpec(cfg.split.train, cfg.split.val, cfg.split.test, seed=_derive_seed(run_seed, _TAG_SPLIT))
    parts = stratified_split(frame, spec)
    if not all(len(part) for part in parts):
        names = ("train", "val", "test")
        counts = ", ".join(f"{name} {part.counts_by_machine()}" for name, part in zip(names, parts))
        raise ValueError(f"config key 'split' leaves a partition empty: {counts}")
    try:
        return (*parts, fit_standardizer(parts[0]))
    except ValueError as err:
        raise ValueError(f"config key 'split', training partition of seed {run_seed}: {err}") from None


def _arch(cfg: ExperimentConfig) -> ae.ArchSpec:
    return ae.ArchSpec(hidden_sizes=tuple(cfg.model.hidden_sizes), activation=cfg.model.activation)


def _normal_rows(frame: FeatureFrame) -> FeatureFrame:
    """Training view for the semi-supervised autoencoder: drop labeled anomalies."""
    if frame.labels is None or not frame.labels.any() or frame.labels.all():
        return frame
    return frame.take(~frame.labels)


def _scored(cm) -> dict:
    return {"metrics": all_metrics(cm), "confusion": dataclasses.asdict(cm)}


def _run_central(frame: FeatureFrame, cfg: ExperimentConfig, seeds: list[int]) -> list[dict]:
    """Centralized autoencoder + isolation forest on standardized partitions.

    The autoencoder fits on normal-labeled instances only, so anomalies
    stay off the learned manifold; the isolation forest fits on the full
    partition, which is what its contamination parameter models. Every
    seed's autoencoder trains in one lockstep call, each on its own
    shuffle stream, seeded from the run seed. Each seed's raw partitions
    die once standardized.
    """
    parts = (_partitions(frame, cfg, seed) for seed in seeds)
    splits = [[apply_standardizer(f, scaler) for f in part] for *part, scaler in parts]
    models = [ae.build_autoencoder(_arch(cfg), seed=_derive_seed(s, _TAG_AE_INIT)) for s in seeds]
    train_cfg = ae.TrainConfig(
        epochs=cfg.model.epochs,
        batch_size=cfg.model.batch_size,
        learning_rate=cfg.model.learning_rate,
    )
    traces = ae.train(
        models,
        [_normal_rows(tr).values for tr, _, _ in splits],
        train_cfg,
        shuffle_rng=[np.random.default_rng(_derive_seed(s, _TAG_AE_SHUFFLE)) for s in seeds],
    )
    return [_evaluate_central(*args, cfg) for args in zip(models, traces, splits, seeds)]


def _evaluate_central(model, trace, splits, run_seed: int, cfg: ExperimentConfig) -> dict:
    tr, va, te = splits
    val_errors = anomaly.reconstruction_errors(model, va)
    initial = anomaly.initial_threshold(val_errors)
    chosen = anomaly.select_threshold(val_errors, va.labels)

    test_errors = anomaly.reconstruction_errors(model, te)
    cm_ae = confusion(te.labels, anomaly.classify(test_errors, chosen.threshold))

    try:
        forest = fit_iforest(
            tr,
            n_trees=cfg.iforest.n_trees,
            max_samples=cfg.iforest.max_samples,
            seed=_derive_seed(run_seed, _TAG_IFOREST),
        )
    except ValueError as err:
        raise ValueError(f"central stage, training partition of seed {run_seed}: {err}") from None
    preds_if = iforest_classify(forest, te, cfg.iforest.contamination)
    cm_if = confusion(te.labels, preds_if)

    return {
        "AE": _scored(cm_ae),
        "IF": _scored(cm_if),
        "ae_threshold": {
            "initial": initial,
            "selected": chosen.threshold,
            "percentile": chosen.percentile,
            "val_f1": chosen.f1,
            "degenerate": chosen.degenerate,
        },
        "ae_loss": {"first_epoch": trace[0], "last_epoch": trace[-1]},
    }


def _check_per_client(frame: FeatureFrame, cfg: ExperimentConfig) -> None:
    """Refuse, before any model trains, a split that leaves a machine no training rows for its per_client scaler."""
    spec = SplitSpec(cfg.split.train, cfg.split.val, cfg.split.test)  # the counts are the same for every seed
    counts = {mid: split_counts(n, spec) for mid, n in frame.counts_by_machine().items()}
    orphans = [f"{mid!r} train 0, val {val}, test {test}" for mid, (train, val, test) in counts.items() if not train]
    if orphans and cfg.federated.standardize == "per_client":
        raise ValueError("federated.standardize 'per_client' fits each machine's scaler on its training "
                         f"rows, and config key 'split' leaves none to {'; '.join(orphans)}")


def _standardize_fl(tr_raw, va_raw, te_raw, scaler, mode: str):
    """Client training frames per machine plus pooled validation and test frames, standardized."""
    if mode == "global":
        tr = apply_standardizer(tr_raw, scaler)
        va = apply_standardizer(va_raw, scaler)
        te = apply_standardizer(te_raw, scaler)
        return tr.by_machine(), va, te
    train_by_m, val_parts, test_parts = {}, [], []
    va_split = va_raw.by_machine()
    te_split = te_raw.by_machine()
    for mid, tr_m in tr_raw.by_machine().items():
        try:
            local = fit_standardizer(tr_m)
        except ValueError as err:
            raise ValueError(f"config key 'split', training partition of machine {mid!r}: {err}") from None
        train_by_m[mid] = apply_standardizer(tr_m, local)
        if mid in va_split:
            val_parts.append(apply_standardizer(va_split[mid], local))
        if mid in te_split:
            test_parts.append(apply_standardizer(te_split[mid], local))
    return train_by_m, concat_frames(val_parts), concat_frames(test_parts)


def _global_loss(global_model: ae.AutoencoderModel, clients) -> float:
    """Reconstruction MSE of the global model on all clients' training rows."""
    x = concat_frames([client.train_frame for client in clients]).values
    return ae.mse(ae.forward(global_model, x), x)


def _run_federated(
    frame: FeatureFrame, cfg: ExperimentConfig, seeds: list[int], schedule: fl.FLSchedule
) -> list[dict]:
    """Every seed's federation, all advanced round by round in lockstep."""
    arch = _arch(cfg)
    feds = []
    for seed in seeds:
        raw = _partitions(frame, cfg, seed)  # dies once standardized
        train_by_m, va, te = _standardize_fl(*raw, cfg.federated.standardize)
        train_by_m = {mid: _normal_rows(f) for mid, f in train_by_m.items()}
        fl_seed = _derive_seed(seed, _TAG_FL)
        clients = fl.make_clients(train_by_m, arch, seed=fl_seed)
        global_model = ae.build_autoencoder(arch, seed=fl_seed)
        feds.append((clients, global_model, va, te, _global_loss(global_model, clients)))
    train_cfg = ae.TrainConfig(
        batch_size=cfg.model.batch_size, learning_rate=cfg.model.learning_rate
    )
    histories = fl.run_schedule(schedule, [f[0] for f in feds], [f[1] for f in feds], train_cfg)
    return [
        _evaluate_federated(*fed, history, schedule) for fed, history in zip(feds, histories)
    ]


def _evaluate_federated(clients, global_model, va, te, initial_loss, history, schedule) -> dict:
    # one error vector per frame; the per-machine helpers slice it
    val_errors = anomaly.reconstruction_errors(global_model, va)
    test_errors = anomaly.reconstruction_errors(global_model, te)
    # global threshold: F1 sweep over the pooled client validation errors
    chosen = anomaly.select_threshold(val_errors, va.labels)
    cm_global = confusion(te.labels, anomaly.classify(test_errors, chosen.threshold))

    tuned = anomaly.thresholds_by_machine(val_errors, va)
    per_client_thresholds = {mid: res.threshold for mid, res in tuned.items()}
    # a machine without validation rows falls back to the global threshold
    test_thresholds = {mid: per_client_thresholds.get(mid, chosen.threshold) for mid in te.machines()}
    per_client_cm = anomaly.confusion_by_machine(test_errors, te, test_thresholds)

    return {
        "AEFL": _scored(cm_global),
        "per_client": {mid: _scored(cm) for mid, cm in per_client_cm.items()},
        "threshold": {
            "reference": fl.REFERENCE_THRESHOLD,
            "global": chosen.threshold,
            "global_percentile": chosen.percentile,
            "per_client": per_client_thresholds,
        },
        "schedule": {"epochs_per_round": schedule.epochs_per_round, "rounds": schedule.rounds},
        "initial_loss": initial_loss,
        "final_loss": _global_loss(global_model, clients),
        "final_checksum": history[-1]["global_checksum"] if history else None,
    }


def _run_seeds(frame: FeatureFrame, cfg: ExperimentConfig, stages) -> list[dict]:
    """Execute the requested stages for every run seed; one result per seed, in order.

    Each model stage standardizes every seed's partitions, trains all
    seeds' models in lockstep (bit-identical to training each alone),
    then thresholds and evaluates each seed: every result equals the
    seed's result from a one-seed call.
    """
    seeds = list(range(cfg.base_seed, cfg.base_seed + cfg.runs))
    out: list[dict] = [{"run_seed": seed} for seed in seeds]
    if STAGE_FEDERATED in stages:
        _check_per_client(frame, cfg)
    if STAGE_CENTRAL in stages:
        for result, central in zip(out, _run_central(frame, cfg, seeds)):
            result["central"] = central
    if STAGE_FEDERATED in stages:
        section = cfg.federated
        schedule = fl.FLSchedule(section.epochs_per_round, section.rounds, section.budget)
        for result, federated in zip(out, _run_federated(frame, cfg, seeds, schedule)):
            result["federated"] = federated
    return out


def sweep_schedules(frame: FeatureFrame, cfg: ExperimentConfig) -> list[dict]:
    """Run every epoch/round split of the 80-epoch budget; one row per split.

    Each split's runs train in lockstep.
    """
    seeds = list(range(cfg.base_seed, cfg.base_seed + (cfg.sweep.runs or cfg.runs)))
    _check_per_client(frame, cfg)
    rows = []
    for epochs_per_round, rounds in fl.SCHEDULE_COMBOS:
        schedule = fl.FLSchedule(epochs_per_round, rounds)
        results = _run_federated(frame, cfg, seeds, schedule)
        stats = summarize_runs([r["AEFL"]["metrics"] for r in results])["stats"]
        rows.append(
            {
                "epochs_per_round": epochs_per_round,
                "rounds": rounds,
                **{m: stats[m]["mean"] for m in ("f1", "accuracy", "tpr", "tnr")},
                **{k: float(np.mean([r[k] for r in results])) for k in ("initial_loss", "final_loss")},
            }
        )
    return rows


def _lorawan_rows(cfg: ExperimentConfig) -> list[dict]:
    section = cfg.lorawan
    archs = [
        ae.ArchSpec(hidden_sizes=(h,), activation=cfg.model.activation)
        for h in section.hidden_sizes
    ]
    return lorawan.plan_table(
        archs, section.spreading_factors, section.rounds, section.convention
    )


# the compared models in report order, each with the stage whose results hold it
_COMPARED = ((STAGE_CENTRAL, "AE"), (STAGE_CENTRAL, "IF"), (STAGE_FEDERATED, "AEFL"))


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    deterministic: bool = False,
    stages: tuple | None = None,
) -> dict:
    """Execute the configured study and assemble the report.

    `stages=None` runs the full pipeline: central, federated and
    lorawan, plus the sweep when `cfg.sweep.enabled` is set. Named
    stages run exactly as named. Under out_dir, when given, it writes
    report.json and one CSV per report section that `_CSV_ROWS` names.
    The report holds only config- and seed-determined values. Runs are
    always serial; `deterministic` is accepted and ignored.
    """
    cfg.validate()
    if stages is None:
        stages = (STAGE_CENTRAL, STAGE_FEDERATED, STAGE_LORAWAN)
        stages += (STAGE_SWEEP,) if cfg.sweep.enabled else ()

    frame, dataset_info = load_dataset(cfg)
    report: dict = {
        "provenance": {
            "config_hash": cfg.config_hash(),
            "base_seed": cfg.base_seed,
            "runs": cfg.runs,
            "versions": {
                "fedlora": __version__,
                "numpy": np.__version__,
                "python": f"{sys.version_info.major}.{sys.version_info.minor}",
            },
        },
        "config": cfg.to_dict(),
        "dataset": dataset_info,
    }

    model_stages = tuple(s for s in stages if s in (STAGE_CENTRAL, STAGE_FEDERATED))
    if model_stages:
        results = _run_seeds(frame, cfg, model_stages)
        report["runs_detail"] = results
        report["comparison"] = {
            model: summarize_runs([r[stage][model]["metrics"] for r in results])
            for stage, model in _COMPARED
            if stage in stages
        }
        if STAGE_FEDERATED in stages:
            by_machine: dict[str, list[dict]] = {}
            for r in results:
                for mid, scored in r["federated"]["per_client"].items():
                    by_machine.setdefault(mid, []).append(scored["metrics"])
            report["per_client"] = {mid: summarize_runs(by_machine[mid]) for mid in sorted(by_machine)}

    if STAGE_SWEEP in stages:
        report["sweep"] = sweep_schedules(frame, cfg)
    if STAGE_LORAWAN in stages:
        report["lorawan_plan"] = _lorawan_rows(cfg)

    if out_dir:
        write_report_files(report, out_dir)
    return report


# each report section written as <key>.csv: its header line, and its CSV rows
_CSV_ROWS = {
    "comparison": (
        "model,metric,statistic,value",
        lambda section: [row for model, summary in section.items() for row in summary_rows(summary, model)],
    ),
    "per_client": (
        "model,machine,metric,statistic,value",
        lambda section: [
            {**row, "machine": machine}
            for machine, summary in section.items()
            for row in summary_rows(summary, "AEFL")
        ],
    ),
    "sweep": ("epochs_per_round,rounds,f1,accuracy,tpr,tnr,initial_loss,final_loss", list),
    "lorawan_plan": ("arch,hidden,params,bytes,sf,rounds,convention,messages,hours", list),
}


def write_report_files(report: dict, out_dir) -> None:
    """Write report.json and one CSV per `_CSV_ROWS` section present; an empty section gets its header."""
    os.makedirs(out_dir, exist_ok=True)
    for key, (header, rows_of) in _CSV_ROWS.items():
        if key in report:
            write_dict_csv(os.path.join(out_dir, f"{key}.csv"), header.split(","), rows_of(report[key]))
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")  # one write, not one per token
