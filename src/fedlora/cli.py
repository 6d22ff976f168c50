"""Command-line entry points.

Subcommands mirror the pipeline stages: generate, ingest, label,
train-central, train-federated, sweep, plan-lorawan, report, and run
(which chains everything). All take --config/--seed/--runs/--out plus
--deterministic, --check and --convention; the FEDLORA_OUT environment
variable supplies the output directory when --out and the config are
silent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import checks as checks_mod
from . import experiment as exp
from .data import generate_synthetic, write_csv
from .experiment import (
    STAGE_CENTRAL,
    STAGE_FEDERATED,
    STAGE_LORAWAN,
    STAGE_SWEEP,
    ExperimentConfig,
    load_config,
    load_dataset,
    run_experiment,
)
from .frame import write_dict_csv
from .labeling import label_by_iqr, label_by_range

_SUBCOMMAND_STAGES = {
    "train-central": (STAGE_CENTRAL,),
    "train-federated": (STAGE_FEDERATED,),
    "sweep": (STAGE_SWEEP,),
    "plan-lorawan": (STAGE_LORAWAN,),
    "run": (STAGE_CENTRAL, STAGE_FEDERATED, STAGE_LORAWAN),
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override base_seed")
    parser.add_argument("--runs", type=int, help="override run count")
    parser.add_argument("--out", help="output directory (fallback: $FEDLORA_OUT)")
    parser.add_argument(
        "--deterministic", action="store_true", help="accepted and ignored: runs are always serial"
    )
    # SUPPRESS keeps a top-level --check from being reset by the subcommand's default
    parser.add_argument(
        "--check",
        action="store_true",
        default=argparse.SUPPRESS,
        help="run self-checks; exit nonzero on failure",
    )
    parser.add_argument(
        "--convention",
        choices=["per_round", "total"],
        help="message-count convention for the budget planner",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlora",
        description="Federated anomaly detection simulator with LoRaWAN budgeting",
    )
    parser.add_argument(
        "--check", action="store_true", help="run self-checks (alone or before a command)"
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("generate", "write a synthetic telemetry CSV"),
        ("ingest", "ingest and clean a dataset, print an audit summary"),
        ("label", "label a dataset by normal ranges and IQR bounds"),
        ("train-central", "centralized autoencoder + isolation forest study"),
        ("train-federated", "federated training study"),
        ("sweep", "epoch/round schedule sweep"),
        ("plan-lorawan", "message and airtime budget table"),
        ("report", "pretty-print a previously written report.json"),
        ("run", "full pipeline: data, models, federation, plan, report"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.runs is not None:
        cfg.runs = args.runs
    if args.convention:
        cfg.lorawan = dataclasses.replace(cfg.lorawan, convention=args.convention)
    cfg.validate()
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> str:
    return args.out or cfg.out_dir or os.environ.get("FEDLORA_OUT") or "fedlora_out"


def _print_checks(results) -> int:
    failed = 0
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"CHECK {status:4s} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} check(s) failed")
    return 1 if failed else 0


def _cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    os.makedirs(out, exist_ok=True)
    gen = exp._gen_config(cfg.data)
    if args.seed is not None:
        gen = dataclasses.replace(gen, seed=args.seed)
    rs = generate_synthetic(gen)
    path = os.path.join(out, "synthetic.csv")
    write_csv(rs, path)
    print(f"wrote {len(rs)} records to {path}")
    for machine, count in rs.counts_by_machine().items():
        print(f"  {machine}: {count}")
    return 0


def _cmd_ingest(args) -> int:
    cfg = _load_cfg(args)
    frame, info = load_dataset(cfg)
    out = _out_dir(args, cfg)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "ingest_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{info['n_instances']} instances after cleaning ({info['provenance']})")
    for machine, count in info["counts_by_machine"].items():
        print(f"  {machine}: {count}")
    for reason, count in {**info["ingest_audit"], **info["clean_audit"]}.items():
        print(f"  {reason}: {count}")
    return 0


def _cmd_label(args) -> int:
    cfg = _load_cfg(args)
    frame, info = load_dataset(cfg)
    range_lv = label_by_range(frame, exp._gen_config(cfg.data).ranges)
    iqr_lv = label_by_iqr(frame, k=cfg.labeling.iqr_k)
    out = _out_dir(args, cfg)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "labels.csv")
    rows = [
        {"index": i, "machine_id": machine, "range_label": int(r), "iqr_label": int(q)}
        for i, (machine, r, q) in enumerate(
            zip(frame.machine_ids.tolist(), range_lv.instance_labels, iqr_lv.instance_labels)
        )
    ]
    write_dict_csv(path, ["index", "machine_id", "range_label", "iqr_label"], rows)
    print(f"wrote {path}")
    print(f"range-based anomaly fraction: {range_lv.anomaly_fraction():.4f}")
    print(f"per-machine IQR anomaly fraction: {iqr_lv.anomaly_fraction():.4f}")
    return 0


def _cmd_report(args) -> int:
    cfg = _load_cfg(args)
    path = os.path.join(_out_dir(args, cfg), "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    print(f"report {report['provenance']['config_hash'][:12]} "
          f"(seed {report['provenance']['base_seed']}, {report['provenance']['runs']} runs)")
    for model, summary in report.get("comparison", {}).items():
        stats = summary["stats"]
        print(
            f"  {model:5s} F1 {stats['f1']['mean']:6.2f}  Acc {stats['accuracy']['mean']:6.2f}  "
            f"TNR {stats['tnr']['mean']:6.2f}  TPR {stats['tpr']['mean']:6.2f}"
        )
    for machine, summary in report.get("per_client", {}).items():
        stats = summary["stats"]
        print(f"  {machine:12s} F1 {stats['f1']['mean']:6.2f}  Acc {stats['accuracy']['mean']:6.2f}")
    if report.get("sweep"):
        best = max(report["sweep"], key=lambda r: r["f1"])
        print(f"  best schedule: {best['epochs_per_round']} epochs x {best['rounds']} rounds "
              f"(F1 {best['f1']:.2f})")
    return 0


def _cmd_pipeline(args, stages) -> int:
    cfg = _load_cfg(args)
    if args.command == "sweep":
        cfg.sweep = dataclasses.replace(cfg.sweep, enabled=True)
    out = _out_dir(args, cfg)
    report = run_experiment(cfg, out_dir=out, deterministic=args.deterministic, stages=stages)
    print(f"report written to {os.path.join(out, 'report.json')}")
    for model, summary in report.get("comparison", {}).items():
        stats = summary["stats"]
        print(f"  {model:5s} mean F1 {stats['f1']['mean']:.2f}")
    if args.check:
        return _print_checks(checks_mod.run_all_checks(report))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if not args.check:
            parser.error("a command is required unless --check is given")
        return _print_checks(checks_mod.run_all_checks())
    try:
        if args.command == "generate":
            code = _cmd_generate(args)
        elif args.command == "ingest":
            code = _cmd_ingest(args)
        elif args.command == "label":
            code = _cmd_label(args)
        elif args.command == "report":
            code = _cmd_report(args)
        else:
            return _cmd_pipeline(args, _SUBCOMMAND_STAGES[args.command])
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check and args.command != "run":
        return _print_checks(checks_mod.run_all_checks())
    return code


if __name__ == "__main__":
    sys.exit(main())
