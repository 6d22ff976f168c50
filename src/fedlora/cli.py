"""Command-line entry points.

Each subcommand is one pipeline stage and accepts only the flags that
change what it computes or where it writes (the `COMMANDS` table):

  generate                              --config --seed --out
  ingest, label, report                 --config --out
  plan-lorawan                          --config --convention --out
  train-central, train-federated, sweep --config --seed --runs --out --deterministic
  run                                   all seven, --check included

`generate --seed` sets data.gen_seed, every other --seed base_seed.
`fedlora --check [command]` and `fedlora run ... --check` run the
self-checks, plus the gates of the report a command wrote. FEDLORA_OUT
names the output directory when --out and the config are silent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

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
from .lorawan import CONVENTIONS

# every flag a command can take, in help order; each COMMANDS row picks its own
_FLAGS = {
    "--config": dict(help="experiment config JSON"),
    "--seed": dict(type=int, help="override base_seed (generate: data.gen_seed)"),
    "--runs": dict(type=int, help="override run count"),
    "--convention": dict(choices=CONVENTIONS,
                         help="message-count convention for the budget planner"),
    "--out": dict(help="output directory (fallback: $FEDLORA_OUT)"),
    "--deterministic": dict(action="store_true",
                            help="accepted and ignored: runs are always serial"),
    # SUPPRESS keeps a top-level --check from being reset by the subcommand's default
    "--check": dict(action="store_true", default=argparse.SUPPRESS,
                    help="run self-checks and the report's gates; exit nonzero on failure"),
}


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seed = getattr(args, "seed", None)
    if seed is not None and args.command == "generate":
        cfg.data = dataclasses.replace(cfg.data, gen_seed=seed)
    elif seed is not None:
        cfg.base_seed = seed
    if getattr(args, "runs", None) is not None:
        cfg.runs = args.runs
    if getattr(args, "convention", None):
        cfg.lorawan = dataclasses.replace(cfg.lorawan, convention=args.convention)
    cfg.validate()
    return cfg


def _out_dir(args, cfg: ExperimentConfig, create: bool = True) -> str:
    """--out, else the config's out_dir, else $FEDLORA_OUT; made unless create is false."""
    out = args.out or cfg.out_dir or os.environ.get("FEDLORA_OUT") or "fedlora_out"
    if create:
        os.makedirs(out, exist_ok=True)
    return out


def _print_checks(results) -> int:
    failed = 0
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"CHECK {status:4s} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} check(s) failed")
    return 1 if failed else 0


def _cmd_generate(args, cfg: ExperimentConfig) -> None:
    rs = generate_synthetic(exp._gen_config(cfg.data))
    path = os.path.join(_out_dir(args, cfg), "synthetic.csv")
    write_csv(rs, path)
    print(f"wrote {len(rs)} records to {path}")
    for machine, count in rs.counts_by_machine().items():
        print(f"  {machine}: {count}")


def _cmd_ingest(args, cfg: ExperimentConfig) -> None:
    frame, info = load_dataset(cfg)
    path = os.path.join(_out_dir(args, cfg), "ingest_summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{info['n_instances']} instances after cleaning ({info['provenance']})")
    for machine, count in info["counts_by_machine"].items():
        print(f"  {machine}: {count}")
    for reason, count in {**info["ingest_audit"], **info["clean_audit"]}.items():
        print(f"  {reason}: {count}")


def _cmd_label(args, cfg: ExperimentConfig) -> None:
    frame, info = load_dataset(cfg)
    range_lv = label_by_range(frame, exp._gen_config(cfg.data).ranges)
    iqr_lv = label_by_iqr(frame, k=cfg.labeling.iqr_k)
    path = os.path.join(_out_dir(args, cfg), "labels.csv")
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


def _cmd_report(args, cfg: ExperimentConfig) -> None:
    path = os.path.join(_out_dir(args, cfg, create=False), "report.json")
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


def _pipeline(*stages: str) -> Callable:
    """A command that runs these `run_experiment` stages (none: the full pipeline); returns its report."""

    def run(args, cfg: ExperimentConfig) -> dict:
        if STAGE_SWEEP in stages:
            cfg.sweep = dataclasses.replace(cfg.sweep, enabled=True)
        out = _out_dir(args, cfg)
        report = run_experiment(cfg, out_dir=out, stages=stages or None)
        print(f"report written to {os.path.join(out, 'report.json')}")
        for model, summary in report.get("comparison", {}).items():
            stats = summary["stats"]
            print(f"  {model:5s} mean F1 {stats['f1']['mean']:.2f}")
        return report

    return run


class Command(NamedTuple):
    flags: str  # space-separated, in _FLAGS order
    run: Callable  # (args, cfg) -> the report the command wrote, or None
    help: str


_IO = "--config --out"  # where a command reads its config and writes its output
_MODEL = "--config --seed --runs --out --deterministic"

COMMANDS = {
    "generate": Command("--config --seed --out", _cmd_generate, "write a synthetic telemetry CSV"),
    "ingest": Command(_IO, _cmd_ingest, "ingest and clean a dataset, print an audit summary"),
    "label": Command(_IO, _cmd_label, "label a dataset by normal ranges and IQR bounds"),
    "train-central": Command(
        _MODEL, _pipeline(STAGE_CENTRAL), "centralized autoencoder + isolation forest study"
    ),
    "train-federated": Command(_MODEL, _pipeline(STAGE_FEDERATED), "federated training study"),
    "sweep": Command(_MODEL, _pipeline(STAGE_SWEEP), "epoch/round schedule sweep"),
    "plan-lorawan": Command(
        "--config --convention --out", _pipeline(STAGE_LORAWAN), "message and airtime budget table"
    ),
    "report": Command(_IO, _cmd_report, "pretty-print a previously written report.json"),
    "run": Command(
        " ".join(_FLAGS),
        _pipeline(),
        "full pipeline: data, models, federation, plan, report",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlora",
        description="Federated anomaly detection simulator with LoRaWAN budgeting",
    )
    parser.add_argument(
        "--check", action="store_true", help="run self-checks (alone or before a command)"
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        sub_parser = sub.add_parser(name, help=command.help)
        for flag in command.flags.split():
            sub_parser.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.check:
        parser.error("a command is required unless --check is given")
    report = None
    if args.command is not None:
        try:
            report = COMMANDS[args.command].run(args, _load_cfg(args))
        except (ValueError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return _print_checks(checks_mod.run_all_checks(report)) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
