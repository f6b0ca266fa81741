"""Command-line interface.

Subcommands:
  synth       write a synthetic biased dataset (two CSVs + JSON sidecar)
  train       train one model and write its JSON checkpoint
  evaluate    evaluate a checkpoint on the config's test split
  experiment  run the full pipeline and write report.csv / report.json
  oracle      run the built-in verification suite; nonzero exit on failure
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import SynthConfig, export_synthetic, synth_generate
from .errors import FairtensorError, check_fields
from .harness import (
    ExperimentConfig,
    evaluate_model,
    prepare_run,
    run_experiment,
    run_oracles,
)
from .models import load_checkpoint, save_checkpoint, train_model


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="overrides base_seed")
    parser.add_argument(
        "--models", default=None, help="comma-separated model kinds to run"
    )


def _experiment_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if args.models:
        cfg = replace(cfg, models=tuple(m.strip() for m in args.models.split(",")))
    return cfg


def _cmd_synth(args) -> int:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    # accept either a bare SynthConfig or an ExperimentConfig with a synth block
    if "synth" in doc and isinstance(doc["synth"], dict):
        doc = doc["synth"]
    cfg = SynthConfig(**check_fields(SynthConfig, doc, "synth"))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = args.out or "."
    obs, smap, _ = synth_generate(cfg)
    paths = export_synthetic(out, obs, smap, cfg)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _single_kind(cfg: ExperimentConfig) -> str:
    if len(cfg.models) != 1:
        raise FairtensorError(
            "train/evaluate work on one model; pass --models with a single kind"
        )
    return cfg.models[0]


def _cmd_train(args) -> int:
    cfg = _experiment_config(args)
    kind = _single_kind(cfg)
    ds, smap = prepare_run(cfg, run=1)
    model = train_model(kind, ds.train, cfg.train_config_for(kind, ds.seed), smap)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{kind.lower()}_checkpoint.json"
    save_checkpoint(model, path)
    print(f"checkpoint: {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _experiment_config(args)
    model = load_checkpoint(args.checkpoint)
    kind = _single_kind(cfg)
    if kind != model.kind:
        raise FairtensorError(f"--models {kind} does not match the checkpoint's {model.kind} model")
    ds, smap = prepare_run(cfg, run=1)
    values = evaluate_model(
        model, ds, smap, cfg.k, cfg.intervals, cfg.fairness_scope, cfg.rank_scope
    )
    doc = {"model": model.kind, "seed": ds.seed, **values}
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{model.kind.lower()}_metrics.json").write_text(
            text + "\n", encoding="utf-8"
        )
    return 0


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    report = run_experiment(cfg, out_dir=args.out)
    sys.stdout.write(report.to_csv())
    return 0 if report.complete() else 1


def _cmd_oracle(_args) -> int:
    checks = run_oracles()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    return 0 if all(c.passed for c in checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairtensor",
        description="Fairness-aware tensor/matrix factorization recommenders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic biased dataset")
    _add_common(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train one model to a checkpoint")
    _add_common(p)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON file")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full experiment pipeline")
    _add_common(p)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("oracle", help="run the built-in verification suite")
    p.set_defaults(handler=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FairtensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
