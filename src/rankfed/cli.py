"""Command-line interface.

Subcommands:
  run        execute a federated run from a config file, write logs
  partition  emit a partition manifest and the achieved KS statistic
  eval       evaluate an adapter checkpoint against a config's dataset
  sweep      grid over regularization/decay settings, one CSV row per cell
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .data import manifest_text
from .errors import ParameterError, RankfedError
from .harness import (build_base, build_dataset, build_partition, evaluate,
                      run_federated, write_records_jsonl, write_summary_csv)
from .lora import load_adapters, save_adapters
from .numerics import Rng


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankfed")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a federated run")
    run_p.add_argument("config", help="path to the run config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--mode", default=None, help="override the run mode")
    run_p.add_argument("--out", required=True, help="output directory")

    part_p = sub.add_parser("partition", help="emit a partition manifest")
    part_p.add_argument("--config", default=None, help="config file with data settings")
    part_p.add_argument("--scheme", default=None, help="override the partition scheme")
    part_p.add_argument("--classes", type=int, default=None)
    part_p.add_argument("--clients", type=int, default=None)
    part_p.add_argument("--seed", type=int, default=None)
    part_p.add_argument("--out", default=None, help="manifest path (default: stdout)")

    eval_p = sub.add_parser("eval", help="evaluate an adapter checkpoint")
    eval_p.add_argument("config", help="config file describing dataset and base")
    eval_p.add_argument("checkpoint", help="adapter checkpoint path")
    eval_p.add_argument("--split", default="test", choices=("train", "val", "test"))

    sweep_p = sub.add_parser("sweep", help="grid over mu1/mu2/theta/lam")
    sweep_p.add_argument("config", help="base config file")
    sweep_p.add_argument("--mu1", default=None, help="comma-separated values")
    sweep_p.add_argument("--mu2", default=None, help="comma-separated values")
    sweep_p.add_argument("--theta", default=None, help="comma-separated values")
    sweep_p.add_argument("--lam", default=None, help="comma-separated values")
    sweep_p.add_argument("--out", required=True, help="result CSV path")
    return parser


def _load(path, overrides=None) -> RunConfig:
    config = load_config(path)
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides).validate()
    return config


def _cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    config = _load(args.config, overrides)
    result = run_federated(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records_jsonl(result.records, out / "records.jsonl")
    write_summary_csv(result.records, out / "summary.csv")
    with open(out / "partition.manifest", "w") as fh:
        fh.write(manifest_text(result.plan))
    if result.final_adapters is not None:
        save_adapters(out / "adapters_final.ckpt", result.final_adapters)
    count, mb = result.cost_at_best
    last = result.records[-1]
    print(json.dumps({
        "rounds": len(result.records),
        "final_val_metric": last.val_metric,
        "final_test_metric": last.test_metric,
        "best_val_round": result.best_val_round,
        "transmitted_params_at_best": count,
        "transmitted_mb_at_best": mb,
    }))
    return 0


def _cmd_partition(args) -> int:
    if args.config is not None:
        config = _load(args.config)
    else:
        config = RunConfig()
    from dataclasses import replace
    overrides = {}
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    if args.classes is not None:
        overrides["classes"] = args.classes
    if args.clients is not None:
        overrides["num_clients"] = args.clients
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = replace(config, **overrides).validate()
    root = Rng(config.seed)
    dataset = build_dataset(config, root.substream("data"))
    plan = build_partition(config, dataset, root.substream("partition"))
    text = manifest_text(plan)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"achieved_ks = {plan.mean_pairwise_ks:.6f}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    config = _load(args.config)
    adapters = load_adapters(args.checkpoint)
    root = Rng(config.seed)
    dataset = build_dataset(config, root.substream("data"))
    base = build_base(config, dataset, root)
    metrics = evaluate(base, adapters, dataset.split(args.split), dataset.task)
    print(json.dumps(metrics))
    return 0


def _cmd_sweep(args) -> int:
    import csv as _csv
    from dataclasses import replace
    base_config = _load(args.config)

    def axis(raw, default):
        if raw is None:
            return [default]
        return [float(v) for v in raw.split(",") if v.strip()]

    mu1s = axis(args.mu1, base_config.mu1)
    mu2s = axis(args.mu2, base_config.mu2)
    thetas = axis(args.theta, base_config.theta)
    lams = axis(args.lam, base_config.lam)

    with open(args.out, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["mu1", "mu2", "theta", "lam", "final_val_metric",
                         "final_test_metric", "best_val_round",
                         "transmitted_params_at_best", "transmitted_mb_at_best"])
        for mu1 in mu1s:
            for mu2 in mu2s:
                for theta in thetas:
                    for lam in lams:
                        cfg = replace(base_config, mu1=mu1, mu2=mu2,
                                      theta=theta, lam=lam).validate()
                        result = run_federated(cfg)
                        count, mb = result.cost_at_best
                        last = result.records[-1]
                        writer.writerow([mu1, mu2, theta, lam,
                                         last.val_metric, last.test_metric,
                                         result.best_val_round, count, mb])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "run": _cmd_run,
        "partition": _cmd_partition,
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RankfedError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
