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
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config
from .data import manifest_text
from .errors import ParameterError, RankfedError
from .harness import (Setup, evaluate, run_federated, write_records_jsonl,
                      write_summary_csv)
from .lora import load_adapters, save_adapters


# The config fields ``sweep`` varies, in flag, grid and column order.
SWEEP_AXES = ("mu1", "mu2", "theta", "lam")


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

    sweep_p = sub.add_parser("sweep", help="grid over " + "/".join(SWEEP_AXES))
    sweep_p.add_argument("config", help="base config file")
    for name in SWEEP_AXES:
        sweep_p.add_argument(f"--{name}", default=None, help="comma-separated values")
    sweep_p.add_argument("--out", required=True, help="result CSV path")
    return parser


def _load(path, args=None, **flags) -> RunConfig:
    """The validated config of the file at ``path`` (the defaults when None),
    each ``flag=field`` that is set in ``args`` replacing that field."""
    overrides = {field: getattr(args, flag) for flag, field in flags.items()
                 if getattr(args, flag) is not None}
    if path is None:
        return RunConfig(**overrides).validate()
    return load_config(path, **overrides)


def _summary(result) -> dict:
    """The numbers ``run`` prints and ``sweep`` writes after its axes."""
    count, mb = result.cost_at_best
    last = result.records[-1]
    return {"final_val_metric": last.val_metric, "final_test_metric": last.test_metric,
            "best_val_round": result.best_val_round,
            "transmitted_params_at_best": count, "transmitted_mb_at_best": mb}


def _cmd_run(args) -> int:
    config = _load(args.config, args, seed="seed", mode="mode")
    result = run_federated(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records_jsonl(result.records, out / "records.jsonl")
    write_summary_csv(result.records, out / "summary.csv")
    with open(out / "partition.manifest", "w") as fh:
        fh.write(manifest_text(result.plan))
    if result.final_adapters is not None:
        save_adapters(out / "adapters_final.ckpt", result.final_adapters,
                      result.base_checksum)
    print(json.dumps({"rounds": len(result.records), **_summary(result)}))
    return 0


def _cmd_partition(args) -> int:
    config = _load(args.config, args, scheme="scheme", classes="classes",
                   clients="num_clients", seed="seed")
    plan = Setup(config).plan
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
    adapters, trained_on = load_adapters(args.checkpoint)
    setup = Setup(config)
    dataset, base = setup.dataset, setup.base
    if trained_on != base.checksum():
        raise ParameterError(
            f"checkpoint was trained on base sha256 {trained_on}, but the config "
            f"builds base sha256 {base.checksum()}")
    if adapters.shapes() != base.layer_shapes():
        raise ParameterError(f"checkpoint layer shapes {adapters.shapes()} do not fit "
                             f"the config's base layer shapes {base.layer_shapes()}")
    metrics = evaluate(base, adapters, {args.split: dataset.split(args.split)},
                       dataset.task)
    print(json.dumps(metrics[args.split]))
    return 0


def _cmd_sweep(args) -> int:
    import csv as _csv
    from itertools import product
    base_config = _load(args.config)

    def axis(name):
        raw = getattr(args, name)
        if raw is None:
            return [getattr(base_config, name)]
        try:
            return [float(v) for v in raw.split(",")]
        except ValueError:
            raise ParameterError(
                f"--{name} must be comma-separated numbers, got {raw!r}") from None

    # Every grid point is validated before the first run and before the CSV
    # is opened, so a bad value costs no run and leaves no partial file. The
    # axes change neither the data nor the partition, so the partition rules
    # are checked once, on the base config, without pretraining.
    grid = [replace(base_config, **dict(zip(SWEEP_AXES, point))).validate()
            for point in product(*map(axis, SWEEP_AXES))]
    Setup(base_config).plan

    with open(args.out, "w", newline="") as fh:
        writer = _csv.writer(fh)
        for i, cfg in enumerate(grid):
            summary = _summary(run_federated(cfg))
            if i == 0:
                writer.writerow([*SWEEP_AXES, *summary])
            writer.writerow([*(getattr(cfg, name) for name in SWEEP_AXES),
                             *summary.values()])
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
