"""Command-line experiment runner.

Subcommands: train, eval, ablate, robust, sweep, case-study, check.
Hyperparameters come from a plain-text key=value config file; CLI flags
win over file values.
"""

import argparse
import dataclasses
import logging
import sys

from .config import TrainConfig, parse_config_file, read_int, read_value
from .experiments import (DEFAULT_NOISE_RATIOS, ExperimentSpec, run_ablation,
                          run_case_study, run_eval, run_robustness, run_sweep,
                          run_train)

log = logging.getLogger(__name__)

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
_DATA_KEYS = ("dataset_dir", "interactions", "social", "eval_seed")  # file-only
# config keys with a `--KEY VALUE` flag, shorthand for `--set KEY=VALUE`
_FLAG_KEYS = ("seed", "variant", "negatives", "epochs", "batch", "layers", "dim", "lr")
_TASKS = (("train", "train and evaluate one model"),
          ("eval", "evaluate an existing checkpoint"),
          ("ablate", "train all model variants"),
          ("robust", "noise-injection robustness study"),
          ("sweep", "hyperparameter grid sweep"),
          ("case-study", "export learned tie weights"))


def _check_keys(keys, allowed, where):
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def build_config(file_values, cli_values):
    """Resolve a TrainConfig: defaults <- config file <- CLI flags, each
    source read by `TrainConfig.read`. A config file may also hold the
    _DATA_KEYS build_spec reads; the command line sets fields only."""
    _check_keys(cli_values, _CONFIG_FIELDS, "command line")
    from_file = {k: v for k, v in file_values.items() if k not in _DATA_KEYS}
    from_cli = {k: v for k, v in cli_values.items() if v is not None}
    return TrainConfig().read(from_file, "config file").read(from_cli, "command line")


def _parse_grid(entries):
    axes = {}
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"--grid expects axis=v1,v2,... got {entry!r}")
        axis, vals = entry.split("=", 1)
        axis = axis.strip()
        _check_keys([axis], _CONFIG_FIELDS, "--grid")
        if axis in axes:
            raise ValueError(f"--grid axis {axis} is given twice")
        axes[axis] = [getattr(TrainConfig().read({axis: v}, "--grid"), axis)
                      for v in vals.split(",") if v]
    return axes


def _add_common(p):
    p.add_argument("--dataset-dir", help="serialized dataset directory")
    p.add_argument("--interactions", help="raw interaction edge file")
    p.add_argument("--social", help="raw social edge file")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default="runs", help="output root directory")
    for key in _FLAG_KEYS:
        p.add_argument(f"--{key}", help=f"same as --set {key}=VALUE")
    p.add_argument("--split", default="test", choices=["val", "test"])
    p.add_argument("--run-name", help="fixed run directory name")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key")


def build_spec(args):
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = {key: getattr(args, key) for key in _FLAG_KEYS}
    for entry in args.set:
        if "=" not in entry:
            raise ValueError(f"--set expects KEY=VALUE, got {entry!r}")
        key, val = entry.split("=", 1)
        cli_values[key.strip()] = val.strip()
    cfg = build_config(file_values, cli_values)
    eval_seed = read_int(file_values, "eval_seed", args.config, 0)
    if eval_seed < 0:
        raise ValueError(f"config key eval_seed must be >= 0, got {eval_seed}")
    for key in ("dataset_dir", "interactions", "social"):  # empty is not "not given"
        if "" in (getattr(args, key), file_values.get(key)):
            where = key if getattr(args, key) == "" else f"config key {key}"
            raise ValueError(f"{where}: expected a path, got ''")

    return ExperimentSpec(
        config=cfg,
        dataset_dir=args.dataset_dir or file_values.get("dataset_dir"),
        interactions_path=args.interactions or file_values.get("interactions"),
        social_path=args.social or file_values.get("social"),
        split_seed=args.split_seed,
        out_dir=args.out,
        split=args.split,
        run_name=args.run_name,
        eval_seed=eval_seed,
    )


def _headline(report, metrics=("hr",)):
    """`HR@n=...` (then each further metric) at the second cutoff, or at
    the only one, for the one-line task summaries."""
    cut = report.cutoffs[min(1, len(report.cutoffs) - 1)]
    return " ".join(f"{m.upper()}@{cut}={getattr(report, m)[cut]:.4f}" for m in metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="socrec",
        description="Dual-view social recommender with denoised "
                    "cross-view self-supervision")
    sub = parser.add_subparsers(dest="command", required=True)
    tasks = {name: sub.add_parser(name, help=text) for name, text in _TASKS}
    for p in tasks.values():
        _add_common(p)
    tasks["eval"].add_argument("--checkpoint", required=True)
    tasks["robust"].add_argument(
        "--ratios", default=",".join(str(r) for r in DEFAULT_NOISE_RATIOS))
    tasks["sweep"].add_argument("--grid", action="append", default=[],
                                metavar="AXIS=V1,V2,...")
    tasks["case-study"].add_argument("--checkpoint")
    tasks["case-study"].add_argument("--sample", default="all",
                                     help="number of ties to export, or 'all'")
    sub.add_parser("check", help="run the built-in verification suites")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    if args.command == "check":
        from .selfcheck import run_all
        results = run_all(verbose=True)
        return 0 if all(ok for _, ok, _ in results) else 1

    spec = build_spec(args)
    if args.command == "train":
        _, report, run_dir = run_train(spec)
        print(report.to_table())
    elif args.command == "eval":
        report, run_dir = run_eval(spec, args.checkpoint)
        print(report.to_table())
    elif args.command == "ablate":
        table, run_dir = run_ablation(spec)
        for variant, report in table.items():
            summary = "FAILED" if report is None else _headline(report, ("hr", "ndcg"))
            print(f"{variant:>14}: {summary}")
    elif args.command == "robust":
        ratios = tuple(read_value("ratios", x, float) for x in args.ratios.split(","))
        reports, run_dir = run_robustness(spec, ratios)
        for ratio, report in reports.items():
            print(f"ratio {ratio:g}: {_headline(report)}")
    elif args.command == "sweep":
        cells, run_dir = run_sweep(spec, _parse_grid(args.grid))
        for overrides, report in cells:
            tag = ", ".join(f"{k}={v}" for k, v in overrides.items())
            print(f"{tag}: {_headline(report)}")
    else:
        export, run_dir = run_case_study(spec, args.checkpoint, args.sample)
        print(f"{len(export.rows)} ties exported")
    print(f"artifacts: {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
