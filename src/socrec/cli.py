"""Command-line experiment runner.

Subcommands: train, eval, ablate, robust, sweep, case-study, check.
Hyperparameters come from a plain-text key=value config file; CLI flags
win over file values.
"""

import argparse
import dataclasses
import logging
import sys

from .experiments import (DEFAULT_NOISE_RATIOS, ExperimentSpec, run_ablation,
                          run_case_study, run_eval, run_robustness, run_sweep,
                          run_train)
from .objective import TrainConfig

log = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_FILE_ONLY_KEYS = ("dataset_dir", "interactions", "social", "eval_seed")


def parse_config_file(path):
    """key=value lines, '#' comments; values stay strings until coercion."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _coerce(key, val):
    """A config value from its string form, by the TrainConfig field type;
    a tuple field takes comma-separated ints."""
    kind = _CONFIG_FIELDS[key]
    if kind is tuple:
        return tuple(int(x) for x in str(val).split(","))
    return kind(val)


def _check_keys(keys, allowed, where):
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def build_config(file_values, cli_values):
    """Resolve a TrainConfig: defaults <- config file <- CLI flags.

    Every key must name a TrainConfig field; a config file may also hold
    the non-config keys in _FILE_ONLY_KEYS (read by build_spec).
    """
    _check_keys(file_values, (*_CONFIG_FIELDS, *_FILE_ONLY_KEYS), "config file")
    _check_keys(cli_values, _CONFIG_FIELDS, "command line")
    merged = {}
    for source in (file_values, cli_values):
        for key, val in source.items():
            if val is not None and key in _CONFIG_FIELDS:
                merged[key] = _coerce(key, val)
    return TrainConfig(**merged)


def _parse_grid(entries):
    axes = {}
    for entry in entries or []:
        if "=" not in entry:
            raise ValueError(f"--grid expects axis=v1,v2,... got {entry!r}")
        axis, vals = entry.split("=", 1)
        axis = axis.strip()
        _check_keys([axis], _CONFIG_FIELDS, "--grid")
        axes[axis] = [_coerce(axis, v) for v in vals.split(",") if v]
    return axes


def _add_common(p):
    p.add_argument("--dataset-dir", help="serialized dataset directory")
    p.add_argument("--interactions", help="raw interaction edge file")
    p.add_argument("--social", help="raw social edge file")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--variant")
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--split", default="test", choices=["val", "test"])
    p.add_argument("--run-name", help="fixed run directory name")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key")


def build_spec(args):
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = {
        "seed": args.seed, "variant": args.variant, "negatives": args.negatives,
        "epochs": args.epochs, "batch": args.batch, "layers": args.layers,
        "dim": args.dim, "lr": args.lr,
    }
    for entry in args.set:
        if "=" not in entry:
            raise ValueError(f"--set expects KEY=VALUE, got {entry!r}")
        key, val = entry.split("=", 1)
        cli_values[key.strip()] = val.strip()
    cfg = build_config(file_values, cli_values)

    spec = ExperimentSpec(
        config=cfg,
        dataset_dir=args.dataset_dir or file_values.get("dataset_dir"),
        interactions_path=args.interactions or file_values.get("interactions"),
        social_path=args.social or file_values.get("social"),
        split_seed=args.split_seed,
        out_dir=args.out,
        split=args.split,
        run_name=args.run_name,
        eval_seed=int(file_values.get("eval_seed", 0)),
    )
    if getattr(args, "ratios", None):
        spec.noise_ratios = tuple(float(x) for x in args.ratios.split(","))
    if getattr(args, "grid", None):
        spec.sweep_axes = _parse_grid(args.grid)
    if getattr(args, "checkpoint", None):
        spec.checkpoint = args.checkpoint
    if getattr(args, "sample", None):
        spec.sample = args.sample
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="socrec",
        description="Dual-view social recommender with denoised "
                    "cross-view self-supervision")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and evaluate one model")
    _add_common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate an existing checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_abl = sub.add_parser("ablate", help="train all model variants")
    _add_common(p_abl)

    p_rob = sub.add_parser("robust", help="noise-injection robustness study")
    _add_common(p_rob)
    p_rob.add_argument("--ratios",
                       default=",".join(str(r) for r in DEFAULT_NOISE_RATIOS))

    p_sweep = sub.add_parser("sweep", help="hyperparameter grid sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", action="append", default=[],
                         metavar="AXIS=V1,V2,...")

    p_case = sub.add_parser("case-study", help="export learned tie weights")
    _add_common(p_case)
    p_case.add_argument("--checkpoint")
    p_case.add_argument("--sample", default="all",
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
        print(f"artifacts: {run_dir}")
    elif args.command == "eval":
        report, run_dir = run_eval(spec)
        print(report.to_table())
        print(f"artifacts: {run_dir}")
    elif args.command == "ablate":
        table, run_dir = run_ablation(spec)
        for variant, report in table.items():
            if report is None:
                print(f"{variant:>14}: FAILED")
            else:
                cut = report.cutoffs[min(1, len(report.cutoffs) - 1)]
                print(f"{variant:>14}: HR@{cut}={report.hr[cut]:.4f} "
                      f"NDCG@{cut}={report.ndcg[cut]:.4f}")
        print(f"artifacts: {run_dir}")
    elif args.command == "robust":
        reports, run_dir = run_robustness(spec)
        for ratio, report in reports.items():
            cut = report.cutoffs[min(1, len(report.cutoffs) - 1)]
            print(f"ratio {ratio:g}: HR@{cut}={report.hr[cut]:.4f}")
        print(f"artifacts: {run_dir}")
    elif args.command == "sweep":
        cells, run_dir = run_sweep(spec)
        for overrides, report in cells:
            cut = report.cutoffs[min(1, len(report.cutoffs) - 1)]
            tag = ", ".join(f"{k}={v}" for k, v in overrides.items())
            print(f"{tag}: HR@{cut}={report.hr[cut]:.4f}")
        print(f"artifacts: {run_dir}")
    elif args.command == "case-study":
        export, run_dir = run_case_study(spec)
        print(f"{len(export.rows)} ties exported")
        print(f"artifacts: {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
