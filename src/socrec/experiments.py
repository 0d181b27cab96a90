"""Experiment harness: train/eval runs, ablations, robustness, sweeps.

Every run writes a resolved config echo, per-epoch loss components, the
final report and a checkpoint under `<out>/<task>/<timestamp>-<seed>/`.
Wall-clock numbers go to a separate timing file so the report artifacts
are byte-reproducible for a fixed spec and seed.
"""

import itertools
import logging
import os
import time
from dataclasses import dataclass, field

from .config import VARIANTS, TrainConfig, write_lines
from .data import (DEFAULT_STRATA, build_dataset, inject_noise, load_dataset,
                   load_edges, stratify_by_degree)
from .eval import evaluate_stratified, export_relevance_weights
from .graph import build_interaction_laplacian, build_social_laplacian
from .model import checkpoint_config, encode, load_checkpoint, save_checkpoint
from .train import train_model

log = logging.getLogger(__name__)

DEFAULT_NOISE_RATIOS = (0.0, 0.1, 0.2, 0.3)
NOISE_SEED = 1234  # seeds the fake edges of every robustness cell


@dataclass
class ExperimentSpec:
    """What every task reads: data source, config, output, evaluation."""

    config: TrainConfig = field(default_factory=TrainConfig)
    dataset_dir: str = None
    interactions_path: str = None
    social_path: str = None
    split_seed: int = 0
    out_dir: str = "runs"
    eval_seed: int = 0
    split: str = "test"
    run_name: str = None


def load_spec_dataset(spec):
    """The spec's dataset; every task ingests through here, so a spec
    without a data source fails before any run directory exists."""
    if spec.dataset_dir:
        return load_dataset(spec.dataset_dir)
    if spec.interactions_path is None:
        raise ValueError("spec needs dataset_dir or interactions_path")
    inter = load_edges(spec.interactions_path, "interaction")
    soc = load_edges(spec.social_path, "social") if spec.social_path else None
    return build_dataset(inter, soc, split_seed=spec.split_seed)


def make_run_dir(spec, task):
    """A new directory for one run; an existing one is refused."""
    name = spec.run_name or f"{time.strftime('%Y%m%d-%H%M%S')}-{spec.config.seed}"
    path = os.path.join(spec.out_dir, task, name)
    if os.path.exists(path):
        raise ValueError(f"run directory {path} already exists")
    os.makedirs(path)
    return path


def _write_report(spec, ds, ms, cfg, run_dir):
    """Evaluate encoded model `ms` as `cfg` scores on the spec's split, per
    degree stratum too, and write report.dat and report.txt in `run_dir`."""
    strata = stratify_by_degree(ds, DEFAULT_STRATA)
    report = evaluate_stratified(
        ms, ds, strata, split=spec.split, num_negatives=cfg.negatives,
        cutoffs=cfg.cutoffs, seed=spec.eval_seed, social_fusion=cfg.social_fusion,
        metadata={"variant": cfg.variant, "seed": cfg.seed, "split": spec.split},
    )
    os.makedirs(run_dir, exist_ok=True)
    write_lines(os.path.join(run_dir, "report.dat"), report.to_lines())
    write_lines(os.path.join(run_dir, "report.txt"), [report.to_table()])
    return report


def _train_and_report(spec, ds, cfg, run_dir):
    """Shared train-evaluate-persist cell used by every task."""
    result = train_model(ds, cfg, eval_seed=spec.eval_seed)
    report = _write_report(spec, ds, result.model, cfg, run_dir)
    write_lines(os.path.join(run_dir, "config"), cfg.lines())
    write_lines(os.path.join(run_dir, "history.txt"), result.history_lines())
    write_lines(os.path.join(run_dir, "timing.txt"), result.timing_lines())
    save_checkpoint(result.model, os.path.join(run_dir, "checkpoint"), cfg.lines())
    if result.aborted:
        write_lines(os.path.join(run_dir, "ABORTED"),
                    ["training diverged; checkpoint holds last good parameters",
                     f"at {result.aborted}"])
    return result, report


def _metric_rows(tag, report):
    """The `hr` and `ndcg` rows of one cell of a task table, per cutoff."""
    return [f"{tag} {metric} {n} {getattr(report, metric)[n]:.12g}"
            for n in report.cutoffs for metric in ("hr", "ndcg")]


def _cell_dirs(cells, name):
    """The directory `name(cell)` of each cell of a task; cells that would
    share a directory are refused."""
    names = [name(cell) for cell in cells]
    for k, dup in enumerate(names):
        if dup in names[:k]:
            raise ValueError(f"cells {cells[names.index(dup)]!r} and {cells[k]!r} "
                             f"share the directory {dup!r}")
    return names


def run_train(spec):
    """Train once, evaluate on the requested split, persist artifacts."""
    ds = load_spec_dataset(spec)
    run_dir = make_run_dir(spec, "train")
    result, report = _train_and_report(spec, ds, spec.config, run_dir)
    log.info("train run complete: %s", run_dir)
    return result, report, run_dir


def _load_and_encode_checkpoint(checkpoint, spec, ds):
    """The checkpoint's model, encoded with its trained layers and agg, and
    its trained config with the spec's negatives and cutoffs. A checkpoint
    trained on a dataset of other sizes is refused by name."""
    if not checkpoint:
        raise ValueError(f"checkpoint: expected a directory, got {checkpoint!r}")
    num_users, num_items, trained = checkpoint_config(checkpoint)
    if (num_users, num_items) != (ds.num_users, ds.num_items):
        raise ValueError(f"checkpoint {checkpoint} was trained on {num_users} users x "
                         f"{num_items} items, the dataset has "
                         f"{ds.num_users} x {ds.num_items}")
    ms = load_checkpoint(checkpoint)
    cfg = trained.with_overrides(negatives=spec.config.negatives,
                                 cutoffs=spec.config.cutoffs)
    encode(ms, build_interaction_laplacian(ds), build_social_laplacian(ds),
           cfg.layers, cfg.agg)
    return ms, cfg


def run_eval(spec, checkpoint):
    """Evaluate an existing checkpoint on a dataset split; the report is
    the one its run wrote for the same split, eval seed, negatives and
    cutoffs."""
    ds = load_spec_dataset(spec)
    ms, cfg = _load_and_encode_checkpoint(checkpoint, spec, ds)
    run_dir = make_run_dir(spec, "eval")
    return _write_report(spec, ds, ms, cfg, run_dir), run_dir


def run_ablation(spec):
    """Train every variant on shared seeds/splits; failures stay isolated."""
    ds = load_spec_dataset(spec)
    run_dir = make_run_dir(spec, "ablation")
    lines, table = ["# variant metric cutoff value"], {}
    for variant in VARIANTS:
        cfg = spec.config.with_overrides(variant=variant)
        try:
            _, report = _train_and_report(spec, ds, cfg, os.path.join(run_dir, variant))
        except Exception:  # per-variant isolation
            log.exception("variant %s failed", variant)
            lines.append(f"{variant} error - -")
            report = None
        else:
            lines += _metric_rows(variant, report)
        table[variant] = report
    write_lines(os.path.join(run_dir, "ablation.dat"), lines)
    return table, run_dir


def run_robustness(spec, ratios=DEFAULT_NOISE_RATIOS):
    """Retrain per noise ratio; report metrics and relative degradation."""
    cell_dirs = _cell_dirs(ratios, lambda ratio: f"ratio_{ratio:g}")
    ds = load_spec_dataset(spec)
    noisy = {ratio: inject_noise(ds, ratio, NOISE_SEED) for ratio in ratios}
    run_dir = make_run_dir(spec, "robustness")
    reports = {}
    for ratio, cell_dir in zip(ratios, cell_dirs):
        _, reports[ratio] = _train_and_report(spec, noisy[ratio], spec.config,
                                              os.path.join(run_dir, cell_dir))

    base = reports.get(0.0) or reports[min(reports)]
    lines = ["# ratio metric cutoff value degradation"]
    for ratio in ratios:
        rep = reports[ratio]
        for n in rep.cutoffs:
            for metric, cur, ref in (("hr", rep.hr[n], base.hr[n]),
                                     ("ndcg", rep.ndcg[n], base.ndcg[n])):
                degr = 0.0 if ref == 0 else (ref - cur) / ref
                lines.append(f"{ratio:g} {metric} {n} {cur:.12g} {degr:.12g}")
    write_lines(os.path.join(run_dir, "robustness.dat"), lines)
    return reports, run_dir


def run_sweep(spec, axes):
    """Cartesian grid over TrainConfig axes; emits axis/value/metric rows."""
    axes = {k: list(v) for k, v in sorted(axes.items()) if v}
    if not axes:
        raise ValueError("sweep needs non-empty grid axes")
    grid = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
    configs = [spec.config.with_overrides(**overrides) for overrides in grid]
    cell_dirs = _cell_dirs(grid, lambda overrides: "_".join(
        f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in overrides.items()))
    ds = load_spec_dataset(spec)
    run_dir = make_run_dir(spec, "sweep")
    lines, cells = ["# axes metric cutoff value"], []
    for overrides, cfg, cell_dir in zip(grid, configs, cell_dirs):
        _, report = _train_and_report(spec, ds, cfg, os.path.join(run_dir, cell_dir))
        cells.append((overrides, report))
        lines += _metric_rows(",".join(f"{k}={v}" for k, v in overrides.items()), report)
    write_lines(os.path.join(run_dir, "sweep.dat"), lines)
    return cells, run_dir


def _tie_sample(sample):
    """The case-study `sample`: "all", or a count of ties as an int >= 0."""
    if sample == "all":
        return sample
    try:
        count = int(str(sample))
    except ValueError:
        count = -1
    if count < 0:
        raise ValueError(f"sample: cannot read {sample!r} as 'all' or an integer >= 0")
    return count


def run_case_study(spec, checkpoint=None, sample="all"):
    """Export learned pair-relevance weights for social ties."""
    sample = _tie_sample(sample)
    ds = load_spec_dataset(spec)
    if checkpoint is not None:
        ms, _ = _load_and_encode_checkpoint(checkpoint, spec, ds)
    run_dir = make_run_dir(spec, "case_study")
    if checkpoint is None:
        ms = train_model(ds, spec.config, eval_seed=spec.eval_seed).model
        save_checkpoint(ms, os.path.join(run_dir, "checkpoint"), spec.config.lines())
    export = export_relevance_weights(ms, ds, sample=sample, seed=spec.eval_seed)
    write_lines(os.path.join(run_dir, "relevance_weights.txt"), export.to_lines())
    return export, run_dir
