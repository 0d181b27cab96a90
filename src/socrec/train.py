"""Full-batch-graph training loop with early stopping on validation HR@10."""

import logging
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .eval import evaluate
from .graph import build_interaction_laplacian, build_social_laplacian
from .model import encode, init_model
from .objective import (AdamState, NonFiniteLossError, adam_step,
                        compute_gradients, joint_loss, sample_batch)

log = logging.getLogger(__name__)

EARLY_STOP_CUTOFF = 10


@dataclass
class TrainResult:
    model: object
    history: list = field(default_factory=list)   # per-epoch rows, keyed by COLUMNS
    timing: list = field(default_factory=list)    # per-epoch rows, keyed by TIMING
    best_epoch: int = -1
    best_val_hr: float = float("nan")
    epochs_run: int = 0
    aborted: str = ""  # "epoch <n>: <non-finite loss component>", or ""

    # history.txt's columns: rec to total are epoch means of `joint_loss`'s
    # parts and total, and `val` is the validation HR@10
    COLUMNS = ("epoch", "lr", "rec", "social", "align", "reg", "total", "val")

    # timing.txt's columns: wall seconds per epoch in sampling, gradients
    # (with the loss), Adam, encoding and validation, the epoch's total,
    # and the process's peak resident memory so far
    TIMING = ("epoch", "sample", "grad", "adam", "encode", "eval", "total", "maxrss_mb")

    def timing_lines(self):
        out = [" ".join(["#", *self.TIMING])]
        for row in self.timing:
            out.append(" ".join([str(row["epoch"]),
                                 *(f"{row[key]:.6f}" for key in self.TIMING[1:-1]),
                                 f"{row['maxrss_mb']:.1f}"]))
        return out

    def history_lines(self):
        head = [f"val_hr{EARLY_STOP_CUTOFF}" if key == "val" else key
                for key in self.COLUMNS]
        out = [" ".join(["#", *head])]
        for row in self.history:
            out.append(" ".join(format(row[key], ".10g") for key in self.COLUMNS))
        return out


def train_model(ds, cfg, eval_seed=0):
    """Train a model on a dataset under a TrainConfig.

    Each epoch runs ceil(|train| / batch) steps; the learning rate decays
    per epoch. Validation HR@10 drives early stopping (patience from the
    config); the best-validation parameters are kept, or on a non-finite
    loss the last good snapshot. Each parameter version is encoded once:
    the model always holds the aggregations of its current parameters.
    """
    g_r = build_interaction_laplacian(ds)
    g_s = build_social_laplacian(ds)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=cfg.seed)
    encode(ms, g_r, g_s, cfg.layers, cfg.agg)
    opt = AdamState.for_model(ms)
    rng = np.random.default_rng(cfg.seed)

    steps = max(1, math.ceil(len(ds.train_edges) / cfg.batch))
    has_val = len(ds.val_edges) > 0

    result = TrainResult(model=ms)
    best_params = ms.copy_params()  # the one snapshot, rewritten in place
    best_val = -np.inf
    bad_epochs = 0
    grads = None  # one gradient block, rewritten every step

    for epoch in range(cfg.epochs):
        lr_t = cfg.lr * cfg.lr_decay ** epoch
        sums = dict.fromkeys(TrainResult.COLUMNS[2:-1], 0.0)  # rec to total
        clock = dict.fromkeys(TrainResult.TIMING[1:5], 0.0)  # sample to encode
        tic = time.perf_counter()
        try:
            for step in range(epoch * steps + 1, (epoch + 1) * steps + 1):
                t0 = time.perf_counter()
                batch = sample_batch(ds, cfg, rng)
                t1 = time.perf_counter()
                grads = compute_gradients(batch, ms, cfg, out=grads)
                total, parts = joint_loss(batch, ms, cfg, grads)
                t2 = time.perf_counter()
                adam_step(ms, grads, opt, step, lr_t)
                t3 = time.perf_counter()
                encode(ms, g_r, g_s, cfg.layers, cfg.agg)
                t4 = time.perf_counter()
                for key, lap in zip(clock, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                    clock[key] += lap
                for key, value in {**parts, "total": total}.items():
                    sums[key] += value
        except NonFiniteLossError as err:
            result.aborted = f"epoch {epoch}: {err}"
            log.error("aborted at %s", result.aborted)
            break

        val_hr = float("nan")
        t0 = time.perf_counter()
        if has_val:
            rep = evaluate(ms, ds, split="val", num_negatives=cfg.negatives,
                           cutoffs=(EARLY_STOP_CUTOFF,), seed=eval_seed,
                           social_fusion=cfg.social_fusion)
            val_hr = rep.hr[EARLY_STOP_CUTOFF]
        toc = time.perf_counter()

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        result.timing.append({"epoch": epoch, **clock, "eval": toc - t0,
                              "total": toc - tic, "maxrss_mb": rss})
        means = [value / steps for value in sums.values()]
        result.history.append(dict(zip(TrainResult.COLUMNS,
                                       [epoch, lr_t, *means, val_hr])))
        result.epochs_run = epoch + 1

        if not has_val or val_hr > best_val:  # without validation, keep the last
            result.best_val_hr = best_val = val_hr  # nan without validation
            ms.copy_params(out=best_params)
            result.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                log.info("early stop at epoch %d (best %d)", epoch, result.best_epoch)
                break

    if result.aborted or result.best_epoch != result.epochs_run - 1:
        ms.set_params(best_params)
        encode(ms, g_r, g_s, cfg.layers, cfg.agg)
    ms.buffers.clear()  # drops the work arrays; ms.agg_r and ms.agg_s keep theirs
    return result
