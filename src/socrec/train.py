"""Full-batch-graph training loop with early stopping on validation HR@10."""

import logging
import math
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
    timing: list = field(default_factory=list)    # per-epoch wall seconds
    best_epoch: int = -1
    best_val_hr: float = float("nan")
    epochs_run: int = 0
    aborted: str = ""  # "epoch <n>: <non-finite loss component>", or ""

    # history.txt's columns: rec to total are epoch means of `joint_loss`'s
    # parts and total, and `val` is the validation HR@10
    COLUMNS = ("epoch", "lr", "rec", "social", "align", "reg", "total", "val")

    def history_lines(self):
        head = [f"val_hr{EARLY_STOP_CUTOFF}" if key == "val" else key
                for key in self.COLUMNS]
        out = [" ".join(["#", *head])]
        for row in self.history:
            out.append(" ".join(format(row[key], ".10g") for key in self.COLUMNS))
        return out


def train_model(ds, cfg, eval_seed=0, progress=None):
    """Train a model on a dataset under a TrainConfig.

    Each epoch runs ceil(|train| / batch) steps; the learning rate decays
    per epoch. Validation HR@10 drives early stopping (patience from the
    config) and the best-validation parameters are restored at the end.
    On a non-finite loss the run aborts and keeps the last good snapshot.
    """
    g_r = build_interaction_laplacian(ds)
    g_s = build_social_laplacian(ds)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=cfg.seed)
    encode(ms, g_r, g_s, cfg.layers, cfg.agg)
    opt = AdamState.for_model(ms)
    rng = np.random.default_rng(cfg.seed)

    l1, _ = cfg.effective_weights()
    need_social = l1 > 0 and len(ds.social_edges) > 0
    steps = max(1, math.ceil(len(ds.train_edges) / cfg.batch))
    has_val = len(ds.val_edges) > 0

    result = TrainResult(model=ms)
    best_params = ms.copy_params()
    best_val = -np.inf
    bad_epochs = 0
    t_step = 0
    grads = None  # one gradient block, rewritten every step

    for epoch in range(cfg.epochs):
        lr_t = cfg.lr * cfg.lr_decay ** epoch
        sums = dict.fromkeys(TrainResult.COLUMNS[2:-1], 0.0)  # rec to total
        tic = time.perf_counter()
        try:
            for _ in range(steps):
                batch = sample_batch(ds, cfg.batch, rng, need_social=need_social)
                encode(ms, g_r, g_s, cfg.layers, cfg.agg)
                grads = compute_gradients(batch, ms, cfg, out=grads)
                total, parts = joint_loss(batch, ms, cfg, grads)
                t_step += 1
                adam_step(ms, grads, opt, t_step, lr_t)
                for key, value in {**parts, "total": total}.items():
                    sums[key] += value
        except NonFiniteLossError as err:
            result.aborted = f"epoch {epoch}: {err}"
            log.error("aborted at %s", result.aborted)
            break

        encode(ms, g_r, g_s, cfg.layers, cfg.agg)
        val_hr = float("nan")
        if has_val:
            rep = evaluate(ms, ds, split="val", num_negatives=cfg.negatives,
                           cutoffs=(EARLY_STOP_CUTOFF,), seed=eval_seed,
                           social_fusion=cfg.social_fusion)
            val_hr = rep.hr[EARLY_STOP_CUTOFF]

        result.timing.append(time.perf_counter() - tic)
        means = [value / steps for value in sums.values()]
        result.history.append(dict(zip(TrainResult.COLUMNS,
                                       [epoch, lr_t, *means, val_hr])))
        result.epochs_run = epoch + 1
        if progress:
            progress(result.history[-1])

        if not has_val or val_hr > best_val:  # without validation, keep the last
            best_val = val_hr
            best_params = ms.copy_params()
            result.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                log.info("early stop at epoch %d (best %d)", epoch, result.best_epoch)
                break

    ms.set_params(best_params)
    encode(ms, g_r, g_s, cfg.layers, cfg.agg)
    ms.buffers.clear()  # drops the work arrays; ms.agg_r and ms.agg_s keep theirs
    result.best_val_hr = best_val if has_val else float("nan")
    return result
