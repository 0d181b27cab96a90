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
    history: list = field(default_factory=list)   # per-epoch loss rows
    timing: list = field(default_factory=list)    # per-epoch wall seconds
    best_epoch: int = -1
    best_val_hr: float = float("nan")
    epochs_run: int = 0
    aborted: str = ""  # "epoch <n>: <non-finite loss component>", or ""

    def history_lines(self):
        out = ["# epoch lr rec social align reg total val_hr10"]
        for row in self.history:
            out.append("{epoch} {lr:.10g} {rec:.10g} {social:.10g} "
                       "{align:.10g} {reg:.10g} {total:.10g} {val:.10g}".format(**row))
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
        sums = {"rec": 0.0, "social": 0.0, "align": 0.0, "reg": 0.0, "total": 0.0}
        tic = time.perf_counter()
        try:
            for _ in range(steps):
                batch = sample_batch(ds, cfg.batch, rng, need_social=need_social)
                encode(ms, g_r, g_s, cfg.layers, cfg.agg)
                grads = compute_gradients(batch, ms, cfg, out=grads)
                total, parts = joint_loss(batch, ms, cfg, grads)
                t_step += 1
                adam_step(ms, grads, opt, t_step, lr_t)
                for k in parts:
                    sums[k] += parts[k]
                sums["total"] += total
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
        result.history.append({
            "epoch": epoch, "lr": lr_t,
            "rec": sums["rec"] / steps, "social": sums["social"] / steps,
            "align": sums["align"] / steps, "reg": sums["reg"] / steps,
            "total": sums["total"] / steps, "val": val_hr,
        })
        result.epochs_run = epoch + 1
        if progress:
            progress(result.history[-1])

        if has_val:
            if val_hr > best_val:
                best_val = val_hr
                best_params = ms.copy_params()
                result.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > cfg.patience:
                    log.info("early stop at epoch %d (best %d)", epoch,
                             result.best_epoch)
                    break
        else:
            best_params = ms.copy_params()
            result.best_epoch = epoch

    ms.set_params(best_params)
    encode(ms, g_r, g_s, cfg.layers, cfg.agg)
    result.best_val_hr = best_val if has_val else float("nan")
    result.model = ms
    return result
