"""Verification suites: gradient checks, dense-reference equivalence, metric
oracle. Shared between the `check` subcommand and the acceptance tests."""

import math

import numpy as np

from .config import LEAKY_SLOPE
from .eval import _summary, held_out_rank
from .graph import build_interaction_laplacian, build_social_laplacian
from .model import ModelState, ParamBlock, encode, init_model, pair_rows, projection_forward
from .objective import (VARIANTS, Batch, TrainConfig, compute_gradients, joint_loss,
                        sample_batch)
from .oracle import dense_forward, finite_difference
from .synthetic import random_dataset


def make_tiny_instance(seed, variant="full", layers=1, num_users=6, num_items=6,
                       dim=3, batch=8):
    """Small dataset + encoded model + kink-free batch for gradient probing.

    Alignment pairs whose product sits within 1e-3 of the hinge margin, or
    whose projection pre-activation has a coordinate within 1e-4 of the
    LeakyReLU kink, are dropped so central differences stay valid.
    """
    rng = np.random.default_rng(seed)
    ds = random_dataset(num_users, num_items, min_items=2, max_items=4,
                        tie_prob=0.4, seed=seed)
    cfg = TrainConfig(dim=dim, layers=layers, batch=batch, lambda1=0.3,
                      lambda2=0.5, lambda3=1e-3, variant=variant, seed=seed,
                      infonce_tau=0.5)
    ms = init_model(ds.num_users, ds.num_items, dim, seed=seed + 1)
    g_r = build_interaction_laplacian(ds)
    g_s = build_social_laplacian(ds)
    encode(ms, g_r, g_s, layers, cfg.agg)
    l1, _ = cfg.effective_weights()
    batch_t = sample_batch(ds, batch, rng,
                           need_social=l1 > 0 and len(ds.social_edges) > 0)

    if variant == "full" and len(batch_t.ssl_pairs):
        i, j = batch_t.ssl_pairs.T
        z, (h, positive) = projection_forward(ms.params, pair_rows(ms.agg_r, i, j))
        pre = h / np.where(positive, 1.0, LEAKY_SLOPE)  # |pre| to rounding
        zhat = (ms.agg_s[i] * ms.agg_s[j]).sum(axis=1)
        keep = (np.abs(z * zhat - 1.0) > 1e-3) & (np.abs(pre).min(axis=1) > 1e-4)
        batch_t = Batch(rec_triples=batch_t.rec_triples,
                        soc_triples=batch_t.soc_triples,
                        ssl_pairs=batch_t.ssl_pairs[keep])
    return ds, cfg, ms, batch_t, (g_r, g_s)


def instance_loss_fn(cfg, batch, graphs):
    g_r, g_s = graphs

    def loss_fn(params):
        ms = ModelState(ParamBlock.from_arrays(params))
        encode(ms, g_r, g_s, cfg.layers, cfg.agg)
        total, _ = joint_loss(batch, ms, cfg)
        return total

    return loss_fn


def gradient_relative_error(analytic, numeric):
    """Worst elementwise |a - n| / max(1, |a|, |n|) across tensors."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def gradient_check(num_instances=20, seed=0, step=1e-6, tol=1e-5):
    """Analytic vs central-difference gradients on random tiny instances.

    Cycles through all variants and layer counts 0..2. Returns
    (all_ok, worst_error, per-instance rows).
    """
    rows = []
    worst = 0.0
    for k in range(num_instances):
        variant = VARIANTS[k % len(VARIANTS)]
        layers = k % 3
        ds, cfg, ms, batch, graphs = make_tiny_instance(seed + 17 * k, variant,
                                                        layers)
        grads = compute_gradients(batch, ms, cfg)
        params = ms.copy_params()
        numeric = finite_difference(instance_loss_fn(cfg, batch, graphs),
                                    params, step=step)
        err = gradient_relative_error(grads.as_dict(), numeric)
        worst = max(worst, err)
        rows.append((variant, layers, err))
    return worst <= tol, worst, rows


def forward_equivalence_check(num_graphs=100, max_nodes=64, seed=0, tol=1e-10):
    """Sparse dual-view forward vs the dense reference on random graphs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(num_graphs):
        num_users = int(rng.integers(2, max_nodes // 2))
        num_items = int(rng.integers(2, max_nodes - num_users))
        layers = int(rng.integers(0, 4))
        agg = "sum" if rng.random() < 0.5 else "mean"
        ds = random_dataset(num_users, num_items, min_items=1, max_items=3,
                            tie_prob=0.3, seed=seed + 101 * k)
        ms = init_model(ds.num_users, ds.num_items, 4, seed=seed + k)
        encode(ms, build_interaction_laplacian(ds), build_social_laplacian(ds),
               layers, agg)
        ref_r, ref_s = dense_forward(ds, ms.E_u, ms.E_v, layers, agg)
        worst = max(worst, float(np.abs(ms.agg_r - ref_r).max()),
                    float(np.abs(ms.agg_s - ref_s).max()))
    return worst <= tol, worst


def reference_rank(scores, cand):
    """Full-sort oracle: position of cand[0] under (-score, index) order,
    a NaN score sorting as -inf."""
    key = [math.inf if math.isnan(s) else -s for s in scores]
    order = sorted(range(len(cand)), key=lambda k: (key[k], cand[k]))
    return order.index(0)


def metric_oracle_check(num_vectors=1000, num_candidates=100, seed=0,
                        cutoffs=(5, 10, 20)):
    """Production counting rank, over all vectors at once, and its
    tallies vs full-sort brute force."""
    rng = np.random.default_rng(seed)
    cands, scores = [], []
    for _ in range(num_vectors):
        cands.append(rng.choice(10 * num_candidates, size=num_candidates, replace=False))
        scores.append(np.round(rng.normal(size=num_candidates), 2))  # force some ties
    prod_ranks = held_out_rank(np.array(scores), np.array(cands))
    ref_ranks = [reference_rank(s, c) for s, c in zip(scores, cands)]
    mismatches = int((prod_ranks != ref_ranks).sum())

    prod = _summary(prod_ranks, cutoffs)
    ref_hits = {n: sum(1 for r in ref_ranks if r < n) for n in cutoffs}
    ref_ndcg = {n: sum(1.0 / math.log2(r + 2) for r in ref_ranks if r < n)
                for n in cutoffs}
    metrics_equal = all(prod["hits"][n] == ref_hits[n]
                        and abs(prod["ndcg_sums"][n] - ref_ndcg[n]) == 0.0
                        for n in cutoffs)
    return mismatches == 0 and metrics_equal, mismatches


def run_all(verbose=True):
    """All quick suites; returns list of (name, passed, detail)."""
    results = []
    ok, worst, _ = gradient_check(num_instances=12)
    results.append(("gradient-check", ok, f"worst rel err {worst:.3e}"))
    ok, worst = forward_equivalence_check(num_graphs=30)
    results.append(("dense-equivalence", ok, f"worst abs err {worst:.3e}"))
    ok, mism = metric_oracle_check(num_vectors=300)
    results.append(("metric-oracle", ok, f"{mism} rank mismatches"))
    if verbose:
        for name, passed, detail in results:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return results
