"""Bit-for-bit equivalence of the blocked, in-place kernels, the per-user
set builder, the bulk-drawn BPR triples, the bulk-drawn evaluation
candidates and the one-pass loss and gradient step with the plain code
they replace.

Sizes are chosen above the chunk size of the elementwise passes, so on a
machine with two or more CPUs the multi-worker paths run too.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from socrec import graph, objective
from socrec.data import InteractionTable, SocialTable, build_dataset, inject_noise
from socrec.eval import _sample_negatives, _user_ranks, held_out_rank
from socrec.graph import (CHUNK, NormalizedGraph, build_interaction_laplacian,
                          build_social_laplacian, propagate, row_blocks)
from socrec.model import (LEAKY_SLOPE, ParamBlock, _leaky_relu, aggregate_backward,
                          encode, init_model, user_vectors)
from socrec.objective import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, Batch,
                              GradientSet, TrainConfig, _alignment_hinge,
                              _infonce_grads, adam_step, compute_gradients,
                              joint_loss, sample_batch)
from socrec.synthetic import random_dataset

from conftest import make_encoded


@pytest.fixture(scope="module")
def ds():
    # many more items than users draw: lots of zero-degree item rows
    return random_dataset(300, 900, min_items=2, max_items=5, tie_prob=0.01,
                          seed=4)


def _blocked(g):
    """The same matrix split into 1, 2 and 3 balanced blocks, and skewed:
    one row against the rest, an empty block and a two-row block."""
    n = g.num_nodes
    layouts = [row_blocks(g.matrix.indptr, count) for count in (1, 2, 3)]
    layouts += [(0, 1, n), (0, n - 1, n), (0, 0, 5, n - 2, n)]
    return [NormalizedGraph(g.matrix, g.view, _blocks=b) for b in layouts]


class TestPropagateBlocks:
    @pytest.mark.parametrize("view", ["interaction", "social"])
    def test_any_blocks_equal_unsplit_product(self, ds, view):
        g = (build_interaction_laplacian if view == "interaction"
             else build_social_laplacian)(ds)
        assert np.diff(g.matrix.indptr).min() == 0  # zero-degree rows present
        E = np.random.default_rng(0).normal(size=(g.num_nodes, 80))
        want = g.matrix @ E + E
        for gb in [g] + _blocked(g):
            np.testing.assert_array_equal(propagate(gb, E), want)
            out = np.full_like(E, np.nan)
            assert propagate(gb, E, out=out) is out
            np.testing.assert_array_equal(out, want)

    def test_empty_graph(self):
        ds = replace(random_dataset(30, 40, tie_prob=0.0, seed=1),
                     social_edges=np.zeros((0, 2), dtype=np.int64))
        g = build_social_laplacian(ds)
        E = np.random.default_rng(1).normal(size=(g.num_nodes, 5))
        for gb in [g] + _blocked(g):
            np.testing.assert_array_equal(propagate(gb, E), g.matrix @ E + E)

    def test_balanced_blocks_cover_all_rows(self, ds):
        g = build_interaction_laplacian(ds)
        for count in (1, 2, 3, 7):
            blocks = row_blocks(g.matrix.indptr, count)
            assert blocks[0] == 0 and blocks[-1] == g.num_nodes
            assert list(blocks) == sorted(set(blocks))

    def test_concurrent_callers_share_one_pool(self, ds, monkeypatch):
        g = build_interaction_laplacian(ds)
        g3 = NormalizedGraph(g.matrix, g.view, _blocks=row_blocks(g.matrix.indptr, 3))
        inputs = [np.random.default_rng(k).normal(size=(g.num_nodes, 96)) for k in range(6)]
        got = [None] * len(inputs)

        def work(k):
            for _ in range(3):
                got[k] = propagate(g3, inputs[k])

        monkeypatch.setattr(graph, "_pool", None)  # threads race to create it
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        for E, out in zip(inputs, got):
            np.testing.assert_array_equal(out, g.matrix @ E + E)

    def test_overlapping_out_rejected(self, ds):
        g = build_social_laplacian(ds)
        E = np.ones((g.num_nodes, 3))
        with pytest.raises(ValueError):
            propagate(g, E, out=E)


def seed_encode(E_u, E_v, g_r, g_s, L, agg):
    """The original encoder: stacked copies summed with np.sum."""
    layers_r = [np.vstack([E_u, E_v])]
    layers_s = [E_u.copy()]
    for _ in range(L):
        layers_r.append(g_r.matrix @ layers_r[-1] + layers_r[-1])
        layers_s.append(g_s.matrix @ layers_s[-1] + layers_s[-1])
    agg_r = np.sum(layers_r, axis=0)
    agg_s = np.sum(layers_s, axis=0)
    if agg == "mean":
        agg_r /= L + 1
        agg_s /= L + 1
    return agg_r, agg_s


def seed_backward(g, grad, L, agg):
    total = grad.copy()
    cur = grad
    for _ in range(L):
        cur = g.matrix @ cur + cur
        total += cur
    if agg == "mean":
        total /= L + 1
    return total


@pytest.mark.parametrize("agg", ["sum", "mean"])
@pytest.mark.parametrize("L", [0, 1, 3])
def test_encode_matches_stacked_sum(ds, L, agg):
    ms = init_model(ds.num_users, ds.num_items, 96, seed=2)
    assert ms.E.size > 2 * CHUNK
    g_r, g_s = build_interaction_laplacian(ds), build_social_laplacian(ds)
    want_r, want_s = seed_encode(ms.E_u, ms.E_v, g_r, g_s, L, agg)
    for _ in range(2):  # the second pass reuses the buffers
        encode(ms, g_r, g_s, L, agg)
        np.testing.assert_array_equal(ms.agg_r, want_r)
        np.testing.assert_array_equal(ms.agg_s, want_s)


@pytest.mark.parametrize("agg", ["sum", "mean"])
def test_aggregate_backward_matches_seed(ds, agg):
    g = build_interaction_laplacian(ds)
    grad = np.random.default_rng(3).normal(size=(g.num_nodes, 96))
    want = seed_backward(g, grad, 3, agg)
    got = grad.copy()
    assert aggregate_backward(g, got, 3, agg) is got
    np.testing.assert_array_equal(got, want)


def _bits(a):
    """The raw bits of a float array (tells -0.0 from +0.0 and NaNs apart)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_row_sum_matches_add_at_per_term():
    rng = np.random.default_rng(5)
    terms = []
    for count in (300, 0, 40, 120):
        rows = np.concatenate([rng.integers(0, 50, count), np.full(count // 4, 7)])
        rng.shuffle(rows)
        values = rng.normal(size=(len(rows), 6))
        values[rng.random(values.shape) < 0.1] = -0.0
        terms.append((rows, values))
    terms.append((np.full(5, 55), np.full((5, 6), -0.0)))  # a row of -0.0 alone
    want = np.zeros((60, 6))
    for rows, values in terms:
        np.add.at(want, rows, values)
    got = objective._row_sum(np.zeros((60, 6)), terms)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert not np.signbit(got[55]).any()  # a sum from +0.0 is never -0.0
    for bad in (60, -1):
        with pytest.raises(IndexError):
            objective._row_sum(np.zeros((60, 6)), [(np.array([3, bad]), np.ones((2, 6)))])


@settings(max_examples=200, deadline=None)
@example(values=[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                 2.2250738585072009e-308, -1e-310, 1.0, -1.0])
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True), min_size=1, max_size=40))
def test_leaky_relu_matches_where_form(values):
    pre = np.array(values, dtype=np.float64)
    h, slope = _leaky_relu(pre)
    np.testing.assert_array_equal(_bits(h), _bits(np.where(pre > 0, pre, LEAKY_SLOPE * pre)))
    np.testing.assert_array_equal(_bits(slope), _bits(np.where(pre > 0, 1.0, LEAKY_SLOPE)))


# The loss and gradient code before each term ran once per step, frozen as
# the oracle for the one-pass step.

def frozen_projection_forward(params, e_i, e_j):
    e_i = np.atleast_2d(e_i)
    e_j = np.atleast_2d(e_j)
    x = np.concatenate([e_i, e_j], axis=1)
    pre = x @ params.T.T + e_i + e_j + params.c
    h = np.where(pre > 0, pre, LEAKY_SLOPE * pre)
    act = h @ params.w
    z = 1.0 / (1.0 + np.exp(-act))
    return z, (x, pre, h)


def frozen_alignment_hinge(params, a_i, a_j, b_i, b_j):
    z, (x, pre, h) = frozen_projection_forward(params, a_i, a_j)
    zhat = (b_i * b_j).sum(axis=1)
    margin = 1.0 - z * zhat
    active = margin > 0
    loss = float(margin[active].sum())
    d = a_i.shape[1] if a_i.ndim == 2 else a_i.shape[0]
    da_i = np.zeros_like(np.atleast_2d(a_i))
    da_j = np.zeros_like(da_i)
    db_i = np.zeros_like(np.atleast_2d(b_i))
    db_j = np.zeros_like(db_i)
    dT = np.zeros_like(params.T)
    dw = np.zeros_like(params.w)
    dc = np.zeros_like(params.c)
    if active.any():
        za, zha = z[active], zhat[active]
        db_i[active] = -za[:, None] * np.atleast_2d(b_j)[active]
        db_j[active] = -za[:, None] * np.atleast_2d(b_i)[active]
        dact = -zha * za * (1.0 - za)
        ha, prea, xa = h[active], pre[active], x[active]
        dw += ha.T @ dact
        dpre = dact[:, None] * params.w[None, :] * np.where(prea > 0, 1.0, LEAKY_SLOPE)
        dc += dpre.sum(axis=0)
        dT += dpre.T @ xa
        dx = dpre @ params.T
        da_i[active] = dx[:, :d] + dpre
        da_j[active] = dx[:, d:] + dpre
    return loss, da_i, da_j, db_i, db_j, dT, dw, dc


def frozen_scatter_add(target, rows, values):
    if len(rows) == 0:
        return
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    counts = np.diff(np.append(starts, len(rows)))
    for k in range(counts.max()):
        pick = order[starts[counts > k] + k]
        target[rows[pick]] += values[pick]


def frozen_check_finite(name, value):
    if not np.isfinite(value):
        raise objective.NonFiniteLossError(name, value)
    return value


def frozen_joint_loss(batch, ms, cfg):
    I = ms.num_users
    l1, l2 = cfg.effective_weights()
    rec = 0.0
    if len(batch.rec_triples):
        u, vp, vn = batch.rec_triples.T
        uvec = user_vectors(ms, u, cfg.social_fusion)
        pos = (uvec * ms.agg_r[I + vp]).sum(axis=1)
        neg = (uvec * ms.agg_r[I + vn]).sum(axis=1)
        rec = float(np.logaddexp(0.0, neg - pos).sum())
    social = 0.0
    if l1 > 0 and len(batch.soc_triples):
        i, ip, ineg = batch.soc_triples.T
        pos = (ms.agg_s[i] * ms.agg_s[ip]).sum(axis=1)
        neg = (ms.agg_s[i] * ms.agg_s[ineg]).sum(axis=1)
        social = float(np.logaddexp(0.0, neg - pos).sum())
    align = 0.0
    if l2 > 0 and len(batch.ssl_pairs):
        i, j = batch.ssl_pairs.T
        if cfg.variant == "contrastive":
            anchors = np.unique(i)
            align = _infonce_grads(ms.agg_r[anchors], ms.agg_s[anchors],
                                   cfg.infonce_tau)[0]
        else:
            z, _ = frozen_projection_forward(ms.proj, ms.agg_r[i], ms.agg_r[j])
            zhat = (ms.agg_s[i] * ms.agg_s[j]).sum(axis=1)
            align = float(np.maximum(0.0, 1.0 - z * zhat).sum())
    reg = float((ms.E_u ** 2).sum() + (ms.E_v ** 2).sum())
    parts = {"rec": frozen_check_finite("rec", rec),
             "social": frozen_check_finite("social", social),
             "align": frozen_check_finite("align", align),
             "reg": frozen_check_finite("reg", reg)}
    total = rec + l1 * social + l2 * align + cfg.lambda3 * reg
    return frozen_check_finite("total", total), parts


def frozen_compute_gradients(batch, ms, cfg):
    I = ms.num_users
    l1, l2 = cfg.effective_weights()
    grads = GradientSet(*ms.params.layout)
    grads.flat.fill(0.0)
    grad_agg_r = grads.E
    grad_agg_s = np.zeros(ms.agg_s.shape)
    if len(batch.rec_triples):
        u, vp, vn = batch.rec_triples.T
        uvec = user_vectors(ms, u, cfg.social_fusion)
        pv = ms.agg_r[I + vp]
        nv = ms.agg_r[I + vn]
        x = (uvec * (pv - nv)).sum(axis=1)
        coef = -expit(-x)
        du = coef[:, None] * (pv - nv)
        frozen_scatter_add(grad_agg_r, u, du)
        if cfg.social_fusion:
            frozen_scatter_add(grad_agg_s, u, du)
        frozen_scatter_add(grad_agg_r, I + vp, coef[:, None] * uvec)
        frozen_scatter_add(grad_agg_r, I + vn, -coef[:, None] * uvec)
    if l1 > 0 and len(batch.soc_triples):
        i, ip, ineg = batch.soc_triples.T
        bi, bp, bn = ms.agg_s[i], ms.agg_s[ip], ms.agg_s[ineg]
        x = (bi * (bp - bn)).sum(axis=1)
        coef = -l1 * expit(-x)
        frozen_scatter_add(grad_agg_s, i, coef[:, None] * (bp - bn))
        frozen_scatter_add(grad_agg_s, ip, coef[:, None] * bi)
        frozen_scatter_add(grad_agg_s, ineg, -coef[:, None] * bi)
    if l2 > 0 and len(batch.ssl_pairs):
        i, j = batch.ssl_pairs.T
        if cfg.variant == "contrastive":
            anchors = np.unique(i)
            _, dA, dB = _infonce_grads(ms.agg_r[anchors], ms.agg_s[anchors],
                                       cfg.infonce_tau)
            grad_agg_r[anchors] += l2 * dA
            grad_agg_s[anchors] += l2 * dB
        else:
            _, da_i, da_j, db_i, db_j, dT, dw, dc = frozen_alignment_hinge(
                ms.proj, ms.agg_r[i], ms.agg_r[j], ms.agg_s[i], ms.agg_s[j])
            frozen_scatter_add(grad_agg_r, i, l2 * da_i)
            frozen_scatter_add(grad_agg_r, j, l2 * da_j)
            frozen_scatter_add(grad_agg_s, i, l2 * db_i)
            frozen_scatter_add(grad_agg_s, j, l2 * db_j)
            grads.T[...] += l2 * dT
            grads.w[...] += l2 * dw
            grads.c[...] += l2 * dc
    g_r0 = aggregate_backward(ms.g_r, grad_agg_r, ms.num_layers, ms.agg)
    g_s0 = aggregate_backward(ms.g_s, grad_agg_s, ms.num_layers, ms.agg)
    g_r0[:I] += g_s0
    g_r0 += ms.E * (2.0 * cfg.lambda3)
    return grads


def _one_pass_case(ds, variant, L, agg, case):
    """A model, config and batch for one oracle case."""
    cfg = TrainConfig(dim=24, layers=L, batch=300, lambda1=0.3, lambda2=0.05,
                      lambda3=1e-3, variant=variant, agg=agg, infonce_tau=0.5)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=L + 11)
    encode(ms, build_interaction_laplacian(ds), build_social_laplacian(ds),
           cfg.layers, cfg.agg)
    l1, _ = cfg.effective_weights()
    batch = sample_batch(ds, cfg.batch, np.random.default_rng(L + 3), need_social=l1 > 0)
    if case == "repeated_rows":
        # few distinct rows, each used many times and in both pair slots
        batch = Batch(rec_triples=batch.rec_triples % [4, 3, 6],
                      soc_triples=batch.soc_triples % 5,
                      ssl_pairs=batch.ssl_pairs % 3)
    elif case == "no_active_hinge":
        ms.agg_s[:] = (np.abs(ms.agg_s) + 1.0) * 10.0  # every product clears the margin
    elif case == "no_social_triples":
        batch = replace(batch, soc_triples=np.zeros((0, 3), dtype=np.int64))
    return ms, cfg, batch


@pytest.mark.parametrize("case", ["sampled", "repeated_rows", "no_active_hinge",
                                  "no_social_triples"])
@pytest.mark.parametrize("agg", ["sum", "mean"])
@pytest.mark.parametrize("L", [0, 1, 2])
@pytest.mark.parametrize("variant", ["full", "no_align", "direct_social", "contrastive"])
def test_one_pass_matches_frozen_loss_and_gradients(ds, variant, L, agg, case):
    ms, cfg, batch = _one_pass_case(ds, variant, L, agg, case)
    if case == "no_active_hinge" and variant == "full":
        z, _ = frozen_projection_forward(ms.proj, *ms.agg_r[batch.ssl_pairs.T])
        assert (z * (ms.agg_s[batch.ssl_pairs.T[0]]
                     * ms.agg_s[batch.ssl_pairs.T[1]]).sum(axis=1) >= 1).all()
    want_total, want_parts = frozen_joint_loss(batch, ms, cfg)
    want = frozen_compute_gradients(batch, ms, cfg)
    total, parts = joint_loss(batch, ms, cfg)
    stale = GradientSet(*ms.params.layout)
    stale.flat[:] = np.nan
    for grads in (compute_gradients(batch, ms, cfg),
                  compute_gradients(batch, ms, cfg, out=stale)):
        np.testing.assert_array_equal(_bits(grads.flat), _bits(want.flat))
        assert joint_loss(batch, ms, cfg, grads) == (total, parts)
    assert total.hex() == want_total.hex()
    assert {k: v.hex() for k, v in parts.items()} == \
        {k: v.hex() for k, v in want_parts.items()}


def test_hinge_loss_runs_once_per_step(ds, monkeypatch):
    """The step's align loss is one `ssl_hinge_loss(z, zhat)` call over
    every pair, the call the benchmark counts active hinge pairs through."""
    ms, cfg, batch = _one_pass_case(ds, "full", 1, "sum", "sampled")
    calls = []
    real = objective.ssl_hinge_loss
    monkeypatch.setattr(objective, "ssl_hinge_loss",
                        lambda z, zhat: calls.append(len(z)) or real(z, zhat))
    grads = compute_gradients(batch, ms, cfg)
    joint_loss(batch, ms, cfg, grads)
    assert calls == [len(batch.ssl_pairs)]


def test_recorded_loss_belongs_to_its_batch(ds):
    ms, cfg, batch = _one_pass_case(ds, "full", 1, "sum", "sampled")
    grads = compute_gradients(batch, ms, cfg)
    with pytest.raises(ValueError, match="another batch"):
        joint_loss(replace(batch), ms, cfg, grads)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", ["full", "contrastive"])
def test_non_finite_loss_raised_where_frozen_loss_raises(ds, variant):
    for name in ("rec", "reg"):
        ms, cfg, batch = _one_pass_case(ds, variant, 1, "sum", "sampled")
        if name == "rec":
            ms.agg_r[batch.rec_triples[0, 0]] = np.inf
        else:
            ms.E_v[1] = np.inf  # the aggregations stay finite
        with pytest.raises(objective.NonFiniteLossError) as want:
            frozen_joint_loss(batch, ms, cfg)
        for run in (joint_loss, compute_gradients):
            with pytest.raises(objective.NonFiniteLossError) as got:
                run(batch, ms, cfg)
            assert got.value.component == want.value.component == name
            assert str(got.value) == str(want.value)


def seed_gradients(batch, ms, cfg):
    """The original gradient assembly for the variants using the hinge."""
    I = ms.num_users
    l1, l2 = cfg.effective_weights()
    gr = np.zeros_like(ms.agg_r)
    gs = np.zeros_like(ms.agg_s)
    u, vp, vn = batch.rec_triples.T
    uvec = ms.agg_r[u] + (ms.agg_s[u] if cfg.social_fusion else 0.0)
    pv, nv = ms.agg_r[I + vp], ms.agg_r[I + vn]
    coef = -expit(-(uvec * (pv - nv)).sum(axis=1))
    du = coef[:, None] * (pv - nv)
    np.add.at(gr, u, du)
    if cfg.social_fusion:
        np.add.at(gs, u, du)
    np.add.at(gr, I + vp, coef[:, None] * uvec)
    np.add.at(gr, I + vn, -coef[:, None] * uvec)
    if l1 > 0:
        i, ip, ineg = batch.soc_triples.T
        bi, bp, bn = ms.agg_s[i], ms.agg_s[ip], ms.agg_s[ineg]
        coef = -l1 * expit(-(bi * (bp - bn)).sum(axis=1))
        np.add.at(gs, i, coef[:, None] * (bp - bn))
        np.add.at(gs, ip, coef[:, None] * bi)
        np.add.at(gs, ineg, -coef[:, None] * bi)
    gT = np.zeros_like(ms.proj.T)
    if l2 > 0:
        i, j = batch.ssl_pairs.T
        _, da_i, da_j, db_i, db_j, dT, _, _ = _alignment_hinge(
            ms.proj, ms.agg_r[i], ms.agg_r[j], ms.agg_s[i], ms.agg_s[j])
        np.add.at(gr, i, l2 * da_i)
        np.add.at(gr, j, l2 * da_j)
        np.add.at(gs, i, l2 * db_i)
        np.add.at(gs, j, l2 * db_j)
        gT += l2 * dT
    g_r0 = seed_backward(ms.g_r, gr, ms.num_layers, ms.agg)
    g_s0 = seed_backward(ms.g_s, gs, ms.num_layers, ms.agg)
    gE_u = g_r0[:I] + g_s0 + 2.0 * cfg.lambda3 * ms.E_u
    gE_v = g_r0[I:] + 2.0 * cfg.lambda3 * ms.E_v
    return gE_u, gE_v, gT


@pytest.mark.parametrize("variant,agg", [("full", "sum"), ("direct_social", "mean")])
def test_gradients_match_seed_assembly(ds, variant, agg):
    cfg = TrainConfig(dim=96, layers=2, batch=256, lambda2=1e-2, lambda3=1e-3,
                      variant=variant, agg=agg)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=6)
    g_r, g_s = build_interaction_laplacian(ds), build_social_laplacian(ds)
    encode(ms, g_r, g_s, cfg.layers, cfg.agg)
    batch = sample_batch(ds, cfg.batch, np.random.default_rng(7),
                         need_social=not cfg.social_fusion)
    want = seed_gradients(batch, ms, cfg)
    stale = GradientSet(*ms.params.layout)
    stale.flat[:] = np.nan
    for grads in (compute_gradients(batch, ms, cfg),
                  compute_gradients(batch, ms, cfg, out=stale)):
        for got, ref in zip((grads.E_u, grads.E_v, grads.T), want):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("agg", ["sum", "mean"])
def test_shared_work_pair_aliases_nothing_live(ds, agg):
    """encode and compute_gradients share one work pair per view: two
    rounds on one model and one GradientSet match a fresh model's."""
    cfg = TrainConfig(dim=96, layers=3, batch=256, lambda2=1e-2, lambda3=1e-3,
                      agg=agg)
    g_r, g_s = build_interaction_laplacian(ds), build_social_laplacian(ds)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=6)
    grads, opt = GradientSet(*ms.params.layout), AdamState.for_model(ms)
    for t in (1, 2):
        batch = sample_batch(ds, cfg.batch, np.random.default_rng(t))
        encode(ms, g_r, g_s, cfg.layers, cfg.agg)
        compute_gradients(batch, ms, cfg, out=grads)
        fresh = init_model(ds.num_users, ds.num_items, cfg.dim, seed=0)
        fresh.set_params(ms.copy_params())
        encode(fresh, g_r, g_s, cfg.layers, cfg.agg)
        want_r, want_s = fresh.agg_r.copy(), fresh.agg_s.copy()
        want = compute_gradients(batch, fresh, cfg)
        np.testing.assert_array_equal(ms.agg_r, want_r)
        np.testing.assert_array_equal(ms.agg_s, want_s)
        np.testing.assert_array_equal(grads.flat, want.flat)
        adam_step(ms, grads, opt, t, 1e-2)


def test_in_place_adam_matches_seed_formula():
    ms = init_model(400, 800, 64, seed=8)
    assert ms.params.flat.size > 2 * CHUNK
    names = ("E_u", "E_v", "T", "w", "c")
    params = ms.copy_params()
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    opt = AdamState.for_model(ms)
    rng = np.random.default_rng(9)
    for t in range(1, 6):
        lr = 1e-2 * 0.9 ** t
        g = {k: rng.normal(size=p.shape) for k, p in params.items()}
        adam_step(ms, GradientSet.from_arrays(g), opt, t, lr)
        bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        for k in names:
            m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g[k]
            v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g[k] * g[k]
            params[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPS)
    for k, got in ms.params.as_dict().items():
        np.testing.assert_array_equal(got, params[k])
    np.testing.assert_array_equal(opt.m, np.concatenate([m[k].ravel() for k in names]))
    np.testing.assert_array_equal(opt.v, np.concatenate([v[k].ravel() for k in names]))


class TestParameterBlock:
    def _is_view_of(self, arr, block, offset):
        return (arr.base is not None and np.shares_memory(arr, block)
                and arr.__array_interface__["data"][0]
                == block.__array_interface__["data"][0] + 8 * offset)

    def test_set_params_keeps_views_of_one_block(self):
        ms = init_model(5, 7, 3, seed=1)
        block = ms.params.flat
        other = init_model(5, 7, 3, seed=2).copy_params()
        ms.set_params(other)
        assert ms.params.flat is block
        assert self._is_view_of(ms.E_u, block, 0)
        assert self._is_view_of(ms.E_v, block, 5 * 3)
        assert self._is_view_of(ms.proj.T, block, 12 * 3)
        np.testing.assert_array_equal(ms.E, np.vstack([other["E_u"], other["E_v"]]))
        for name, view in ms.params.as_dict().items():
            np.testing.assert_array_equal(view, other[name])

    def test_set_params_shape_mismatch_fatal(self):
        ms = init_model(5, 7, 3, seed=1)
        params = ms.copy_params()
        params["E_v"] = params["E_v"][:3]
        with pytest.raises(ValueError):
            ms.set_params(params)

    def test_parameters_gradients_and_moments_share_one_layout(self, ds):
        cfg = TrainConfig(dim=8, layers=1, batch=64)
        ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=3)
        encode(ms, build_interaction_laplacian(ds), build_social_laplacian(ds),
               cfg.layers)
        grads = compute_gradients(sample_batch(ds, cfg.batch, np.random.default_rng(0)),
                                  ms, cfg)
        opt = AdamState.for_model(ms)
        blocks = [ms.params, grads, *(ParamBlock(*ms.params.layout, moment)
                                      for moment in (opt.m, opt.v))]
        I, J, d = ms.params.layout
        rows = (I + J) * d
        want = {"E_u": 0, "E_v": I * d, "T": rows, "w": rows + 2 * d * d,
                "c": rows + 2 * d * d + d}
        for block in blocks:
            assert block.flat.size == ms.params.flat.size == rows + 2 * d * d + 2 * d
            for name, view in block.as_dict().items():
                assert self._is_view_of(view, block.flat, want[name]), name
            assert self._is_view_of(block.E, block.flat, 0)
            assert block.E.shape == (I + J, d)

    def test_block_rejects_flat_array_of_wrong_size(self):
        size = ParamBlock(5, 7, 3).flat.size
        for flat in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size)),
                     np.zeros(size, np.float32), np.zeros(2 * size)[::2]):
            with pytest.raises(ValueError, match=f"layout needs {size} contiguous"):
                ParamBlock(5, 7, 3, flat)
        assert ParamBlock(5, 7, 3, np.zeros(size)).flat.size == size

    def test_snapshot_is_independent(self):
        ms = init_model(5, 7, 3, seed=1)
        snap = ms.copy_params()
        ms.E_u[:] = 0.0
        assert snap["E_u"].any()


def seed_user_sets(num_users, *edge_arrays):
    """The original per-user set loop: one add per edge, in edge order."""
    sets = [set() for _ in range(num_users)]
    for arr in edge_arrays:
        for u, v in arr:
            sets[u].add(int(v))
    return sets


def seed_sample_batch(ds, batch_size, rng, need_social=True):
    """The original sampler: separate interaction and social loops."""
    I, J = ds.num_users, ds.num_items
    item_sets = seed_user_sets(I, ds.train_edges)
    items_per_user = [None] * I
    rec = np.empty((batch_size, 3), dtype=np.int64)
    edge_idx = rng.integers(len(ds.train_edges), size=batch_size)
    for row, e in enumerate(edge_idx):
        u = int(ds.train_edges[e, 0])
        pos_set = item_sets[u]
        if items_per_user[u] is None:
            items_per_user[u] = np.fromiter(pos_set, dtype=np.int64, count=len(pos_set))
        choices = items_per_user[u]
        v_pos = int(choices[rng.integers(len(choices))])
        while True:
            v_neg = int(rng.integers(J))
            if v_neg not in pos_set:
                break
        rec[row] = (u, v_pos, v_neg)
    soc = np.zeros((0, 3), dtype=np.int64)
    if need_social:
        tie_sets = seed_user_sets(I, ds.social_edges)
        soc = np.empty((batch_size, 3), dtype=np.int64)
        tie_idx = rng.integers(len(ds.social_edges), size=batch_size)
        for row, e in enumerate(tie_idx):
            i = int(ds.social_edges[e, 0])
            ties = tie_sets[i]
            nbrs = np.fromiter(ties, dtype=np.int64, count=len(ties))
            i_pos = int(nbrs[rng.integers(len(nbrs))])
            while True:
                i_neg = int(rng.integers(I))
                if i_neg != i and i_neg not in ties:
                    break
            soc[row] = (i, i_pos, i_neg)
    ssl = rng.integers(I, size=(batch_size, 2)).astype(np.int64)
    return Batch(rec_triples=rec, soc_triples=soc, ssl_pairs=ssl)


def _variants(ds):
    """The fixture, with noise edges appended out of user order, with
    users that have no edges at all, and without ties."""
    noisy = inject_noise(ds, 1.0, seed=5)
    return {"plain": ds, "noisy": noisy,
            "edgeless_users": replace(noisy, num_users=ds.num_users + 7),
            "no_ties": replace(ds, social_edges=np.zeros((0, 2), dtype=np.int64))}


@pytest.mark.parametrize("case", ["plain", "noisy", "edgeless_users", "no_ties"])
def test_user_sets_match_loop_in_iteration_order(ds, case):
    d = _variants(ds)[case]
    n = d.num_users
    cases = [(d.user_train_items(), seed_user_sets(n, d.train_edges)),
             (d.user_known_items(),
              seed_user_sets(n, d.train_edges, d.val_edges, d.test_edges)),
             (d.user_ties(), seed_user_sets(n, d.social_edges))]
    for got, want in cases:
        assert [list(s) for s in got] == [list(s) for s in want]
        assert all(type(v) is int for s in got for v in s)
    # the check can see order: some sets do not iterate in sorted order
    assert any(list(s) != sorted(s) for s in cases[1][1])
    if case == "edgeless_users":
        assert d.user_known_items()[-7:] == [set()] * 7
    if case == "no_ties":
        assert d.user_ties() == [set()] * n


@pytest.mark.parametrize("case", ["plain", "noisy", "edgeless_users"])
@pytest.mark.parametrize("need_social", [True, False])
def test_sample_batch_matches_seed_sampler(ds, case, need_social):
    d = _variants(ds)[case]
    for seed in range(3):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_batch(d, 700, got_rng, need_social)
        want = seed_sample_batch(d, 700, want_rng, need_social)
        for name in ("rec_triples", "soc_triples", "ssl_pairs"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)


def seed_bpr_triples(edges, neighbours, num_candidates, count, rng, exclude_anchor):
    """The scalar BPR sampler: per row one positive draw, then negative
    draws until one is not a neighbour (nor, with `exclude_anchor`, the
    anchor)."""
    out = np.empty((count, 3), dtype=np.int64)
    listed = {}  # anchor -> its neighbours as an array
    for row, e in enumerate(rng.integers(len(edges), size=count)):
        a = int(edges[e, 0])
        nbrs = neighbours[a]
        if len(nbrs) + exclude_anchor >= num_candidates:
            raise ValueError(f"user {a} leaves no negative among {num_candidates} "
                             "candidates; negative sampling cannot terminate")
        if a not in listed:
            listed[a] = np.fromiter(nbrs, dtype=np.int64, count=len(nbrs))
        choices = listed[a]
        pos = int(choices[rng.integers(len(choices))])
        while True:
            neg = int(rng.integers(num_candidates))
            if neg not in nbrs and not (exclude_anchor and neg == a):
                break
        out[row] = (a, pos, neg)
    return out


def _sampler_cases(ds):
    """Datasets whose rows reject often or never, by the rejection share of
    a row's first negative."""
    pairs = [(f"u{k}", v) for k in range(3) for v in "ab"]
    one_candidate = build_dataset(InteractionTable(edges=pairs),
                                  SocialTable(edges=[("u0", "u1"), ("u1", "u0")]))
    single = [("u", f"i{k}") for k in range(5)]
    return {
        # one train item of two, u0-u1 tied among three users: every first
        # negative is rejected with probability 1/2 (items) or 2/3 (users)
        "one_candidate": one_candidate,
        # 3 train items of 10: 30% rejection, as in the uniformity test
        "rejection_30": replace(build_dataset(InteractionTable(edges=single),
                                              SocialTable(edges=[])), num_items=10),
        # every user one train item of 40; many anchors have a single tie
        "degree_one": random_dataset(200, 40, min_items=1, max_items=1,
                                     tie_prob=0.005, seed=1),
        "fixture": ds,
    }


# block sizing: as shipped; the whole rest as one block (a rewind at almost
# every reject); blocks of about one row (rejects mostly end a block); and
# rows one at a time
BLOCKINGS = {"default": {}, "one_block": {"BLOCK_REJECTS": np.inf, "MIN_BLOCK": 1},
             "short_blocks": {"BLOCK_REJECTS": 0.05, "MIN_BLOCK": 1},
             "one_at_a_time": {"MIN_BLOCK": 10**9}}


@pytest.mark.parametrize("blocking", sorted(BLOCKINGS))
@pytest.mark.parametrize("case,view", [
    ("one_candidate", "interaction"), ("one_candidate", "social"),
    ("rejection_30", "interaction"), ("degree_one", "interaction"),
    ("degree_one", "social"), ("fixture", "interaction"), ("fixture", "social")])
def test_bpr_triples_match_scalar_loop(ds, case, view, blocking, monkeypatch):
    d = _sampler_cases(ds)[case]
    if view == "interaction":
        edges, sets, lists, width = (d.train_edges, d.user_train_items(),
                                     d.train_item_lists(), d.num_items)
    else:
        edges, sets, lists, width = (d.social_edges, d.user_ties(), d.tie_lists(),
                                     d.num_users)
    for name, value in BLOCKINGS[blocking].items():
        monkeypatch.setattr(objective, name, value)
    exclude_anchor = view == "social"
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = objective._bpr_triples(edges, lists, 300, got_rng, exclude_anchor)
        want = seed_bpr_triples(edges, sets, width, 300, want_rng, exclude_anchor)
        np.testing.assert_array_equal(got, want)
        assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)


def test_sampler_cases_reject_and_use_degree_one_anchors(ds):
    """The cases above see rejected first negatives at low and high rates,
    and anchors with a single neighbour in both views."""
    cases = _sampler_cases(ds)
    for name, share in (("one_candidate", 0.5), ("rejection_30", 0.3)):
        d = cases[name]
        assert (d.degree[d.train_edges[:, 0]] / d.num_items == share).all()
    d = cases["degree_one"]
    assert (d.degree == 1).all()
    assert (np.bincount(d.social_edges[:, 0]) == 1).sum() > 50
    assert 0 < ds.degree.max() / ds.num_items < 0.01


@pytest.mark.parametrize("case", ["plain", "noisy", "edgeless_users", "no_ties"])
def test_neighbour_lists_follow_set_order(ds, case):
    d = _variants(ds)[case]
    rng = np.random.default_rng(0)
    for sets, lists in ((d.user_train_items(), d.train_item_lists()),
                        (d.user_ties(), d.tie_lists())):
        assert lists.sets is sets and len(lists.indptr) == len(sets) + 1
        for a, s in enumerate(sets):
            assert lists.items[lists.indptr[a]:lists.indptr[a + 1]].tolist() == list(s)
        anchors = rng.integers(len(sets), size=2000)
        others = rng.integers(lists.width, size=2000)
        owned = np.repeat(np.arange(len(sets)), np.diff(lists.indptr))
        anchors, others = np.append(anchors, owned), np.append(others, lists.items)
        want = [int(b) in sets[a] for a, b in zip(anchors, others)]
        assert lists.holds(anchors, others).tolist() == want
        assert any(want) == (len(lists.items) > 0)
    assert d.train_item_lists() is d.train_item_lists()  # cached


@settings(max_examples=80, deadline=None)
@example(bounds=[3, 98_875, 1, 2**31 + 5, 7, 2**33 + 1, 1, 1, 49, 4_000], seed=1)
@example(bounds=[2**32 - 1, 2**32, 2**32 + 1, 5, 2**40], seed=2)
@given(bounds=st.lists(st.one_of(st.integers(1, 50), st.integers(1, 1 << 40),
                                 st.sampled_from([2**32 - 1, 2**32, 2**32 + 1])),
                       min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_mixed_bound_draws_equal_scalar_draws(bounds, seed):
    """rng.integers(0, bounds) with a bound per element is the stream of one
    scalar rng.integers(bound) per element; the bulk BPR sampler rests on it."""
    scalar_rng = np.random.default_rng(seed)
    scalar = [int(scalar_rng.integers(b)) for b in bounds]
    bulk_rng = np.random.default_rng(seed)
    assert bulk_rng.integers(0, np.array(bounds, dtype=np.int64)).tolist() == scalar
    assert scalar_rng.integers(1 << 62) == bulk_rng.integers(1 << 62)


def seed_sample_negatives(rng, num_items, known, count):
    """The original candidate draw: one scalar rng.integers per draw."""
    pool = num_items - len(known)
    if pool < count:
        return None
    if pool <= 4 * max(count, 1):
        allowed = np.array([v for v in range(num_items) if v not in known],
                           dtype=np.int64)
        rng.shuffle(allowed)
        return allowed[:count]
    picked = set()
    out = np.empty(count, dtype=np.int64)
    k = 0
    while k < count:
        v = int(rng.integers(num_items))
        if v in known or v in picked:
            continue
        picked.add(v)
        out[k] = v
        k += 1
    return out


def seed_user_ranks(ms, ds, split, num_negatives, seed, social_fusion):
    """The original per-user ranking loop over the scalar draw."""
    edges = ds.val_edges if split == "val" else ds.test_edges
    known = ds.user_known_items()
    users, ranks, skipped = [], [], 0
    for u, held in edges:
        u, held = int(u), int(held)
        rng = np.random.default_rng([seed, u])
        negs = seed_sample_negatives(rng, ds.num_items, known[u], num_negatives)
        if negs is None:
            skipped += 1
            continue
        cand = np.concatenate([[held], negs])
        scores = ms.agg_r[ds.num_users + cand] @ user_vectors(ms, u, social_fusion)
        users.append(u)
        ranks.append(held_out_rank(scores, cand))
    return np.array(users, dtype=np.int64), np.array(ranks, dtype=np.int64), skipped


# (num_items, known items, count): which branch of _sample_negatives runs
NEGATIVE_CASES = {
    "rejection": (5000, 40, 99),
    "rejection_heavy": (450, 50, 99),   # pool 400: many repeats and known draws
    "shuffle": (300, 60, 99),
    "pool_is_4_count": (130, 30, 25),   # shuffle at the boundary
    "pool_is_4_count_plus_1": (131, 30, 25),  # rejection at the boundary
    "pool_is_count": (60, 35, 25),
    "pool_below_count": (60, 36, 25),
    "count_zero": (5000, 40, 0),
    "count_zero_small_pool": (6, 3, 0),
}


def _known(num_items, num_known, seed):
    order = np.random.default_rng(seed + 100).permutation(num_items)
    return {int(v) for v in order[:num_known]}


@pytest.mark.parametrize("case", sorted(NEGATIVE_CASES))
def test_negatives_match_scalar_draws(case):
    num_items, num_known, count = NEGATIVE_CASES[case]
    for seed in range(20):
        known = _known(num_items, num_known, seed)
        got_rng = np.random.default_rng([seed, 7])
        want_rng = np.random.default_rng([seed, 7])
        got = _sample_negatives(got_rng, num_items, known, count)
        want = seed_sample_negatives(want_rng, num_items, known, count)
        if case == "pool_below_count":
            assert got is None and want is None
            continue
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # both stopped at the same point of the stream
        assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)


def test_rejection_cases_see_repeats_and_known_draws():
    """The rejection cases exercise both reasons to discard a draw."""
    num_items, num_known, count = NEGATIVE_CASES["rejection_heavy"]
    known = _known(num_items, num_known, 0)
    draws = np.random.default_rng([0, 7]).integers(num_items, size=count).tolist()
    unknown = [v for v in draws if v not in known]
    assert len(unknown) < len(draws)
    assert len(set(unknown)) < len(unknown)


@pytest.mark.parametrize("social_fusion", [False, True])
@pytest.mark.parametrize("negatives", [30, 115, 140])
def test_user_ranks_match_scalar_loop(social_fusion, negatives):
    # pools of 110-147 items: at 30 negatives some users take the rejection
    # branch and the rest the shuffle branch; at 115 and 140 every user
    # takes the shuffle branch or is skipped
    ds = random_dataset(60, 150, min_items=3, max_items=40, tie_prob=0.1, seed=6)
    ms, _, _ = make_encoded(ds, dim=8, layers=2)
    for split, seed in (("test", 0), ("val", 3)):
        got = _user_ranks(ms, ds, split, negatives, seed, social_fusion)
        want = seed_user_ranks(ms, ds, split, negatives, seed, social_fusion)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert len(got[0]) > 0
        assert (got[2] > 0) == (negatives > 110)


@settings(max_examples=60, deadline=None)
@example(n=2**31 + 5, seed=1, chunks=[37, 37, 26])
@example(n=2**32 + 7, seed=2, chunks=[37, 37, 26])
@example(n=98_875, seed=3, chunks=[37, 37, 26])
@given(n=st.integers(1, 1 << 40), seed=st.integers(0, 2**32 - 1),
       chunks=st.lists(st.integers(0, 60), min_size=1, max_size=6))
def test_bulk_draws_equal_scalar_draws(n, seed, chunks):
    """rng.integers(n, size=k), whole or in chunks, is the stream of k
    scalar rng.integers(n) draws; the bulk candidate draw rests on it."""
    k = sum(chunks)
    scalar_rng = np.random.default_rng(seed)
    scalar = [int(scalar_rng.integers(n)) for _ in range(k)]
    bulk_rng = np.random.default_rng(seed)
    assert bulk_rng.integers(n, size=k).tolist() == scalar
    chunk_rng = np.random.default_rng(seed)
    assert [v for c in chunks for v in chunk_rng.integers(n, size=c).tolist()] == scalar
    assert scalar_rng.integers(1 << 62) == bulk_rng.integers(1 << 62)
