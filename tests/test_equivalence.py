"""Bit-for-bit equivalence of the blocked, in-place kernels with the plain
numpy formulas they replace.

Sizes are chosen above the chunk size of the elementwise passes, so on a
machine with two or more CPUs the multi-worker paths run too.
"""

import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

from socrec import graph
from socrec.graph import (CHUNK, NormalizedGraph, build_interaction_laplacian,
                          build_social_laplacian, propagate, row_blocks)
from socrec.model import aggregate_backward, encode, init_model
from socrec.objective import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                              GradientSet, TrainConfig, _alignment_hinge,
                              _scatter_add, adam_step, compute_gradients,
                              sample_batch)
from socrec.synthetic import random_dataset


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
        ds = random_dataset(30, 40, tie_prob=0.0, seed=1)
        ds.social_edges = np.zeros((0, 2), dtype=np.int64)
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
    assert len(ms.layers_r) == len(ms.layers_s) == L + 1


@pytest.mark.parametrize("agg", ["sum", "mean"])
def test_aggregate_backward_matches_seed(ds, agg):
    g = build_interaction_laplacian(ds)
    grad = np.random.default_rng(3).normal(size=(g.num_nodes, 96))
    want = seed_backward(g, grad, 3, agg)
    got = grad.copy()
    assert aggregate_backward(g, got, 3, agg) is got
    np.testing.assert_array_equal(got, want)


def test_scatter_add_matches_add_at():
    rng = np.random.default_rng(5)
    rows = np.concatenate([rng.integers(0, 50, 300), np.full(40, 7)])
    rng.shuffle(rows)
    values = rng.normal(size=(len(rows), 6))
    start = rng.normal(size=(60, 6))
    want = start.copy()
    np.add.at(want, rows, values)
    got = start.copy()
    _scatter_add(got, rows, values)
    np.testing.assert_array_equal(got, want)


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
    stale = GradientSet.for_model(ms)
    stale.flat[:] = np.nan
    for grads in (compute_gradients(batch, ms, cfg),
                  compute_gradients(batch, ms, cfg, out=stale)):
        for got, ref in zip((grads.E_u, grads.E_v, grads.T), want):
            np.testing.assert_array_equal(got, ref)


def test_in_place_adam_matches_seed_formula():
    ms = init_model(400, 800, 64, seed=8)
    assert ms.params.size > 2 * CHUNK
    names = ("E_u", "E_v", "T", "w", "c")
    params = ms.copy_params()
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    opt = AdamState.for_model(ms)
    rng = np.random.default_rng(9)
    for t in range(1, 6):
        lr = 1e-2 * 0.9 ** t
        g = {k: rng.normal(size=p.shape) for k, p in params.items()}
        adam_step(ms, GradientSet(**g), opt, t, lr)
        bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        for k in names:
            m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g[k]
            v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g[k] * g[k]
            params[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPS)
    for k, got in ms.named_params().items():
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
        block = ms.params
        other = init_model(5, 7, 3, seed=2).copy_params()
        ms.set_params(other)
        assert ms.params is block
        assert self._is_view_of(ms.E_u, block, 0)
        assert self._is_view_of(ms.E_v, block, 5 * 3)
        assert self._is_view_of(ms.proj.T, block, 12 * 3)
        np.testing.assert_array_equal(ms.E, np.vstack([other["E_u"], other["E_v"]]))
        for name, view in ms.named_params().items():
            np.testing.assert_array_equal(view, other[name])

    def test_set_params_shape_mismatch_fatal(self):
        ms = init_model(5, 7, 3, seed=1)
        params = ms.copy_params()
        params["E_v"] = params["E_v"][:3]
        with pytest.raises(ValueError):
            ms.set_params(params)

    def test_snapshot_is_independent(self):
        ms = init_model(5, 7, 3, seed=1)
        snap = ms.copy_params()
        ms.E_u[:] = 0.0
        assert snap["E_u"].any()
