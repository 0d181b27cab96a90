"""Bit-for-bit equivalence of the blocked, in-place kernels, the neighbour
lists, the bulk-drawn BPR triples, the bulk-seeded evaluation streams, the
block-drawn evaluation candidates and ranks, the one-pass loss and
gradient step, the sliced tie-weight export, the restore of the seeded
initial parameters, the columnar edge-file ingestion, the edge-line
tokenizer on dataset pair files, bulk noise injection, the
first-occurrence sort and the Laplacians built from neighbour lists with
the plain code they replace.

Sizes are chosen above the chunk size of the elementwise passes, so on a
machine with two or more CPUs the multi-worker paths run too.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from socrec import eval as eval_mod
from socrec import graph, objective
from socrec.data import (InteractionTable, NeighbourLists, SocialTable, _edge_tokens,
                         build_dataset, first_fresh, inject_noise, load_dataset,
                         save_dataset)
from socrec.eval import (_pcg64, _sample_negatives, _stream_states, _user_ranks,
                         export_relevance_weights, held_out_rank)
from socrec.graph import (CHUNK, NormalizedGraph, build_interaction_laplacian,
                          build_social_laplacian, propagate, row_blocks)
from socrec.model import (LEAKY_SLOPE, ParamBlock, _leaky_relu_,
                          aggregate_backward, encode, init_model, pair_rows, user_vectors)
from socrec.objective import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, Batch,
                              GradientSet, TrainConfig, _hinge_term,
                              _infonce_grads, adam_step, compute_gradients,
                              joint_loss, sample_batch)
from socrec.synthetic import random_dataset
from socrec.train import train_model

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


def frozen_normalized_csr(rows, cols, deg, n):
    """The original Laplacian build: weighted COO entries summed into CSR."""
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64).tocsr()
    m.sort_indices()
    return m


def frozen_laplacians(ds):
    """The interaction and social matrices as built from the raw edges."""
    I, J = ds.num_users, ds.num_items
    u, v = ds.train_edges[:, 0], ds.train_edges[:, 1]
    deg = np.concatenate([np.bincount(u, minlength=I), np.bincount(v, minlength=J)])
    a, b = ds.social_edges[:, 0], ds.social_edges[:, 1]
    return (frozen_normalized_csr(np.concatenate([u, I + v]), np.concatenate([I + v, u]),
                                  deg.astype(np.float64), I + J),
            frozen_normalized_csr(a, b, np.bincount(a, minlength=I).astype(np.float64), I))


@pytest.mark.parametrize("case", ["sparse", "idle_users", "no_ties", "one_edge"])
def test_laplacians_from_lists_equal_frozen_build(ds, case):
    """Built from the dataset's neighbour lists, both graphs hold the bytes
    and index types of the COO build, with users and items that have no
    train edge and a dataset without ties."""
    d = {"sparse": ds,
         "idle_users": replace(ds, train_edges=ds.train_edges[ds.train_edges[:, 0] % 3 > 0]),
         "no_ties": replace(random_dataset(40, 30, seed=6),
                            social_edges=np.zeros((0, 2), dtype=np.int64)),
         "one_edge": build_dataset(InteractionTable.of([("u", "i")]), SocialTable.of([]))}[case]
    degree = np.bincount(d.train_edges[:, 0], minlength=d.num_users)
    assert (degree == 0).any() == (case == "idle_users")
    assert (len(d.social_edges) == 0) == (case in ("no_ties", "one_edge"))
    got = (build_interaction_laplacian(d).matrix, build_social_laplacian(d).matrix)
    for g, want in zip(got, frozen_laplacians(d)):
        assert g.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(g, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def frozen_first_fresh(keys, listed):
    """Each key walked in order against a set that starts with the listed
    keys."""
    seen, out = set(listed.tolist()), []
    for key in keys.ravel().tolist():
        out.append(key not in seen)
        seen.add(key)
    return np.array(out, dtype=bool).reshape(keys.shape)


_key = st.one_of(st.integers(0, 30), st.integers(2**40, 2**40 + 30))


@settings(max_examples=200, deadline=None)
@example(keys=[], listed=[], rows=0)
@example(keys=[4, 4, 0, 9, 0, 9, 4], listed=[], rows=0)  # every key repeated
@example(keys=[3, 1, 3, 2, 1, 5], listed=[1, 3, 5], rows=2)  # keys equal to listed ones
@example(keys=[7, 2, 7, 2, 0, 0], listed=[2], rows=3)
@given(keys=st.lists(_key, max_size=60), listed=st.lists(_key, max_size=30),
       rows=st.integers(0, 4))
def test_first_fresh_matches_scalar_loop(keys, listed, rows):
    """rows > 0 lays the keys out in that many rows, when they divide."""
    keys, listed = np.array(keys, dtype=np.int64), np.array(listed, dtype=np.int64)
    if rows and len(keys) % rows == 0:
        keys = keys.reshape(rows, -1)
    got = first_fresh(keys, listed)
    assert got.dtype == bool and got.shape == keys.shape
    np.testing.assert_array_equal(got, frozen_first_fresh(keys, listed))
    if not len(listed):
        np.testing.assert_array_equal(first_fresh(keys), got)


@pytest.mark.parametrize("num_listed,num_keys", [(0, 1), (2, 3), (0, 8), (500, 600)])
def test_first_fresh_refuses_keys_past_63_bits(num_listed, num_keys):
    """A key fits while `key << bit_length(count)` stays below 2**63."""
    top = (1 << 63 - (num_listed + num_keys).bit_length()) - 1
    listed = np.arange(num_listed, dtype=np.int64)
    keys = np.arange(num_keys, dtype=np.int64) % 5
    keys[0] = top
    np.testing.assert_array_equal(first_fresh(keys, listed), frozen_first_fresh(keys, listed))
    keys[-1] = top  # a repeat of the largest key
    np.testing.assert_array_equal(first_fresh(keys, listed), frozen_first_fresh(keys, listed))
    keys[0] = top + 1
    with pytest.raises(OverflowError, match=f"{num_listed + num_keys} keys up to {top + 1}"):
        first_fresh(keys, listed)


def horner_sum(g, X, L, agg):
    """The sum of powers sum_k (A+I)^k X, k = 0..L, as a plain loop of the
    Horner order the model uses: S = (A @ S + S) + X, L times from S = X,
    then / (L+1) for "mean"."""
    S = X.copy()
    for _ in range(L):
        S = (g.matrix @ S + S) + X
    if agg == "mean":
        S /= L + 1
    return S


def seed_encode(E_u, E_v, g_r, g_s, L, agg):
    """The encoder: each view's table run through `horner_sum`."""
    return horner_sum(g_r, np.vstack([E_u, E_v]), L, agg), horner_sum(g_s, E_u, L, agg)


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
    want = horner_sum(g, grad, 3, agg)
    got = grad.copy()
    assert aggregate_backward(g, got, 3, agg) is got
    np.testing.assert_array_equal(got, want)


def _bits(a):
    """The raw bits of a float array (tells -0.0 from +0.0 and NaNs apart)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _sliced_graphs(ds, view, d):
    """A view's graph, whole and in _blocked's layouts; its row count is no
    multiple of the CHUNK // d rows of a slice, so slices end inside blocks."""
    g = (build_interaction_laplacian if view == "interaction"
         else build_social_laplacian)(ds)
    assert g.num_nodes % (CHUNK // d) and g.num_nodes > CHUNK // d
    return [g] + _blocked(g)


class TestSlicedPropagation:
    """d = 300 gives 109-row slices, d = 1000 gives 32-row slices."""

    @pytest.mark.parametrize("d", [300, 1000])
    @pytest.mark.parametrize("view", ["interaction", "social"])
    def test_every_mode_matches_frozen_layer(self, ds, view, d):
        graphs = _sliced_graphs(ds, view, d)
        rng = np.random.default_rng(11)
        E, X, T0 = rng.normal(size=(3, graphs[0].num_nodes, d))
        for g in graphs:
            want = g.matrix @ E + E
            np.testing.assert_array_equal(_bits(propagate(g, E)), _bits(want))
            out = np.full_like(E, np.nan)
            assert propagate(g, E, out=out) is out
            np.testing.assert_array_equal(_bits(out), _bits(want))
            np.testing.assert_array_equal(_bits(propagate(g, E, add=X)), _bits(want + X))
            out = np.full_like(E, np.nan)
            assert propagate(g, E, out=out, add=X) is out
            np.testing.assert_array_equal(_bits(out), _bits(want + X))
            out = T0.copy()
            assert propagate(g, E, out=out, add=out) is out  # out += layer
            np.testing.assert_array_equal(_bits(out), _bits(want + T0))
            out = np.full_like(E, np.nan)
            propagate(g, E, out=out, add=E)  # the forward's first layer
            np.testing.assert_array_equal(_bits(out), _bits(want + E))

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("view", ["interaction", "social"])
    def test_sum_of_powers_matches_frozen(self, ds, view, L, agg):
        rng = np.random.default_rng(L)
        for g in _sliced_graphs(ds, view, 300)[::2]:
            X = rng.normal(size=(g.num_nodes, 300))
            want = horner_sum(g, X, L, agg)
            got = X.copy()  # backward, in place
            assert aggregate_backward(g, got, L, agg) is got
            np.testing.assert_array_equal(_bits(got), _bits(want))
            got, before = np.full_like(X, np.nan), X.copy()  # forward, from start
            assert aggregate_backward(g, got, L, agg, start=X) is got
            np.testing.assert_array_equal(_bits(got), _bits(want))
            np.testing.assert_array_equal(_bits(X), _bits(before))

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_encode_matches_frozen(self, ds, L, agg):
        ms = init_model(ds.num_users, ds.num_items, 300, seed=L)
        g_r, g_s = build_interaction_laplacian(ds), build_social_laplacian(ds)
        want_r, want_s = seed_encode(ms.E_u, ms.E_v, g_r, g_s, L, agg)
        for _ in range(2):  # the second pass reuses the buffers
            encode(ms, g_r, g_s, L, agg)
            np.testing.assert_array_equal(_bits(ms.agg_r), _bits(want_r))
            np.testing.assert_array_equal(_bits(ms.agg_s), _bits(want_s))

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_start_may_not_overlap_the_sum(self, ds, L):
        """Every layer reads X, so a `start` that is (part of) the sum it
        overwrites is refused, not only at the depths where a layer would
        read what it writes."""
        g = build_social_laplacian(ds)
        big = np.ones((g.num_nodes + 1, 3))
        for start in (big[:-1], big[1:]):
            with pytest.raises(ValueError, match="start overlaps grad_agg"):
                aggregate_backward(g, big[:-1], L, start=start)

    def test_written_arrays_may_not_overlap_what_is_read(self, ds):
        g = build_social_laplacian(ds)
        n = g.num_nodes
        big, pair = np.ones((n + 1, 3)), np.zeros((n + 1, 3))
        E, shifted = big[:n], big[1:]
        other, spare = np.zeros((n, 3)), np.zeros((n, 3))
        for kwargs, named in [
                ({"out": E}, "out overlaps E"),
                ({"out": shifted}, "out overlaps E"),
                ({"out": pair[:n], "add": pair[1:]}, "add overlaps out"),
                ({"out": other, "add": other[::-1]}, "add must be"),
                ({"add": np.zeros((n, 4))}, "add must be"),
                ({"out": other, "add": other}, None),  # out += layer
                ({"out": other, "add": E}, None),
                ({"out": other, "add": spare}, None),
                ({"add": shifted}, None)]:
            if named is None:
                propagate(g, E, **kwargs)
                continue
            with pytest.raises(ValueError, match=named):
                propagate(g, E, **kwargs)


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
    """The in-place form and its mask, against np.where on a copy."""
    pre = np.array(values, dtype=np.float64)
    h = pre.copy()
    positive = _leaky_relu_(h)
    np.testing.assert_array_equal(_bits(h), _bits(np.where(pre > 0, pre, LEAKY_SLOPE * pre)))
    np.testing.assert_array_equal(positive, pre > 0)


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
            z, _ = frozen_projection_forward(ms.params, ms.agg_r[i], ms.agg_r[j])
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
                ms.params, ms.agg_r[i], ms.agg_r[j], ms.agg_s[i], ms.agg_s[j])
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
    batch = sample_batch(ds, cfg, np.random.default_rng(L + 3))
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
        z, _ = frozen_projection_forward(ms.params, *ms.agg_r[batch.ssl_pairs.T])
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


def frozen_export_rows(ms, ties):
    """The tie-weight export's rows before it worked in slices: z from one
    projection GEMM over every tie."""
    i, j = ties.T
    z = frozen_projection_forward(ms.params, ms.agg_r[i], ms.agg_r[j])[0]
    zhat = (ms.agg_s[i] * ms.agg_s[j]).sum(axis=1)
    order = np.argsort(z, kind="stable")
    return list(zip(i[order].tolist(), j[order].tolist(), z[order].tolist(),
                    zhat[order].tolist()))


@pytest.mark.parametrize("d", [4, 16, 128])
def test_sliced_export_matches_one_gemm(d):
    """Slices of at least CHUNK // d ties, the last taking the remainder,
    give the one GEMM's bits; plain slices, with a short last one, do not
    at every tie count, as the projection GEMM rounds a few rows
    differently."""
    rng = np.random.default_rng(d)
    ms = init_model(40, 60, d, seed=d)
    ms.agg_r, ms.agg_s = rng.normal(size=(100, d)), rng.normal(size=(40, d))
    step = CHUNK // d
    for count in [*range(step - 3, step + 71), *range(2 * step, 2 * step + 70)]:
        ties = np.sort(rng.integers(39, size=(count, 2)), axis=1)
        ties[:, 1] += 1  # i < j: the export keeps each undirected tie once
        rows = export_relevance_weights(ms, SimpleNamespace(social_edges=ties)).rows
        same = rows == frozen_export_rows(ms, ties)  # z in (0, 1), zhat nonzero
        assert same, f"{count} ties"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_abort_in_epoch_zero_restores_initial_parameters(ds):
    """Before any epoch has improved there is no snapshot: the restore
    rebuilds the seeded initial parameters, bit for bit."""
    cfg = TrainConfig(dim=4, layers=2, batch=16, epochs=5, lr=1e200, lr_decay=1.0,
                      lambda3=1e-6, negatives=3, cutoffs=(5,), seed=6)
    result = train_model(ds, cfg)
    assert result.aborted.startswith("epoch 0:")
    init = init_model(ds.num_users, ds.num_items, cfg.dim, seed=cfg.seed)
    np.testing.assert_array_equal(_bits(result.model.params.flat), _bits(init.params.flat))


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
    gT = np.zeros_like(ms.params.T)
    if l2 > 0:
        i, j = batch.ssl_pairs.T
        _, active, (da_i, da_j, db_i, db_j), (dT, _, _) = _hinge_term(
            ms.params, pair_rows(ms.agg_r, i, j), ms.agg_s[i], ms.agg_s[j])
        i, j = i[active], j[active]
        np.add.at(gr, i, l2 * da_i)
        np.add.at(gr, j, l2 * da_j)
        np.add.at(gs, i, l2 * db_i)
        np.add.at(gs, j, l2 * db_j)
        gT += l2 * dT
    g_r0 = horner_sum(ms.g_r, gr, ms.num_layers, ms.agg)
    g_s0 = horner_sum(ms.g_s, gs, ms.num_layers, ms.agg)
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
    batch = sample_batch(ds, cfg, np.random.default_rng(7))
    want = seed_gradients(batch, ms, cfg)
    stale = GradientSet(*ms.params.layout)
    stale.flat[:] = np.nan
    for grads in (compute_gradients(batch, ms, cfg),
                  compute_gradients(batch, ms, cfg, out=stale)):
        for got, ref in zip((grads.E_u, grads.E_v, grads.T), want):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("agg", ["sum", "mean"])
def test_shared_work_pair_aliases_nothing_live(ds, agg):
    """encode and compute_gradients share each view's work arrays: two
    rounds on one model and one GradientSet match a fresh model's."""
    cfg = TrainConfig(dim=96, layers=3, batch=256, lambda2=1e-2, lambda3=1e-3,
                      agg=agg)
    g_r, g_s = build_interaction_laplacian(ds), build_social_laplacian(ds)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=6)
    grads, opt = GradientSet(*ms.params.layout), AdamState.for_model(ms)
    for t in (1, 2):
        batch = sample_batch(ds, cfg, np.random.default_rng(t))
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
        assert self._is_view_of(ms.params.T, block, 12 * 3)
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
        grads = compute_gradients(sample_batch(ds, cfg, np.random.default_rng(0)),
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


def rows(lists):
    """Each anchor's neighbours, as NeighbourLists `lists` lists them."""
    return [lists.items[lists.indptr[a]:lists.indptr[a + 1]].tolist()
            for a in range(len(lists.indptr) - 1)]


def seed_sample_batch(ds, batch_size, rng, need_social=True):
    """The sampler as scalar loops: interaction triples, social triples,
    then the alignment pairs."""
    I = ds.num_users
    rec = seed_bpr_triples(ds.train_edges, seed_user_sets(I, ds.train_edges),
                           ds.num_items, batch_size, rng, False)
    soc = np.zeros((0, 3), dtype=np.int64)
    if need_social:
        soc = seed_bpr_triples(ds.social_edges, seed_user_sets(I, ds.social_edges),
                               I, batch_size, rng, True)
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
    # neighbour lists hold each set in ascending order
    for lists, edges in ((d.train_item_lists(), d.train_edges),
                         (d.tie_lists(), d.social_edges)):
        assert rows(lists) == [sorted(s) for s in seed_user_sets(n, edges)]
    known = d.known_item_lists()
    want = seed_user_sets(n, d.train_edges, d.val_edges, d.test_edges)
    assert rows(known) == [sorted(s) for s in want]
    assert d.known_item_lists() is known  # cached
    if case == "edgeless_users":
        assert rows(known)[-7:] == [[]] * 7
    if case == "no_ties":
        assert rows(d.tie_lists()) == [[]] * n


@pytest.mark.parametrize("case", ["plain", "noisy", "edgeless_users"])
@pytest.mark.parametrize("need_social", [True, False])
def test_sample_batch_matches_seed_sampler(ds, case, need_social):
    d = _variants(ds)[case]
    cfg = TrainConfig(batch=700, lambda1=0.1 if need_social else 0.0)
    for seed in range(3):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_batch(d, cfg, got_rng)
        want = seed_sample_batch(d, 700, want_rng, need_social)
        for name in ("rec_triples", "soc_triples", "ssl_pairs"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)


def seed_bpr_triples(edges, neighbours, num_candidates, count, rng, exclude_anchor):
    """The BPR sampler with one scalar draw at a time: an anchor per row,
    then a positive per row from the anchor's sorted neighbours, then a
    negative per row, then rounds that redraw, in row order, every negative
    that is a neighbour (or, with `exclude_anchor`, the anchor)."""
    anchors = [int(edges[rng.integers(len(edges)), 0]) for _ in range(count)]
    for a in anchors:
        if len(neighbours[a]) + exclude_anchor >= num_candidates:
            raise ValueError(f"user {a} leaves no negative among {num_candidates} "
                             "candidates; negative sampling cannot terminate")
    positives = [sorted(neighbours[a])[rng.integers(len(neighbours[a]))]
                 for a in anchors]
    negatives = [int(rng.integers(num_candidates)) for _ in range(count)]

    def rejected(row):
        a, v = anchors[row], negatives[row]
        return v in neighbours[a] or (exclude_anchor and v == a)

    redraw = [row for row in range(count) if rejected(row)]
    while redraw:
        for row in redraw:
            negatives[row] = int(rng.integers(num_candidates))
        redraw = [row for row in redraw if rejected(row)]
    return np.array([anchors, positives, negatives], dtype=np.int64).T


def _sampler_cases(ds):
    """Datasets whose rows reject often or never, by the rejection share of
    a row's first negative."""
    pairs = [(f"u{k}", v) for k in range(3) for v in "ab"]
    one_candidate = build_dataset(InteractionTable.of(pairs),
                                  SocialTable.of([("u0", "u1"), ("u1", "u0")]))
    single = [("u", f"i{k}") for k in range(5)]
    return {
        # one train item of two, u0-u1 tied among three users: every first
        # negative is rejected with probability 1/2 (items) or 2/3 (users)
        "one_candidate": one_candidate,
        # 3 train items of 10: 30% rejection, as in the uniformity test
        "rejection_30": replace(build_dataset(InteractionTable.of(single),
                                              SocialTable.of([])), num_items=10),
        # every user one train item of 40; many anchors have a single tie
        "degree_one": random_dataset(200, 40, min_items=1, max_items=1,
                                     tie_prob=0.005, seed=1),
        "fixture": ds,
    }


# how 300 rows are split into calls on one generator: one training-sized
# batch, single-row calls, and calls of mixed short lengths (an empty one too)
BLOCKINGS = {"default": [300], "one_block": [1] * 300,
             "short_blocks": [0, 1, 2, 5, 13, 29, 50, 200]}


@pytest.mark.parametrize("blocking", sorted(BLOCKINGS))
@pytest.mark.parametrize("case,view", [
    ("one_candidate", "interaction"), ("one_candidate", "social"),
    ("rejection_30", "interaction"), ("degree_one", "interaction"),
    ("degree_one", "social"), ("fixture", "interaction"), ("fixture", "social")])
def test_bpr_triples_match_scalar_loop(ds, case, view, blocking):
    d = _sampler_cases(ds)[case]
    if view == "interaction":
        edges, lists, width = d.train_edges, d.train_item_lists(), d.num_items
    else:
        edges, lists, width = d.social_edges, d.tie_lists(), d.num_users
    sets = seed_user_sets(d.num_users, edges)
    exclude_anchor = view == "social"
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in BLOCKINGS[blocking]:
            got = objective._bpr_triples(edges, lists, count, got_rng, exclude_anchor)
            want = seed_bpr_triples(edges, sets, width, count, want_rng,
                                    exclude_anchor)
            assert got.shape == want.shape == (count, 3)
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
    """Each row lists its seed set in ascending order, and `holds` answers
    membership in the seed sets."""
    d = _variants(ds)[case]
    rng = np.random.default_rng(0)
    for lists, edges in ((d.train_item_lists(), d.train_edges),
                         (d.tie_lists(), d.social_edges)):
        sets = seed_user_sets(d.num_users, edges)
        assert len(lists.indptr) == len(sets) + 1
        for a, s in enumerate(sets):
            assert lists.items[lists.indptr[a]:lists.indptr[a + 1]].tolist() == sorted(s)
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
    known = seed_user_sets(ds.num_users, ds.train_edges, ds.val_edges, ds.test_edges)
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


class RecordingRng:
    """A Generator stand-in that keeps each array `integers` returns."""

    def __init__(self):
        self.rng = np.random.default_rng()
        self.bit_generator = self.rng.bit_generator
        self.prefixes = []

    def integers(self, n, size):
        self.prefixes.append(self.rng.integers(n, size=size))
        return self.prefixes[-1]

    def shuffle(self, values):
        self.rng.shuffle(values)


def row_negatives(rng, seed, user, known, num_items, count):
    """`_sample_negatives` over one row: `user`, who knows the set `known`."""
    pairs = np.array([(user, v) for v in sorted(known)], dtype=np.int64).reshape(-1, 2)
    users = np.array([user])
    return _sample_negatives(rng, _stream_states(seed, users), users,
                             NeighbourLists.of(pairs, user + 1, num_items), num_items,
                             count)


@pytest.mark.parametrize("case", sorted(NEGATIVE_CASES))
def test_negatives_match_scalar_draws(case):
    num_items, num_known, count = NEGATIVE_CASES[case]
    for seed in range(20):
        known = _known(num_items, num_known, seed)
        got_rng = RecordingRng()
        want_rng = np.random.default_rng([seed, 7])
        got, filled = row_negatives(got_rng, seed, 7, known, num_items, count)
        want = seed_sample_negatives(want_rng, num_items, known, count)
        if case == "pool_below_count":
            assert not filled[0] and want is None
            continue
        assert filled[0] and got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got[0], want)
        # both stopped at the same point of the stream: where the shuffle
        # left the block path's generator, or right after the count-th pick
        # of the prefix the block path read
        at = np.random.default_rng([seed, 7])
        if num_items - num_known <= 4 * max(count, 1):
            at = got_rng.rng
        elif count:
            prefix = got_rng.prefixes[-1]
            stream = np.random.default_rng([seed, 7])
            np.testing.assert_array_equal(prefix,
                                          stream.integers(num_items, size=len(prefix)))
            at.integers(num_items, size=int(np.flatnonzero(prefix == want[-1])[0]) + 1)
        assert at.integers(1 << 62) == want_rng.integers(1 << 62)


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


def _match_scalar_ranks(ms, ds, split, negatives, seed, social_fusion=False):
    got = _user_ranks(ms, ds, split, negatives, seed, social_fusion)
    want = seed_user_ranks(ms, ds, split, negatives, seed, social_fusion)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


def _pools(ds, split):
    """Each evaluated user's count of unknown items."""
    users = (ds.val_edges if split == "val" else ds.test_edges)[:, 0]
    return ds.num_items - np.diff(ds.known_item_lists().indptr)[users]


def test_user_ranks_span_blocks():
    ds = random_dataset(800, 2000, min_items=3, max_items=8, tie_prob=0.002, seed=8)
    ms, _, _ = make_encoded(ds, dim=8, layers=1)
    rows = graph.CHUNK // 100  # users per block at 99 negatives
    for split, seed in (("test", 0), ("val", 5)):
        users = len(_pools(ds, split))
        assert users > rows and users % rows
        _match_scalar_ranks(ms, ds, split, 99, seed, social_fusion=split == "val")


def test_user_ranks_redraw_short_prefixes(monkeypatch):
    """With a first prefix of `count` draws, only the rows whose first
    round draws no known item and no repeat are done; the rest redraw."""
    ds = random_dataset(120, 300, min_items=20, max_items=60, tie_prob=0.02, seed=9)
    ms, _, _ = make_encoded(ds, dim=8, layers=1)
    assert (_pools(ds, "test") > 4 * 30).all()  # every row draws a prefix
    monkeypatch.setattr(eval_mod, "_prefix_length", lambda unknown, items, count: count)
    drawn, fresh = [], eval_mod.first_fresh

    def recorded(keys, listed):
        drawn.append(keys.shape)
        return fresh(keys, listed)

    monkeypatch.setattr(eval_mod, "first_fresh", recorded)
    _match_scalar_ranks(ms, ds, "test", 30, 2)
    assert drawn[0] == (len(ds.test_edges), 30)
    # most rows, not all, needed a longer prefix
    assert len(ds.test_edges) // 2 < drawn[1][0] < len(ds.test_edges)


def test_user_ranks_mix_branches_in_one_block():
    """Shuffled, prefix-drawn and skipped users side by side in one block."""
    ds = random_dataset(90, 150, min_items=3, max_items=130, tie_prob=0.05, seed=10)
    ms, _, _ = make_encoded(ds, dim=8, layers=1)
    pools = _pools(ds, "test")
    assert len(pools) <= graph.CHUNK // 31
    assert (pools < 30).any() and ((pools >= 30) & (pools <= 120)).any()
    assert (pools > 120).any()
    for social_fusion in (False, True):
        _match_scalar_ranks(ms, ds, "test", 30, 4, social_fusion)


class RecordingPool(ThreadPoolExecutor):
    """A stand-in for the shared pool that keeps every future it hands out
    and the most of them unfinished at once, the new one included."""

    def __init__(self, workers):
        super().__init__(workers, thread_name_prefix="recording")
        self.futures, self.most_pending = [], 0

    def submit(self, fn, /, *args, **kwargs):
        pending = sum(not f.done() for f in self.futures) + 1
        self.most_pending = max(self.most_pending, pending)
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def small_blocks(monkeypatch):
    """Seven users a block at 30 negatives: the branch-mixing dataset's 90
    test and 90 validation users each split into 13 blocks."""
    monkeypatch.setattr(eval_mod, "CHUNK", 7 * 31)
    ds = random_dataset(90, 150, min_items=3, max_items=130, tie_prob=0.05, seed=10)
    ms, _, _ = make_encoded(ds, dim=8, layers=1)
    return ds, ms


@pytest.mark.parametrize("social_fusion", [False, True])
@pytest.mark.parametrize("workers,switch", [(1, None), (3, None), (graph.CPUS, 1e-6)],
                         ids=["one_worker", "three_workers", "switch_interval"])
def test_pipelined_ranks_match_scalar_loop(small_blocks, monkeypatch, workers, switch,
                                           social_fusion):
    """Blocks scored on the pool while the next is drawn rank as the
    scalar loop does, whatever the worker count or thread switching, with
    at most one block per CPU unfinished. A pause between a block's
    scores and its ranks lets the next blocks' tasks run in between."""
    ds, ms = small_blocks
    pool = RecordingPool(workers)
    monkeypatch.setattr(graph, "_pool", pool)
    monkeypatch.setattr(eval_mod, "CPUS", workers)
    rank = eval_mod.held_out_rank

    def paused(scores, cand):
        time.sleep(0.002)
        return rank(scores, cand)

    monkeypatch.setattr(eval_mod, "held_out_rank", paused)
    old = sys.getswitchinterval()
    if switch is not None:
        sys.setswitchinterval(switch)
    try:
        for split, seed in (("test", 4), ("val", 1)):
            _match_scalar_ranks(ms, ds, split, 30, seed, social_fusion)
        assert _user_ranks(ms, ds, "test", 30, 4, social_fusion)[2] > 0
    finally:
        sys.setswitchinterval(old)
        pool.shutdown()
    assert len(pool.futures) == 3 * 13 and pool.most_pending <= workers  # 13 blocks a call


def test_drawing_error_waits_for_scoring(small_blocks, monkeypatch):
    """An error while a block is drawn reaches the caller only after every
    block already submitted is scored."""
    ds, ms = small_blocks
    pool = RecordingPool(2)
    monkeypatch.setattr(graph, "_pool", pool)
    monkeypatch.setattr(eval_mod, "CPUS", 2)
    calls, draw, score = [], eval_mod._sample_negatives, eval_mod._block_ranks

    def failing(*args):
        calls.append(len(calls))
        if len(calls) == 3:
            raise RuntimeError("third draw failed")
        return draw(*args)

    def slow(*args):
        time.sleep(0.2)
        return score(*args)

    monkeypatch.setattr(eval_mod, "_sample_negatives", failing)
    monkeypatch.setattr(eval_mod, "_block_ranks", slow)
    try:
        with pytest.raises(RuntimeError, match="third draw failed"):
            eval_mod.evaluate(ms, ds, "test", 30)
        assert len(pool.futures) == 2
        assert all(f.done() for f in pool.futures)
    finally:
        pool.shutdown()


@settings(max_examples=100, deadline=None)
@example(seed=0, users=[0, 2**32 - 1])
@example(seed=2**32, users=[1, 0])
@example(seed=2**64 + 3, users=[5, 2**32 - 1])  # seed and user fill the 4-word pool
@example(seed=2**96 + 3, users=[5, 0])          # one entropy word past the pool
@example(seed=2**128 - 1, users=[0, 2**31])
@given(seed=st.integers(0, 2**128 - 1),
       users=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12))
def test_bulk_stream_states_equal_default_rng(seed, users):
    states, incs = _stream_states(seed, np.array(users, dtype=np.int64))
    assert [_pcg64(s, i) for s, i in zip(states, incs)] == [
        np.random.default_rng([seed, u]).bit_generator.state for u in users]


def test_negative_evaluation_seed_refused():
    with pytest.raises(ValueError, match="evaluation seed must be >= 0"):
        _stream_states(-1, np.arange(3))


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


# --- ingestion: the columnar tables against the per-edge loader they replace --

def seed_load_edges(path, kind):
    """The original loader: one tuple per edge, a set of them for the
    dedupe. Returns (edges, malformed, self-ties dropped)."""
    seen, edges, malformed, self_loops = set(), [], 0, 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.replace(",", " ").split()
            if len(toks) < 2:
                malformed += 1
                continue
            a, b = toks[0], toks[1]
            if kind == "social":
                if a == b:
                    self_loops += 1
                    continue
                for pair in ((a, b), (b, a)):
                    if pair not in seen:
                        seen.add(pair)
                        edges.append(pair)
            elif (a, b) not in seen:
                seen.add((a, b))
                edges.append((a, b))
    return edges, malformed, self_loops


def seed_build_dataset(inter_edges, soc_edges, split_seed):
    """The original builder over id-pair lists: per-edge dict lookups, one
    rng.choice per user with two or more items, sorted set of ties.
    Returns (user_ids, item_ids, train, val, test, social)."""
    if not inter_edges:
        raise ValueError("empty interaction table")
    user_index, user_ids, item_index, item_ids, per_user = {}, [], {}, [], []
    for a, b in inter_edges:
        if a not in user_index:
            user_index[a] = len(user_ids)
            user_ids.append(a)
            per_user.append([])
        if b not in item_index:
            item_index[b] = len(item_ids)
            item_ids.append(b)
        per_user[user_index[a]].append(item_index[b])
    social_pairs = []
    for a, b in soc_edges:
        for ext in (a, b):
            if ext not in user_index:
                user_index[ext] = len(user_ids)
                user_ids.append(ext)
                per_user.append([])
        social_pairs.append((user_index[a], user_index[b]))
    rng = np.random.default_rng(split_seed)
    train, val, test = [], [], []
    for u, items in enumerate(per_user):
        k = len(items)
        if k == 0:
            continue
        if k == 1:
            train.append((u, items[0]))
            continue
        pick = rng.choice(k, size=2 if k >= 3 else 1, replace=False)
        test.append((u, items[pick[0]]))
        held = {int(pick[0])}
        if k >= 3:
            val.append((u, items[pick[1]]))
            held.add(int(pick[1]))
        train.extend((u, v) for j, v in enumerate(items) if j not in held)
    arrays = [np.array(p, dtype=np.int64).reshape(-1, 2)
              for p in (train, val, test, sorted(set(social_pairs)))]
    return (user_ids, item_ids, *arrays)


def _assert_dataset_equals_seed(got, want):
    assert got.user_ids == want[0] and got.item_ids == want[1]
    assert [type(i) for i in got.user_ids] == [type(i) for i in want[0]]
    for name, arr in zip(("train_edges", "val_edges", "test_edges", "social_edges"),
                         want[2:]):
        assert getattr(got, name).dtype == np.int64
        np.testing.assert_array_equal(getattr(got, name), arr)


IDS = ["1", "2", "10", "01", "u1", "u2", "a", "#b", "é"]
SEPARATORS = [" ", "\t", ",", " , ", ",,", "\x0b", "\x1f", " "]


@st.composite
def edge_lines(draw):
    """One raw line: an edge (maybe with extra columns and padding), a
    comment, a blank line, a one-token line, or the comma/hash mixes that
    only the order of the comment test tells apart."""
    kind = draw(st.sampled_from(["edge"] * 6 + ["self", "comment", "blank", "one",
                                                 "comma_hash", "hash_comma"]))
    a, b = draw(st.sampled_from(IDS)), draw(st.sampled_from(IDS))
    sep = draw(st.sampled_from(SEPARATORS))
    pad = draw(st.sampled_from(["", " ", "\t", " \t "]))
    extra = draw(st.lists(st.sampled_from(["4", "1234567", "x,y", "#"]), max_size=2))
    line = {"edge": sep.join([a, b, *extra]), "self": f"{a}{sep}{a}",
            "comment": f"# {a} {b}", "blank": "", "one": a,
            "comma_hash": f",#{sep}{b}", "hash_comma": f"#,{a}"}[kind]
    return pad + line + pad + draw(st.sampled_from(["\n", "\r\n", "\r"]))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


@settings(max_examples=150, deadline=None)
@example(inter_lines=["u1 a\n", ",# x\n", "#,x\n", "u1 a 5\n"],
         soc_lines=["u1,u2\r\n", "u2 u1\n", "u9 u9\n", "u1\n", "u2\tu9 3\n"],
         split_seed=0)
@given(inter_lines=st.lists(edge_lines(), max_size=40),
       soc_lines=st.lists(edge_lines(), max_size=25),
       split_seed=st.integers(0, 3))
def test_loader_matches_per_edge_loader(tmp_path_factory, inter_lines, soc_lines,
                                        split_seed):
    from socrec.data import load_edges
    root = tmp_path_factory.mktemp("edges")
    _write_lines(root / "i.txt", inter_lines)
    _write_lines(root / "s.txt", soc_lines)
    inter = load_edges(str(root / "i.txt"), "interaction")
    soc = load_edges(str(root / "s.txt"), "social")
    inter_edges, inter_bad, _ = seed_load_edges(str(root / "i.txt"), "interaction")
    soc_edges, soc_bad, self_loops = seed_load_edges(str(root / "s.txt"), "social")
    assert (inter.malformed, soc.malformed, soc.self_loops_dropped) == (
        inter_bad, soc_bad, self_loops)
    assert len(inter.pairs) == len(inter_edges) and len(soc.pairs) == len(soc_edges)
    try:
        want = seed_build_dataset(inter_edges, soc_edges, split_seed)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            build_dataset(inter, soc, split_seed=split_seed)
        return
    _assert_dataset_equals_seed(build_dataset(inter, soc, split_seed=split_seed), want)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.one_of(st.integers(0, 4), st.sampled_from(["0", "a"])),
                                st.one_of(st.integers(0, 6), st.sampled_from(["0", "x"]))),
                      min_size=1, max_size=40),
       ties=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=15),
       split_seed=st.integers(0, 3))
def test_hand_built_tables_match_loaded_ones(pairs, ties, split_seed):
    """Tables of int and str ids build what the per-edge builder builds
    from the same pairs deduplicated, and ties symmetrized without
    self-ties, as load_edges left them; ids keep their type."""
    soc_edges = list(dict.fromkeys(p for a, b in ties if a != b
                                   for p in ((a, b), (b, a))))
    want = seed_build_dataset(list(dict.fromkeys(pairs)), soc_edges, split_seed)
    soc = SocialTable.of(ties)
    assert soc.self_loops_dropped == sum(a == b for a, b in ties)
    got = build_dataset(InteractionTable.of(pairs), soc, split_seed=split_seed)
    _assert_dataset_equals_seed(got, want)


def seed_pair_tokens(path):
    """The original dataset-directory pair reader: `str.split` per line,
    lines with fewer than two tokens dropped unseen."""
    tokens = []
    with open(path) as fh:
        for toks in map(str.split, fh):
            if len(toks) >= 2:
                tokens += toks[:2]
    return tokens


@settings(max_examples=80, deadline=None)
@example(pairs=[(0, 0), (1, 1), (2, 0)], ties=[], split_seed=0)  # no val, test or ties
@example(pairs=[(0, 0), (0, 1), (1, 1)], ties=[(0, 0)], split_seed=1)  # no val or ties
@given(pairs=st.lists(st.tuples(st.integers(0, 6),
                                st.one_of(st.integers(0, 9), st.sampled_from(["a", "b"]))),
                      min_size=1, max_size=50),
       ties=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=15),
       split_seed=st.integers(0, 3))
def test_pair_files_tokenize_as_split_reader(tmp_path_factory, pairs, ties, split_seed):
    """The shared edge-file tokenizer reads every pair file that
    save_dataset writes as the per-line `str.split` reader did, and the
    directory loads back as the dataset saved."""
    ds = build_dataset(InteractionTable.of(pairs), SocialTable.of(ties),
                       split_seed=split_seed)
    root = tmp_path_factory.mktemp("dataset")
    save_dataset(ds, str(root))
    for name in ("train.txt", "val.txt", "test.txt", "social.txt"):
        assert _edge_tokens(str(root / name)) == (seed_pair_tokens(str(root / name)), 0)
    back = load_dataset(str(root))
    assert (back.num_users, back.num_items, back.split_seed) == (
        ds.num_users, ds.num_items, split_seed)
    for name in ("train_edges", "val_edges", "test_edges", "social_edges"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))


def seed_inject_noise(ds, ratio, seed):
    """The original noise injection: one scalar user and item draw per try,
    a set of every taken pair."""
    count = int(ratio * len(ds.train_edges))
    if count == 0:
        return ds.train_edges
    existing = {(int(u), int(v)) for arr in (ds.train_edges, ds.val_edges, ds.test_edges)
                for u, v in arr}
    capacity = ds.num_users * ds.num_items - len(existing)
    if count > capacity:
        raise ValueError(f"cannot place {count} fake edges, only {capacity} free cells")
    rng = np.random.default_rng(seed)
    fake = []
    while len(fake) < count:
        u = int(rng.integers(ds.num_users))
        v = int(rng.integers(ds.num_items))
        if (u, v) not in existing:
            existing.add((u, v))
            fake.append((u, v))
    return np.concatenate([ds.train_edges, np.array(fake, dtype=np.int64)])


@settings(max_examples=120, deadline=None)
# 1 user, 6 items: train 4, val 1, test 1; with 10 items the 4 fakes fill
# every free cell, with 9 there is one cell too few
@example(rows=[list(range(6))], extra_items=4, ratio=1.0, seed=0)
@example(rows=[list(range(6))], extra_items=3, ratio=1.0, seed=0)
@example(rows=[[0, 1, 2], [1, 2, 3], [0, 3, 4]], extra_items=0, ratio=1.0, seed=1)
# 36 fakes fill the 36 free cells of 84: more draws than one block holds
@example(rows=[list(range(8))] * 6, extra_items=6, ratio=1.0, seed=2)
@given(rows=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
                     min_size=1, max_size=6),
       extra_items=st.integers(0, 12),
       ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_inject_noise_matches_scalar_loop(rows, extra_items, ratio, seed):
    """Bulk-drawn fakes are the scalar loop's fakes, up to a full matrix;
    past capacity both refuse with the same message."""
    pairs = [(u, v) for u, items in enumerate(rows) for v in items]
    ds = build_dataset(InteractionTable.of(pairs), SocialTable.of([]), split_seed=seed)
    ds = replace(ds, num_items=ds.num_items + extra_items)
    try:
        want = seed_inject_noise(ds, ratio, seed)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{err}$"):
            inject_noise(ds, ratio, seed)
        return
    np.testing.assert_array_equal(inject_noise(ds, ratio, seed).train_edges, want)
