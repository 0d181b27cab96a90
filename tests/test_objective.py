import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from socrec.data import InteractionTable, SocialTable, build_dataset, load_edges
from socrec.model import pair_rows, projection_forward
from socrec.objective import (AdamState, Batch, NonFiniteLossError, TrainConfig,
                              adam_step, bpr_loss, compute_gradients,
                              joint_loss, sample_batch, ssl_hinge_loss,
                              _hinge_term, _infonce_grads)
from socrec.synthetic import random_dataset

from conftest import make_encoded


def empty_batch():
    return Batch(rec_triples=np.zeros((0, 3), dtype=np.int64),
                 soc_triples=np.zeros((0, 3), dtype=np.int64),
                 ssl_pairs=np.zeros((0, 2), dtype=np.int64))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.effective_weights() == (cfg.lambda1, cfg.lambda2)

    @pytest.mark.parametrize("kw", [
        {"lambda1": -0.1}, {"lr_decay": 0.0}, {"lr_decay": 1.5},
        {"batch": 0}, {"infonce_tau": 0.0}, {"variant": "bogus"},
        {"agg": "max"},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_variant_weight_semantics(self):
        base = dict(lambda1=0.3, lambda2=0.7)
        assert TrainConfig(variant="no_align", **base).effective_weights() == (0.3, 0.0)
        assert TrainConfig(variant="direct_social", **base).effective_weights() == (0.0, 0.0)
        assert TrainConfig(variant="contrastive", **base).effective_weights() == (0.3, 0.7)
        assert TrainConfig(variant="direct_social").social_fusion


class TestSampleBatch:
    def test_list_lengths(self, tiny_ds, rng):
        batch = sample_batch(tiny_ds, TrainConfig(batch=4), rng)
        assert batch.rec_triples.shape == (4, 3)
        assert batch.soc_triples.shape == (4, 3)
        assert batch.ssl_pairs.shape == (4, 2)

    def test_forced_negative(self, rng):
        # one user, two items, one train positive: v_neg is pinned
        inter = InteractionTable.of([("u", "a"), ("u", "b")])
        ds = build_dataset(inter, SocialTable.of([]))  # 1 train + 1 test
        batch = sample_batch(ds, TrainConfig(batch=16), rng)
        train_item = int(ds.train_edges[0, 1])
        other = 1 - train_item
        assert (batch.rec_triples[:, 1] == train_item).all()
        assert (batch.rec_triples[:, 2] == other).all()

    def test_positives_are_train_items(self, tiny_ds, rng):
        batch = sample_batch(tiny_ds, TrainConfig(batch=64), rng)
        lists = tiny_ds.train_item_lists()
        for u, vp, vn in batch.rec_triples:
            items = lists.items[lists.indptr[u]:lists.indptr[u + 1]].tolist()
            assert int(vp) in items
            assert int(vn) not in items

    def test_social_triples_respect_ties(self, tiny_ds, rng):
        batch = sample_batch(tiny_ds, TrainConfig(batch=64), rng)
        lists = tiny_ds.tie_lists()
        for i, ip, ineg in batch.soc_triples:
            ties = lists.items[lists.indptr[i]:lists.indptr[i + 1]].tolist()
            assert int(ip) in ties
            assert int(ineg) not in ties
            assert int(ineg) != int(i)

    def test_social_empty_allowed_when_skipped(self, rng):
        inter = InteractionTable.of([("u", "a"), ("u", "b"), ("u", "c")])
        ds = build_dataset(inter, SocialTable.of([]))
        cfg = TrainConfig(batch=4)
        assert cfg.effective_weights()[0] > 0  # social loss weighted, but no ties
        batch = sample_batch(ds, cfg, rng)
        assert batch.soc_triples.shape == (0, 3)

    def test_user_with_every_item_fatal(self, rng):
        inter = InteractionTable.of([("u", "a")])
        ds = build_dataset(inter, SocialTable.of([]))
        with pytest.raises(ValueError):
            sample_batch(ds, TrainConfig(batch=2), rng)

    def test_user_tied_to_everyone_fatal(self, rng):
        inter = InteractionTable.of([("u0", "a"), ("u0", "b"),
                                        ("u1", "a"), ("u1", "b")])
        soc = SocialTable.of([("u0", "u1"), ("u1", "u0")])
        ds = build_dataset(inter, soc)
        with pytest.raises(ValueError):
            sample_batch(ds, TrainConfig(batch=2), rng)

    def test_negative_distribution_uniform(self):
        # single user, 3 train items out of 10: v_neg uniform over the other 7
        items = [("u", f"i{k}") for k in range(5)]
        ds = dataclasses.replace(build_dataset(InteractionTable.of(items),
                                               SocialTable.of([]), split_seed=0),
                                 num_items=10)
        lists = ds.train_item_lists()
        assert len(lists.items[lists.indptr[0]:lists.indptr[1]]) == 3
        rng = np.random.default_rng(999)
        draws = sample_batch(ds, TrainConfig(batch=100_000), rng).rec_triples[:, 2]
        counts = np.bincount(draws, minlength=10)
        candidates = counts[counts > 0]
        assert len(candidates) == 7
        assert chisquare(candidates).pvalue > 0.01

    def test_positive_distribution_uniform(self):
        # single user, 6 train items out of 8: v_pos uniform over the 6
        items = [("u", f"i{k}") for k in range(8)]
        ds = build_dataset(InteractionTable.of(items), SocialTable.of([]))
        lists = ds.train_item_lists()
        train = lists.items[lists.indptr[0]:lists.indptr[1]]
        assert len(train) == 6
        rng = np.random.default_rng(998)
        draws = sample_batch(ds, TrainConfig(batch=60_000), rng).rec_triples[:, 1]
        counts = np.bincount(draws, minlength=8)
        assert counts.sum() == counts[train].sum()
        assert chisquare(counts[train]).pvalue > 0.01

    def test_social_negative_distribution_uniform(self):
        # ten users, u0 tied to u1 and u2: u0's negatives uniform over the
        # other 7 users, and no row's negative is its anchor
        inter = InteractionTable.of([(f"u{k}", v) for k in range(10) for v in "ab"])
        ties = [("u0", "u1"), ("u1", "u0"), ("u0", "u2"), ("u2", "u0")]
        ds = build_dataset(inter, SocialTable.of(ties))
        rng = np.random.default_rng(997)
        anchor, _, neg = sample_batch(ds, TrainConfig(batch=100_000), rng).soc_triples.T
        assert (neg != anchor).all()
        counts = np.bincount(neg[anchor == 0], minlength=10)
        assert counts[:3].tolist() == [0, 0, 0]
        assert chisquare(counts[3:]).pvalue > 0.01

    def test_training_stream_is_pinned(self):
        """The training stream: the batch the pinned fixture gives at seed 0."""
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "pinned")
        ds = build_dataset(
            load_edges(os.path.join(fixture, "interactions.txt"), "interaction"),
            load_edges(os.path.join(fixture, "social.txt"), "social"))
        batch = sample_batch(ds, TrainConfig(batch=64), np.random.default_rng(0))
        assert batch.rec_triples[:3].tolist() == [[127, 258, 269], [94, 26, 89],
                                                  [76, 195, 270]]
        assert batch.soc_triples[:3].tolist() == [[23, 35, 57], [77, 114, 64],
                                                  [146, 68, 64]]
        assert batch.ssl_pairs[:3].tolist() == [[78, 147], [5, 85], [67, 0]]
        digest = hashlib.sha256()
        for arr in (batch.rec_triples, batch.soc_triples, batch.ssl_pairs):
            digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        assert digest.hexdigest() == ("5cf97d6b6d0d9933cb5707e616c684d0"
                                      "75a51a1e7dee15d3f19f7f2ad0bb11e4")


class TestBprLoss:
    def test_equal_scores_ln2(self):
        assert bpr_loss([1.0], [1.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_no_overflow(self):
        loss = bpr_loss([40.0], [0.0])
        assert 0 <= loss < 1e-12

    def test_matches_naive_formula(self, rng):
        pos = rng.uniform(-10, 10, size=200)
        neg = rng.uniform(-10, 10, size=200)
        naive = sum(-math.log(1.0 / (1.0 + math.exp(-(p - n))))
                    for p, n in zip(pos, neg))
        assert bpr_loss(pos, neg) == pytest.approx(naive, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bpr_loss([1.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-500, 500), min_size=1, max_size=20),
           st.lists(st.floats(-500, 500), min_size=1, max_size=20))
    def test_always_finite_nonnegative(self, pos, neg):
        n = min(len(pos), len(neg))
        loss = bpr_loss(pos[:n], neg[:n])
        assert math.isfinite(loss) and loss >= 0


class TestHingeLoss:
    def test_saturated_pair_zero(self):
        assert ssl_hinge_loss([1.0], [1.0]) == 0.0
        assert ssl_hinge_loss([0.8], [2.0]) == 0.0

    def test_half_zero_pair(self):
        assert ssl_hinge_loss([0.5], [0.0]) == 1.0

    def test_sum_over_pairs(self):
        assert ssl_hinge_loss([0.5, 1.0], [0.0, 1.0]) == 1.0

    def test_negative_product_grows(self):
        assert ssl_hinge_loss([0.5], [-2.0]) == 2.0


class TestInfoNCE:
    def test_orthogonal_closed_form(self):
        anchors = np.eye(2)
        loss = _infonce_grads(anchors, anchors.copy(), tau=1.0)[0]
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)

    def test_batch_of_one_zero(self):
        a = np.array([[0.3, -0.4]])
        assert _infonce_grads(a, a * 2.0, tau=0.2)[0] == 0.0

    def test_matches_bruteforce_softmax(self, rng):
        A = rng.normal(size=(6, 4))
        B = rng.normal(size=(6, 4))
        tau = 0.3
        Ah = A / np.linalg.norm(A, axis=1, keepdims=True)
        Bh = B / np.linalg.norm(B, axis=1, keepdims=True)
        S = Ah @ Bh.T / tau
        ref = np.mean([-math.log(math.exp(S[i, i]) / sum(math.exp(S[i, k])
                                                         for k in range(6)))
                       for i in range(6)])
        assert _infonce_grads(A, B, tau)[0] == pytest.approx(ref, abs=1e-10)

    def test_zero_norm_fatal(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            _infonce_grads(A, np.ones_like(A), tau=0.1)

    def test_gradients_match_finite_differences(self, rng):
        from socrec.oracle import finite_difference
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(4, 3))
        _, dA, dB = _infonce_grads(A, B, 0.4)
        params = {"A": A, "B": B}
        numeric = finite_difference(
            lambda p: _infonce_grads(p["A"], p["B"], 0.4)[0], params, step=1e-6)
        np.testing.assert_allclose(dA, numeric["A"], atol=1e-8)
        np.testing.assert_allclose(dB, numeric["B"], atol=1e-8)


class TestJointLoss:
    def test_all_weights_zero_total_is_rec(self, encoded, rng):
        ds, ms, _, _ = encoded
        cfg = TrainConfig(dim=4, layers=2, lambda1=0, lambda2=0, lambda3=0)
        batch = sample_batch(ds, TrainConfig(batch=8), rng)
        total, parts = joint_loss(batch, ms, cfg)
        assert total == parts["rec"]

    def test_zero_embeddings_zero_regularizer(self, encoded, rng):
        ds, ms, _, _ = encoded
        ms.E_u[:] = 0
        ms.E_v[:] = 0
        cfg = TrainConfig(dim=4, layers=2, lambda3=1.0)
        batch = sample_batch(ds, TrainConfig(batch=4), rng)
        _, parts = joint_loss(batch, ms, cfg)
        assert parts["reg"] == 0.0

    def test_matches_recomputation(self, encoded, rng):
        ds, ms, _, _ = encoded
        cfg = TrainConfig(dim=4, layers=2, lambda1=0.2, lambda2=0.4,
                          lambda3=0.01)
        batch = sample_batch(ds, TrainConfig(batch=8), rng)
        total, parts = joint_loss(batch, ms, cfg)
        I = ms.num_users
        rec = 0.0
        for u, vp, vn in batch.rec_triples:
            x = ms.agg_r[u] @ ms.agg_r[I + vp] - ms.agg_r[u] @ ms.agg_r[I + vn]
            rec += -math.log(1.0 / (1.0 + math.exp(-x)))
        soc = 0.0
        for i, ip, ineg in batch.soc_triples:
            x = ms.agg_s[i] @ ms.agg_s[ip] - ms.agg_s[i] @ ms.agg_s[ineg]
            soc += -math.log(1.0 / (1.0 + math.exp(-x)))
        align = 0.0
        for i, j in batch.ssl_pairs:
            z, _ = projection_forward(ms.params, pair_rows(ms.agg_r, [i], [j]))
            zhat = float(ms.agg_s[i] @ ms.agg_s[j])
            align += max(0.0, 1.0 - float(z[0]) * zhat)
        reg = float((ms.E_u ** 2).sum() + (ms.E_v ** 2).sum())
        expect = rec + 0.2 * soc + 0.4 * align + 0.01 * reg
        assert total == pytest.approx(expect, abs=1e-10)
        assert parts["rec"] == pytest.approx(rec, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_component_named(self, encoded, rng):
        ds, ms, _, _ = encoded
        ms.agg_r[0, 0] = np.inf
        cfg = TrainConfig(dim=4, layers=2)
        batch = sample_batch(ds, TrainConfig(batch=8), rng)
        with pytest.raises(NonFiniteLossError) as err:
            joint_loss(batch, ms, cfg)
        assert err.value.component in ("rec", "social", "align", "reg", "total")

    def test_requires_encode(self, tiny_ds, rng):
        from socrec.model import init_model
        ms = init_model(tiny_ds.num_users, tiny_ds.num_items, 4, seed=0)
        with pytest.raises(ValueError):
            joint_loss(empty_batch(), ms, TrainConfig(dim=4))


class TestHingeGradients:
    def test_inactive_pairs_zero_gradient(self, encoded):
        _, ms, _, _ = encoded
        # scale social rows so every product clears the margin
        ms.agg_s[:] = np.abs(ms.agg_s) + 1.0
        ms.agg_s *= 10.0
        i = np.array([0, 1])
        j = np.array([2, 3])
        loss, active, rows, proj = _hinge_term(
            ms.params, pair_rows(ms.agg_r, i, j), ms.agg_s[i], ms.agg_s[j])
        z, _ = projection_forward(ms.params, pair_rows(ms.agg_r, i, j))
        zhat = (ms.agg_s[i] * ms.agg_s[j]).sum(axis=1)
        assert (z * zhat >= 1).all()
        assert loss == 0.0
        assert not len(active)
        for g in (*rows, *proj):
            assert not g.any()

    def test_social_side_gradient_formula(self, encoded, rng):
        # with w = 0 the projection path carries nothing, so the whole
        # embedding gradient is the adaptive pull -z * (partner row)
        ds, ms, g_r, g_s = encoded
        from socrec.model import encode
        ms.params.w[:] = 0.0
        encode(ms, g_r, g_s, 0)  # L=0: agg_s is E_u itself
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        cfg = TrainConfig(dim=4, layers=0, lambda1=0.0, lambda2=1.0,
                          lambda3=0.0)
        batch = Batch(rec_triples=np.zeros((0, 3), dtype=np.int64),
                      soc_triples=np.zeros((0, 3), dtype=np.int64),
                      ssl_pairs=pairs)
        grads = compute_gradients(batch, ms, cfg)
        z, _ = projection_forward(ms.params, pair_rows(ms.agg_r, pairs[:, 0],
                                                       pairs[:, 1]))
        zhat = (ms.agg_s[pairs[:, 0]] * ms.agg_s[pairs[:, 1]]).sum(axis=1)
        expect = np.zeros_like(ms.E_u)
        for k, (i, j) in enumerate(pairs):
            if z[k] * zhat[k] < 1.0:
                expect[i] += -z[k] * ms.agg_s[j]
                expect[j] += -z[k] * ms.agg_s[i]
        np.testing.assert_allclose(grads.E_u, expect, atol=1e-12)


class TestComputeGradients:
    def test_empty_batch_zero_weights_zero_grads(self, encoded):
        _, ms, _, _ = encoded
        cfg = TrainConfig(dim=4, layers=2, lambda1=0, lambda2=0, lambda3=0)
        grads = compute_gradients(empty_batch(), ms, cfg)
        for g in grads.as_dict().values():
            assert not g.any()

    def test_single_triple_hand_derivation(self):
        # zero layers: d rec / d e_u = -sigm(-(y+ - y-)) (e_v+ - e_v-)
        ds = random_dataset(4, 5, seed=6)
        ms, _, _ = make_encoded(ds, dim=3, layers=0)
        cfg = TrainConfig(dim=3, layers=0, lambda1=0, lambda2=0, lambda3=0)
        u, vp, vn = 1, 2, 3
        batch = Batch(rec_triples=np.array([[u, vp, vn]]),
                      soc_triples=np.zeros((0, 3), dtype=np.int64),
                      ssl_pairs=np.zeros((0, 2), dtype=np.int64))
        grads = compute_gradients(batch, ms, cfg)
        x = float(ms.E_u[u] @ (ms.E_v[vp] - ms.E_v[vn]))
        coef = -1.0 / (1.0 + math.exp(x))
        np.testing.assert_allclose(grads.E_u[u],
                                   coef * (ms.E_v[vp] - ms.E_v[vn]), atol=1e-12)
        np.testing.assert_allclose(grads.E_v[vp], coef * ms.E_u[u], atol=1e-12)
        np.testing.assert_allclose(grads.E_v[vn], -coef * ms.E_u[u], atol=1e-12)
        # parameters the batch never touches stay at exactly zero
        untouched_u = [k for k in range(ds.num_users) if k != u]
        untouched_v = [k for k in range(ds.num_items) if k not in (vp, vn)]
        assert not grads.E_u[untouched_u].any()
        assert not grads.E_v[untouched_v].any()
        assert not grads.T.any() and not grads.w.any() and not grads.c.any()

    def test_repeated_indices_accumulate(self):
        ds = random_dataset(4, 5, seed=6)
        ms, _, _ = make_encoded(ds, dim=3, layers=0)
        cfg = TrainConfig(dim=3, layers=0, lambda1=0, lambda2=0, lambda3=0)
        triple = [1, 2, 3]
        single = Batch(rec_triples=np.array([triple]),
                       soc_triples=np.zeros((0, 3), dtype=np.int64),
                       ssl_pairs=np.zeros((0, 2), dtype=np.int64))
        double = Batch(rec_triples=np.array([triple, triple]),
                       soc_triples=np.zeros((0, 3), dtype=np.int64),
                       ssl_pairs=np.zeros((0, 2), dtype=np.int64))
        g1 = compute_gradients(single, ms, cfg)
        g2 = compute_gradients(double, ms, cfg)
        np.testing.assert_allclose(g2.E_u, 2 * g1.E_u, atol=1e-12)


class TestAdam:
    def _model(self):
        ds = random_dataset(3, 4, seed=0)
        ms, _, _ = make_encoded(ds, dim=2, layers=0)
        return ms

    def _zero_grads(self, ms):
        from socrec.objective import GradientSet
        return GradientSet.from_arrays({"E_u": np.zeros_like(ms.E_u),
                                        "E_v": np.zeros_like(ms.E_v),
                                        "T": np.zeros_like(ms.params.T),
                                        "w": np.zeros_like(ms.params.w),
                                        "c": np.zeros_like(ms.params.c)})

    def test_zero_gradient_no_change(self):
        ms = self._model()
        before = ms.copy_params()
        opt = AdamState.for_model(ms)
        adam_step(ms, self._zero_grads(ms), opt, t=1, lr_t=0.1)
        after = ms.copy_params()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_constant_gradient_approaches_signed_lr(self):
        ms = self._model()
        opt = AdamState.for_model(ms)
        g = self._zero_grads(ms)
        g.E_u[:] = 3.0  # constant positive gradient
        lr = 0.01
        prev = ms.E_u.copy()
        for t in range(1, 200):
            adam_step(ms, g, opt, t=t, lr_t=lr)
            if t > 150:
                step = ms.E_u - prev
                np.testing.assert_allclose(step, -lr, rtol=1e-3)
            prev = ms.E_u.copy()

    def test_three_steps_match_scalar_trace(self):
        # hand-rolled scalar Adam on f(x) = x^2 starting at x = 1
        ms = self._model()
        ms.E_u[:] = 0
        ms.E_u[0, 0] = 1.0
        opt = AdamState.for_model(ms)
        x, m, v = 1.0, 0.0, 0.0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            g = self._zero_grads(ms)
            g.E_u[0, 0] = 2.0 * ms.E_u[0, 0]
            grad = 2.0 * x
            adam_step(ms, g, opt, t=t, lr_t=lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            assert ms.E_u[0, 0] == pytest.approx(x, abs=1e-12)

    def test_step_index_validated(self):
        ms = self._model()
        opt = AdamState.for_model(ms)
        with pytest.raises(ValueError):
            adam_step(ms, self._zero_grads(ms), opt, t=0, lr_t=0.1)
