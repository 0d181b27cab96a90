import dataclasses

import numpy as np
import pytest

from socrec.data import InteractionTable, SocialTable, build_dataset
from socrec.graph import build_interaction_laplacian, build_social_laplacian
from socrec.model import aggregate_backward
from socrec.oracle import dense_forward, finite_difference
from socrec.selfcheck import forward_equivalence_check
from socrec.synthetic import random_dataset

from conftest import make_encoded


class TestFiniteDifference:
    def test_quadratic(self):
        params = {"x": np.array([3.0])}
        grads = finite_difference(lambda p: float(p["x"][0] ** 2), params,
                                  step=1e-6)
        assert grads["x"][0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_zero(self):
        params = {"x": np.arange(6, dtype=np.float64).reshape(2, 3)}
        grads = finite_difference(lambda p: 42.0, params)
        assert not grads["x"].any()

    def test_multivariate(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
        loss = lambda p: float(p["a"] @ p["a"] + 5 * p["b"][0, 0])
        grads = finite_difference(loss, params, step=1e-6)
        np.testing.assert_allclose(grads["a"], [2.0, 4.0], atol=1e-6)
        np.testing.assert_allclose(grads["b"], [[5.0]], atol=1e-6)

    def test_params_restored(self):
        params = {"x": np.array([1.0, -2.0])}
        finite_difference(lambda p: float(p["x"].sum()), params)
        np.testing.assert_array_equal(params["x"], [1.0, -2.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_probe_fatal(self):
        params = {"x": np.array([0.0])}
        with pytest.raises(ValueError):
            finite_difference(lambda p: float(np.log(p["x"][0])), params)

    def test_requires_float64(self):
        params = {"x": np.array([1.0], dtype=np.float32)}
        with pytest.raises(ValueError):
            finite_difference(lambda p: 0.0, params)


class TestDenseForward:
    def test_empty_graphs_identity(self, rng):
        inter = InteractionTable.of([("u0", "a"), ("u1", "b")])
        ds = dataclasses.replace(build_dataset(inter, SocialTable.of([])),
                                 train_edges=np.zeros((0, 2), dtype=np.int64))
        E_u = rng.normal(size=(ds.num_users, 3))
        E_v = rng.normal(size=(ds.num_items, 3))
        agg_r, agg_s = dense_forward(ds, E_u, E_v, 3)
        np.testing.assert_allclose(agg_r, 4 * np.vstack([E_u, E_v]), atol=1e-12)
        np.testing.assert_allclose(agg_s, 4 * E_u, atol=1e-12)

    def test_single_edge_one_layer(self, rng):
        inter = InteractionTable.of([("u", "v")])
        ds = build_dataset(inter, SocialTable.of([]))
        E_u = rng.normal(size=(1, 2))
        E_v = rng.normal(size=(1, 2))
        agg_r, _ = dense_forward(ds, E_u, E_v, 1)
        np.testing.assert_allclose(agg_r[0], 2 * E_u[0] + E_v[0], atol=1e-12)

    def test_size_cap_fatal(self):
        inter = InteractionTable.of([(f"u{k}", f"i{k}") for k in range(200)])
        ds = build_dataset(inter, SocialTable.of([]))
        with pytest.raises(ValueError):
            dense_forward(ds, np.zeros((200, 2)), np.zeros((200, 2)), 1)

    def test_agrees_with_sparse_pipeline_both_directions(self):
        ok, worst = forward_equivalence_check(num_graphs=20, max_nodes=64,
                                              seed=5)
        assert ok, f"worst deviation {worst}"

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    @pytest.mark.parametrize("repeat", ["train_pair", "tie"])
    def test_sparse_forward_counts_a_repeated_pair_once(self, repeat, agg):
        """A `replace` copy may list a pair twice; the sparse graphs, like
        the dense ones, hold it once."""
        ds = random_dataset(12, 15, tie_prob=0.3, seed=3)
        if repeat == "train_pair":
            ds = dataclasses.replace(ds, train_edges=np.concatenate(
                [ds.train_edges, ds.train_edges[:1]]))
        else:
            tie = ds.social_edges[:1]
            ds = dataclasses.replace(ds, social_edges=np.concatenate(
                [ds.social_edges, tie, tie[:, ::-1]]))
        ms, _, _ = make_encoded(ds, dim=3, layers=2, agg=agg)
        agg_r, agg_s = dense_forward(ds, ms.E_u, ms.E_v, 2, agg)
        np.testing.assert_allclose(ms.agg_r, agg_r, rtol=0, atol=1e-10)
        np.testing.assert_allclose(ms.agg_s, agg_s, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    @pytest.mark.parametrize("layers", [4, 5])
    def test_sum_of_powers_in_both_modes_deep(self, layers, agg):
        """`aggregate_backward` in place (the backward) and from `start`
        (the forward) against the dense sum of powers of each view: the
        dense forward of X's rows as the tables."""
        ds = random_dataset(12, 15, tie_prob=0.3, seed=3)
        I = ds.num_users
        rng = np.random.default_rng(layers)
        X_r, X_s = rng.normal(size=(I + ds.num_items, 5)), rng.normal(size=(I, 5))
        want_r, _ = dense_forward(ds, X_r[:I], X_r[I:], layers, agg)
        _, want_s = dense_forward(ds, X_s, X_r[I:], layers, agg)
        for g, X, want in ((build_interaction_laplacian(ds), X_r, want_r),
                           (build_social_laplacian(ds), X_s, want_s)):
            in_place = X.copy()
            aggregate_backward(g, in_place, layers, agg)
            from_start = aggregate_backward(g, np.full_like(X, np.nan), layers, agg,
                                            start=X)
            for got in (in_place, from_start):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
