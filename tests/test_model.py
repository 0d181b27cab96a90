import dataclasses
import os
import re

import numpy as np
import pytest

from socrec import model as model_mod
from socrec.data import InteractionTable, SocialTable, build_dataset
from socrec.graph import build_interaction_laplacian, build_social_laplacian
from socrec.model import (aggregate_backward, encode, init_model, load_checkpoint,
                          pair_rows, projection_forward, save_checkpoint,
                          user_vectors)
from socrec.objective import TrainConfig, compute_gradients, sample_batch
from socrec.oracle import dense_forward
from socrec.synthetic import random_dataset

from conftest import make_encoded

VIEWS = ("interaction", "social")  # the graphs' view tags, which name work arrays


class TestInit:
    def test_entries_bounded_by_scale(self):
        ms = init_model(20, 30, 64, seed=1)
        bound = 1.0 / np.sqrt(64)
        assert np.abs(ms.E_u).max() <= bound
        assert np.abs(ms.E_v).max() <= bound
        assert np.abs(ms.params.T).max() <= bound
        assert np.abs(ms.params.w).max() <= bound
        assert not ms.params.c.any()

    def test_same_seed_identical(self):
        a = init_model(5, 7, 8, seed=9)
        b = init_model(5, 7, 8, seed=9)
        np.testing.assert_array_equal(a.E_u, b.E_u)
        np.testing.assert_array_equal(a.E_v, b.E_v)
        np.testing.assert_array_equal(a.params.T, b.params.T)

    def test_golden_tiny_init(self):
        # regression pin: first-run values for I=J=1, d=2, seed=2024
        ms = init_model(1, 1, 2, seed=2024)
        np.testing.assert_allclose(ms.E_u, [[0.24866306, -0.404008]], atol=1e-8)
        np.testing.assert_allclose(ms.E_v, [[-0.26947552, 0.42350902]], atol=1e-8)
        np.testing.assert_allclose(
            ms.params.T,
            [[0.70117005, -0.50596062, -0.59577206, -0.45138329],
             [-0.19848927, -0.46722894, 0.12552463, 0.16519077]], atol=1e-8)
        np.testing.assert_allclose(ms.params.w, [-0.55806892, 0.09295774],
                                   atol=1e-8)

    def test_bad_dim_fatal(self):
        with pytest.raises(ValueError):
            init_model(3, 3, 0)


class TestEncode:
    def test_zero_layers_equals_stacked_tables(self, tiny_ds):
        ms, _, _ = make_encoded(tiny_ds, layers=0)
        np.testing.assert_array_equal(ms.agg_r,
                                      np.vstack([ms.E_u, ms.E_v]))
        np.testing.assert_array_equal(ms.agg_s, ms.E_u)

    def test_single_edge_one_layer(self):
        inter = InteractionTable.of([("u", "v")])
        ds = build_dataset(inter, SocialTable.of([]))
        ms, _, _ = make_encoded(ds, dim=3, layers=1)
        e_u, e_v = ms.E_u[0], ms.E_v[0]
        np.testing.assert_allclose(ms.agg_r[0], 2 * e_u + e_v, atol=1e-12)
        np.testing.assert_allclose(ms.agg_r[1], 2 * e_v + e_u, atol=1e-12)

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_three_layers_matches_dense_oracle(self, agg):
        ds = random_dataset(7, 9, tie_prob=0.4, seed=5)
        ms, _, _ = make_encoded(ds, dim=4, layers=3, agg=agg)
        ref_r, ref_s = dense_forward(ds, ms.E_u, ms.E_v, 3, agg)
        np.testing.assert_allclose(ms.agg_r, ref_r, atol=1e-10)
        np.testing.assert_allclose(ms.agg_s, ref_s, atol=1e-10)

    @staticmethod
    def _step(ds, ms, g_r, g_s, layers):
        """Encode, then pull one batch's gradients back; the work arrays."""
        encode(ms, g_r, g_s, layers)
        cfg = TrainConfig(dim=ms.dim, layers=layers, batch=8)
        compute_gradients(sample_batch(ds, cfg, np.random.default_rng(0)), ms, cfg)
        return {name: buf.shape for name, buf in ms.buffers.items()
                if name.startswith("work_")}

    @pytest.mark.parametrize("layers,forward,step", [
        (0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 2), (4, 1, 2)])
    def test_work_arrays_per_view(self, encoded, layers, forward, step):
        """The forward's partial sums alternate with the aggregation; the
        backward's stay apart from the gradient, which only the last
        overwrites, and at L = 1 the one partial sum is made apart too."""
        ds, _, g_r, g_s = encoded
        ms = init_model(ds.num_users, ds.num_items, 4, seed=7)
        encode(ms, g_r, g_s, layers)
        assert sorted(name for name in ms.buffers if name.startswith("work_")) == \
            sorted(f"work_{view}{k}" for view in VIEWS for k in range(forward))
        assert sorted(self._step(ds, ms, g_r, g_s, layers)) == \
            sorted(f"work_{view}{k}" for view in VIEWS for k in range(step))

    def test_buffers_do_not_grow_with_layers(self, encoded):
        ds, ms, g_r, g_s = encoded
        held = self._step(ds, ms, g_r, g_s, 4)
        assert len(held) == 4  # per view: two work arrays
        assert self._step(ds, ms, g_r, g_s, 8) == held

    def test_repeat_encode_identical(self, encoded):
        _, ms, g_r, g_s = encoded
        first = ms.agg_r.copy()
        encode(ms, g_r, g_s, ms.num_layers)
        np.testing.assert_array_equal(ms.agg_r, first)

    def test_dimension_mismatch_fatal(self, tiny_ds):
        ms = init_model(tiny_ds.num_users + 1, tiny_ds.num_items, 4, seed=0)
        g_r = build_interaction_laplacian(tiny_ds)
        g_s = build_social_laplacian(tiny_ds)
        with pytest.raises(ValueError):
            encode(ms, g_r, g_s, 1)

    def test_bad_agg_fatal(self, tiny_ds):
        ms = init_model(tiny_ds.num_users, tiny_ds.num_items, 4, seed=0)
        g_r = build_interaction_laplacian(tiny_ds)
        g_s = build_social_laplacian(tiny_ds)
        with pytest.raises(ValueError):
            encode(ms, g_r, g_s, 1, agg="max")

    @pytest.mark.parametrize("layers,agg,error", [
        (-1, "mean", "num_layers must be >= 0, got -1"),
        (-2, "sum", "num_layers must be >= 0, got -2"),
        (1, "max", "unknown aggregation 'max'")])
    def test_operator_refuses_bad_layers_or_agg(self, layers, agg, error):
        """The operator checks its own layer count and aggregation, so
        encode refuses them before it records anything."""
        ds = random_dataset(20, 30, seed=1)
        g_r, g_s = build_interaction_laplacian(ds), build_social_laplacian(ds)
        ms = init_model(ds.num_users, ds.num_items, 4, seed=0)
        with pytest.raises(ValueError, match=re.escape(error)):
            aggregate_backward(g_r, ms.E.copy(), layers, agg)
        with pytest.raises(ValueError, match=re.escape(error)):
            encode(ms, g_r, g_s, layers, agg)
        assert ms.agg_r is None and ms.num_layers == 0


class TestSimilarities:
    def test_zero_projection_gives_half(self, encoded):
        _, ms, _, _ = encoded
        ms.params.T[:] = 0
        ms.params.w[:] = 0
        ms.params.c[:] = 0
        z, _ = projection_forward(ms.params, pair_rows(ms.agg_r, [0, 2], [1, 2]))
        assert z.tolist() == [0.5, 0.5]

    def test_bounded_open_interval(self, encoded):
        _, ms, _, _ = encoded
        i = np.arange(ms.num_users)
        z, _ = projection_forward(ms.params,
                                  pair_rows(ms.agg_r, i, (i + 1) % ms.num_users))
        assert ((0.0 < z) & (z < 1.0)).all()

    def test_matches_straight_line_reimplementation(self, encoded):
        # independent scalar evaluation of the projection formula
        _, ms, _, _ = encoded
        i, j = 1, 4
        e_i, e_j = ms.agg_r[i], ms.agg_r[j]
        pre = ms.params.T @ np.concatenate([e_i, e_j]) + e_i + e_j + ms.params.c
        act = sum(ms.params.w[k] * (pre[k] if pre[k] > 0 else 0.01 * pre[k])
                  for k in range(len(pre)))
        expect = 1.0 / (1.0 + np.exp(-act))
        z, _ = projection_forward(ms.params, pair_rows(ms.agg_r, [i], [j]))
        assert z[0] == pytest.approx(expect, abs=1e-12)

    # The social similarity is the dot product of social rows; with the
    # interaction user rows zeroed, a fused user vector is its social row.
    @staticmethod
    def _social_rows(ms, *users):
        ms.agg_r[:ms.num_users] = 0.0
        return user_vectors(ms, list(users), social_fusion=True)

    def test_social_similarity_orthogonal_zero(self, encoded):
        _, ms, _, _ = encoded
        ms.agg_s[0] = [1.0, 0, 0, 0]
        ms.agg_s[1] = [0, 2.0, 0, 0]
        a, b = self._social_rows(ms, 0, 1)
        assert float(a @ b) == 0.0

    def test_social_similarity_self_norm(self, encoded):
        _, ms, _, _ = encoded
        a, b = self._social_rows(ms, 3, 3)
        val = float(a @ b)
        assert val == pytest.approx(float(ms.agg_s[3] @ ms.agg_s[3]), abs=1e-12)
        assert val >= 0

    def test_social_similarity_elementwise_oracle(self, encoded):
        _, ms, _, _ = encoded
        expect = float(sum(ms.agg_s[2][k] * ms.agg_s[5][k]
                           for k in range(ms.dim)))
        a, b = self._social_rows(ms, 2, 5)
        assert float(a @ b) == pytest.approx(expect, abs=1e-12)

    def test_requires_encode(self, tiny_ds):
        ms = init_model(tiny_ds.num_users, tiny_ds.num_items, 4, seed=0)
        with pytest.raises(ValueError):
            user_vectors(ms, [0, 1])


class TestPredictions:
    """User-item scores: user_vectors(ms, u) @ agg_r[I + v]."""

    @staticmethod
    def _score(ms, u, v, social_fusion=False):
        return float(user_vectors(ms, u, social_fusion) @ ms.agg_r[ms.num_users + v])

    def test_zero_embeddings_zero_score(self, encoded):
        _, ms, _, _ = encoded
        ms.agg_r[:] = 0
        assert self._score(ms, 0, 0) == 0.0

    def test_equal_vectors_norm_squared(self, encoded):
        _, ms, _, _ = encoded
        ms.agg_r[ms.num_users + 2] = ms.agg_r[1]
        expect = float(ms.agg_r[1] @ ms.agg_r[1])
        assert self._score(ms, 1, 2) == pytest.approx(expect, abs=1e-12)

    def test_scalar_oracle(self, encoded):
        _, ms, _, _ = encoded
        expect = float(sum(ms.agg_r[2][k] * ms.agg_r[ms.num_users + 3][k]
                           for k in range(ms.dim)))
        assert self._score(ms, 2, 3) == pytest.approx(expect, abs=1e-12)

    def test_social_prediction_symmetric_and_equals_similarity(self, encoded):
        _, ms, _, _ = encoded
        expect = float(ms.agg_s[1] @ ms.agg_s[4])
        a, b = TestSimilarities._social_rows(ms, 1, 4)
        assert float(a @ b) == float(b @ a) == expect

    def test_index_out_of_range_fatal(self, encoded):
        # under social fusion only user rows exist; without it a user index
        # past I reads an item row, which nothing checks
        _, ms, _, _ = encoded
        with pytest.raises(IndexError):
            user_vectors(ms, [0, ms.num_users], social_fusion=True)

    def test_reduces_to_matrix_factorization(self):
        # zero layers and no social graph: score is the raw dot product
        ds = dataclasses.replace(random_dataset(5, 6, seed=8),
                                 social_edges=np.zeros((0, 2), dtype=np.int64))
        ms, _, _ = make_encoded(ds, dim=4, layers=0)
        for u in range(ds.num_users):
            for v in range(ds.num_items):
                assert self._score(ms, u, v) == pytest.approx(
                    float(ms.E_u[u] @ ms.E_v[v]), abs=1e-12)


def _echo(ms):
    """The config echo of a run that trained `ms`."""
    return TrainConfig(dim=ms.dim, layers=ms.num_layers, agg=ms.agg).lines()


class TestCheckpoint:
    def test_roundtrip(self, encoded, tmp_path):
        _, ms, g_r, g_s = encoded
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        back = load_checkpoint(str(tmp_path / "ckpt"))
        np.testing.assert_array_equal(back.E_u, ms.E_u)
        np.testing.assert_array_equal(back.E_v, ms.E_v)
        np.testing.assert_array_equal(back.params.T, ms.params.T)
        np.testing.assert_array_equal(back.params.w, ms.params.w)
        np.testing.assert_array_equal(back.params.c, ms.params.c)
        assert (back.num_layers, back.agg) == (ms.num_layers, ms.agg)
        config = (tmp_path / "ckpt" / "config").read_text().splitlines()
        assert config == [f"num_users={ms.num_users}", f"num_items={ms.num_items}",
                          *_echo(ms)]
        for layers, agg in ((0, "mean"), (2, "sum")):  # save -> load -> save: same bytes
            encode(ms, g_r, g_s, layers, agg)
            first, again = tmp_path / f"L{layers}", tmp_path / f"L{layers}-again"
            save_checkpoint(ms, str(first), _echo(ms))
            loaded = load_checkpoint(str(first))
            assert (loaded.num_layers, loaded.agg) == (layers, agg)
            save_checkpoint(loaded, str(again), _echo(loaded))
            names = sorted(path.name for path in first.iterdir())
            assert sorted(path.name for path in again.iterdir()) == names
            for name in names:
                assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_mismatched_file_names_itself(self, encoded, tmp_path):
        _, ms, _, _ = encoded
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        path = tmp_path / "ckpt" / "w"
        raw = path.read_bytes()
        for data, found in ((raw[:-8], ms.dim - 1), (raw + raw[:8], ms.dim + 1)):
            path.write_bytes(data)
            with pytest.raises(ValueError, match=re.escape(
                    f"{path} holds {found} values, its config needs {ms.dim}")):
                load_checkpoint(str(tmp_path / "ckpt"))

    def test_config_without_a_key_names_it(self, encoded, tmp_path):
        _, ms, _, _ = encoded
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        config = tmp_path / "ckpt" / "config"
        lines = config.read_text().splitlines(True)
        for key in ("num_users", "num_items", "dim", "layers", "agg"):
            config.write_text("".join(line for line in lines
                                      if not line.startswith(f"{key}=")))
            with pytest.raises(ValueError, match=re.escape(f"{config} has no {key}= line")):
                load_checkpoint(str(tmp_path / "ckpt"))
        config.unlink()
        with pytest.raises(ValueError, match=re.escape(f"has no config file {config}")):
            load_checkpoint(str(tmp_path / "ckpt"))

    def test_malformed_config_value_names_it(self, encoded, tmp_path):
        _, ms, _, _ = encoded
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        config = tmp_path / "ckpt" / "config"
        text = config.read_text()
        d, L = f"dim={ms.dim}", f"layers={ms.num_layers}"
        for good, key, bad in ((d, "dim", f"{ms.dim}x"), (d, "dim", "-4"),
                               (L, "layers", "None"), (L, "layers", "2.0")):
            config.write_text(text.replace(good + "\n", f"{key}={bad}\n"))
            with pytest.raises(ValueError, match=re.escape(f"{config}: config key {key}")
                               + f".*{re.escape(bad)}"):
                load_checkpoint(str(tmp_path / "ckpt"))
        config.write_text("# comments and blank lines are ignored\n" + text + "\n\n")
        assert load_checkpoint(str(tmp_path / "ckpt")).dim == ms.dim

    def test_little_endian_layout(self, encoded, tmp_path):
        _, ms, _, _ = encoded
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        raw = (tmp_path / "ckpt" / "w").read_bytes()
        np.testing.assert_array_equal(np.frombuffer(raw, dtype="<f8"),
                                      ms.params.w)

    def test_foreign_byte_order_swapped_in_place(self, encoded, tmp_path, monkeypatch):
        """A big-endian layout reads into the native block and swaps there;
        a NaN is found after the swap."""
        _, ms, _, _ = encoded
        monkeypatch.setattr(model_mod, "CHECKPOINT_DTYPE", np.dtype(">f8"))
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        raw = (tmp_path / "ckpt" / "w").read_bytes()
        np.testing.assert_array_equal(np.frombuffer(raw, dtype=">f8"), ms.params.w)
        back = load_checkpoint(str(tmp_path / "ckpt"))
        for name, view in ms.params.as_dict().items():
            np.testing.assert_array_equal(getattr(back.params, name), view)
        path = tmp_path / "ckpt" / "c"
        path.write_bytes(np.full(ms.dim, np.nan, ">f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint file {path} holds a non-finite value")):
            load_checkpoint(str(tmp_path / "ckpt"))

    def test_short_read_names_the_file(self, encoded, tmp_path, monkeypatch):
        """A file that reads fewer bytes than its size claimed is refused."""
        _, ms, _, _ = encoded
        save_checkpoint(ms, str(tmp_path / "ckpt"), _echo(ms))
        path = tmp_path / "ckpt" / "T"
        path.write_bytes(path.read_bytes()[:-8])
        size = os.path.getsize
        monkeypatch.setattr(os.path, "getsize",
                            lambda p: size(p) + 8 if p == str(path) else size(p))
        nbytes = ms.params.T.nbytes
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint file {path} read {nbytes - 8} of its {nbytes} bytes")):
            load_checkpoint(str(tmp_path / "ckpt"))


def test_projection_forward_batch_matches_single(encoded):
    _, ms, _, _ = encoded
    pairs = [(0, 1), (2, 3), (4, 5)]
    i = np.array([p[0] for p in pairs])
    j = np.array([p[1] for p in pairs])
    z_batch, _ = projection_forward(ms.params, pair_rows(ms.agg_r, i, j))
    for k, (a, b) in enumerate(pairs):
        z, _ = projection_forward(ms.params, pair_rows(ms.agg_r, [a], [b]))
        assert z_batch[k] == pytest.approx(z[0], abs=1e-12)
