from dataclasses import replace

import numpy as np
import pytest

from socrec.experiments import ExperimentSpec, _train_and_report

from socrec.graph import build_interaction_laplacian, build_social_laplacian
from socrec.model import encode, init_model, load_checkpoint
from socrec.objective import (AdamState, TrainConfig, adam_step,
                              compute_gradients, joint_loss, sample_batch)
from socrec.synthetic import planted_clusters, random_dataset
from socrec.train import train_model


def test_loss_drops_by_half_in_200_steps():
    ds = random_dataset(8, 10, min_items=3, max_items=5, tie_prob=0.4, seed=9)
    cfg = TrainConfig(dim=8, layers=1, batch=32, lr=5e-3, lambda1=0.1,
                      lambda2=1e-3, lambda3=1e-5, seed=9)
    ms = init_model(ds.num_users, ds.num_items, cfg.dim, seed=9)
    g_r = build_interaction_laplacian(ds)
    g_s = build_social_laplacian(ds)
    opt = AdamState.for_model(ms)
    rng = np.random.default_rng(9)

    encode(ms, g_r, g_s, cfg.layers)
    fixed_batch = sample_batch(ds, cfg.batch, rng)
    initial, _ = joint_loss(fixed_batch, ms, cfg)
    for t in range(1, 201):
        encode(ms, g_r, g_s, cfg.layers)
        grads = compute_gradients(fixed_batch, ms, cfg)
        adam_step(ms, grads, opt, t, cfg.lr)
    encode(ms, g_r, g_s, cfg.layers)
    final, _ = joint_loss(fixed_batch, ms, cfg)
    assert final <= 0.5 * initial


def test_zero_epochs_evaluates_random_init():
    ds = random_dataset(8, 10, seed=1)
    cfg = TrainConfig(dim=4, layers=1, batch=8, epochs=0, negatives=3,
                      cutoffs=(5,), seed=1)
    result = train_model(ds, cfg)
    assert result.epochs_run == 0
    assert result.history == []
    init = init_model(ds.num_users, ds.num_items, cfg.dim, seed=cfg.seed)
    np.testing.assert_array_equal(result.model.E_u, init.E_u)
    assert result.model.agg_r is not None  # encoded, ready to evaluate


def test_training_deterministic_given_seed():
    ds = random_dataset(10, 14, seed=5)
    cfg = TrainConfig(dim=4, layers=1, batch=16, epochs=3, negatives=3,
                      cutoffs=(5,), seed=5, patience=999)
    a = train_model(ds, cfg)
    b = train_model(ds, cfg)
    np.testing.assert_array_equal(a.model.E_u, b.model.E_u)
    np.testing.assert_array_equal(a.model.E_v, b.model.E_v)
    assert a.history == b.history


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_and_keeps_last_good(tmp_path):
    # an absurd learning rate overflows the embeddings in the first epoch
    ds = random_dataset(8, 10, seed=2)
    cfg = TrainConfig(dim=4, layers=1, batch=16, epochs=50, lr=1e200,
                      lr_decay=1.0, lambda3=1e-6, negatives=3, cutoffs=(5,),
                      seed=2)
    result, _ = _train_and_report(ExperimentSpec(config=cfg), ds, cfg, str(tmp_path))
    assert result.aborted == "epoch 0: loss component 'rec' is non-finite (nan)"
    assert result.epochs_run == 0
    assert np.isfinite(result.model.E_u).all()
    assert np.isfinite(result.model.agg_r).all()
    assert (tmp_path / "ABORTED").read_text().splitlines() == [
        "training diverged; checkpoint holds last good parameters", f"at {result.aborted}"]
    # the last good snapshot: the same run stopped before the failing epoch
    good = train_model(ds, replace(cfg, epochs=result.epochs_run))
    assert not good.aborted
    np.testing.assert_array_equal(result.model.params.flat, good.model.params.flat)
    np.testing.assert_array_equal(load_checkpoint(str(tmp_path / "checkpoint")).params.flat,
                                  good.model.params.flat)


def test_early_stopping_respects_patience():
    ds, _ = planted_clusters(num_users=20, num_items=40, items_per_user=6,
                             ties_per_user=2, seed=3)
    cfg = TrainConfig(dim=8, layers=1, batch=64, epochs=60, patience=2,
                      lr=5e-3, negatives=10, cutoffs=(10,), seed=3)
    result = train_model(ds, cfg)
    assert result.epochs_run < cfg.epochs
    assert result.best_epoch >= 0


def test_history_rows_complete():
    ds = random_dataset(8, 10, seed=4)
    cfg = TrainConfig(dim=4, layers=1, batch=8, epochs=2, negatives=3,
                      cutoffs=(5,), seed=4, patience=999)
    result = train_model(ds, cfg)
    assert len(result.history) == 2
    assert len(result.timing) == 2
    for row in result.history:
        for key in ("epoch", "lr", "rec", "social", "align", "reg", "total",
                    "val"):
            assert key in row
    lines = result.history_lines()
    assert lines[0].startswith("#")
    assert len(lines) == 3


def test_planted_easy_signal_reaches_high_hr():
    # tight per-cluster item pools make the held-out item easy to rank
    ds, _ = planted_clusters(num_users=30, num_items=40, items_per_user=12,
                             ties_per_user=4, cross_ratio=0.2, seed=0)
    cfg = TrainConfig(dim=32, layers=2, batch=256, epochs=50, patience=999,
                      lr=5e-3, lambda1=0.1, lambda2=1e-3, lambda3=1e-5,
                      negatives=20, cutoffs=(10,), seed=0)
    result = train_model(ds, cfg)
    from socrec.eval import evaluate
    rep = evaluate(result.model, ds, "test", 20, (10,), seed=0)
    assert rep.hr[10] > 0.9


def test_noise_degradation_trend_over_seeds():
    # heavier corruption should hurt more; one inversion over 5 seeds allowed
    from socrec.data import inject_noise
    from socrec.eval import evaluate

    monotone = 0
    for seed in range(5):
        ds, _ = planted_clusters(num_users=40, num_items=120,
                                 items_per_user=10, ties_per_user=4, seed=seed)
        cfg = TrainConfig(dim=16, layers=2, batch=256, epochs=25, patience=999,
                          lr=5e-3, lambda1=0.1, lambda2=1e-3, lambda3=1e-5,
                          negatives=50, cutoffs=(10,), seed=seed)

        def hr_at(ratio):
            noisy = inject_noise(ds, ratio, 100 + seed)
            res = train_model(noisy, cfg)
            return evaluate(res.model, ds, "test", 50, (10,), seed=0).hr[10]

        base = hr_at(0.0)
        assert base > 0
        degr_10 = (base - hr_at(0.1)) / base
        degr_30 = (base - hr_at(0.3)) / base
        monotone += degr_30 >= degr_10
    assert monotone >= 4


def test_lr_decays_per_epoch():
    ds = random_dataset(8, 10, seed=6)
    cfg = TrainConfig(dim=4, layers=1, batch=8, epochs=3, lr=1e-2,
                      lr_decay=0.5, negatives=3, cutoffs=(5,), seed=6,
                      patience=999)
    result = train_model(ds, cfg)
    lrs = [row["lr"] for row in result.history]
    np.testing.assert_allclose(lrs, [1e-2, 5e-3, 2.5e-3])
