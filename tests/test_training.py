import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from socrec import train as train_mod
from socrec.data import InteractionTable, SocialTable, build_dataset
from socrec.eval import evaluate, export_relevance_weights
from socrec.experiments import ExperimentSpec, _train_and_report

from socrec.graph import CHUNK, build_interaction_laplacian, build_social_laplacian
from socrec.model import encode, init_model, load_checkpoint
from socrec.objective import (VARIANTS, AdamState, NonFiniteLossError, TrainConfig,
                              adam_step, compute_gradients, joint_loss, sample_batch)
from socrec.synthetic import planted_clusters, random_dataset
from socrec.train import TrainResult, train_model

from conftest import make_encoded


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
    fixed_batch = sample_batch(ds, cfg, rng)
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


def test_trained_model_keeps_no_work_arrays():
    """The final encode's work arrays are freed; the aggregations stay."""
    ds = random_dataset(8, 10, seed=4)
    cfg = TrainConfig(dim=4, layers=2, batch=8, epochs=2, negatives=3,
                      cutoffs=(5,), seed=4)
    ms = train_model(ds, cfg).model
    assert not [name for name in ms.buffers if name.startswith("work_")]
    fresh = init_model(ds.num_users, ds.num_items, cfg.dim)
    fresh.set_params(ms.copy_params())
    encode(fresh, build_interaction_laplacian(ds), build_social_laplacian(ds), cfg.layers)
    np.testing.assert_array_equal(ms.agg_r, fresh.agg_r)
    np.testing.assert_array_equal(ms.agg_s, fresh.agg_s)


def _traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc (which sees numpy's
    allocations) counted above the start of the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide():
    """A model of 3,300 rows at d = 256, whose parameter blocks (7.8 MB)
    dwarf the evaluation's and the graphs' allocations."""
    ds, _ = planted_clusters(num_users=300, num_items=3000, seed=1)
    return ds, TrainConfig(dim=256, batch=64, negatives=20, epochs=1,
                           cutoffs=(10,), seed=1)


def test_one_epoch_peaks_below_seven_parameter_blocks(wide):
    """Parameters, gradients, both Adam moments, the interaction-view
    aggregation and the step's work array are six blocks; the best-epoch
    snapshot is made only after the steps' scratch is released (7.6
    blocks when it was made before the first step)."""
    ds, cfg = wide
    result, peak = _traced_peak(lambda: train_model(ds, cfg))
    assert result.best_epoch == 0
    assert peak < 7 * result.model.params.flat.nbytes


def test_export_peak_is_bounded_by_its_slices(wide):
    """The tie-weight export gathers and projects its pairs in row slices
    of CHUNK // d, so its peak is a few slice blocks, whatever the tie
    count (8.0 MB for these 1,197 ties when the export gathered them all
    at once)."""
    ds, cfg = wide
    ms, _, _ = make_encoded(ds, dim=cfg.dim)
    export, peak = _traced_peak(lambda: export_relevance_weights(ms, ds))
    slice_block = (CHUNK // cfg.dim) * 2 * cfg.dim * 8  # one slice's pair rows
    assert len(export.rows) > 8 * (CHUNK // cfg.dim)
    assert peak < 3 * slice_block


def _fail_at_step(step):
    """A joint_loss that raises NonFiniteLossError on call `step` (1-based)."""
    calls = []

    def joint_loss_or_fail(*args):
        calls.append(None)
        if len(calls) == step:
            raise NonFiniteLossError("rec", float("nan"))
        return joint_loss(*args)
    return joint_loss_or_fail


# (case, config overrides, joint_loss call that fails, restores the kept parameters)
ENCODE_CASES = [
    ("last-epoch-kept", dict(epochs=3, patience=999), None, False),
    ("early-stop", dict(epochs=60, patience=2), None, True),
    ("no-epochs", dict(epochs=0), None, False),
    ("abort-in-epoch-0", dict(epochs=5), 2, True),
    ("abort-in-epoch-2", dict(epochs=5), 6, True),
]


@pytest.mark.parametrize("overrides, fail_at, restores",
                         [case[1:] for case in ENCODE_CASES],
                         ids=[case[0] for case in ENCODE_CASES])
def test_each_parameter_version_is_encoded_once(monkeypatch, overrides, fail_at,
                                                 restores):
    """One encode for the initial parameters, one after each Adam step, and
    one more only when the kept parameters are restored; either way the
    model ends holding the aggregations of its own parameters."""
    ds, _ = planted_clusters(num_users=20, num_items=40, items_per_user=6,
                             ties_per_user=2, seed=3)
    cfg = TrainConfig(dim=8, layers=2, batch=64, lr=5e-3, negatives=10,
                      cutoffs=(10,), seed=3, **overrides)
    counts = {"encode": 0, "adam_step": 0}
    for name in counts:
        real = getattr(train_mod, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(train_mod, name, counted)
    if fail_at:
        monkeypatch.setattr(train_mod, "joint_loss", _fail_at_step(fail_at))
    result = train_model(ds, cfg)

    steps = -(-len(ds.train_edges) // cfg.batch)  # 2
    if fail_at:
        assert result.aborted.startswith(f"epoch {(fail_at - 1) // steps}:")
    else:
        assert not result.aborted
    assert counts["adam_step"] == (fail_at - 1 if fail_at
                                   else result.epochs_run * steps)
    assert restores == (result.best_epoch != result.epochs_run - 1 or
                        bool(result.aborted))
    assert counts["encode"] == 1 + counts["adam_step"] + restores
    ms = result.model
    fresh = init_model(ds.num_users, ds.num_items, cfg.dim)
    fresh.set_params(ms.copy_params())
    encode(fresh, build_interaction_laplacian(ds), build_social_laplacian(ds),
           cfg.layers, cfg.agg)
    np.testing.assert_array_equal(ms.agg_r, fresh.agg_r)
    np.testing.assert_array_equal(ms.agg_s, fresh.agg_s)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_best_val_hr_is_nan_without_a_validated_epoch():
    """No epochs, or an abort in the first: no epoch is kept, so no best
    validation HR either."""
    ds = random_dataset(8, 10, seed=2)
    cfg = TrainConfig(dim=4, layers=1, batch=16, epochs=0, negatives=3,
                      cutoffs=(5,), seed=2)
    assert len(ds.val_edges)
    aborted = train_model(ds, replace(cfg, epochs=50, lr=1e200, lr_decay=1.0,
                                      lambda3=1e-6))
    assert aborted.aborted.startswith("epoch 0:")
    for result in (train_model(ds, cfg), aborted):
        assert result.epochs_run == 0 and result.best_epoch == -1
        assert np.isnan(result.best_val_hr)
    validated = train_model(ds, replace(cfg, epochs=1))
    assert validated.best_val_hr == validated.history[0]["val"]


def test_early_stopping_respects_patience():
    ds, _ = planted_clusters(num_users=20, num_items=40, items_per_user=6,
                             ties_per_user=2, seed=3)
    cfg = TrainConfig(dim=8, layers=1, batch=64, epochs=60, patience=2,
                      lr=5e-3, negatives=10, cutoffs=(10,), seed=3)
    result = train_model(ds, cfg)
    assert result.epochs_run < cfg.epochs
    assert result.best_epoch >= 0


def test_timing_splits_each_epoch_by_phase(tmp_path):
    """timing.txt: a header, then per epoch the wall seconds of each phase,
    which sum to at most the epoch's total, and the peak memory so far."""
    ds = random_dataset(8, 10, seed=4)
    cfg = TrainConfig(dim=4, layers=1, batch=4, epochs=2, negatives=3,
                      cutoffs=(5,), seed=4, patience=999)
    spec = ExperimentSpec(config=cfg, out_dir=str(tmp_path))
    result, _ = _train_and_report(spec, ds, cfg, str(tmp_path))
    with open(tmp_path / "timing.txt") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# epoch sample grad adam encode eval total maxrss_mb"
    assert lines == result.timing_lines() and len(lines) == 3
    for k, (line, row) in enumerate(zip(lines[1:], result.timing)):
        fields = line.split()
        assert fields[0] == str(k) == str(row["epoch"]) and len(fields) == 8
        phases = [row[key] for key in ("sample", "grad", "adam", "encode", "eval")]
        assert min(phases) > 0.0 and sum(phases) <= row["total"]
        assert [float(f) for f in fields[1:7]] == \
            pytest.approx([*phases, row["total"]], abs=1e-6)
        assert 0.0 < float(fields[7]) == pytest.approx(row["maxrss_mb"], abs=0.1)
    assert result.timing[0]["maxrss_mb"] <= result.timing[1]["maxrss_mb"]
    assert TrainResult(model=None).timing_lines() == [lines[0]]


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


def test_history_lines_text_is_pinned():
    """history.txt's text: the header, then `.10g` columns, nan and -0 kept."""
    rows = [dict(epoch=0, lr=1e-3, rec=0.6931471805599453, social=12.5, align=1e-12,
                 reg=123456789.123, total=0.1 + 0.2, val=float("nan")),
            dict(epoch=11, lr=0.001 * 0.96 ** 11, rec=0.0, social=-0.0, align=2 / 3,
                 reg=1e20, total=5.5, val=0.25)]
    assert TrainResult(model=None, history=rows).history_lines() == [
        "# epoch lr rec social align reg total val_hr10",
        "0 0.001 0.6931471806 12.5 1e-12 123456789.1 0.3 nan",
        "11 0.0006382393306 0 -0 0.6666666667 1e+20 5.5 0.25"]


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


def test_validation_skips_are_warned_once(caplog):
    """The users a split skips depend on the dataset, the split and the
    negatives count only: a run warns once per split, not once per epoch,
    and a direct evaluation on a fresh dataset still warns."""
    ds = random_dataset(20, 12, seed=0)
    cfg = TrainConfig(dim=4, layers=1, batch=16, epochs=4, patience=999, negatives=7,
                      cutoffs=(5,))
    with caplog.at_level(logging.WARNING, logger="socrec.eval"):
        result = train_model(ds, cfg)
        assert result.epochs_run == 4
        skips = [r.getMessage() for r in caplog.records
                 if "skipped on split 'val'" in r.getMessage()]
        assert skips == ["5 user(s) skipped on split 'val': "
                         "fewer than 7 negative candidates"]
        caplog.clear()
        rep = evaluate(result.model, replace(ds), "val", num_negatives=7, cutoffs=(5,))
        assert rep.skipped == 5
        assert [r.getMessage() for r in caplog.records] == skips
        caplog.clear()
        evaluate(result.model, ds, "val", num_negatives=8, cutoffs=(5,))
        assert len(caplog.records) == 1  # another negatives count skips others


@st.composite
def tiny_rows(draw):
    """Per-user item sets over a few items, each leaving the user a
    negative, listed user by user so user k gets dense index k."""
    num_items = draw(st.integers(3, 8))
    rows = draw(st.lists(st.sets(st.integers(0, num_items - 1), min_size=1,
                                 max_size=num_items - 1), min_size=3, max_size=8))
    assume(all(len(row) < len(set().union(*rows)) for row in rows))
    return rows


def _tables(rows, ties):
    """Interaction and social tables of per-user item rows and tie pairs."""
    edges = [(f"u{k}", f"i{v}") for k, items in enumerate(rows) for v in sorted(items)]
    both = [(f"u{a}", f"u{b}") for i, j in ties for a, b in ((i, j), (j, i))]
    return InteractionTable.of(edges), SocialTable.of(both)


@settings(max_examples=25, deadline=None)
@given(rows=tiny_rows(), hub=st.integers(0, 7), seed=st.integers(0, 3),
       variant=st.sampled_from(["full", "no_align", "contrastive"]))
def test_user_tied_to_every_user_is_named(rows, hub, seed, variant):
    """Social triples for a user whose ties cover every other user can
    draw no negative: training stops with an error naming that user."""
    hub %= len(rows)
    ties = [(hub, u) for u in range(len(rows)) if u != hub]
    ds = build_dataset(*_tables(rows, ties), split_seed=seed)
    cfg = TrainConfig(dim=4, layers=1, batch=64, epochs=1, negatives=1, cutoffs=(1,),
                      seed=seed, variant=variant)
    with pytest.raises(ValueError, match=f"user {hub} leaves no negative among "
                                         f"{len(rows)} candidates"):
        train_model(ds, cfg)


@settings(max_examples=10, deadline=None)
@given(rows=tiny_rows(), seed=st.integers(0, 3))
def test_edgeless_social_view_trains_every_variant(rows, seed):
    """Without a single tie, every variant trains to a finite history."""
    ds = build_dataset(*_tables(rows, []), split_seed=seed)
    assert len(ds.social_edges) == 0
    for variant in VARIANTS:
        cfg = TrainConfig(dim=4, layers=2, batch=16, epochs=2, patience=999, negatives=1,
                          cutoffs=(1,), seed=seed, variant=variant, lambda2=0.1)
        result = train_model(ds, cfg)
        assert result.epochs_run == 2 and not result.aborted
        for row in result.history:
            values = [row[k] for k in ("rec", "social", "align", "reg", "total")]
            assert np.isfinite(values + ([row["val"]] if len(ds.val_edges) else [])).all()
