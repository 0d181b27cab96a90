"""Acceptance suite. Each test prints one PASS/FAIL line (run with -s).

Criteria, in order: gradient fidelity against central differences; sparse
vs dense forward equivalence; ranking-metric correctness against a
full-sort oracle; pinned ingestion counts (real public dump used when
mounted, checked-in fixture otherwise); the non-gating quality target on
the real dump; the denoising property on planted clusters; the linear vs
superlinear alignment-loss cost contrast; and the noise-robustness
harness including bit-identical ratio-zero runs.
"""

import math
import os
import time

import numpy as np
import pytest

from socrec.data import build_dataset, load_edges
from socrec.eval import evaluate, export_relevance_weights
from socrec.experiments import ExperimentSpec, run_robustness, run_train
from socrec.model import ParamBlock
from socrec.objective import (TrainConfig, _hinge_term, _infonce_grads)
from socrec.selfcheck import (forward_equivalence_check, gradient_check,
                              metric_oracle_check)
from socrec.synthetic import planted_clusters, write_edge_files
from socrec.train import train_model

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "pinned")

# public-dump counts (Ciao), asserted only when the dump is mounted
CIAO_COUNTS = {"users": 6672, "items": 98875, "interactions": 198181,
               "ties": 109503, "density_pct": 0.0300}


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_gradient_fidelity():
    ok, worst, rows = gradient_check(num_instances=20, seed=0, step=1e-6,
                                     tol=1e-5)
    variants = {v for v, _, _ in rows}
    layer_counts = {l for _, l, _ in rows}
    ok = ok and variants == {"full", "no_align", "direct_social",
                             "contrastive"} and layer_counts == {0, 1, 2}
    report(1, "gradient fidelity", ok, f"worst rel err {worst:.2e} over "
                                       f"{len(rows)} instances")
    assert ok


def test_criterion_2_oracle_equivalence():
    ok, worst = forward_equivalence_check(num_graphs=100, max_nodes=64, seed=0,
                                          tol=1e-10)
    report(2, "dense-oracle equivalence", ok, f"worst abs err {worst:.2e}")
    assert ok


def test_criterion_3_metric_correctness():
    ok, mismatches = metric_oracle_check(num_vectors=1000, num_candidates=100,
                                         seed=0)
    rank3 = 1.0 / math.log2(5.0)
    from socrec.eval import _summary
    ndcg = _summary(np.array([3]), (10,))["ndcg_sums"]
    formula_ok = abs(ndcg[10] - rank3) < 1e-12 and abs(rank3 - 0.4307) < 5e-5
    ok = ok and formula_ok
    report(3, "metric correctness", ok,
           f"{mismatches} rank mismatches over 1000 vectors")
    assert ok


def _load_counts(inter_path, soc_path, split_seed=0):
    inter = load_edges(inter_path, "interaction")
    soc = load_edges(soc_path, "social")
    ds = build_dataset(inter, soc, split_seed=split_seed)
    return ds, len(inter.pairs), len(soc.pairs) // 2


def test_criterion_4_ingestion_counts():
    inter_env = os.environ.get("CIAO_INTERACTIONS")
    soc_env = os.environ.get("CIAO_SOCIAL")
    if inter_env and soc_env:
        ds, n_inter, n_ties = _load_counts(inter_env, soc_env)
        ok = (ds.num_users == CIAO_COUNTS["users"]
              and ds.num_items == CIAO_COUNTS["items"]
              and n_inter == CIAO_COUNTS["interactions"]
              and n_ties == CIAO_COUNTS["ties"]
              and abs(ds.density * 100 - CIAO_COUNTS["density_pct"]) < 5e-4)
        detail = "public dump"
    else:
        ds, n_inter, n_ties = _load_counts(
            os.path.join(FIXTURE_DIR, "interactions.txt"),
            os.path.join(FIXTURE_DIR, "social.txt"))
        ok = (ds.num_users == 150 and ds.num_items == 300
              and n_inter == 2500 and n_ties == 800
              and abs(ds.density * 100 - 5.555556) < 1e-4)
        detail = "pinned fixture (public dump not mounted)"
    report(4, "ingestion counts", ok, detail)
    assert ok


def test_criterion_5_public_dump_quality_target():
    inter_env = os.environ.get("CIAO_INTERACTIONS")
    soc_env = os.environ.get("CIAO_SOCIAL")
    if not (inter_env and soc_env):
        report(5, "quality stretch target", True,
               "SKIPPED: public dump not mounted (non-gating)")
        pytest.skip("public dump not mounted; stretch target is non-gating")
    inter = load_edges(inter_env, "interaction")
    soc = load_edges(soc_env, "social")
    ds = build_dataset(inter, soc, split_seed=0)
    cfg = TrainConfig()  # defaults: d=128, L=2, lr 1e-3, decay 0.96, B=2048
    result = train_model(ds, cfg)
    rep = evaluate(result.model, ds, "test", cfg.negatives, (10,), seed=0)
    ok = rep.hr[10] >= 0.60 and rep.ndcg[10] >= 0.38
    report(5, "quality stretch target", ok,
           f"HR@10={rep.hr[10]:.4f} NDCG@10={rep.ndcg[10]:.4f}")
    assert ok


def test_criterion_6_denoising_property():
    gen = dict(num_users=60, num_items=160, items_per_user=8, ties_per_user=8,
               hot_fraction=0.15, hot_weight=0.85)
    gaps, separations = [], []
    for seed in range(5):
        ds, info = planted_clusters(seed=seed, **gen)
        common = dict(dim=32, layers=2, batch=512, epochs=35, patience=999,
                      lr=5e-3, lambda1=0.1, lambda2=1e-3, lambda3=1e-5,
                      negatives=99, cutoffs=(10,), seed=seed)
        full = train_model(ds, TrainConfig(variant="full", **common))
        direct = train_model(ds, TrainConfig(variant="direct_social", **common))
        hr_full = evaluate(full.model, ds, "test", 99, (10,), seed=0).hr[10]
        hr_direct = evaluate(direct.model, ds, "test", 99, (10,), seed=0,
                             social_fusion=True).hr[10]
        gaps.append(hr_full - hr_direct)

        export = export_relevance_weights(full.model, ds)
        z_kind = {"intra": [], "cross": []}
        for i, j, z, _ in export.rows:
            z_kind[info["tie_kind"][(min(i, j), max(i, j))]].append(z)
        separations.append(float(np.mean(z_kind["intra"])
                                 - np.mean(z_kind["cross"])))

    mean_gap = float(np.mean(gaps))
    sep_wins = sum(s > 0 for s in separations)
    ok_a = mean_gap >= 0.02
    ok_b = sep_wins >= 4
    report(6, "denoising property", ok_a and ok_b,
           f"mean HR@10 gap {mean_gap:+.3f} (need >= +0.020); "
           f"lower z on cross ties in {sep_wins}/5 seeds (need >= 4)")
    assert ok_a, f"full vs direct_social gap {mean_gap:+.4f} below 2 points"
    assert ok_b, f"z separation held in only {sep_wins}/5 seeds"


def _min_times(fns, reps=15):
    """Fastest time of each fn. Every repetition times all of them in
    turn, so a slow spell of a busy host hits each about alike."""
    best = [math.inf] * len(fns)
    for _ in range(reps):
        for k, fn in enumerate(fns):
            tic = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - tic)
    return best


def test_criterion_7_cost_scaling():
    rng = np.random.default_rng(0)
    d = 64
    proj = ParamBlock.from_arrays({"E_u": np.zeros((0, d)), "E_v": np.zeros((0, d)),
                                   "T": rng.normal(size=(d, 2 * d)) * 0.1,
                                   "w": rng.normal(size=d) * 0.1, "c": np.zeros(d)})

    def hinge_runner(B):
        a_i = rng.normal(size=(B, d))
        a_j = rng.normal(size=(B, d))
        b_i = rng.normal(size=(B, d)) * 0.2
        b_j = rng.normal(size=(B, d)) * 0.2
        x = np.hstack([a_i, a_j])
        return lambda: _hinge_term(proj, x, b_i, b_j)

    def nce_runner(n):
        A = rng.normal(size=(n, d))
        B = rng.normal(size=(n, d))
        return lambda: _infonce_grads(A, B, 0.1)

    hinge_runner(512)()  # warm-up
    nce_runner(256)()
    t_hinge_1, t_hinge_2 = _min_times([hinge_runner(2048), hinge_runner(4096)])
    t_nce_1, t_nce_2 = _min_times([nce_runner(1024), nce_runner(2048)])
    hinge_ratio = t_hinge_2 / t_hinge_1
    nce_ratio = t_nce_2 / t_nce_1
    ok_linear = 1.3 <= hinge_ratio <= 2.8
    ok_super = nce_ratio > 2.8
    report(7, "alignment cost scaling", ok_linear and ok_super,
           f"hinge 2x-batch ratio {hinge_ratio:.2f} (linear band [1.3, 2.8]); "
           f"in-batch-negatives 2x ratio {nce_ratio:.2f} (superlinear > 2.8)")
    assert ok_linear, f"hinge ratio {hinge_ratio:.2f} outside [1.3, 2.8]"
    assert ok_super, f"infonce ratio {nce_ratio:.2f} not superlinear"


def test_criterion_8_robustness_harness(tmp_path):
    ds, _ = planted_clusters(num_users=30, num_items=80, items_per_user=8,
                             ties_per_user=4, seed=0)
    from socrec.data import InteractionTable, SocialTable
    inter = InteractionTable.of(np.concatenate([ds.train_edges, ds.val_edges,
                                                ds.test_edges]))
    soc = SocialTable.of(ds.social_edges)
    inter_path, soc_path = write_edge_files(inter, soc, str(tmp_path / "raw"))

    cfg = TrainConfig(dim=8, layers=1, batch=64, epochs=3, patience=999,
                      lr=5e-3, negatives=20, cutoffs=(5, 10), seed=7)
    spec = ExperimentSpec(config=cfg, interactions_path=inter_path,
                          social_path=soc_path, split_seed=2,
                          out_dir=str(tmp_path / "runs"), run_name="rob",
                          noise_ratios=(0.0, 0.1, 0.2, 0.3))
    reports, run_dir = run_robustness(spec)

    lines = open(os.path.join(run_dir, "robustness.dat")).read().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    rows_ok = len(data) == 4 * 2 * 2  # ratios x metrics x cutoffs
    degr_zero = [float(l.split()[4]) for l in data if l.startswith("0 ")]
    base_ok = all(x == 0.0 for x in degr_zero)

    train_spec = ExperimentSpec(config=cfg, interactions_path=inter_path,
                                social_path=soc_path, split_seed=2,
                                out_dir=str(tmp_path / "plain"), run_name="t")
    _, _, train_dir = run_train(train_spec)
    cell = os.path.join(run_dir, "ratio_0")
    identical = all(
        open(os.path.join(cell, name), "rb").read()
        == open(os.path.join(train_dir, name), "rb").read()
        for name in ("report.dat", "history.txt"))
    identical = identical and all(
        open(os.path.join(cell, "checkpoint", name), "rb").read()
        == open(os.path.join(train_dir, "checkpoint", name), "rb").read()
        for name in ("E_u", "E_v", "T", "w", "c"))

    ok = rows_ok and base_ok and identical and set(reports) == {0.0, 0.1, 0.2, 0.3}
    report(8, "robustness harness", ok,
           f"4 ratios reported; ratio-0 bit-identical to plain train: {identical}")
    assert ok
