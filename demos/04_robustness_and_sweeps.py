"""Experiment harness: noise-robustness study and a hyperparameter sweep.

Retrains under increasing shares of fake interaction edges and reports the
relative degradation, then sweeps the propagation depth on a small grid.
All artifacts land in a temporary directory, removed when the demo ends.
"""

import os
import tempfile

import numpy as np

from socrec import TrainConfig
from socrec.experiments import ExperimentSpec, run_robustness, run_sweep
from socrec.synthetic import planted_clusters, write_edge_files
from socrec.data import InteractionTable, SocialTable

with tempfile.TemporaryDirectory(prefix="socrec_demo_") as workdir:

    # materialize a planted dataset as raw edge files for the harness
    ds, _ = planted_clusters(num_users=40, num_items=120, items_per_user=10,
                             ties_per_user=4, seed=0)
    inter = InteractionTable.of(np.concatenate([ds.train_edges, ds.val_edges,
                                                ds.test_edges]))
    soc = SocialTable.of(ds.social_edges)
    inter_path, soc_path = write_edge_files(inter, soc, os.path.join(workdir, "raw"))

    cfg = TrainConfig(dim=16, layers=2, batch=256, epochs=25, patience=999,
                      lr=5e-3, lambda1=0.1, lambda2=1e-3, lambda3=1e-5,
                      negatives=50, cutoffs=(10,), seed=0)
    spec = ExperimentSpec(config=cfg, interactions_path=inter_path,
                          social_path=soc_path, split_seed=0, out_dir=workdir)

    print("=== noise robustness (retrain per corruption ratio) ===")
    spec.noise_ratios = (0.0, 0.1, 0.2, 0.3)
    reports, run_dir = run_robustness(spec)
    base = reports[0.0].hr[10]
    for ratio in spec.noise_ratios:
        hr = reports[ratio].hr[10]
        degr = 0.0 if base == 0 else (base - hr) / base
        print(f"  ratio {ratio:.1f}: HR@10={hr:.3f}  degradation={degr:+.1%}")
    print(f"  rows: {run_dir}/robustness.dat\n")

    print("=== propagation-depth sweep ===")
    spec.sweep_axes = {"layers": [1, 2, 3]}
    cells, run_dir = run_sweep(spec)
    for overrides, report in cells:
        print(f"  layers={overrides['layers']}: HR@10={report.hr[10]:.3f} "
              f"NDCG@10={report.ndcg[10]:.3f}")
    print(f"  rows: {run_dir}/sweep.dat")
