"""Dataset pipeline walk-through: raw edge files to splits, strata and noise.

Generates a small synthetic interaction/social corpus on disk, ingests it
through the text loaders, builds the leave-one-out splits, inspects degree
strata, injects fake edges and round-trips the serialized dataset, all in a
temporary directory removed when the demo ends.
"""

import os
import tempfile

import numpy as np

from socrec import (build_dataset, inject_noise, load_dataset, load_edges,
                    save_dataset, stratify_by_degree)
from socrec.synthetic import random_tables, write_edge_files

with tempfile.TemporaryDirectory(prefix="socrec_demo_") as workdir:
    print(f"working in {workdir}\n")

    # --- 1. raw files -> tables -----------------------------------------------
    inter_raw, soc_raw = random_tables(num_users=40, num_items=120, min_items=4,
                                       max_items=9, tie_prob=0.15, seed=42)
    inter_path, soc_path = write_edge_files(inter_raw, soc_raw,
                                            os.path.join(workdir, "raw"))
    inter = load_edges(inter_path, "interaction")
    soc = load_edges(soc_path, "social")
    print(f"loaded {len(inter.pairs)} interactions "
          f"({inter.malformed} malformed lines)")
    print(f"loaded {len(soc.pairs)} directed social records "
          f"({len(soc.pairs) // 2} undirected ties)\n")

    # --- 2. leave-one-out splits ----------------------------------------------
    ds = build_dataset(inter, soc, split_seed=7)
    print(f"dataset: {ds.num_users} users x {ds.num_items} items, "
          f"density {ds.density:.4%}")
    print(f"splits: train={len(ds.train_edges)} val={len(ds.val_edges)} "
          f"test={len(ds.test_edges)}")
    print("splits are disjoint and cover every deduplicated interaction\n")

    # --- 3. degree strata -----------------------------------------------------
    strata = stratify_by_degree(ds)
    sizes = np.bincount(strata.assignment, minlength=len(strata.boundaries))
    for label, size in zip(strata.labels(), sizes):
        print(f"  stratum {label:>9}: {size} users")
    print()

    # --- 4. noise injection ---------------------------------------------------
    noisy = inject_noise(ds, ratio=0.2, seed=3)
    print(f"20% noise: train grew {len(ds.train_edges)} -> "
          f"{len(noisy.train_edges)} edges; val/test untouched\n")

    # --- 5. serialization round-trip ------------------------------------------
    out = os.path.join(workdir, "dataset")
    save_dataset(ds, out)
    back = load_dataset(out)
    assert np.array_equal(back.train_edges, ds.train_edges)
    print(f"serialized to {out} and reloaded identically")
    print(f"meta:\n{open(os.path.join(out, 'meta')).read()}")
