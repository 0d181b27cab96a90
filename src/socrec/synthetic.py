"""Synthetic dataset generators for tests, demos and self-checks."""

import os

import numpy as np

from .data import InteractionTable, SocialTable, build_dataset


def random_tables(num_users, num_items, min_items=3, max_items=6,
                  tie_prob=0.25, seed=0):
    """Random raw tables: every user gets min..max distinct items, plus an
    Erdos-Renyi tie structure with at least one tie."""
    rng = np.random.default_rng(seed)
    inter = []
    for u in range(num_users):
        k = int(rng.integers(min_items, max_items + 1))
        k = min(k, num_items)
        items = rng.choice(num_items, size=k, replace=False)
        inter.extend((u, int(v)) for v in items)
    ties = set()
    tie_count = np.zeros(num_users, dtype=int)
    cap = max(1, num_users - 2)  # leave every user at least one non-neighbour
    for a in range(num_users):
        for b in range(a + 1, num_users):
            if rng.random() < tie_prob and tie_count[a] < cap and tie_count[b] < cap:
                ties.add((a, b))
                tie_count[a] += 1
                tie_count[b] += 1
    if not ties and num_users >= 2:
        ties.add((0, 1))
    return InteractionTable.of(inter), SocialTable.of(sorted(ties))


def random_dataset(num_users, num_items, min_items=3, max_items=6,
                   tie_prob=0.25, seed=0):
    inter, soc = random_tables(num_users, num_items, min_items, max_items,
                               tie_prob, seed)
    return build_dataset(inter, soc, split_seed=seed)


def planted_clusters(num_users=40, num_items=120, items_per_user=12,
                     ties_per_user=4, cross_ratio=0.5, hot_fraction=0.25,
                     hot_weight=0.7, seed=0):
    """Two-taste-cluster dataset with a controllable share of noisy ties.

    Users split into two equal clusters, items into two equal pools; each
    user interacts only inside its own pool, preferring a "hot" head of
    the pool. Social ties are generated per user with `cross_ratio` of
    them crossing clusters (interest-irrelevant ties by construction).

    Returns (dataset, info) where info maps dense indices to cluster
    labels and classifies each undirected tie as intra or cross.
    """
    rng = np.random.default_rng(seed)
    half_u = num_users // 2
    half_v = num_items // 2
    cluster_of = np.array([0] * half_u + [1] * (num_users - half_u))

    pools = [np.arange(0, half_v), np.arange(half_v, num_items)]
    inter = []
    used = set()
    for u in range(num_users):
        pool = pools[cluster_of[u]]
        hot_n = max(1, int(len(pool) * hot_fraction))
        weights = np.full(len(pool), (1.0 - hot_weight) / (len(pool) - hot_n))
        weights[:hot_n] = hot_weight / hot_n
        k = min(items_per_user, len(pool))
        items = rng.choice(pool, size=k, replace=False, p=weights)
        inter.extend((u, int(v)) for v in items)
        used.update(int(v) for v in items)
    # cold tail items get one interaction each so every item index exists
    for c, pool in enumerate(pools):
        members = np.flatnonzero(cluster_of == c)
        for v in pool:
            if int(v) not in used:
                inter.append((int(rng.choice(members)), int(v)))

    ties = set()
    for u in range(num_users):
        same = [x for x in range(num_users) if cluster_of[x] == cluster_of[u] and x != u]
        other = [x for x in range(num_users) if cluster_of[x] != cluster_of[u]]
        n_cross = int(round(ties_per_user * cross_ratio))
        n_intra = ties_per_user - n_cross
        for x in rng.choice(same, size=min(n_intra, len(same)), replace=False):
            ties.add((min(u, int(x)), max(u, int(x))))
        for x in rng.choice(other, size=min(n_cross, len(other)), replace=False):
            ties.add((min(u, int(x)), max(u, int(x))))

    ds = build_dataset(InteractionTable.of(inter), SocialTable.of(sorted(ties)),
                       split_seed=seed)
    # users appear in order in `inter`, so the dense index is the generation index
    if ds.user_ids != list(range(num_users)):
        raise ValueError("planted users are not numbered in generation order")
    tie_kind = {(a, b): "intra" if cluster_of[a] == cluster_of[b] else "cross"
                for a, b in ties}
    return ds, {"cluster_of": cluster_of, "tie_kind": tie_kind}


def write_edge_files(inter, soc, out_dir):
    """Write raw tables in the loader's text format (undirected ties once)."""
    os.makedirs(out_dir, exist_ok=True)
    ipath = os.path.join(out_dir, "interactions.txt")
    spath = os.path.join(out_dir, "social.txt")
    with open(ipath, "w") as fh:
        for u, v in inter.pairs.tolist():
            fh.write(f"{inter.user_ids[u]} {inter.item_ids[v]}\n")
    with open(spath, "w") as fh:
        for a, b in soc.pairs[0::2].tolist():  # a tie's two rows are adjacent
            a, b = soc.user_ids[a], soc.user_ids[b]
            fh.write(f"{min(a, b)} {max(a, b)}\n")
    return ipath, spath
