"""Seeded raw-edge generators for the benchmark workloads.

    python3 bench/gen.py --workload ciao-train --size full --seed 1 --out DIR

Each generator returns integer edge arrays plus a taste-group label per
user; `write_edge_files` turns them into the text files `socrec` ingests,
with external string ids, so the program sees only raw input. `run.py`
runs this file in a child process, so the generator's arrays never count
in the measuring process's peak memory.
"""

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np


@dataclass
class RawEdges:
    interactions: np.ndarray  # (n, 2) user, item; may repeat pairs like a real dump
    ratings: np.ndarray       # (n,) extra column the loader must skip
    ties: np.ndarray          # (m, 2) undirected, a < b, no repeats
    user_group: np.ndarray    # (num_users,) taste group of each user


def ciao_edges(seed, num_users=6672, num_items=98875, interactions=206_000,
               ties=110_000, groups=8, in_group=0.8, tie_in_group=0.7,
               popularity_exponent=0.7):
    """Ciao-shaped data: heavy-tailed user activity, Zipf item popularity,
    Chung-Lu style ties with heavy-tailed social degree.

    Users and items fall into `groups` taste groups; a user draws
    `in_group` of its interactions from its own group's items and
    `tie_in_group` of its ties inside its group. Every user gets at least
    one interaction, so the user count is exact; about 68k of the items
    are drawn at the defaults.
    """
    rng = np.random.default_rng([seed, 1])
    user_group = rng.integers(groups, size=num_users)
    item_group = rng.integers(groups, size=num_items)

    activity = rng.lognormal(0.0, 1.1, size=num_users)
    degree = np.maximum(1, np.round(activity / activity.sum() * interactions))
    users = np.repeat(np.arange(num_users), degree.astype(np.int64))
    popularity = 1.0 / np.arange(1, num_items + 1) ** popularity_exponent
    rng.shuffle(popularity)

    items = rng.choice(num_items, size=len(users), p=popularity / popularity.sum())
    own = rng.random(len(users)) < in_group
    for g in range(groups):
        pool = np.flatnonzero(item_group == g)
        pick = own & (user_group[users] == g)
        weights = popularity[pool] / popularity[pool].sum()
        items[pick] = pool[rng.choice(len(pool), size=int(pick.sum()), p=weights)]

    propensity = rng.lognormal(0.0, 1.0, size=num_users)
    draws = int(ties * 1.2)  # headroom for self-pairs and repeats
    a = rng.choice(num_users, size=draws, p=propensity / propensity.sum())
    b = rng.choice(num_users, size=draws, p=propensity / propensity.sum())
    same = rng.random(draws) < tie_in_group
    for g in range(groups):
        members = np.flatnonzero(user_group == g)
        pick = same & (user_group[a] == g)
        weights = propensity[members] / propensity[members].sum()
        b[pick] = members[rng.choice(len(members), size=int(pick.sum()), p=weights)]
    tie_array = _unique_ties(a, b, num_users, rng)[:ties]

    ratings = rng.integers(1, 6, size=len(users))
    return RawEdges(np.stack([users, items], axis=1), ratings, tie_array,
                    user_group)


def planted_edges(seed, num_users=2000, num_items=4000, items_per_user=20,
                  ties_per_user=8, cross_ratio=0.5, hot_fraction=0.25,
                  hot_weight=0.7):
    """Two planted taste clusters, as `socrec.synthetic.planted_clusters`.

    Each user draws distinct items from its own cluster's pool with a hot
    head; `cross_ratio` of each user's ties cross clusters and so carry no
    taste signal. Items nobody drew get one interaction from a random
    member of their cluster, so every item exists.
    """
    rng = np.random.default_rng([seed, 2])
    half_u, half_v = num_users // 2, num_items // 2
    cluster = (np.arange(num_users) >= half_u).astype(np.int64)

    hot = max(1, int(half_v * hot_fraction))
    weights = np.full(half_v, (1.0 - hot_weight) / (half_v - hot))
    weights[:hot] = hot_weight / hot
    # weighted sampling without replacement per user: Gumbel top-k
    keys = np.log(weights) - np.log(-np.log(rng.random((num_users, half_v))))
    picks = np.argpartition(-keys, items_per_user, axis=1)[:, :items_per_user]
    items = (picks + cluster[:, None] * half_v).ravel()
    users = np.repeat(np.arange(num_users), items_per_user)
    unused = np.setdiff1d(np.arange(num_items), items)
    owners = rng.integers(half_u, size=len(unused)) + (unused >= half_v) * half_u
    users = np.concatenate([users, owners])
    items = np.concatenate([items, unused])

    n_cross = int(round(ties_per_user * cross_ratio))
    a = np.repeat(np.arange(num_users), ties_per_user)
    crosses = np.tile(np.arange(ties_per_user) >= ties_per_user - n_cross, num_users)
    target = np.where(crosses, 1 - cluster[a], cluster[a])
    b = rng.integers(half_u, size=len(a)) + target * half_u
    tie_array = _unique_ties(a, b, num_users, rng)

    ratings = np.ones(len(users), dtype=np.int64)
    return RawEdges(np.stack([users, items], axis=1), ratings, tie_array, cluster)


def _unique_ties(a, b, num_users, rng):
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    keys = np.unique(lo * num_users + hi)
    rng.shuffle(keys)
    return np.stack([keys // num_users, keys % num_users], axis=1)


# (workload, size) -> generator of the raw edges for a seed
INPUTS = {
    ("ciao-train", "full"): ciao_edges,
    ("ciao-train", "tiny"): lambda seed: ciao_edges(
        seed, num_users=300, num_items=3000, interactions=6000, ties=2000),
    ("planted-converge", "full"): planted_edges,
    ("planted-converge", "tiny"): lambda seed: planted_edges(
        seed, num_users=200, num_items=400),
}
FILES = ("interactions.txt", "social.txt", "groups.txt")


def write_edge_files(raw, out_dir):
    """Write `interactions.txt` (user item rating), `social.txt` and
    `groups.txt` (external user id, taste group) into `out_dir`."""
    os.makedirs(out_dir, exist_ok=True)
    inter, social, groups = (os.path.join(out_dir, name) for name in FILES)
    with open(inter, "w") as fh:
        fh.write("".join(f"u{u} i{v} {r}\n" for (u, v), r
                         in zip(raw.interactions.tolist(), raw.ratings.tolist())))
    with open(social, "w") as fh:
        fh.write("".join(f"u{a} u{b}\n" for a, b in raw.ties.tolist()))
    with open(groups, "w") as fh:
        fh.write("".join(f"u{u} {g}\n" for u, g in enumerate(raw.user_group.tolist())))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted({name for name, _ in INPUTS}))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_edge_files(INPUTS[args.workload, args.size](args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
