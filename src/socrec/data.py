"""Edge-file ingestion, ID remapping, leave-one-out splits, noise injection."""

import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import parse_config_file, read_int, write_lines

log = logging.getLogger(__name__)

# Default degree strata: half-open intervals covering every nonnegative degree.
DEFAULT_STRATA = ((0, 5), (5, 10), (10, 15), (15, math.inf))


def _codes(column):
    """Dense codes of the ids in `column`, numbered in order of first
    appearance, and the distinct ids."""
    index = dict.fromkeys(column)
    index = dict(zip(index, range(len(index))))
    return (np.fromiter(map(index.__getitem__, column), np.int64, len(column)),
            list(index))


def first_fresh(keys, listed=np.zeros(0, dtype=np.int64)):
    """Whether each of the non-negative int64 `keys` (any shape) is the
    first of its value, in flat order, and not among the `listed` keys:
    from one sort of `key << shift | position`, the listed keys first."""
    flat = np.concatenate([listed, keys.ravel()])
    shift = len(flat).bit_length()
    top = int(flat.max(initial=0))
    if top << shift > np.iinfo(np.int64).max:
        raise OverflowError(f"{len(flat)} keys up to {top} overflow the sort keys")
    order = np.sort(flat << shift | np.arange(len(flat)))
    first = order[np.diff(order >> shift, prepend=-1) != 0] & ((1 << shift) - 1)
    fresh = np.zeros(len(flat), dtype=bool)
    fresh[first] = True
    return fresh[len(listed):].reshape(keys.shape)


@dataclass(eq=False, frozen=True)
class InteractionTable:
    """Raw user-item edges as codes, deduplicated in load order.

    Row k of `pairs` is (u, v): user `user_ids[u]` and item `item_ids[v]`.
    Both id lists follow first appearance.
    """

    pairs: np.ndarray  # (n, 2) int64
    user_ids: list
    item_ids: list
    malformed: int = 0

    @classmethod
    def of(cls, pairs, malformed=0):
        """The table of raw (user, item) id pairs, an (n, 2) array-like."""
        pairs = np.asarray(pairs, dtype=object).reshape(-1, 2)
        users, user_ids = _codes(pairs[:, 0].tolist())
        items, item_ids = _codes(pairs[:, 1].tolist())
        codes = np.column_stack((users, items))
        return cls(codes[first_fresh(users * len(item_ids) + items)],
                   user_ids, item_ids, malformed)


@dataclass(eq=False, frozen=True)
class SocialTable:
    """Raw user-user ties as codes into `user_ids`: each tie (a, b) gives
    rows (a, b) and (b, a), deduplicated in load order; self-ties are
    dropped and counted."""

    pairs: np.ndarray  # (m, 2) int64, both directions
    user_ids: list
    malformed: int = 0
    self_loops_dropped: int = 0

    @classmethod
    def of(cls, pairs, malformed=0):
        """The table of raw (user, user) id pairs, an (n, 2) array-like."""
        pairs = np.asarray(pairs, dtype=object).reshape(-1, 2)
        self_tie = pairs[:, 0] == pairs[:, 1]
        codes, user_ids = _codes(pairs[~self_tie].ravel().tolist())
        ties = codes.reshape(-1, 2)
        both = np.stack((ties, ties[:, ::-1]), axis=1).reshape(-1, 2)
        keys = both[:, 0] * len(user_ids) + both[:, 1]
        return cls(both[first_fresh(keys)], user_ids, malformed, int(self_tie.sum()))


def _edge_tokens(path):
    """The edge-file syntax, shared by raw edge files and the pair files of
    a dataset directory: (the first two tokens of every edge line, flat,
    the count of malformed lines).

    Lines hold at least two whitespace- or comma-separated tokens; extra
    columns (ratings, timestamps) are ignored. Lines with fewer than two
    tokens are malformed; blank lines and lines whose first non-blank
    character is '#' (before commas are read) are skipped.
    """
    ids = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0] == "#":
                continue
            toks = line.replace(",", " ").split(None, 2)
            if len(toks) < 2:
                malformed += 1
            else:
                ids += toks[:2]
    return ids, malformed


def load_edges(path, kind):
    """Parse an edge file into an InteractionTable or SocialTable; malformed
    lines (see `_edge_tokens`) are counted and skipped."""
    if kind not in ("interaction", "social"):
        raise ValueError(f"unknown edge kind: {kind!r}")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"edge file not found: {path}")
    ids, malformed = _edge_tokens(path)
    if malformed:
        log.warning("%s: skipped %d malformed line(s)", path, malformed)
    table = SocialTable if kind == "social" else InteractionTable
    return table.of(np.array(ids, dtype=object).reshape(-1, 2), malformed)


@dataclass(eq=False, frozen=True)
class Dataset:
    """ID-remapped interaction/social edges with leave-one-out splits.

    train/val/test are pairwise disjoint and their union is the full
    deduplicated interaction set. Social edges are stored with both
    directions present. Everything else is derived from these fields on
    first use: the neighbour lists, and from the train lists `degree`
    (distinct train items per user).
    The fields are read-only, so what is derived stays true; a variant is
    a `dataclasses.replace` copy, which derives its own.
    """

    num_users: int
    num_items: int
    user_ids: list            # dense index -> external id
    item_ids: list
    train_edges: np.ndarray   # (n, 2) int64 (user, item)
    val_edges: np.ndarray
    test_edges: np.ndarray
    social_edges: np.ndarray  # (m, 2) int64, symmetric
    split_seed: int = 0
    _cache: dict = field(init=False, default_factory=dict, repr=False)

    def _derived(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def degree(self):
        """(num_users,) int64: each user's count of distinct train items."""
        return np.diff(self.train_item_lists().indptr)

    @property
    def density(self):
        n = len(self.train_edges) + len(self.val_edges) + len(self.test_edges)
        return n / (self.num_users * self.num_items)

    def known_item_lists(self):
        """Each user's items of all three splits as NeighbourLists over the
        items (cached)."""
        return self._derived("known_lists", lambda: NeighbourLists.of(
            np.concatenate([self.train_edges, self.val_edges, self.test_edges]),
            self.num_users, self.num_items))

    def train_item_lists(self):
        """Each user's train items as NeighbourLists over the items (cached)."""
        return self._derived("train_lists", lambda: NeighbourLists.of(
            self.train_edges, self.num_users, self.num_items))

    def tie_lists(self):
        """Each user's ties as NeighbourLists over the users (cached)."""
        return self._derived("tie_lists", lambda: NeighbourLists.of(
            self.social_edges, self.num_users, self.num_users))


@dataclass(eq=False, frozen=True)
class NeighbourLists:
    """Per-anchor neighbour lists over `width` candidates, as arrays.

    `items[indptr[a]:indptr[a + 1]]` lists anchor a's distinct neighbours
    in ascending order; `keys` holds `a * width + b` of every pair, sorted,
    then one sentinel above them all, for testing many pairs at once.
    """

    width: int
    indptr: np.ndarray
    items: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(cls, edges, num_anchors, width):
        """The lists of anchors [0, num_anchors) over an (n, 2) edge array."""
        keys = np.sort(edges[:, 0] * width + edges[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]  # drop repeated pairs
        anchors = keys // width
        indptr = np.searchsorted(anchors, np.arange(num_anchors + 1))
        return cls(width, indptr, keys - anchors * width,
                   np.append(keys, np.iinfo(np.int64).max))

    def holds(self, anchors, others):
        """Whether each `others[k]` neighbours `anchors[k]`."""
        query = anchors * self.width + others
        return self.keys[np.searchsorted(self.keys, query)] == query


def build_dataset(inter, soc=None, split_seed=0):
    """Remap ids densely and build leave-one-out train/val/test splits.

    Users with >=3 interactions give one uniformly chosen interaction to
    test and one to validation; users with exactly 2 contribute test only;
    users with a single interaction stay fully in train. Index maps follow
    first appearance in the interaction table (social-only users appended),
    so identical inputs and seed rebuild the same dataset bit for bit.
    """
    if not len(inter.pairs):
        raise ValueError("empty interaction table")
    if split_seed < 0:
        raise ValueError(f"split_seed must be >= 0, got {split_seed}")

    soc = soc or SocialTable(np.zeros((0, 2), dtype=np.int64), [])
    codes, user_ids = _codes([*inter.user_ids, *soc.user_ids])
    social = codes[len(inter.user_ids):][soc.pairs]
    num_users = len(user_ids)
    # sorted tie keys; a table holds no repeats and the id map is one-to-one
    social = np.sort(social[:, 0] * num_users + social[:, 1])

    # each user's items in load order, users in index order
    pairs = inter.pairs[np.argsort(inter.pairs[:, 0], kind="stable")]
    counts = np.bincount(pairs[:, 0], minlength=num_users)
    rng = np.random.default_rng(split_seed)
    test, val = [], []
    for start, k in zip((np.cumsum(counts) - counts).tolist(), counts.tolist()):
        if k >= 2:
            pick = start + rng.choice(k, size=2 if k >= 3 else 1, replace=False)
            test.append(pick[0])
            val.extend(pick[1:])
    test, val = np.array(test, dtype=np.int64), np.array(val, dtype=np.int64)
    held = np.zeros(len(pairs), dtype=bool)
    held[test] = held[val] = True

    return Dataset(
        num_users=num_users,
        num_items=len(inter.item_ids),
        user_ids=user_ids,
        item_ids=list(inter.item_ids),
        train_edges=pairs[~held],
        val_edges=pairs[val],
        test_edges=pairs[test],
        social_edges=np.column_stack(np.divmod(social, num_users)),
        split_seed=split_seed,
    )


def inject_noise(ds, ratio, seed):
    """Add floor(ratio * |train|) fake train edges sampled uniformly from the
    complement of train/val/test. Held-out splits are never touched."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1], got {ratio}")
    count = int(ratio * len(ds.train_edges))
    if count == 0:
        return ds

    known = ds.known_item_lists()
    width = ds.num_items
    cells = ds.num_users * width
    capacity = cells - len(known.items)
    if count > capacity:
        raise ValueError(f"cannot place {count} fake edges, only {capacity} free cells")

    # Fakes are the first distinct free cells of a stream that draws a user,
    # then an item; one draw with bounds [I, J, I, J, ...] is that stream.
    rng = np.random.default_rng(seed)
    fake = np.zeros(0, dtype=np.int64)
    while len(fake) < count:
        # twice the draws that the missing fakes take on average
        draws = 2 * (count - len(fake)) * cells // (capacity - len(fake)) + 64
        cell = rng.integers(0, np.tile((ds.num_users, width), draws)).reshape(-1, 2)
        # the fakes so far come first, so a cell drawn again is dropped
        keys = np.concatenate([fake, cell[:, 0] * width + cell[:, 1]])
        fake = keys[first_fresh(keys, known.keys[:-1])][:count]

    fake = np.column_stack(np.divmod(fake, width))
    return replace(ds, train_edges=np.concatenate([ds.train_edges, fake]))


@dataclass(eq=False)
class DegreeStrata:
    """Partition of users into half-open degree intervals."""

    boundaries: tuple          # ((lo, hi), ...) hi exclusive, last hi = inf
    assignment: np.ndarray     # user index -> stratum index

    def labels(self):
        """`[lo,hi)` per stratum, each bound in the fewest digits that
        tell it from every other float (`5`, `3.5`, `1234567`, `inf`)."""
        bound = lambda x: np.format_float_positional(x, trim="-")  # noqa: E731
        return [f"[{bound(lo)},{bound(hi)})" for lo, hi in self.boundaries]


def stratify_by_degree(ds, boundaries=DEFAULT_STRATA):
    """Assign each user to the interval containing its train degree.

    Intervals must partition [0, inf): contiguous, starting at 0, last
    upper bound infinite.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in boundaries)
    if not bounds or bounds[0][0] != 0:
        raise ValueError("strata must start at degree 0")
    for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
        if hi != lo2:
            raise ValueError(f"strata gap or overlap between {hi} and {lo2}")
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"empty stratum [{lo}, {hi})")
    if not math.isinf(bounds[-1][1]):
        raise ValueError("last stratum must extend to infinity")

    cuts = np.array([lo for lo, _ in bounds[1:]])
    assignment = np.searchsorted(cuts, ds.degree, side="right").astype(np.int64)
    return DegreeStrata(boundaries=bounds, assignment=assignment)


# --- plain-text serialization ------------------------------------------------

def save_dataset(ds, out_dir):
    """Write the dataset as a directory of deterministic text files."""
    os.makedirs(out_dir, exist_ok=True)
    write_lines(os.path.join(out_dir, "meta"), [
        f"num_users={ds.num_users}",
        f"num_items={ds.num_items}",
        f"num_train={len(ds.train_edges)}",
        f"num_val={len(ds.val_edges)}",
        f"num_test={len(ds.test_edges)}",
        f"num_social={len(ds.social_edges)}",
        f"split_seed={ds.split_seed}",
        f"density={ds.density:.10e}",
    ])
    for name, arr in (("train.txt", ds.train_edges), ("val.txt", ds.val_edges),
                      ("test.txt", ds.test_edges), ("social.txt", ds.social_edges)):
        np.savetxt(os.path.join(out_dir, name), arr, fmt="%d")


def load_dataset(in_dir):
    """Load a dataset directory written by save_dataset (identity id maps).

    The pair files are edge files (see `_edge_tokens`) of dense indices.
    Refuses a malformed line, an index outside [0, num_users) or
    [0, num_items) of `meta`, a pair listed twice in one split or in two,
    a self-tie, a tie without its reverse and a file whose pair count
    differs from `meta`'s (when `meta` gives it); an error names the file.
    """
    meta_path = os.path.join(in_dir, "meta")
    meta = parse_config_file(meta_path)
    num_users = read_int(meta, "num_users", meta_path)
    num_items = read_int(meta, "num_items", meta_path)
    widths = {"train.txt": num_items, "val.txt": num_items, "test.txt": num_items,
              "social.txt": num_users}
    pairs = {}

    def refuse(name, bad, why):
        if bad.any():
            a, b = pairs[name][bad.argmax()].tolist()
            raise ValueError(f"{os.path.join(in_dir, name)}: pair {a} {b} {why}")

    for name, width in widths.items():
        path = os.path.join(in_dir, name)
        tokens, malformed = _edge_tokens(path)
        if malformed:
            raise ValueError(f"{path}: {malformed} line(s) with fewer than two tokens")
        try:
            pairs[name] = np.array([int(t) for t in tokens],
                                   dtype=np.int64).reshape(-1, 2)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        outside = (pairs[name] < 0) | (pairs[name] >= (num_users, width))
        refuse(name, outside.any(axis=1), f"lies outside [0, {num_users}) x [0, {width})")

    for names in (("train.txt", "val.txt", "test.txt"), ("social.txt",)):
        width = widths[names[0]]
        keys = np.sort(np.concatenate([pairs[n][:, 0] * width + pairs[n][:, 1]
                                       for n in names]))
        twice = keys[1:][np.diff(keys) == 0]
        if len(twice):
            a, b = divmod(int(twice[0]), width)
            where = " and ".join(os.path.join(in_dir, n) for n in names
                                 if (pairs[n] == (a, b)).all(axis=1).any())
            raise ValueError(f"{where}: pair {a} {b} is listed twice")

    social = pairs["social.txt"]
    refuse("social.txt", social[:, 0] == social[:, 1], "is a self-tie")
    ties = NeighbourLists.of(social, num_users, num_users)
    refuse("social.txt", ~ties.holds(social[:, 1], social[:, 0]),
           "has no reverse tie")
    for name, key in zip(widths, ("num_train", "num_val", "num_test", "num_social")):
        found = len(pairs[name])
        if found != read_int(meta, key, meta_path, found):  # an absent count passes
            raise ValueError(f"{os.path.join(in_dir, name)} holds {found} pairs, "
                             f"{meta_path} gives {key}={meta[key]}")

    return Dataset(
        num_users=num_users,
        num_items=num_items,
        user_ids=list(range(num_users)),
        item_ids=list(range(num_items)),
        train_edges=pairs["train.txt"],
        val_edges=pairs["val.txt"],
        test_edges=pairs["test.txt"],
        social_edges=social,
        split_seed=read_int(meta, "split_seed", meta_path, 0),
    )
