"""Leave-one-out ranking evaluation: HR@N / NDCG@N, strata, weight exports."""

import collections
import logging
import math
import operator
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from .data import first_fresh
from .graph import CHUNK, CPUS, pool
from .model import _require_encoded, pair_rows, projection_forward, user_vectors

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    """Ranking metrics at several cutoffs, optionally per degree stratum.

    Integer hit counts and NDCG sums are kept alongside the ratios so that
    stratum results recombine to the overall numbers without rounding
    games: overall hits are exactly the sum of per-stratum hits. The
    overall fields and each stratum's entry are `_summary`s of their ranks.
    """

    cutoffs: tuple
    num_users: int
    hits: dict                   # cutoff -> int
    ndcg_sums: dict              # cutoff -> float
    hr: dict                     # cutoff -> hits / num_users
    ndcg: dict                   # cutoff -> ndcg_sums / num_users
    per_stratum: dict = field(default_factory=dict)  # label -> _summary dict
    skipped: int = 0
    metadata: dict = field(default_factory=dict)

    def _groups(self):
        """(label, summary) of all evaluated users, then of each stratum."""
        return [("all", vars(self)), *self.per_stratum.items()]

    def to_lines(self):
        """Line-delimited `metric cutoff stratum value` rows for plotting."""
        out = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        out.append(f"# users={self.num_users} skipped={self.skipped}")
        for label, sub in self._groups():
            for n in self.cutoffs:
                out.append(f"hr {n} {label} {sub['hr'][n]:.12g}")
                out.append(f"ndcg {n} {label} {sub['ndcg'][n]:.12g}")
        return out

    def to_table(self):
        rows = [f"{'metric':<8}" + "".join(f"@{n:<8}" for n in self.cutoffs)]
        for label, sub in self._groups():
            indent = "" if label == "all" else "  "
            if indent:
                rows.append(f"stratum {label} ({sub['num_users']} users)")
            for metric in ("hr", "ndcg"):
                rows.append(f"{indent + metric:<8}"
                            + "".join(f"{sub[metric][n]:<9.4f}" for n in self.cutoffs))
        return "\n".join(rows)


# numpy's SeedSequence hash constants and the PCG64 multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h)
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const, mult):
    """SeedSequence's running uint32 hash: each call XORs with the
    constant, advances it by `mult` and multiplies by the new one."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _stream_states(seed, users):
    """The PCG64 stream of `default_rng([seed, u])` for each user u in
    [0, 2**32), as lists of 128-bit ints: its states and its increments.

    SeedSequence's entropy mixing and `generate_state` run as uint32
    arithmetic over all users at once, then PCG64's seeding step on each
    user's seed and sequence words. Plain ints, not per-user dicts (see
    `_pcg64`), give the garbage collector nothing to count.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"evaluation seed must be >= 0, got {seed}")
    n = len(users)
    words = [np.full(n, seed >> 32 * k & _MASK32, np.uint32)
             for k in range(max(1, -(-seed.bit_length() // 32)))]
    words.append(users.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[k] if k < len(words) else np.zeros(n, np.uint32))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    # little-endian word pairs: the seed's high and low halves, then the
    # sequence's
    halves = [(out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states, incs = [], []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        incs.append(((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128)
        states.append(((incs[-1] + (seed_hi << 64 | seed_lo)) * _PCG_MULT + incs[-1])
                      & _MASK128)
    return states, incs


def _pcg64(state, inc):
    """The `bit_generator.state` of a fresh PCG64 stream at (state, inc)."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _prefix_length(unknown, num_items, count):
    """The mean plus the standard deviation, rounded up, of the draws out
    of `num_items` that pick `count` distinct items of `unknown` ones: the
    k-th pick takes Geometric((unknown - k) / num_items) draws."""
    p = (unknown - np.arange(count)) / num_items
    return math.ceil((1 / p).sum() + math.sqrt(((1 - p) / p ** 2).sum()))


def _sample_negatives(rng, streams, users, known, num_items, count):
    """Each row's `count` negatives and whether the row has that many.

    Row r draws from `rng` set to the r-th stream of `streams`, a pair of
    lists (states, incs). Its negatives are the first `count` distinct
    items off `known`'s list of users[r] that it draws: what a loop of
    rounds that each draw the number still needed with
    `rng.integers(num_items)` picks, as a round ends on its last pick.
    They come from one prefix of each row's stream, redrawn twice as long
    for the rows it leaves short; the first is `_prefix_length` of the
    row with the fewest unknown items. When at most 4*count items are
    unknown, a shuffle of them stands instead; with fewer than `count`,
    the row stays unfilled.
    """
    unknown = num_items - np.diff(known.indptr)[users]
    filled = unknown >= count
    small = filled & (unknown <= 4 * max(count, 1))
    negs = np.empty((len(users), count), dtype=np.int64)
    bits, (states, incs) = rng.bit_generator, streams
    for r in np.flatnonzero(small).tolist():
        bits.state = _pcg64(states[r], incs[r])
        allowed = np.ones(num_items, dtype=bool)
        allowed[known.items[known.indptr[users[r]]:known.indptr[users[r] + 1]]] = False
        allowed = np.flatnonzero(allowed)
        rng.shuffle(allowed)
        negs[r] = allowed[:count]
    rows = np.flatnonzero(filled & ~small) if count else np.zeros(0, np.int64)
    if len(rows):
        length = _prefix_length(int(unknown[rows].min()), num_items, count)
    while len(rows):
        draws = np.empty((len(rows), length), dtype=np.int64)
        for k, r in enumerate(rows.tolist()):
            bits.state = _pcg64(states[r], incs[r])
            draws[k] = rng.integers(num_items, size=length)
        # row-local keys: the rows' known items first, then their draws
        lo, hi = known.indptr[users[rows]], known.indptr[users[rows] + 1]
        owner = np.repeat(np.arange(len(rows)), hi - lo)
        offset = np.repeat(hi - np.cumsum(hi - lo), hi - lo)  # list start - key start
        listed = owner * num_items + known.items[np.arange(len(owner)) + offset]
        fresh = first_fresh(np.arange(len(rows))[:, None] * num_items + draws, listed)
        picked = fresh.cumsum(axis=1)
        done = picked[:, -1] >= count
        take = fresh[done] & (picked[done] <= count)
        negs[rows[done]] = draws[done][take].reshape(-1, count)
        rows, length = rows[~done], 2 * length
    return negs, filled


def held_out_rank(scores, cand):
    """0-based rank of the held-out item cand[..., 0] among the candidates
    along the last axis: of one row, or of each row of a block.

    A candidate outranks the held-out item when its score is strictly
    higher, or equal with a smaller item index (deterministic ties). A NaN
    score compares as -inf, below every number.
    """
    scores = np.fmax(scores, -np.inf)  # NaN -> -inf, the rest as it is
    held, held_score = cand[..., :1], scores[..., :1]
    better = (scores[..., 1:] > held_score) | ((scores[..., 1:] == held_score)
                                               & (cand[..., 1:] < held))
    return better.sum(axis=-1)


def _block_ranks(ms, users, cand, social_fusion):
    """Rank of each row's held-out item cand[r, 0] among its candidates
    for user users[r], scored by stacked matrix products in sub-blocks of
    at most 4*CHUNK gathered elements. Runs on the shared pool, so it
    calls nothing that uses the pool."""
    vec = user_vectors(ms, users, social_fusion)
    scores = np.empty(cand.shape, ms.agg_r.dtype)
    step = max(1, 4 * CHUNK // (cand.shape[1] * vec.shape[1]))
    for s in range(0, len(cand), step):
        np.matmul(ms.agg_r[ms.num_users + cand[s:s + step]], vec[s:s + step, :, None],
                  out=scores[s:s + step, :, None])
    return held_out_rank(scores, cand)


def _user_ranks(ms, ds, split, num_negatives, seed, social_fusion):
    """0-based rank of each evaluated user's held-out item.

    The held-out item competes against `num_negatives` sampled
    non-interacted items; ties are broken by item index ascending. Each
    user gets its own stream, `default_rng([seed, u])`, so runs are
    comparable across models. Users with too few unknown items are
    skipped, with one warning per dataset, split and negatives count:
    these alone decide who is skipped. Users go in blocks of about CHUNK
    candidates. This thread draws each block's candidates, in block
    order, with its one generator, while the shared pool scores the
    blocks before it (`_block_ranks`), at most one block per CPU waiting.
    An error waits for every submitted block before it propagates.
    """
    if split not in ("val", "test"):
        raise ValueError(f"unknown split {split!r}")
    edges = ds.val_edges if split == "val" else ds.test_edges
    known = ds.known_item_lists()
    states, incs = _stream_states(seed, edges[:, 0])
    rng = np.random.default_rng(0)  # set to each user's stream in turn
    users, ranks = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    rows = max(1, CHUNK // (num_negatives + 1))
    pending = collections.deque()  # scoring tasks of the drawn blocks, in order
    try:
        for lo in range(0, len(edges), rows):
            block = edges[lo:lo + rows]
            negs, filled = _sample_negatives(rng, (states[lo:lo + rows], incs[lo:lo + rows]),
                                             block[:, 0], known, ds.num_items, num_negatives)
            for u in block[~filled, 0].tolist():
                log.debug("user %d skipped: fewer than %d negative candidates",
                          u, num_negatives)
            users.append(block[filled, 0])
            cand = np.concatenate([block[filled, 1:], negs[filled]], axis=1)
            if len(pending) >= CPUS:
                ranks.append(pending.popleft().result())
            pending.append(pool().submit(_block_ranks, ms, users[-1], cand, social_fusion))
        while pending:
            ranks.append(pending.popleft().result())
    finally:
        futures.wait(pending)
    users = np.concatenate(users)
    skipped = len(edges) - len(users)
    logged = ds._derived("skips_logged", set)
    if skipped and (split, num_negatives) not in logged:
        logged.add((split, num_negatives))
        log.warning("%d user(s) skipped on split %r: fewer than %d negative "
                    "candidates", skipped, split, num_negatives)
    return users, np.concatenate(ranks), skipped


def _summary(ranks, cutoffs):
    """num_users, hits, ndcg_sums, hr and ndcg at each cutoff of a set of
    0-based ranks."""
    hits = {n: int((ranks < n).sum()) for n in cutoffs}
    ndcg_sums = {n: float(sum(1.0 / math.log2(r + 2) for r in ranks[ranks < n]))
                 for n in cutoffs}
    return {"num_users": len(ranks), "hits": hits, "ndcg_sums": ndcg_sums,
            "hr": {n: hits[n] / len(ranks) for n in cutoffs},
            "ndcg": {n: ndcg_sums[n] / len(ranks) for n in cutoffs}}


def evaluate(ms, ds, split="test", num_negatives=99, cutoffs=(5, 10, 20),
             seed=0, social_fusion=False, metadata=None):
    """Leave-one-out evaluation over one split, without per-stratum rows.

    HR@N is the fraction of evaluated users whose held-out item lands in
    the top N; NDCG@N credits 1/log2(rank+2) for a 0-based rank below N.
    """
    return evaluate_stratified(ms, ds, None, split, num_negatives, cutoffs,
                               seed, social_fusion, metadata)


def evaluate_stratified(ms, ds, strata, split="test", num_negatives=99,
                        cutoffs=(5, 10, 20), seed=0, social_fusion=False,
                        metadata=None):
    """Evaluation with per-degree-stratum breakdowns (none when `strata`
    is None).

    The same per-user ranks feed both the overall and the stratum metrics,
    so the per-stratum hit counts sum exactly to the overall count. Empty
    strata are omitted rather than reported as zero. A split where no user
    has `num_negatives` unknown items is an error, not a report of zeros.
    """
    _require_encoded(ms)
    users, ranks, skipped = _user_ranks(ms, ds, split, num_negatives, seed,
                                        social_fusion)
    if not len(users):
        raise ValueError(f"no user of split {split!r} evaluated: {skipped} skipped "
                         f"for fewer than {num_negatives} negative candidates")
    cutoffs = tuple(cutoffs)
    report = EvalReport(cutoffs=cutoffs, **_summary(ranks, cutoffs), skipped=skipped,
                        metadata=dict(metadata or {}))
    if strata is not None:
        member_stratum = strata.assignment[users]
        for s, label in enumerate(strata.labels()):
            mask = member_stratum == s
            if mask.any():
                report.per_stratum[label] = _summary(ranks[mask], cutoffs)
    return report


@dataclass
class RelevanceWeightExport:
    """Learned pair weights for social ties, sorted by z ascending."""

    rows: list  # (user_i, user_j, z, zhat)

    def to_lines(self):
        out = ["# user_i user_j z zhat"]
        for i, j, z, zhat in self.rows:
            out.append(f"{i} {j} {z:.12g} {zhat:.12g}")
        return out


def export_relevance_weights(ms, ds, sample="all", seed=0):
    """z and zhat for each (optionally sampled) undirected social tie.

    Both are made in row slices of at least CHUNK // d ties, the last
    taking the remainder, so the temporaries are about three slice x d
    blocks. A short last slice could change z's last bits, as the
    projection GEMM may round a few rows differently from many; slices
    this long keep the bits of one GEMM over every tie
    (tests/test_equivalence.py)."""
    _require_encoded(ms)
    ties = ds.social_edges[ds.social_edges[:, 0] < ds.social_edges[:, 1]]
    if sample != "all":
        count = min(int(sample), len(ties))
        rng = np.random.default_rng(seed)
        ties = ties[rng.choice(len(ties), size=count, replace=False)]
    if len(ties) == 0:
        return RelevanceWeightExport(rows=[])
    i, j = ties[:, 0], ties[:, 1]
    z, zhat = np.empty(len(ties)), np.empty(len(ties))
    step = max(1, CHUNK // ms.dim)
    slices = max(1, len(ties) // step)
    for k in range(slices):
        s = slice(k * step, (k + 1) * step if k < slices - 1 else len(ties))
        z[s] = projection_forward(ms.params, pair_rows(ms.agg_r, i[s], j[s]))[0]
        zhat[s] = (ms.agg_s[i[s]] * ms.agg_s[j[s]]).sum(axis=1)
    order = np.argsort(z, kind="stable")
    rows = list(zip(i[order].tolist(), j[order].tolist(), z[order].tolist(),
                    zhat[order].tolist()))
    return RelevanceWeightExport(rows=rows)
