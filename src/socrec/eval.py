"""Leave-one-out ranking evaluation: HR@N / NDCG@N, strata, weight exports."""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import _require_encoded, projection_forward, user_vectors

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


def _split_edges(ds, split):
    if split == "val":
        return ds.val_edges
    if split == "test":
        return ds.test_edges
    raise ValueError(f"unknown split {split!r}")


def _sample_negatives(rng, num_items, known, count):
    """The first `count` distinct unknown items `rng` draws (None when too
    few are unknown; when at most 4*count are, a shuffle of them instead).
    A round's bulk draw of the still-needed k is the stream of k scalars."""
    pool = num_items - len(known)
    if pool < count:
        return None
    if pool <= 4 * max(count, 1):
        allowed = np.array([v for v in range(num_items) if v not in known],
                           dtype=np.int64)
        rng.shuffle(allowed)
        return allowed[:count]
    picked = {}  # insertion-ordered: draw order of first occurrences
    while len(picked) < count:
        for v in rng.integers(num_items, size=count - len(picked)).tolist():
            if v not in known:
                picked.setdefault(v)
    return np.array(list(picked), dtype=np.int64)


def held_out_rank(scores, cand):
    """0-based rank of cand[0] among all candidates.

    A candidate outranks the held-out item when its score is strictly
    higher, or equal with a smaller item index (deterministic ties).
    """
    better = (scores[1:] > scores[0]) | ((scores[1:] == scores[0])
                                         & (cand[1:] < cand[0]))
    return int(better.sum())


def _user_ranks(ms, ds, split, num_negatives, seed, social_fusion):
    """0-based rank of each evaluated user's held-out item.

    The held-out item competes against `num_negatives` sampled
    non-interacted items; ties are broken by item index ascending. Each
    user gets its own seeded stream so runs are comparable across models.
    Users with too few unknown items are skipped, with one warning per
    dataset, split and negatives count: these alone decide who is skipped.
    """
    edges = _split_edges(ds, split)
    I = ds.num_users
    known = ds.user_known_items()
    users, ranks, skipped = [], [], 0
    for u, held in zip(*edges.T.tolist()):  # no per-row list for the GC to count
        rng = np.random.default_rng([seed, u])
        negs = _sample_negatives(rng, ds.num_items, known[u], num_negatives)
        if negs is None:
            skipped += 1
            log.debug("user %d skipped: fewer than %d negative candidates",
                      u, num_negatives)
            continue
        cand = np.concatenate([[held], negs])
        scores = ms.agg_r[I + cand] @ user_vectors(ms, u, social_fusion)
        users.append(u)
        ranks.append(held_out_rank(scores, cand))
    logged = ds._derived("skips_logged", set)
    if skipped and (split, num_negatives) not in logged:
        logged.add((split, num_negatives))
        log.warning("%d user(s) skipped on split %r: fewer than %d negative "
                    "candidates", skipped, split, num_negatives)
    return np.array(users, dtype=np.int64), np.array(ranks, dtype=np.int64), skipped


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
    """z and zhat for each (optionally sampled) undirected social tie."""
    _require_encoded(ms)
    ties = ds.social_edges[ds.social_edges[:, 0] < ds.social_edges[:, 1]]
    if sample != "all":
        count = min(int(sample), len(ties))
        rng = np.random.default_rng(seed)
        ties = ties[rng.choice(len(ties), size=count, replace=False)]
    if len(ties) == 0:
        return RelevanceWeightExport(rows=[])
    i, j = ties[:, 0], ties[:, 1]
    z, _ = projection_forward(ms.params, ms.agg_r[i], ms.agg_r[j])
    zhat = (ms.agg_s[i] * ms.agg_s[j]).sum(axis=1)
    order = np.argsort(z, kind="stable")
    rows = list(zip(i[order].tolist(), j[order].tolist(), z[order].tolist(),
                    zhat[order].tolist()))
    return RelevanceWeightExport(rows=rows)
