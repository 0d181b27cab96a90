import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socrec.data import InteractionTable, SocialTable, build_dataset, stratify_by_degree
from socrec.eval import (evaluate, evaluate_stratified,
                         export_relevance_weights, held_out_rank)
from socrec.graph import build_interaction_laplacian, build_social_laplacian
from socrec.model import encode, init_model
from socrec.objective import TrainConfig
from socrec.selfcheck import reference_rank
from socrec.synthetic import planted_clusters, random_dataset
from socrec.train import train_model

from conftest import make_encoded


class TestHeldOutRank:
    def test_strictly_highest_rank_zero(self):
        scores = np.array([5.0, 1.0, 2.0])
        assert held_out_rank(scores, np.array([7, 3, 9])) == 0

    def test_counting_matches_full_sort(self, rng):
        for _ in range(50):
            cand = rng.choice(500, size=40, replace=False)
            scores = np.round(rng.normal(size=40), 1)  # ties on purpose
            assert held_out_rank(scores, cand) == reference_rank(scores, cand)

    def test_block_ranks_each_row_as_full_sort(self, rng):
        cand = np.array([rng.choice(500, size=40, replace=False) for _ in range(200)])
        scores = np.round(rng.normal(size=(200, 40)), 1)  # ties on purpose
        got = held_out_rank(scores, cand)
        assert got.shape == (200,)
        assert got.tolist() == [reference_rank(s, c) for s, c in zip(scores, cand)]
        ties = (scores[:, 1:] == scores[:, :1]).any(axis=1)
        assert ties.sum() > 50  # with candidates on both sides of the held-out index
        assert ((cand[:, 1:] < cand[:, :1]) & (scores[:, 1:] == scores[:, :1])).any()
        assert ((cand[:, 1:] > cand[:, :1]) & (scores[:, 1:] == scores[:, :1])).any()

    def test_tie_broken_by_item_index(self):
        cand = np.array([10, 3, 20])
        scores = np.array([1.0, 1.0, 1.0])
        # item 3 outranks item 10; item 20 does not
        assert held_out_rank(scores, cand) == 1

    nan, inf = float("nan"), float("inf")

    @pytest.mark.parametrize("scores,want", [
        ([nan, 1.0, -5.0, 2.0], 3),      # a NaN held-out item: every number outranks it
        ([nan, -inf, -inf, nan], 1),     # ties at -inf, by item index: 3 only
        ([nan, nan, nan, nan], 1),
        ([1.0, nan, nan, 2.0], 1),       # NaN candidates rank below the held-out item
        ([-inf, nan, nan, -inf], 1),     # ...and tie with it at -inf: 3 only
        ([-inf, nan, -inf, nan], 1),
        ([0.0, -0.0, nan, nan], 1),      # -0.0 ties with 0.0: item 3 outranks
    ])
    def test_nan_ranks_below_every_number(self, scores, want):
        cand = np.array([5, 3, 8, 9])
        scores = np.array(scores)
        assert held_out_rank(scores, cand) == want == reference_rank(scores, cand)
        assert held_out_rank(scores[None], cand[None]).tolist() == [want]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0,
                                     -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_non_finite_scores_rank_as_full_sort(self, scores, random):
        cand = np.array(random.sample(range(100), len(scores)))
        scores = np.array(scores)
        assert held_out_rank(scores, cand) == reference_rank(scores, cand)


class TestEvaluate:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr", [1e150, 1e200, 1e300])
    def test_overflowing_model_is_not_ranked_perfect(self, lr):
        """One step at a huge learning rate, then an abort that restores
        that step's finite parameters: scores overflow into NaN from
        lr = 1e200 on, and used to rank every held-out item first."""
        ds = random_dataset(30, 40, seed=2)
        cfg = TrainConfig(batch=4096, lr=lr, lr_decay=1, negatives=8, cutoffs=(5,))
        result = train_model(ds, cfg)
        ms = result.model
        assert result.aborted and result.best_epoch == 0
        assert np.isfinite(ms.params.flat).all() and np.isfinite(ms.agg_r).all()
        scores = ms.agg_r[:ds.num_users] @ ms.agg_r[ds.num_users:].T
        assert np.isnan(scores).any() == (lr > 1e150)
        report = evaluate(ms, ds, split="test", num_negatives=cfg.negatives,
                          cutoffs=(5,))
        assert report.hr[5] < 1.0

    def test_rank3_ndcg_value(self):
        ranks = np.array([3])
        from socrec.eval import _summary
        summary = _summary(ranks, (10,))
        assert summary["hits"][10] == 1
        assert summary["ndcg_sums"][10] == pytest.approx(1.0 / math.log2(5.0), abs=1e-12)

    def test_rank0_full_credit(self):
        from socrec.eval import _summary
        summary = _summary(np.array([0]), (10,))
        assert summary["hits"][10] == 1
        assert summary["ndcg_sums"][10] == 1.0

    def test_perfect_and_monotone(self, encoded):
        ds, ms, _, _ = encoded
        rep = evaluate(ms, ds, "test", num_negatives=3, cutoffs=(1, 2, 5),
                       seed=0)
        hr = [rep.hr[n] for n in (1, 2, 5)]
        ndcg = [rep.ndcg[n] for n in (1, 2, 5)]
        assert hr == sorted(hr)
        assert ndcg == sorted(ndcg)
        for n in (1, 2, 5):
            assert rep.ndcg[n] <= rep.hr[n] + 1e-12

    def test_zero_negatives_forced_win(self, encoded):
        ds, ms, _, _ = encoded
        rep = evaluate(ms, ds, "test", num_negatives=0, cutoffs=(1, 10), seed=0)
        assert rep.hr[1] == 1.0
        assert rep.ndcg[10] == 1.0

    def test_deterministic_given_seed(self, encoded):
        ds, ms, _, _ = encoded
        a = evaluate(ms, ds, "test", num_negatives=4, cutoffs=(5,), seed=3)
        b = evaluate(ms, ds, "test", num_negatives=4, cutoffs=(5,), seed=3)
        assert a.hr == b.hr and a.ndcg == b.ndcg

    def test_users_without_enough_candidates_skipped(self, encoded):
        """Skipping every user is an error, not a report of zeros."""
        ds, ms, _, _ = encoded
        with pytest.raises(ValueError, match=f"split 'test' evaluated: "
                           f"{len(ds.test_edges)} skipped for fewer than "
                           f"{ds.num_items} negative"):
            evaluate(ms, ds, "test", num_negatives=ds.num_items, seed=0)

    def test_requires_encode(self, tiny_ds):
        from socrec.model import init_model
        ms = init_model(tiny_ds.num_users, tiny_ds.num_items, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate(ms, tiny_ds, "test")

    def test_unknown_split(self, encoded):
        ds, ms, _, _ = encoded
        with pytest.raises(ValueError):
            evaluate(ms, ds, "holdout")

    def test_ranking_sets_off_no_garbage_collection(self):
        # Per-user objects that outlive their iteration (one list per edge
        # row, say) hand the collector thousands of tracked objects per
        # call; they set off collections, now and then a full one, inside
        # the evaluation. Ranking a split must not reach a collection, with
        # the known-item lists cached or built inside the first call (a
        # `replace` copy derives its own).
        ds = random_dataset(1600, 400, min_items=3, max_items=6, tie_prob=0.002,
                            seed=3)
        ms, _, _ = make_encoded(ds, dim=8)
        assert len(ds.test_edges) > 2 * gc.get_threshold()[0]
        ds.known_item_lists()
        cold = dataclasses.replace(ds)
        started = []

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(note)
        try:
            reps = [evaluate(ms, d, "test", num_negatives=20, cutoffs=(10,), seed=0)
                    for d in (ds, cold)]
        finally:
            gc.callbacks.remove(note)
        assert [rep.num_users for rep in reps] == [len(ds.test_edges)] * 2
        assert started == []


@st.composite
def degenerate_tables(draw):
    """Per-user item sets over a few items, no ties: user u0 has every
    item, u1 only item i0, the rest at least two where there are two."""
    num_items = draw(st.integers(1, 10))
    rest = draw(st.lists(st.sets(st.integers(0, num_items - 1),
                                 min_size=min(2, num_items)), max_size=6))
    return [set(range(num_items)), {0}, *rest]


@settings(max_examples=80, deadline=None)
@given(rows=degenerate_tables(), negatives=st.integers(0, 3),
       split=st.sampled_from(["val", "test"]), split_seed=st.integers(0, 3))
def test_degenerate_data_skips_short_users_or_raises(rows, negatives, split,
                                                      split_seed):
    """Users with fewer than `negatives` unknown items are skipped, and
    the rest ranked; a split that leaves none to rank is an error."""
    edges = [(f"u{k}", f"i{v}") for k, items in enumerate(rows) for v in sorted(items)]
    ds = build_dataset(InteractionTable.of(edges), SocialTable.of([]),
                       split_seed=split_seed)
    ms, _, _ = make_encoded(ds, dim=2, layers=1)
    held = ds.val_edges if split == "val" else ds.test_edges
    unknown = [len(rows[0]) - len(rows[int(ds.user_ids[u][1:])]) for u in held[:, 0]]
    short = sum(n < negatives for n in unknown)
    if short == len(held):
        with pytest.raises(ValueError, match=f"split {split!r} evaluated: {short} "
                           f"skipped for fewer than {negatives} negative"):
            evaluate(ms, ds, split, negatives, (1, 5), 0)
        return
    rep = evaluate(ms, ds, split, negatives, (1, 5), 0)
    assert rep.skipped == short
    assert rep.num_users + rep.skipped == len(held)


class TestStratified:
    def test_single_stratum_equals_overall(self, encoded):
        ds, ms, _, _ = encoded
        strata = stratify_by_degree(ds, ((0, math.inf),))
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=3,
                                  cutoffs=(5,), seed=0)
        label = strata.labels()[0]
        assert rep.per_stratum[label]["hr"][5] == rep.hr[5]
        assert rep.per_stratum[label]["ndcg"][5] == rep.ndcg[5]

    def test_recombination_identity(self):
        ds = random_dataset(20, 25, min_items=3, max_items=7, seed=17)
        ms, _, _ = make_encoded(ds, dim=4, layers=1)
        strata = stratify_by_degree(ds, ((0, 3), (3, 5), (5, math.inf)))
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=5,
                                  cutoffs=(3, 10), seed=1)
        for n in (3, 10):
            hits = sum(sub["hits"][n] for sub in rep.per_stratum.values())
            users = sum(sub["num_users"] for sub in rep.per_stratum.values())
            assert hits == rep.hits[n]          # integer-exact recombination
            assert users == rep.num_users
            ndcg = sum(sub["ndcg_sums"][n] for sub in rep.per_stratum.values())
            assert ndcg == pytest.approx(rep.ndcg_sums[n], abs=1e-12)

    def test_partitioned_oracle(self):
        # hand-partition: evaluate each stratum's users separately
        ds = random_dataset(16, 20, min_items=3, max_items=6, seed=23)
        ms, _, _ = make_encoded(ds, dim=4, layers=1)
        strata = stratify_by_degree(ds, ((0, 4), (4, math.inf)))
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=4,
                                  cutoffs=(5,), seed=2)
        from socrec.eval import _summary, _user_ranks
        users, ranks, _ = _user_ranks(ms, ds, "test", 4, 2, False)
        for s, label in enumerate(strata.labels()):
            mask = strata.assignment[users] == s
            if not mask.any():
                assert label not in rep.per_stratum
                continue
            hits = _summary(ranks[mask], (5,))["hits"]
            assert rep.per_stratum[label]["hits"][5] == hits[5]
            assert rep.per_stratum[label]["num_users"] == int(mask.sum())

    @pytest.mark.parametrize("negatives", [5, 20])  # 20 skips some users
    def test_overall_matches_unstratified(self, negatives):
        ds = random_dataset(20, 25, min_items=3, max_items=7, seed=17)
        ms, _, _ = make_encoded(ds, dim=4, layers=1)
        strata = stratify_by_degree(ds, ((0, 3), (3, 5), (5, math.inf)))
        args = ("test", negatives, (3, 10), 1)
        plain = evaluate(ms, ds, *args)
        rep = evaluate_stratified(ms, ds, strata, *args)
        assert plain.per_stratum == {}
        assert rep.per_stratum
        for name in ("hits", "ndcg_sums", "skipped", "num_users"):
            assert getattr(rep, name) == getattr(plain, name)
        if negatives == 20:
            assert 0 < rep.skipped and 0 < rep.num_users

    def test_empty_stratum_absent(self, encoded):
        ds, ms, _, _ = encoded
        strata = stratify_by_degree(ds, ((0, 1000), (1000, math.inf)))
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=3,
                                  cutoffs=(5,), seed=0)
        assert strata.labels()[1] not in rep.per_stratum

    def test_single_user_stratum_hit(self):
        ds = random_dataset(10, 12, min_items=4, max_items=6, seed=31)
        ms, _, _ = make_encoded(ds, dim=4, layers=1)
        strata = stratify_by_degree(ds, ((0, math.inf),))
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=0,
                                  cutoffs=(5,), seed=0)
        for sub in rep.per_stratum.values():
            assert sub["hr"][5] == 1.0


class TestReportOutput:
    def test_lines_format(self, encoded):
        ds, ms, _, _ = encoded
        strata = stratify_by_degree(ds)
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=3,
                                  cutoffs=(5, 10), seed=0,
                                  metadata={"variant": "full"})
        lines = rep.to_lines()
        assert any(line.startswith("# variant=full") for line in lines)
        data = [l for l in lines if not l.startswith("#")]
        for line in data:
            metric, cutoff, stratum, value = line.split()
            assert metric in ("hr", "ndcg")
            assert int(cutoff) in (5, 10)
            float(value)

    def test_table_renders(self, encoded):
        ds, ms, _, _ = encoded
        rep = evaluate(ms, ds, "test", num_negatives=3, cutoffs=(5,), seed=0)
        assert "hr" in rep.to_table()

    def test_stratified_text_is_pinned(self):
        """report.dat's and report.txt's text of a three-stratum report."""
        ds = random_dataset(30, 40, min_items=2, max_items=12, seed=5)
        ms, _, _ = make_encoded(ds, dim=4, layers=1)
        strata = stratify_by_degree(ds, ((0, 4), (4, 8), (8, math.inf)))
        rep = evaluate_stratified(ms, ds, strata, "test", num_negatives=9,
                                  cutoffs=(1, 3, 10), seed=2,
                                  metadata={"variant": "full", "split": "test"})
        assert rep.to_lines() == [
            "# split=test", "# variant=full", "# users=30 skipped=0",
            "hr 1 all 0.2", "ndcg 1 all 0.2", "hr 3 all 0.5",
            "ndcg 3 all 0.367457300476", "hr 10 all 1", "ndcg 10 all 0.545923410538",
            "hr 1 [0,4) 0.2", "ndcg 1 [0,4) 0.2", "hr 3 [0,4) 0.466666666667",
            "ndcg 3 [0,4) 0.35079063381", "hr 10 [0,4) 1",
            "ndcg 10 [0,4) 0.530745121831",
            "hr 1 [4,8) 0.142857142857", "ndcg 1 [4,8) 0.142857142857",
            "hr 3 [4,8) 0.714285714286", "ndcg 3 [4,8) 0.447275679082",
            "hr 10 [4,8) 1", "ndcg 10 [4,8) 0.553867312633",
            "hr 1 [8,inf) 0.25", "ndcg 1 [8,inf) 0.25", "hr 3 [8,inf) 0.375",
            "ndcg 3 [8,inf) 0.328866219196", "hr 10 [8,inf) 1",
            "ndcg 10 [8,inf) 0.56743178753"]
        assert rep.to_table().split("\n") == [
            "metric  @1       @3       @10      ",
            "hr      0.2000   0.5000   1.0000   ",
            "ndcg    0.2000   0.3675   0.5459   ",
            "stratum [0,4) (15 users)",
            "  hr    0.2000   0.4667   1.0000   ",
            "  ndcg  0.2000   0.3508   0.5307   ",
            "stratum [4,8) (7 users)",
            "  hr    0.1429   0.7143   1.0000   ",
            "  ndcg  0.1429   0.4473   0.5539   ",
            "stratum [8,inf) (8 users)",
            "  hr    0.2500   0.3750   1.0000   ",
            "  ndcg  0.2500   0.3289   0.5674   "]


class TestRelevanceWeights:
    def test_zero_projection_all_half(self, encoded):
        ds, ms, _, _ = encoded
        ms.params.T[:] = 0
        ms.params.w[:] = 0
        ms.params.c[:] = 0
        export = export_relevance_weights(ms, ds)
        assert len(export.rows) == len(ds.social_edges) // 2
        assert all(z == 0.5 for _, _, z, _ in export.rows)

    def test_sample_count(self, encoded):
        ds, ms, _, _ = encoded
        total = len(ds.social_edges) // 2
        want = min(5, total)
        export = export_relevance_weights(ms, ds, sample=want, seed=1)
        assert len(export.rows) == want

    def test_export_temporaries_stay_near_three_blocks(self):
        """The export's peak traced allocation, less the rows it returns,
        is at most 3.5 tie x d float64 blocks: the pair block (two), the
        projection's output (one) and its masks."""
        ds, _ = planted_clusters(num_users=2000, num_items=600, items_per_user=8,
                                 ties_per_user=10, seed=0)
        d = 32
        ms = init_model(ds.num_users, ds.num_items, d, seed=0)
        encode(ms, build_interaction_laplacian(ds), build_social_laplacian(ds), 2)
        block = (ds.social_edges[:, 0] < ds.social_edges[:, 1]).sum() * d * 8
        tracemalloc.start()
        try:
            export = export_relevance_weights(ms, ds)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(export.rows) == block // (d * 8)
        assert (peak - current) / block <= 3.5

    def test_sorted_by_z_ascending(self, encoded):
        ds, ms, _, _ = encoded
        export = export_relevance_weights(ms, ds)
        zs = [z for _, _, z, _ in export.rows]
        assert zs == sorted(zs)

    def test_planted_clusters_separate_after_training(self):
        ds, info = planted_clusters(num_users=40, num_items=100,
                                    items_per_user=8, ties_per_user=6,
                                    seed=1)
        cfg = TrainConfig(dim=16, layers=2, batch=256, epochs=15, patience=999,
                          lr=5e-3, lambda1=0.1, lambda2=1e-3, lambda3=1e-5,
                          negatives=50, cutoffs=(10,), seed=1)
        result = train_model(ds, cfg)
        export = export_relevance_weights(result.model, ds)
        z_by_kind = {"intra": [], "cross": []}
        for i, j, z, _ in export.rows:
            kind = info["tie_kind"][(min(i, j), max(i, j))]
            z_by_kind[kind].append(z)
        assert np.mean(z_by_kind["cross"]) < np.mean(z_by_kind["intra"])
