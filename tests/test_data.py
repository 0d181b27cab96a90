import gc
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socrec.data import (DEFAULT_STRATA, InteractionTable, SocialTable,
                         build_dataset, inject_noise, load_dataset, load_edges,
                         save_dataset, stratify_by_degree)
from socrec.synthetic import planted_clusters, random_tables


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def id_pairs(table):
    """A table's rows as external-id pairs, in row order."""
    items = getattr(table, "item_ids", table.user_ids)
    return [(table.user_ids[a], items[b]) for a, b in table.pairs.tolist()]


class TestLoadEdges:
    def test_interaction_dedup(self, tmp_path):
        path = write(tmp_path, "i.txt", "u1 i1\nu1 i1\nu2 i3\n")
        table = load_edges(path, "interaction")
        assert id_pairs(table) == [("u1", "i1"), ("u2", "i3")]

    def test_social_symmetrized(self, tmp_path):
        path = write(tmp_path, "s.txt", "u1 u2\n")
        table = load_edges(path, "social")
        assert id_pairs(table) == [("u1", "u2"), ("u2", "u1")]

    def test_social_self_loop_dropped(self, tmp_path):
        path = write(tmp_path, "s.txt", "u1 u1\nu1 u2\n")
        table = load_edges(path, "social")
        assert table.self_loops_dropped == 1
        assert len(table.pairs) == 2

    def test_malformed_lines_counted(self, tmp_path):
        path = write(tmp_path, "i.txt", "u1 i1\njunk\nu2 i2\n")
        table = load_edges(path, "interaction")
        assert table.malformed == 1
        assert len(table.pairs) == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "i.txt", "# header\n\nu1 i1\n")
        table = load_edges(path, "interaction")
        assert id_pairs(table) == [("u1", "i1")]
        assert table.malformed == 0

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "i.txt", "u1 i1 4 1234567\nu2,i2,5\n")
        table = load_edges(path, "interaction")
        assert id_pairs(table) == [("u1", "i1"), ("u2", "i2")]

    def test_missing_file_fatal(self):
        with pytest.raises(FileNotFoundError):
            load_edges("/nonexistent/edges.txt", "interaction")

    def test_bad_kind_fatal(self, tmp_path):
        path = write(tmp_path, "i.txt", "a b\n")
        with pytest.raises(ValueError):
            load_edges(path, "ratings")


class TestBuildDataset:
    def test_three_interactions_split_one_each(self):
        inter = InteractionTable.of([("u", "a"), ("u", "b"), ("u", "c")])
        ds = build_dataset(inter, SocialTable.of([]), split_seed=5)
        assert len(ds.train_edges) == 1
        assert len(ds.val_edges) == 1
        assert len(ds.test_edges) == 1
        all_items = {int(v) for _, v in np.concatenate(
            [ds.train_edges, ds.val_edges, ds.test_edges])}
        assert all_items == {0, 1, 2}

    def test_single_interaction_stays_in_train(self):
        inter = InteractionTable.of([("u", "a")])
        ds = build_dataset(inter, SocialTable.of([]))
        assert len(ds.train_edges) == 1
        assert len(ds.val_edges) == 0
        assert len(ds.test_edges) == 0

    def test_two_interactions_test_only(self):
        inter = InteractionTable.of([("u", "a"), ("u", "b")])
        ds = build_dataset(inter, SocialTable.of([]))
        assert len(ds.train_edges) == 1
        assert len(ds.val_edges) == 0
        assert len(ds.test_edges) == 1

    def test_empty_interactions_fatal(self):
        with pytest.raises(ValueError):
            build_dataset(InteractionTable.of([]), SocialTable.of([]))

    def test_social_only_user_retained(self):
        inter = InteractionTable.of([("u1", "a")])
        soc = SocialTable.of([("u1", "u9"), ("u9", "u1")])
        ds = build_dataset(inter, soc)
        assert ds.num_users == 2
        assert ds.degree[ds.user_ids.index("u9")] == 0

    def test_users_numbered_by_first_appearance_social_only_last(self):
        inter = InteractionTable.of([("u2", "a"), ("u1", "b"), ("u2", "b")])
        soc = SocialTable.of([("s7", "u1"), ("u2", "s3"), ("s3", "s7")])
        ds = build_dataset(inter, soc)
        assert ds.user_ids == ["u2", "u1", "s7", "s3"]
        ties = {(ds.user_ids[a], ds.user_ids[b]) for a, b in ds.social_edges.tolist()}
        assert ties == {("s7", "u1"), ("u2", "s3"), ("s3", "s7"),
                        ("u1", "s7"), ("s3", "u2"), ("s7", "s3")}
        assert build_dataset(inter).user_ids == ["u2", "u1"]

    def test_partition_and_eligibility(self):
        inter, soc = random_tables(12, 20, min_items=1, max_items=6, seed=9)
        ds = build_dataset(inter, soc, split_seed=1)
        train = {tuple(e) for e in ds.train_edges}
        val = {tuple(e) for e in ds.val_edges}
        test = {tuple(e) for e in ds.test_edges}
        assert not train & val and not train & test and not val & test
        assert len(train) + len(val) + len(test) == len(inter.pairs)
        # every held-out user still trains on something
        train_users = {u for u, _ in train}
        assert {u for u, _ in val} <= train_users
        assert {u for u, _ in test} <= train_users

    def test_density_matches_source(self):
        inter, soc = random_tables(10, 15, seed=4)
        ds = build_dataset(inter, soc)
        assert ds.density == pytest.approx(
            len(inter.pairs) / (ds.num_users * ds.num_items))

    def test_deterministic_byte_identical_serialization(self, tmp_path):
        inter, soc = random_tables(10, 15, seed=8)
        paths = []
        for k in range(2):
            ds = build_dataset(inter, soc, split_seed=42)
            out = tmp_path / f"ds{k}"
            save_dataset(ds, str(out))
            paths.append(out)
        for name in ("meta", "train.txt", "val.txt", "test.txt", "social.txt"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()

    def test_roundtrip(self, tmp_path):
        inter, soc = random_tables(10, 15, seed=8)
        ds = build_dataset(inter, soc, split_seed=42)
        save_dataset(ds, str(tmp_path / "ds"))
        back = load_dataset(str(tmp_path / "ds"))
        assert back.num_users == ds.num_users
        assert back.num_items == ds.num_items
        np.testing.assert_array_equal(back.train_edges, ds.train_edges)
        np.testing.assert_array_equal(back.social_edges, ds.social_edges)
        np.testing.assert_array_equal(back.degree, ds.degree)

    @pytest.mark.parametrize("name,line", [
        ("train.txt", "{users} 3"), ("train.txt", "-1 0"), ("val.txt", "0 {items}"),
        ("test.txt", "0 x"), ("social.txt", "2 {users}"),
        # a held-out pair in train, a repeated line, a self-tie, a one-way tie
        ("train.txt", "{test}"), ("val.txt", "{test}"), ("train.txt", "{train}"),
        ("social.txt", "{social}"), ("social.txt", "0 0"), ("social.txt", "{untied}")])
    def test_index_outside_meta_names_file(self, tmp_path, name, line):
        ds = build_dataset(*random_tables(10, 15, seed=8), split_seed=42)
        save_dataset(ds, str(tmp_path))
        ties = {tuple(e) for e in ds.social_edges.tolist()}
        untied = next((0, b) for b in range(1, ds.num_users) if (0, b) not in ties)
        first = {key: " ".join(map(str, edges[0])) for key, edges in (
            ("train", ds.train_edges), ("test", ds.test_edges),
            ("social", ds.social_edges), ("untied", [untied]))}
        with open(tmp_path / name, "a") as fh:
            fh.write(line.format(users=ds.num_users, items=ds.num_items, **first) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / name))):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name", ["train.txt", "val.txt", "test.txt", "social.txt"])
    @pytest.mark.parametrize("line", ["3", "3,", "\t3 "])
    def test_short_line_refused(self, tmp_path, name, line):
        ds = build_dataset(*random_tables(8, 10), split_seed=0)
        save_dataset(ds, str(tmp_path))
        with open(tmp_path / name, "a") as fh:
            fh.write(f"{line}\n\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / name}: 2 line(s) with fewer than two tokens")):
            load_dataset(str(tmp_path))

    def test_pair_files_read_as_edge_files(self, tmp_path):
        """Commas, extra columns, comments and blank lines read as in a raw
        edge file."""
        ds = build_dataset(*random_tables(8, 10), split_seed=0)
        save_dataset(ds, str(tmp_path))
        for name in ("train.txt", "val.txt", "test.txt", "social.txt"):
            lines = (tmp_path / name).read_text().splitlines()
            (tmp_path / name).write_text("# dense indices\n\n" + "".join(
                f"{a},{b}\n" if k % 2 else f" {a}\t{b} 1 #\r\n"
                for k, (a, b) in enumerate(line.split() for line in lines)))
        back = load_dataset(str(tmp_path))
        for field in ("train_edges", "val_edges", "test_edges", "social_edges"):
            np.testing.assert_array_equal(getattr(back, field), getattr(ds, field))

    @pytest.mark.parametrize("name,key", [
        ("train.txt", "num_train"), ("val.txt", "num_val"), ("test.txt", "num_test"),
        ("social.txt", "num_social")])
    def test_pair_count_other_than_meta_refused(self, tmp_path, name, key):
        save_dataset(build_dataset(*random_tables(10, 15, seed=8)), str(tmp_path))
        path, meta = tmp_path / name, tmp_path / "meta"
        found = len(path.read_text().splitlines())
        text = meta.read_text()
        assert f"{key}={found}\n" in text
        meta.write_text(text.replace(f"{key}={found}\n", f"{key}={found + 1}\n"))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} holds {found} pairs, {meta} gives {key}={found + 1}")):
            load_dataset(str(tmp_path))

    def test_cut_pair_file_refused(self, tmp_path):
        save_dataset(build_dataset(*random_tables(10, 15, seed=8)), str(tmp_path))
        path = tmp_path / "train.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-3]))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} holds {len(lines) - 3} pairs, {tmp_path / 'meta'} gives "
                f"num_train={len(lines)}")):
            load_dataset(str(tmp_path))

    def test_counts_absent_from_meta_not_checked(self, tmp_path):
        ds = build_dataset(*random_tables(10, 15, seed=8))
        save_dataset(ds, str(tmp_path))
        meta = tmp_path / "meta"
        meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                                if line.split("=")[0] not in
                                ("num_train", "num_val", "num_test", "num_social")))
        assert "num_" in meta.read_text()  # num_users and num_items stay
        back = load_dataset(str(tmp_path))
        for field in ("train_edges", "val_edges", "test_edges", "social_edges"):
            np.testing.assert_array_equal(getattr(back, field), getattr(ds, field))

    @pytest.mark.parametrize("key,value", [("num_items", None), ("num_users", "12x")])
    def test_bad_meta_names_file(self, tmp_path, key, value):
        save_dataset(build_dataset(*random_tables(10, 15, seed=8)), str(tmp_path))
        meta = tmp_path / "meta"
        lines = [l for l in meta.read_text().splitlines() if not l.startswith(f"{key}=")]
        if value is not None:
            lines.append(f"{key}={value}")
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(meta))}.*{key}"):
            load_dataset(str(tmp_path))


@pytest.mark.parametrize("ties,rows", [([], []), ([("u", "v")], [("u", "v"), ("v", "u")]),
                                       ([("u", "u")], [])])
@pytest.mark.parametrize("seed", range(5))
def test_hand_built_tables_round_trip(tmp_path, ties, rows, seed):
    """A hand-built table dedupes a repeated pair, symmetrizes a one-way tie
    and drops a self-tie as load_edges does, so no held-out pair leaks
    into train and the saved dataset loads back."""
    inter = InteractionTable.of([("u", "a"), ("u", "a"), ("u", "b")])
    assert id_pairs(inter) == [("u", "a"), ("u", "b")]
    soc = SocialTable.of(ties)
    assert id_pairs(soc) == rows
    assert soc.self_loops_dropped == sum(a == b for a, b in ties)
    ds = build_dataset(inter, soc, split_seed=seed)
    assert len(ds.train_edges) == len(ds.test_edges) == 1
    save_dataset(ds, str(tmp_path))
    back = load_dataset(str(tmp_path))
    for name in ("train_edges", "val_edges", "test_edges", "social_edges"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))


def test_ingest_sets_off_no_garbage_collection(tmp_path):
    # An object per edge that outlives its line (a tuple, a set entry, a
    # list per row) hands the collector thousands of tracked objects per
    # file; they set off collections, now and then a full one, inside
    # ingest. Loading and building a dataset, and loading it back from a
    # dataset directory, must not reach a collection.
    lines = 4 * gc.get_threshold()[0]
    ipath = write(tmp_path, "i.txt", "".join(
        f"u{k % 400} i{k * 7 % 900} 5\n" for k in range(lines)))
    spath = write(tmp_path, "s.txt", "".join(
        f"u{k % 400},u{k * 13 % 450}\n" for k in range(lines)))
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def watched(call, *args, **kwargs):
        gc.collect()
        gc.callbacks.append(note)
        try:
            return call(*args, **kwargs)
        finally:
            gc.callbacks.remove(note)

    inter = watched(load_edges, ipath, "interaction")
    soc = watched(load_edges, spath, "social")
    ds = watched(build_dataset, inter, soc, split_seed=0)
    assert len(ds.train_edges) > 2 * gc.get_threshold()[0]
    assert len(ds.social_edges) > 2 * gc.get_threshold()[0]
    save_dataset(ds, str(tmp_path / "ds"))
    back = watched(load_dataset, str(tmp_path / "ds"))
    np.testing.assert_array_equal(back.train_edges, ds.train_edges)
    assert started == []


def test_planted_clusters_refuse_users_out_of_generation_order():
    # with no items per user, cold items go to random members of a cluster,
    # so dense indices would not match the generation indices of the labels
    with pytest.raises(ValueError, match="not numbered in generation order"):
        planted_clusters(items_per_user=0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8)),
                min_size=1, max_size=60),
       st.integers(0, 2 ** 31 - 1))
def test_split_partition_property(raw_edges, seed):
    inter = InteractionTable.of(list(dict.fromkeys(raw_edges)))
    ds = build_dataset(inter, SocialTable.of([]), split_seed=seed)
    parts = [set(map(tuple, ds.train_edges)), set(map(tuple, ds.val_edges)),
             set(map(tuple, ds.test_edges))]
    assert sum(len(p) for p in parts) == len(inter.pairs)
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])


class TestInjectNoise:
    def test_ratio_zero_is_identity(self):
        inter, soc = random_tables(8, 12, seed=2)
        ds = build_dataset(inter, soc)
        assert inject_noise(ds, 0.0, seed=1) is ds

    def test_exact_count_disjoint_from_splits(self):
        inter, soc = random_tables(10, 40, seed=2)
        ds = build_dataset(inter, soc)
        noisy = inject_noise(ds, 0.1, seed=7)
        added = len(noisy.train_edges) - len(ds.train_edges)
        assert added == int(0.1 * len(ds.train_edges))
        new = {tuple(e) for e in noisy.train_edges} - {tuple(e) for e in ds.train_edges}
        held = {tuple(e) for e in np.concatenate([ds.val_edges, ds.test_edges])}
        assert not new & held
        np.testing.assert_array_equal(noisy.val_edges, ds.val_edges)
        np.testing.assert_array_equal(noisy.test_edges, ds.test_edges)

    def test_no_duplicate_train_edges(self):
        inter, soc = random_tables(6, 10, seed=5)
        ds = build_dataset(inter, soc)
        noisy = inject_noise(ds, 1.0, seed=3)
        pairs = [tuple(e) for e in noisy.train_edges]
        assert len(pairs) == len(set(pairs))

    def test_bad_ratio_fatal(self):
        inter, soc = random_tables(5, 8, seed=1)
        ds = build_dataset(inter, soc)
        for ratio in (-0.1, 1.5):
            with pytest.raises(ValueError):
                inject_noise(ds, ratio, seed=0)

    def test_capacity_exceeded_fatal(self):
        # 1 user x 2 items, both already interacted: no room for fakes
        inter = InteractionTable.of([("u", "a"), ("u", "b")])
        ds = build_dataset(inter, SocialTable.of([]))
        with pytest.raises(ValueError):
            inject_noise(ds, 1.0, seed=0)

    def test_degree_recomputed(self):
        inter, soc = random_tables(6, 30, seed=6)
        ds = build_dataset(inter, soc)
        noisy = inject_noise(ds, 0.5, seed=2)
        expect = np.bincount(noisy.train_edges[:, 0], minlength=ds.num_users)
        np.testing.assert_array_equal(noisy.degree, expect)


class TestDerivedFields:
    def test_copies_derive_their_own(self):
        inter, soc = random_tables(10, 40, seed=2)
        ds = build_dataset(inter, soc)
        ds.train_item_lists()  # fill the cache first
        copies = [inject_noise(ds, 0.5, seed=7),
                  replace(ds, train_edges=ds.train_edges[::2]),
                  replace(ds, user_ids=[f"x{k}" for k in range(ds.num_users)])]
        for copy in copies:
            np.testing.assert_array_equal(
                copy.degree, np.bincount(copy.train_edges[:, 0], minlength=ds.num_users))
            want = [set() for _ in range(ds.num_users)]
            for u, v in copy.train_edges:
                want[u].add(int(v))
            lists = copy.train_item_lists()
            assert [sorted(lists.items[lists.indptr[u]:lists.indptr[u + 1]].tolist())
                    for u in range(ds.num_users)] == [sorted(s) for s in want]

    def test_degree_counts_distinct_train_items(self):
        inter, soc = random_tables(6, 20, seed=4)
        ds = build_dataset(inter, soc)
        twice = replace(ds, train_edges=np.concatenate([ds.train_edges, ds.train_edges]))
        np.testing.assert_array_equal(twice.degree, ds.degree)

    def test_empty_train_has_zero_degrees(self):
        inter = InteractionTable.of([("u", "a"), ("v", "b")])
        ds = build_dataset(inter, SocialTable.of([]))
        empty = replace(ds, train_edges=ds.train_edges[:0])
        np.testing.assert_array_equal(empty.degree, [0, 0])
        lists = empty.train_item_lists()
        assert lists.indptr.tolist() == [0, 0, 0] and len(lists.items) == 0


class TestStratify:
    def test_default_boundaries(self):
        inter, soc = random_tables(10, 30, seed=3)
        ds = build_dataset(inter, soc)
        strata = stratify_by_degree(ds)
        assert strata.boundaries[0] == (0.0, 5.0)
        assert math.isinf(strata.boundaries[-1][1])
        for u in range(ds.num_users):
            lo, hi = strata.boundaries[strata.assignment[u]]
            assert lo <= ds.degree[u] < hi

    def test_degree_zero_first_stratum(self):
        inter = InteractionTable.of([("u1", "a")])
        soc = SocialTable.of([("u1", "u2"), ("u2", "u1")])
        ds = build_dataset(inter, soc)
        strata = stratify_by_degree(ds)
        assert strata.boundaries[strata.assignment[ds.user_ids.index("u2")]] == (0.0, 5.0)

    def test_degree_twelve_assignment(self):
        edges = [("u", f"i{k}") for k in range(14)]  # 14 -> 12 in train
        ds = build_dataset(InteractionTable.of(edges), SocialTable.of([]))
        assert ds.degree[0] == 12
        strata = stratify_by_degree(ds)
        assert strata.boundaries[strata.assignment[0]] == (10.0, 15.0)

    def test_every_user_assigned_once(self):
        inter, soc = random_tables(20, 40, seed=11)
        ds = build_dataset(inter, soc)
        strata = stratify_by_degree(ds)
        assert strata.assignment.shape == (ds.num_users,)
        assert ((strata.assignment >= 0)
                & (strata.assignment < len(strata.boundaries))).all()

    def test_labels_name_the_bounds(self):
        """Fractional bounds print as they are: degree 3 lies in [0,3.5)."""
        edges = [("u", f"i{k}") for k in range(5)]  # 5 -> 3 in train
        ds = build_dataset(InteractionTable.of(edges), SocialTable.of([]))
        assert ds.degree[0] == 3
        strata = stratify_by_degree(ds, ((0, 3.5), (3.5, math.inf)))
        assert strata.labels() == ["[0,3.5)", "[3.5,inf)"]
        assert strata.labels()[strata.assignment[0]] == "[0,3.5)"
        assert stratify_by_degree(ds).labels() == [
            "[0,5)", "[5,10)", "[10,15)", "[15,inf)"]

    def test_labels_tell_close_bounds_apart(self):
        """Bounds that agree in their first 6 digits get distinct labels."""
        ds = build_dataset(InteractionTable.of([("u", "i")]), SocialTable.of([]))
        strata = stratify_by_degree(ds, ((0, 1234567), (1234567, 1234568),
                                         (1234568, math.inf)))
        assert strata.labels() == ["[0,1234567)", "[1234567,1234568)",
                                   "[1234568,inf)"]

    def test_gap_fatal(self):
        inter, soc = random_tables(5, 8, seed=1)
        ds = build_dataset(inter, soc)
        with pytest.raises(ValueError):
            stratify_by_degree(ds, ((0, 5), (5, 10), (10, 15), (20, math.inf)))

    def test_overlap_fatal(self):
        inter, soc = random_tables(5, 8, seed=1)
        ds = build_dataset(inter, soc)
        with pytest.raises(ValueError):
            stratify_by_degree(ds, ((0, 6), (5, math.inf)))

    def test_finite_last_fatal(self):
        inter, soc = random_tables(5, 8, seed=1)
        ds = build_dataset(inter, soc)
        with pytest.raises(ValueError):
            stratify_by_degree(ds, ((0, 5), (5, 100)))

    def test_default_strata_are_contiguous(self):
        for (_, hi), (lo, _) in zip(DEFAULT_STRATA, DEFAULT_STRATA[1:]):
            assert hi == lo
        assert DEFAULT_STRATA[2][1] == DEFAULT_STRATA[3][0] == 15
