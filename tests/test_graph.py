import dataclasses
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from socrec import graph
from socrec.data import InteractionTable, SocialTable, build_dataset
from socrec.graph import (build_interaction_laplacian, build_social_laplacian,
                          propagate)
from socrec.synthetic import random_dataset

from conftest import RecordingPool


def dense_reference(edges, deg_a, deg_b, n):
    """Straight dense D^{-1/2} A D^{-1/2} for comparison."""
    ref = np.zeros((n, n))
    for a, b in edges:
        ref[a, b] = 1.0 / np.sqrt(deg_a[a] * deg_b[b])
    return ref


def train_only_ds(pairs, num_users, num_items):
    """Dataset stub whose train edges are exactly `pairs`."""
    inter = InteractionTable.of([(f"u{u}", f"i{v}") for u, v in pairs])
    ds = build_dataset(inter, SocialTable.of([]))
    # route every edge into train: rebuild edges directly
    return dataclasses.replace(ds, train_edges=np.array(pairs, dtype=np.int64),
                               val_edges=np.zeros((0, 2), dtype=np.int64),
                               test_edges=np.zeros((0, 2), dtype=np.int64),
                               num_users=num_users, num_items=num_items)


def test_dataset_fields_are_read_only():
    ds = train_only_ds([(0, 0), (0, 1), (1, 1)], 2, 2)
    np.testing.assert_array_equal(ds.degree, [2, 1])  # train edges per user
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.train_edges = np.zeros((0, 2), dtype=np.int64)


class TestInteractionLaplacian:
    def test_single_edge_unit_value(self):
        ds = train_only_ds([(0, 0)], 1, 1)
        g = build_interaction_laplacian(ds)
        dense = g.matrix.toarray()
        assert dense[0, 1] == 1.0
        assert dense[1, 0] == 1.0
        assert g.matrix.nnz == 2

    def test_star_values(self):
        ds = train_only_ds([(0, 0), (0, 1), (0, 2)], 1, 3)
        g = build_interaction_laplacian(ds)
        vals = g.matrix.data
        assert g.matrix.nnz == 6
        np.testing.assert_allclose(vals, 1.0 / np.sqrt(3.0))

    def test_matches_dense_normalization(self):
        ds = random_dataset(3, 3, min_items=1, max_items=3, seed=21)
        g = build_interaction_laplacian(ds)
        I, J = ds.num_users, ds.num_items
        deg_u = np.bincount(ds.train_edges[:, 0], minlength=I)
        deg_v = np.bincount(ds.train_edges[:, 1], minlength=J)
        deg = np.concatenate([deg_u, deg_v]).astype(float)
        edges = [(u, I + v) for u, v in ds.train_edges]
        edges += [(b, a) for a, b in edges]
        ref = dense_reference(edges, deg, deg, I + J)
        np.testing.assert_allclose(g.matrix.toarray(), ref, atol=1e-12)

    def test_diagonal_blocks_zero(self):
        ds = random_dataset(4, 5, seed=1)
        g = build_interaction_laplacian(ds)
        dense = g.matrix.toarray()
        I = ds.num_users
        assert not dense[:I, :I].any()
        assert not dense[I:, I:].any()


class TestSocialLaplacian:
    def test_lone_tie_unit_values(self):
        inter = InteractionTable.of([("u0", "a"), ("u1", "a")])
        soc = SocialTable.of([("u0", "u1"), ("u1", "u0")])
        ds = build_dataset(inter, soc)
        g = build_social_laplacian(ds)
        dense = g.matrix.toarray()
        np.testing.assert_allclose(dense, [[0, 1], [1, 0]])

    def test_hub_values(self):
        inter = InteractionTable.of([(f"u{k}", "a") for k in range(3)])
        soc = SocialTable.of([("u0", "u1"), ("u1", "u0"),
                                 ("u0", "u2"), ("u2", "u0")])
        ds = build_dataset(inter, soc)
        g = build_social_laplacian(ds)
        dense = g.matrix.toarray()
        np.testing.assert_allclose(dense[0, 1], 1.0 / np.sqrt(2.0))
        np.testing.assert_allclose(dense[0, 2], 1.0 / np.sqrt(2.0))
        assert dense[1, 2] == 0

    def test_matches_dense_normalization(self):
        ds = random_dataset(8, 4, tie_prob=0.5, seed=13)
        g = build_social_laplacian(ds)
        deg = np.bincount(ds.social_edges[:, 0],
                          minlength=ds.num_users).astype(float)
        ref = dense_reference([tuple(e) for e in ds.social_edges], deg, deg,
                              ds.num_users)
        np.testing.assert_allclose(g.matrix.toarray(), ref, atol=1e-12)


class TestSymmetry:
    @pytest.mark.parametrize("seed", range(5))
    def test_laplacians_exactly_symmetric(self, seed):
        ds = random_dataset(7, 9, tie_prob=0.4, seed=seed)
        for g in (build_interaction_laplacian(ds), build_social_laplacian(ds)):
            assert (g.matrix != g.matrix.T).nnz == 0


class TestPropagate:
    def test_empty_graph_is_identity(self, rng):
        inter = InteractionTable.of([("u", "a")])
        ds = build_dataset(inter, SocialTable.of([]))
        g = build_social_laplacian(ds)  # no ties: empty matrix
        E = rng.normal(size=(ds.num_users, 3))
        np.testing.assert_array_equal(propagate(g, E), E)

    def test_single_edge_swaps_and_adds(self):
        ds = train_only_ds([(0, 0)], 1, 1)
        g = build_interaction_laplacian(ds)
        E = np.array([[1.0, 2.0], [10.0, 20.0]])
        out = propagate(g, E)
        np.testing.assert_allclose(out[0], [11.0, 22.0])
        np.testing.assert_allclose(out[1], [11.0, 22.0])

    def test_zero_input_zero_output(self):
        ds = random_dataset(5, 6, seed=2)
        g = build_interaction_laplacian(ds)
        E = np.zeros((g.num_nodes, 4))
        assert not propagate(g, E).any()

    def test_dimension_mismatch_fatal(self):
        ds = random_dataset(5, 6, seed=2)
        g = build_interaction_laplacian(ds)
        with pytest.raises(ValueError):
            propagate(g, np.zeros((3, 4)))

    def test_input_untouched(self, rng):
        ds = random_dataset(5, 6, seed=2)
        g = build_interaction_laplacian(ds)
        E = rng.normal(size=(g.num_nodes, 4))
        before = E.copy()
        propagate(g, E)
        np.testing.assert_array_equal(E, before)

    @pytest.mark.parametrize("seed", range(4))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(6, 7, seed=seed)
        g = build_interaction_laplacian(ds)
        X = rng.normal(size=(g.num_nodes, 3))
        Y = rng.normal(size=(g.num_nodes, 3))
        a, b = 0.37, -2.5
        lhs = propagate(g, a * X + b * Y)
        rhs = a * propagate(g, X) + b * propagate(g, Y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_operator(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = random_dataset(int(rng.integers(2, 20)), int(rng.integers(2, 30)),
                            tie_prob=0.3, seed=seed)
        g = build_interaction_laplacian(ds)
        E = rng.normal(size=(g.num_nodes, 5))
        dense_op = g.matrix.toarray() + np.eye(g.num_nodes)
        np.testing.assert_allclose(propagate(g, E), dense_op @ E, atol=1e-10)


BLAS_THREADS = """
import socrec.graph
from socrec.graph import _openblas_calls
getters = _openblas_calls(("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"))
print(*[get() for get in getters.values()])
"""


def test_import_holds_openblas_at_one_thread():
    """Importing socrec.graph sets every OpenBLAS mapped by then (numpy's
    and scipy's) to one thread, even when the environment asks for more."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find OpenBLAS in")
    src = str(pathlib.Path(graph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    threads = proc.stdout.split()
    if not threads:
        pytest.skip("no OpenBLAS is loaded")
    assert threads == ["1"] * len(threads)


def test_run_parallel_error_waits_for_every_task(monkeypatch):
    """A task's error reaches run_parallel's caller only after every task
    is done: the running ones finish and the queued ones still run."""
    finished = []

    def task(k):
        if k == 0:
            raise RuntimeError("task 0 failed")
        time.sleep(0.2)
        finished.append(k)

    started = []
    pool = RecordingPool(2)
    monkeypatch.setattr(graph, "_pool", pool)
    try:
        with pytest.raises(RuntimeError, match="task 0 failed"):
            graph.run_parallel(lambda k: started.append(k) or task(k), 3)
        assert sorted(started) == [0, 1, 2] and all(f.done() for f in pool.futures)
        assert sorted(finished) == [1, 2]
    finally:
        pool.shutdown()


def test_run_parallel_runs_task_zero_on_the_calling_thread(monkeypatch):
    """fn(0) runs on the calling thread, every k runs once, and with one
    CPU no pool is made: the caller runs every k in order."""
    for cpus, pool in ((2, RecordingPool(1)), (1, None)):
        monkeypatch.setattr(graph, "CPUS", cpus)
        monkeypatch.setattr(graph, "_pool", pool)
        ran = []
        graph.run_parallel(lambda k: ran.append((k, threading.get_ident())), 5)
        assert sorted(k for k, _ in ran) == list(range(5))
        assert dict(ran)[0] == threading.get_ident()
        assert graph._pool is pool
        if pool is None:
            assert ran == [(k, threading.get_ident()) for k in range(5)]
        else:
            pool.shutdown()


def test_nested_run_parallel_does_not_deadlock(monkeypatch):
    """A task on a one-worker pool may call run_parallel and
    for_each_chunk: each call's own thread drains its k, and helpers that
    never started are cancelled. A deadlock fails the join's timeout
    instead of hanging the suite."""
    pool = RecordingPool(1)
    monkeypatch.setattr(graph, "_pool", pool)
    monkeypatch.setattr(graph, "CPUS", 2)  # one helper a call, whatever the host
    monkeypatch.setattr(graph, "CHUNK", 4)
    got = np.zeros((3, 4, 16))

    def outer(i):
        graph.run_parallel(lambda j: graph.for_each_chunk(
            16, lambda lo, hi, _: got[i, j, lo:hi].fill(i + j + 1)), 4)

    thread = threading.Thread(target=graph.run_parallel, args=(outer, 3), daemon=True)
    thread.start()
    thread.join(timeout=30)
    deadlocked = thread.is_alive()
    if deadlocked:  # more workers run the queued tasks, so the suite can exit
        pool._max_workers = 64
        pool.submit(int).result()
        thread.join()
    pool.shutdown()
    assert not deadlocked, "nested run_parallel deadlocked"
    want = np.add.outer(np.arange(3), np.arange(4)) + 1.0
    np.testing.assert_array_equal(got, np.repeat(want[..., None], 16, axis=2))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_for_each_chunk_visits_every_index_once(monkeypatch, workers):
    """Each index in [0, n) is in exactly one slice, each slice is at most
    `step` long and starts at a multiple of it, and `worker` stays below
    CPUS; the default step is graph.CHUNK, read at call time."""
    step = 5
    pool = RecordingPool(workers)
    monkeypatch.setattr(graph, "_pool", pool)
    monkeypatch.setattr(graph, "CPUS", workers + 1)
    try:
        for n in (0, 1, step - 1, step, step + 1, 5 * step + 3):
            for kwargs, chunk in (({"step": step}, 1 << 15), ({}, step)):
                monkeypatch.setattr(graph, "CHUNK", chunk)
                visits = np.zeros(n, dtype=int)
                calls = []

                def visit(lo, hi, worker):
                    calls.append((lo, hi, worker))
                    visits[lo:hi] += 1

                graph.for_each_chunk(n, visit, **kwargs)
                np.testing.assert_array_equal(visits, np.ones(n, dtype=int))
                assert sorted(lo for lo, _, _ in calls) == list(range(0, n, step))
                assert all(hi == min(lo + step, n) and 0 <= worker <= workers
                           for lo, hi, worker in calls)
    finally:
        pool.shutdown()


def test_for_each_chunk_caller_takes_what_a_stalled_helper_leaves(monkeypatch):
    """Slices are claimed, not dealt out: with a one-worker pool whose
    helper stalls 0.2 s on its first slice, the calling thread processes
    every other slice."""
    pool = RecordingPool(1)
    monkeypatch.setattr(graph, "_pool", pool)
    monkeypatch.setattr(graph, "CPUS", 2)
    monkeypatch.setattr(graph, "CHUNK", 4)
    caller = threading.get_ident()
    helper_started = threading.Event()
    ran = []

    def fn(lo, hi, worker):
        if threading.get_ident() == caller:
            assert helper_started.wait(timeout=30), "the helper never started"
        else:
            helper_started.set()
            time.sleep(0.2)
        ran.append((lo, threading.get_ident()))

    try:
        graph.for_each_chunk(40, fn)
    finally:
        pool.shutdown()
    assert sorted(lo for lo, _ in ran) == list(range(0, 40, 4))
    by_helper = [lo for lo, ident in ran if ident != caller]
    assert len(by_helper) == 1, f"the stalled helper ran slices {by_helper}"
