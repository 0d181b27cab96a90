"""Sparse symmetric-normalized adjacencies and one-layer propagation.

Both views use the same normalization: each stored entry is
1/sqrt(deg(a) * deg(b)) for its endpoints, zero-degree rows stay empty,
and the self-loop is applied as `+ E` during propagation instead of being
materialized on the diagonal.

Propagation splits the CSR rows into one block per CPU the process may
run on and runs the blocks through `run_parallel`: the calling thread
takes block 0 and the shared pool's CPUS - 1 workers the rest, each
thread claiming the next block when it is done (scipy's CSR kernel
releases the GIL). Every output row is the same sum in the same order
whatever the block count, so results do not depend on the CPU count.
Each block runs in row slices of about CHUNK elements, so the self-loop
and one more array, the sum of powers' start in Horner form (see
`model.aggregate_backward`), are added while the slice is still in cache.

A training step's loss phase runs the loss terms on the calling thread
and the regularizer on a pool worker (`objective._evaluate_terms`).

The pool is the process's only compute parallelism. Importing socrec
sets every OpenBLAS mapped by the end of its import (numpy's, and the one
scipy.special maps) to one thread, whatever OPENBLAS_NUM_THREADS says, so
numpy's GEMMs run on the thread that calls them. With BLAS threaded too,
its workers competed with the pool for the CPUs: on 2 CPUs, `ciao-train`'s
interaction-view propagations (the backward after the hinge GEMMs among
them) took 30% longer (BENCH_pr27.json), and the hinge's
`dpre.T @ x[active]` changed in its last bits with the BLAS thread count.
Where the BLAS is not OpenBLAS (MKL, say), or on a host without
/proc/self/maps, nothing is set.
"""

import ctypes
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs  # Y += A @ X on raw CSR arrays

from .data import NeighbourLists


def _cpu_count():
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_calls(names):
    """{path: function} for each OpenBLAS mapped into this process that
    has a function among `names`, the first it has. Libraries are found in
    /proc/self/maps, so there are none on a host without that file (not
    Linux) or whose BLAS is not OpenBLAS (MKL, say)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return {}
    calls = {}
    for path in sorted(paths):
        if "openblas" in os.path.basename(path) and ".so" in path:
            lib = ctypes.CDLL(path)  # already loaded: this only finds its handle
            found = [name for name in names if hasattr(lib, name)]
            if found:
                calls[path] = getattr(lib, found[0])
    return calls


def _hold_blas_at_one_thread():
    """Set every OpenBLAS mapped so far to one thread. `socrec` calls it
    once, at the end of its import."""
    for set_threads in _openblas_calls(("scipy_openblas_set_num_threads64_",
                                        "scipy_openblas_set_num_threads",
                                        "openblas_set_num_threads64_",
                                        "openblas_set_num_threads")).values():
        set_threads(1)  # the C entry point, void f(int)


CPUS = _cpu_count()
CHUNK = 1 << 15  # elements per slice of a chunked elementwise pass (fits in L2)

_pool = None
_pool_lock = threading.Lock()


def run_parallel(fn, n):
    """Call fn(0), ..., fn(n - 1), each once: fn(0) on the calling thread,
    which then claims unclaimed k until none is left, as do up to CPUS - 1
    helpers on the shared pool (made on first use; none when CPUS == 1).
    A helper that has not started when the k run out is cancelled, so a
    task may call `run_parallel` itself. When calls raise, the first error
    in k order reaches the caller only after every claimed call is done,
    so no task still writes into the caller's arrays."""
    global _pool
    if n > 1 and CPUS > 1:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(max_workers=CPUS - 1, thread_name_prefix="socrec")
    errors = {}  # k: the error fn(k) raised
    claims = iter(range(1, n))  # shared: next() on it is atomic under the GIL

    def drain(first=()):
        for k in itertools.chain(first, claims):
            try:
                fn(k)
            except BaseException as error:
                errors[k] = error

    helpers = [_pool.submit(drain) for _ in range(min(n, CPUS) - 1)]
    drain(range(min(n, 1)))  # k = 0, if any, on this thread
    wait([helper for helper in helpers if not helper.cancel()])
    if errors:
        raise errors[min(errors)]


def for_each_chunk(n, fn):
    """Call fn(start, stop, worker) over [0, n) in slices of at most CHUNK
    elements, one contiguous run of slices per CPU (worker < CPUS), so
    each slice's passes stay in cache. One thread runs each worker's run,
    so scratch indexed by `worker` is never shared."""
    workers = max(1, min(CPUS, n // CHUNK))

    def run(k):
        lo, hi = n * k // workers, n * (k + 1) // workers
        for start in range(lo, hi, CHUNK):
            fn(start, min(start + CHUNK, hi), k)

    run_parallel(run, workers)


def row_blocks(indptr, count):
    """Row boundaries of `count` blocks of about equal cost (stored entries
    plus rows, so the `+ E` pass counts too)."""
    rows = len(indptr) - 1
    cost = indptr + np.arange(rows + 1)
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, count) / count)
    return tuple(int(b) for b in np.unique(np.concatenate([[0], cuts, [rows]])))


@dataclass(eq=False)
class NormalizedGraph:
    """Symmetric-normalized adjacency in CSR form plus its view tag.

    `_blocks` holds the row boundaries propagation splits the rows at;
    by default one block per CPU.
    """

    matrix: sp.csr_matrix
    view: str  # "interaction" | "social"
    _blocks: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self._blocks is None:
            self._blocks = row_blocks(self.matrix.indptr, CPUS)

    @property
    def num_nodes(self):
        return self.matrix.shape[0]


def _normalized(indptr, indices, view):
    """The graph of CSR rows (`indptr`, `indices`) of distinct neighbours,
    each entry (a, b) weighted 1/sqrt(deg(a) * deg(b)), deg being row lengths."""
    deg = np.diff(indptr)
    vals = 1.0 / np.sqrt(np.repeat(deg, deg) * deg[indices])
    n = len(deg)
    return NormalizedGraph(sp.csr_matrix((vals, indices, indptr), shape=(n, n)), view)


def build_interaction_laplacian(ds):
    """Normalized bidirectional user-item adjacency over I+J nodes.

    Users occupy rows [0, I), items rows [I, I+J). Only train edges
    contribute; the diagonal blocks are zero.
    """
    I, J = ds.num_users, ds.num_items
    users = ds.train_item_lists()
    items = NeighbourLists.of(ds.train_edges[:, ::-1], J, I)
    indptr = np.concatenate([users.indptr, users.indptr[-1] + items.indptr[1:]])
    return _normalized(indptr, np.concatenate([I + users.items, items.items]),
                       "interaction")


def build_social_laplacian(ds):
    """Normalized user-user adjacency over I nodes from symmetric ties."""
    ties = ds.tie_lists()
    return _normalized(ties.indptr, ties.items, "social")


def propagate(g, E, out=None, add=None):
    """One propagation layer with implicit self-loop, plus `add` when given:
    (A_norm @ E + E) + add, each row block in slices of CHUNK // d rows.

    Writes into `out` (a new array when None) and returns it; `out` and
    `add` are float64, C-contiguous and shaped like E. The layer reads
    every row of E while it writes, so `out` may not overlap E; `add` is
    read slice by slice, so it may be `out` itself or apart from it.
    """
    E = np.asarray(E)
    if E.shape[0] != g.num_nodes:
        raise ValueError(f"embedding rows {E.shape[0]} != graph nodes {g.num_nodes}")
    X = np.ascontiguousarray(E, dtype=np.float64)
    if out is None:
        out = np.empty(X.shape)
    for name, arr in (("out", out), ("add", add)):
        if arr is not None and (arr.shape != X.shape or arr.dtype != np.float64
                                or not arr.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous float64 array shaped like E")
    if np.may_share_memory(out, X):
        raise ValueError("out overlaps E")
    if add is not None and add is not out and np.may_share_memory(add, out):
        raise ValueError("add overlaps out")
    m = g.matrix
    X2 = X.reshape(len(X), -1)
    x, width = X2.ravel(), X2.shape[1]
    step = max(1, CHUNK // max(width, 1))
    Y2 = out.reshape(X2.shape)
    A2 = None if add is None else add.reshape(X2.shape)
    bounds = g._blocks

    def block(k):
        scratch = np.empty((step, width)) if add is out else None
        for r0 in range(bounds[k], bounds[k + 1], step):
            r1 = min(r0 + step, bounds[k + 1])
            y = Y2[r0:r1] if scratch is None else scratch[:r1 - r0]
            y.fill(0.0)
            csr_matvecs(r1 - r0, m.shape[1], width, m.indptr[r0:r1 + 1],
                        m.indices, m.data, x, y.ravel())
            np.add(y, X2[r0:r1], out=y)
            if A2 is not None:
                np.add(y, A2[r0:r1], out=Y2[r0:r1])

    run_parallel(block, len(bounds) - 1)
    return out
