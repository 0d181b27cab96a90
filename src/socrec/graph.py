"""Sparse symmetric-normalized adjacencies and one-layer propagation.

Both views use the same normalization: each stored entry is
1/sqrt(deg(a) * deg(b)) for its endpoints, zero-degree rows stay empty,
and the self-loop is applied as `+ E` during propagation instead of being
materialized on the diagonal.

Propagation splits the CSR rows into one block per CPU the process may
run on and runs the blocks on a shared thread pool (scipy's CSR kernel
releases the GIL). Every output row is the same sum in the same order
whatever the block count, so results do not depend on the CPU count.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs  # Y += A @ X on raw CSR arrays

from .data import NeighbourLists


def _cpu_count():
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


CPUS = _cpu_count()
CHUNK = 1 << 15  # elements per slice of a chunked elementwise pass (fits in L2)

_pool = None
_pool_lock = threading.Lock()


def run_parallel(fn, n):
    """Call fn(0), ..., fn(n - 1), on the shared pool when n > 1."""
    global _pool
    if n <= 1:
        for k in range(n):
            fn(k)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=CPUS, thread_name_prefix="socrec")
    for _ in _pool.map(fn, range(n)):
        pass


def for_each_chunk(n, fn):
    """Call fn(start, stop, worker) over [0, n) in slices of at most CHUNK
    elements, one contiguous run of slices per CPU (worker < CPUS), so
    each slice's passes stay in cache."""
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


def propagate(g, E, out=None):
    """One propagation layer with implicit self-loop: returns A_norm @ E + E.

    Writes into `out` when given (same shape as E, float64, C-contiguous,
    not overlapping E); each row block runs `A[rows] @ E + E[rows]`.
    """
    E = np.asarray(E)
    if E.shape[0] != g.num_nodes:
        raise ValueError(f"embedding rows {E.shape[0]} != graph nodes {g.num_nodes}")
    X = np.ascontiguousarray(E, dtype=np.float64)
    if out is None:
        out = np.empty(X.shape)
    elif out.shape != X.shape or not out.flags.c_contiguous or np.may_share_memory(out, X):
        raise ValueError("out must be a separate C-contiguous array shaped like E")
    m = g.matrix
    X2, Y2 = X.reshape(len(X), -1), out.reshape(len(out), -1)
    x = X2.ravel()
    bounds = g._blocks

    def block(k):
        r0, r1 = bounds[k], bounds[k + 1]
        y = Y2[r0:r1]
        y.fill(0.0)
        csr_matvecs(r1 - r0, m.shape[1], X2.shape[1], m.indptr[r0:r1 + 1],
                    m.indices, m.data, x, y.ravel())
        np.add(y, X2[r0:r1], out=y)

    run_parallel(block, len(bounds) - 1)
    return out
