"""Sparse symmetric-normalized adjacencies and one-layer propagation.

Both views use the same normalization: each stored entry is
1/sqrt(deg(a) * deg(b)) for its endpoints, zero-degree rows stay empty,
and the self-loop is applied as `+ E` during propagation instead of being
materialized on the diagonal.

Propagation splits the CSR rows into one block per CPU the process may
run on and runs the blocks on a shared thread pool (scipy's CSR kernel
releases the GIL). Every output row is the same sum in the same order
whatever the block count, so results do not depend on the CPU count.
Each block runs in row slices of about CHUNK elements, so a layer can be
added into a running sum while its slice is still in cache.
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


def propagate(g, E, out=None, total=None, start=None):
    """One propagation layer with implicit self-loop: A_norm @ E + E.

    Each row block walks its rows in slices of CHUNK // d rows: zero-fill,
    the product and the self-loop add, then, with `total`, the add of the
    slice into `total` while it is still in cache: total = start + layer,
    or total += layer without `start`. The layer is stored in `out` when
    given, in a new array when neither `out` nor `total` is, and otherwise
    nowhere; returns the stored layer, or `total`. `out`, `total` and
    `start` are float64, C-contiguous and shaped like E.

    The layer reads every row of E while it writes, so `out` and `total`
    may overlap neither E, nor each other, nor `start`; `start` may be E
    itself, and `start` being `total` is the running sum.
    """
    E = np.asarray(E)
    if E.shape[0] != g.num_nodes:
        raise ValueError(f"embedding rows {E.shape[0]} != graph nodes {g.num_nodes}")
    X = np.ascontiguousarray(E, dtype=np.float64)
    if start is total:
        start = None
    elif total is None:
        raise ValueError("start is given without total")
    if out is None and total is None:
        out = np.empty(X.shape)
    given = {"E": X, "out": out, "total": total, "start": start}
    for name in ("out", "total", "start"):
        arr = given[name]
        if arr is not None and (arr.shape != X.shape or arr.dtype != np.float64
                                or not arr.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous float64 array shaped like E")
    for a, b in (("out", "E"), ("total", "E"), ("total", "out"), ("start", "out"),
                 ("start", "total")):
        if (given[a] is not None and given[b] is not None
                and np.may_share_memory(given[a], given[b])):
            raise ValueError(f"{a} overlaps {b}")
    m = g.matrix
    X2 = X.reshape(len(X), -1)
    x, width = X2.ravel(), X2.shape[1]
    step = max(1, CHUNK // max(width, 1))
    Y2, T2, S2 = (None if a is None else a.reshape(X2.shape) for a in (out, total, start))
    if S2 is None:
        S2 = T2
    bounds = g._blocks

    def block(k):
        scratch = None if Y2 is not None else np.empty((step, width))
        for r0 in range(bounds[k], bounds[k + 1], step):
            r1 = min(r0 + step, bounds[k + 1])
            y = Y2[r0:r1] if Y2 is not None else scratch[:r1 - r0]
            y.fill(0.0)
            csr_matvecs(r1 - r0, m.shape[1], width, m.indptr[r0:r1 + 1],
                        m.indices, m.data, x, y.ravel())
            np.add(y, X2[r0:r1], out=y)
            if T2 is not None:
                np.add(S2[r0:r1], y, out=T2[r0:r1])

    run_parallel(block, len(bounds) - 1)
    return total if out is None else out
