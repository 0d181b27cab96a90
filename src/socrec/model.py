"""Trainable state, dual-view encoding, similarities and prediction scores."""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import for_each_chunk, propagate

LEAKY_SLOPE = 0.01  # LeakyReLU negative slope used by the similarity projection
PARAM_NAMES = ("E_u", "E_v", "T", "w", "c")


def param_views(flat, num_users, num_items, dim):
    """Name -> view of a flat float64 block laid out as E_u, E_v, T, w, c.

    E_u and E_v are the row blocks [0, I) and [I, I+J) of one (I+J, d)
    table; gradients and Adam moments use the same layout.
    """
    shapes = ((num_users, dim), (num_items, dim), (dim, 2 * dim), (dim,), (dim,))
    views, start = {}, 0
    for name, shape in zip(PARAM_NAMES, shapes):
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    if start != flat.size:
        raise ValueError(f"parameter block holds {flat.size} values, layout needs {start}")
    return views


def reuse(store, name, shape):
    """The float64 array `store[name]`, replaced by a new one when its shape
    differs; its contents are whatever the last user left."""
    buf = store.get(name)
    if buf is None or buf.shape != shape:
        buf = store[name] = np.empty(shape)
    return buf


def pack_params(arrays):
    """One new flat float64 block holding the named arrays in layout order."""
    return np.concatenate([np.ravel(arrays[name]) for name in PARAM_NAMES],
                          dtype=np.float64)


@dataclass(eq=False)
class ProjectionParams:
    """Learnable similarity projection: z = sigm(w . leaky(T [e;e'] + e + e' + c))."""

    T: np.ndarray  # (d, 2d)
    w: np.ndarray  # (d,)
    c: np.ndarray  # (d,)


@dataclass(eq=False)
class ModelState:
    """Embedding tables, projection parameters and per-view aggregations.

    Every parameter is a view of one flat float64 block, `params`; built
    from separate arrays, the state copies them into a new block. After
    `encode` ran, `agg_r`/`agg_s` hold the aggregated embeddings of the
    interaction and social view. The graphs and aggregation mode used for
    the pass are remembered so gradients can be pulled back through the
    same operator: A+I is symmetric, so `aggregate_backward` serves both
    passes. The aggregations and each view's work pair (`work_pair`) live
    in `buffers`, which later calls overwrite.
    """

    E_u: np.ndarray  # (I, d)
    E_v: np.ndarray  # (J, d)
    proj: ProjectionParams
    agg_r: np.ndarray = field(default=None, repr=False)
    agg_s: np.ndarray = field(default=None, repr=False)
    g_r: object = field(default=None, repr=False)
    g_s: object = field(default=None, repr=False)
    num_layers: int = 0
    agg: str = "sum"
    params: np.ndarray = field(default=None, repr=False)  # the flat block
    buffers: dict = field(default_factory=dict, repr=False)  # see reuse()

    def __post_init__(self):
        if self.params is None:
            proj = self.proj
            self.params = pack_params({"E_u": self.E_u, "E_v": self.E_v, "T": proj.T,
                                       "w": proj.w, "c": proj.c})
            views = param_views(self.params, len(self.E_u), len(self.E_v),
                                self.E_u.shape[1])
            self.E_u, self.E_v = views["E_u"], views["E_v"]
            self.proj = ProjectionParams(views["T"], views["w"], views["c"])

    @property
    def num_users(self):
        return self.E_u.shape[0]

    @property
    def num_items(self):
        return self.E_v.shape[0]

    @property
    def dim(self):
        return self.E_u.shape[1]

    @property
    def E(self):
        """The (I+J, d) embedding table whose row blocks are E_u and E_v."""
        rows = self.num_users + self.num_items
        return self.params[:rows * self.dim].reshape(rows, self.dim)

    def work_pair(self, view):
        """The two arrays `aggregate_backward` alternates between for view
        "r" (interaction, I+J rows) or "s" (social, I rows); `encode` and
        `compute_gradients` share them."""
        shape = (self.E if view == "r" else self.E_u).shape
        return tuple(reuse(self.buffers, f"work_{view}{k}", shape) for k in (0, 1))

    def named_params(self):
        """Name -> view of the live parameter block."""
        return param_views(self.params, self.num_users, self.num_items, self.dim)

    def copy_params(self):
        """Name -> array snapshot of every parameter (views of one copy)."""
        return param_views(self.params.copy(), self.num_users, self.num_items, self.dim)

    def set_params(self, params):
        """Copy named arrays into the parameter block; views stay valid."""
        for name, view in self.named_params().items():
            if np.shape(params[name]) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(params[name])}, "
                                 f"expected {view.shape}")
            view[...] = params[name]


def _empty_model(num_users, num_items, dim):
    """A ModelState over a new, unfilled parameter block."""
    params = np.empty((num_users + num_items) * dim + 2 * dim * (dim + 1))
    views = param_views(params, num_users, num_items, dim)
    return ModelState(E_u=views["E_u"], E_v=views["E_v"],
                      proj=ProjectionParams(views["T"], views["w"], views["c"]),
                      params=params)


def init_model(num_users, num_items, dim, seed=0):
    """Fresh model state: uniform(-1/sqrt(d), 1/sqrt(d)) embeddings and
    projection weights, zero bias. Deterministic for a given seed."""
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    ms = _empty_model(num_users, num_items, dim)
    views = ms.named_params()
    for name in ("E_u", "E_v", "T", "w"):  # draw order fixes the values
        views[name][...] = rng.uniform(-scale, scale, size=views[name].shape)
    views["c"][...] = 0.0
    return ms


def encode(ms, g_r, g_s, num_layers, agg="sum"):
    """Run both lightweight GCN encoders and aggregate all layer outputs.

    Interaction view starts from the stacked user/item tables, social view
    from the user table alone; each layer applies the normalized adjacency
    plus self-loop. Aggregation sums the L+1 layers ("mean" divides by L+1).
    Each view's table is copied into its aggregation buffer and run through
    `aggregate_backward`, the operator the backward pass uses too. Pure
    function of (parameters, graphs, num_layers), computed into buffers the
    model keeps.
    """
    if agg not in ("sum", "mean"):
        raise ValueError(f"unknown aggregation {agg!r}")
    I, J = ms.num_users, ms.num_items
    if g_r.num_nodes != I + J:
        raise ValueError(f"interaction graph has {g_r.num_nodes} nodes, expected {I + J}")
    if g_s.num_nodes != I:
        raise ValueError(f"social graph has {g_s.num_nodes} nodes, expected {I}")

    for view, g, table in (("r", g_r, ms.E), ("s", g_s, ms.E_u)):
        out = reuse(ms.buffers, f"agg_{view}", table.shape)
        np.copyto(out, table)
        aggregate_backward(g, out, num_layers, agg, work=ms.work_pair(view))
    ms.agg_r, ms.agg_s = ms.buffers["agg_r"], ms.buffers["agg_s"]
    ms.g_r, ms.g_s = g_r, g_s
    ms.num_layers = num_layers
    ms.agg = agg
    return ms


def aggregate_backward(g, grad_agg, num_layers, agg="sum", work=None):
    """The sum-of-powers operator X -> sum_k (A+I)^k X, k = 0..L, in place.

    Accumulates ((X + (A+I)X) + (A+I)^2 X) + ... into `grad_agg`, divided
    by L+1 for "mean", and returns it. The normalized adjacency A is
    symmetric, so the same operator encodes the tables (forward) and pulls
    a gradient on the aggregated embeddings back to layer 0 (backward).
    `work` is a pair of arrays shaped like `grad_agg` that the layers
    alternate between (new ones when None).
    """
    if not grad_agg.flags.c_contiguous:
        raise ValueError("grad_agg must be C-contiguous")
    if num_layers and work is None:
        work = (np.empty(grad_agg.shape), np.empty(grad_agg.shape))
    total = grad_agg.reshape(-1)
    cur = grad_agg
    for k in range(num_layers):
        cur = propagate(g, cur, out=work[k % 2])
        layer = cur.reshape(-1)
        for_each_chunk(total.size, lambda lo, hi, _: np.add(
            total[lo:hi], layer[lo:hi], out=total[lo:hi]))
    if agg == "mean":
        for_each_chunk(total.size, lambda lo, hi, _: np.divide(
            total[lo:hi], num_layers + 1, out=total[lo:hi]))
    return grad_agg


def _require_encoded(ms):
    if ms.agg_r is None or ms.agg_s is None:
        raise ValueError("encode() must run before reading the aggregations")


def projection_forward(proj, e_i, e_j):
    """Similarity-projection forward pass for row-aligned user pairs.

    Returns (z, intermediates) where intermediates carry what the backward
    pass needs. Inputs may be (d,) vectors or (n, d) batches.
    """
    e_i = np.atleast_2d(e_i)
    e_j = np.atleast_2d(e_j)
    x = np.concatenate([e_i, e_j], axis=1)           # (n, 2d)
    pre = x @ proj.T.T + e_i + e_j + proj.c          # (n, d)
    h = np.where(pre > 0, pre, LEAKY_SLOPE * pre)
    act = h @ proj.w                                 # (n,)
    z = 1.0 / (1.0 + np.exp(-act))
    return z, (x, pre, h)


def interaction_similarity(ms, i, j):
    """Learned interaction-view affinity in (0, 1) for a user pair."""
    _require_encoded(ms)
    z, _ = projection_forward(ms.proj, ms.agg_r[i], ms.agg_r[j])
    return float(z[0])


def social_similarity(ms, i, j):
    """Social-view affinity: dot product of aggregated social embeddings."""
    _require_encoded(ms)
    return float(ms.agg_s[i] @ ms.agg_s[j])


def predict_interaction(ms, u, v, social_fusion=False):
    """Raw user-item score from the interaction view."""
    _require_encoded(ms)
    I = ms.num_users
    if not (0 <= u < I and 0 <= v < ms.num_items):
        raise IndexError(f"index out of range: user {u}, item {v}")
    vec = ms.agg_r[u] + (ms.agg_s[u] if social_fusion else 0.0)
    return float(vec @ ms.agg_r[I + v])


def predict_social(ms, i, j):
    """Raw user-user score from the social view (symmetric)."""
    _require_encoded(ms)
    I = ms.num_users
    if not (0 <= i < I and 0 <= j < I):
        raise IndexError(f"index out of range: users {i}, {j}")
    return float(ms.agg_s[i] @ ms.agg_s[j])


# --- checkpoint IO -----------------------------------------------------------

def save_checkpoint(ms, out_dir, config_lines=()):
    """Write parameters as flat little-endian float64 arrays plus a shape file."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "shape"), "w") as fh:
        fh.write(f"I={ms.num_users}\nJ={ms.num_items}\nd={ms.dim}\nL={ms.num_layers}\n")
    for name, view in ms.named_params().items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            np.ascontiguousarray(view, dtype="<f8").tofile(fh)
    if config_lines:
        with open(os.path.join(out_dir, "config"), "w") as fh:
            fh.write("\n".join(config_lines) + "\n")


def load_checkpoint(in_dir):
    """Rebuild a ModelState (parameters only) from save_checkpoint output.

    `num_layers` is the stored L, or None for a checkpoint without one.
    """
    shape = {}
    with open(os.path.join(in_dir, "shape")) as fh:
        for line in fh:
            k, v = line.strip().split("=", 1)
            shape[k] = int(v)
    ms = _empty_model(shape["I"], shape["J"], shape["d"])
    for name, view in ms.named_params().items():
        view[...] = np.fromfile(os.path.join(in_dir, name), dtype="<f8").reshape(view.shape)
    ms.num_layers = shape.get("L")
    return ms
