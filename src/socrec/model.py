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
    """Embedding tables, projection parameters and per-view forward caches.

    Every parameter is a view of one flat float64 block, `params`; built
    from separate arrays, the state copies them into a new block. After
    `encode` ran, `layers_r`/`layers_s` hold the L+1 per-layer outputs
    (layer 0 is the parameter table itself) and `agg_r`/`agg_s` their
    aggregation. The graphs and aggregation mode used for the pass are
    remembered so gradients can be propagated back through the same
    operator. The forward caches live in `buffers`, which later calls
    overwrite.
    """

    E_u: np.ndarray  # (I, d)
    E_v: np.ndarray  # (J, d)
    proj: ProjectionParams
    layers_r: list = field(default=None, repr=False)
    layers_s: list = field(default=None, repr=False)
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


def _sum_layers(layers, out, agg):
    """out = ((L0 + L1) + L2) + ..., divided by L+1 for "mean": the order of
    additions of `np.sum(layers, axis=0)`, in cache-sized slices."""
    flat = [layer.reshape(-1) for layer in layers]
    dst = out.reshape(-1)

    def chunk(lo, hi, _):
        o = dst[lo:hi]
        if len(flat) == 1:
            o[...] = flat[0][lo:hi]
        else:
            np.add(flat[0][lo:hi], flat[1][lo:hi], out=o)
        for layer in flat[2:]:
            np.add(o, layer[lo:hi], out=o)
        if agg == "mean":
            np.divide(o, len(flat), out=o)

    for_each_chunk(dst.size, chunk)
    return out


def encode(ms, g_r, g_s, num_layers, agg="sum"):
    """Run both lightweight GCN encoders and aggregate all layer outputs.

    Interaction view starts from the stacked user/item tables, social view
    from the user table alone; each layer applies the normalized adjacency
    plus self-loop. Aggregation sums the L+1 layers ("mean" divides by L+1).
    Pure function of (parameters, graphs, num_layers): caches are rebuilt
    from scratch on every call, into buffers the model keeps.
    """
    if agg not in ("sum", "mean"):
        raise ValueError(f"unknown aggregation {agg!r}")
    I, J = ms.num_users, ms.num_items
    if g_r.num_nodes != I + J:
        raise ValueError(f"interaction graph has {g_r.num_nodes} nodes, expected {I + J}")
    if g_s.num_nodes != I:
        raise ValueError(f"social graph has {g_s.num_nodes} nodes, expected {I}")

    layers_r = [ms.E]
    layers_s = [ms.E_u]
    shape_r, shape_s = layers_r[0].shape, layers_s[0].shape
    for k in range(1, num_layers + 1):
        layers_r.append(propagate(g_r, layers_r[-1], out=reuse(ms.buffers, f"r{k}", shape_r)))
        layers_s.append(propagate(g_s, layers_s[-1], out=reuse(ms.buffers, f"s{k}", shape_s)))

    ms.layers_r, ms.layers_s = layers_r, layers_s
    ms.agg_r = _sum_layers(layers_r, reuse(ms.buffers, "agg_r", shape_r), agg)
    ms.agg_s = _sum_layers(layers_s, reuse(ms.buffers, "agg_s", shape_s), agg)
    ms.g_r, ms.g_s = g_r, g_s
    ms.num_layers = num_layers
    ms.agg = agg
    return ms


def aggregate_backward(g, grad_agg, num_layers, agg="sum", work=None):
    """Pull a gradient on the aggregated embeddings back to layer 0.

    The encoder is linear, so the backward operator is the same
    sum-of-powers propagation applied to the incoming gradient (the
    normalized adjacency is symmetric). Accumulates in place into
    `grad_agg` and returns it; `work` is a pair of arrays shaped like it
    that the layers alternate between (new ones when None).
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
        raise ValueError("encode() must run before similarities or predictions")


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


def user_vectors(ms, users, social_fusion=False):
    """Interaction-view user rows, optionally fused with the social view."""
    _require_encoded(ms)
    vecs = ms.agg_r[users]
    if social_fusion:
        vecs = vecs + ms.agg_s[users]
    return vecs


def item_vectors(ms, items):
    _require_encoded(ms)
    return ms.agg_r[ms.num_users + np.asarray(items)]


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
