"""Trainable state, dual-view encoding, the similarity projection and checkpoints."""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import LEAKY_SLOPE, TrainConfig, parse_config_file, read_int, write_lines
from .graph import CHUNK, for_each_chunk, propagate


class ParamBlock:
    """The trainable parameters as named views of one flat array, `flat`.

    The layout, in order: E_u (I, d), E_v (J, d), T (d, 2d), w (d,), c (d,).
    E_u and E_v are the row blocks [0, I) and [I, I+J) of the (I+J, d)
    table `E`. Parameters, gradients (`GradientSet`), both Adam moments
    and checkpoints all use this layout; `DTYPE` is its element type. A
    new block over no `flat` gets a new, unfilled array.
    """

    NAMES = ("E_u", "E_v", "T", "w", "c")
    DTYPE = np.float64

    def __init__(self, num_users, num_items, dim, flat=None):
        shapes = ((num_users, dim), (num_items, dim), (dim, 2 * dim), (dim,), (dim,))
        sizes = [math.prod(shape) for shape in shapes]
        if flat is None:
            flat = np.empty(sum(sizes), self.DTYPE)
        if (flat.shape != (sum(sizes),) or flat.dtype != self.DTYPE
                or not flat.flags.c_contiguous):
            raise ValueError(f"parameter block holds {flat.size} {flat.dtype} values "
                             f"in shape {flat.shape}, layout needs {sum(sizes)} "
                             f"contiguous {np.dtype(self.DTYPE)} values")
        self.flat, self.layout = flat, (num_users, num_items, dim)
        self.num_users, self.num_items, self.dim = self.layout
        start = 0
        for name, shape, size in zip(self.NAMES, shapes, sizes):
            setattr(self, name, flat[start:start + size].reshape(shape))
            start += size
        self.E = flat[:sizes[0] + sizes[1]].reshape(num_users + num_items, dim)

    @classmethod
    def from_arrays(cls, arrays):
        """A new block holding copies of the named arrays."""
        num_users, dim = np.shape(arrays["E_u"])
        block = cls(num_users, len(arrays["E_v"]), dim)
        block.assign(arrays)
        return block

    def as_dict(self):
        """Name -> view, in layout order."""
        return {name: getattr(self, name) for name in self.NAMES}

    def assign(self, arrays):
        """Copy named arrays into the views; every shape must match."""
        for name, view in self.as_dict().items():
            if np.shape(arrays[name]) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(arrays[name])}, "
                                 f"expected {view.shape}")
            view[...] = arrays[name]


def reuse(store, name, shape):
    """The array `store[name]` of the block's dtype, replaced by a new one
    when its shape differs; its contents are whatever the last user left."""
    buf = store.get(name)
    if buf is None or buf.shape != shape:
        buf = store[name] = np.empty(shape, ParamBlock.DTYPE)
    return buf


@dataclass(eq=False)
class ModelState:
    """A parameter block, per-view aggregations and the model's work arrays.

    The embedding tables and the layout read through to `params`. After
    `encode` ran, `agg_r`/`agg_s` hold the aggregated embeddings of the
    interaction and social view; the next `encode` overwrites them in
    place. The graphs and aggregation mode used for the pass are
    remembered so gradients can be pulled back through the same operator:
    A+I is symmetric, so `aggregate_backward` serves both passes.
    `buffers` holds only scratch, which later calls overwrite and
    `buffers.clear()` releases: the work arrays of each graph view, the
    social-view gradient and the per-CPU slices that the gradient
    assembly and then Adam work in.
    """

    params: ParamBlock
    agg_r: np.ndarray = field(default=None, repr=False)
    agg_s: np.ndarray = field(default=None, repr=False)
    g_r: object = field(default=None, repr=False)
    g_s: object = field(default=None, repr=False)
    num_layers: int = 0
    agg: str = "sum"
    buffers: dict = field(default_factory=dict, repr=False)  # see reuse()

    num_users = property(lambda self: self.params.num_users)
    num_items = property(lambda self: self.params.num_items)
    dim = property(lambda self: self.params.dim)
    E = property(lambda self: self.params.E)
    E_u = property(lambda self: self.params.E_u)
    E_v = property(lambda self: self.params.E_v)

    def copy_params(self, out=None):
        """Name -> array snapshot of every parameter (views of one copy),
        written into `out`, an earlier snapshot of this layout, when given."""
        if out is None:
            return ParamBlock(*self.params.layout, self.params.flat.copy()).as_dict()
        for name, view in self.params.as_dict().items():
            np.copyto(out[name], view)
        return out

    def set_params(self, params):
        """Copy named arrays into the parameter block; views stay valid."""
        self.params.assign(params)


def init_model(num_users, num_items, dim, seed=0):
    """Fresh model state: uniform(-1/sqrt(d), 1/sqrt(d)) embeddings and
    projection weights, zero bias. Deterministic for a given seed."""
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    params = ParamBlock(num_users, num_items, dim)
    for name in ("E_u", "E_v", "T", "w"):  # draw order fixes the values
        view = getattr(params, name)
        view[...] = rng.uniform(-scale, scale, size=view.shape)
    params.c[...] = 0.0
    return ModelState(params)


def encode(ms, g_r, g_s, num_layers, agg="sum"):
    """Run both lightweight GCN encoders and aggregate all layer outputs.

    Interaction view starts from the stacked user/item tables, social view
    from the user table alone; each layer applies the normalized adjacency
    plus self-loop. Aggregation sums the L+1 layers ("mean" divides by L+1).
    Each view's table is run through `aggregate_backward`, the operator the
    backward pass uses too, which checks `num_layers` and `agg`, into the
    view's aggregation, `ms.agg_r` or `ms.agg_s` when its shape fits and
    a new array otherwise. Pure function of (parameters, graphs,
    num_layers), computed into arrays the model keeps.
    """
    I, J = ms.num_users, ms.num_items
    if g_r.num_nodes != I + J:
        raise ValueError(f"interaction graph has {g_r.num_nodes} nodes, expected {I + J}")
    if g_s.num_nodes != I:
        raise ValueError(f"social graph has {g_s.num_nodes} nodes, expected {I}")

    held = {"agg_r": ms.agg_r, "agg_s": ms.agg_s}  # recorded once both passes ran
    ms.agg_r, ms.agg_s = (
        aggregate_backward(g, reuse(held, f"agg_{view}", table.shape),
                           num_layers, agg, ms.buffers, start=table)
        for view, g, table in (("r", g_r, ms.E), ("s", g_s, ms.E_u)))
    ms.g_r, ms.g_s = g_r, g_s
    ms.num_layers = num_layers
    ms.agg = agg
    return ms


def aggregate_backward(g, grad_agg, num_layers, agg="sum", buffers=None, start=None):
    """The sum-of-powers operator X -> sum_k (A+I)^k X, k = 0..L, in Horner
    form: S_0 = X and S_k = ((A+I) S_{k-1}) + X, one `propagate` each, so
    S_L is the sum. Writes S_L, divided by L+1 for "mean", into `grad_agg`
    and returns it; X is `start` (forward) or `grad_agg` itself (backward,
    in place). A is symmetric, so the same operator encodes the tables and
    pulls a gradient on the aggregations back to layer 0.

    The S_k before S_L live in `buffers` (a new dict when None) as
    `work_<g.view>0` and `work_<g.view>1`. From `start` they alternate
    with `grad_agg`, so one work array does. In place every layer reads X,
    so only S_L may overwrite it, and at L = 1, where S_0 is X, S_1 is
    made apart and copied back. Refuses a negative `num_layers` and an
    `agg` other than "sum" and "mean".
    """
    if num_layers < 0:
        raise ValueError(f"num_layers must be >= 0, got {num_layers}")
    if agg not in ("sum", "mean"):
        raise ValueError(f"unknown aggregation {agg!r}")
    if not grad_agg.flags.c_contiguous:
        raise ValueError("grad_agg must be C-contiguous")
    if start is not None and np.may_share_memory(start, grad_agg):
        raise ValueError("start overlaps grad_agg")  # X must outlive every S_k
    buffers = {} if buffers is None else buffers
    work = lambda k: reuse(buffers, f"work_{g.view}{k}", grad_agg.shape)  # noqa: E731
    layer = X = grad_agg if start is None else start
    for k in range(1, num_layers + 1):
        if start is not None:
            out = grad_agg if (num_layers - k) % 2 == 0 else work(0)
        else:
            out = grad_agg if k == num_layers > 1 else work((k - 1) % 2)
        layer = propagate(g, layer, out=out, add=X)
    if layer is not grad_agg:
        np.copyto(grad_agg, layer)
    if agg == "mean":
        total = grad_agg.reshape(-1)
        for_each_chunk(total.size, lambda lo, hi, _: np.divide(
            total[lo:hi], num_layers + 1, out=total[lo:hi]))
    return grad_agg


def _require_encoded(ms):
    if ms.agg_r is None or ms.agg_s is None:
        raise ValueError("encode() must run before reading the aggregations")


def _leaky_relu_(pre):
    """Turn `pre` into its LeakyReLU in place, bit for bit as
    np.where(pre > 0, pre, LEAKY_SLOPE * pre) gives it, and return the
    mask of its positive entries."""
    positive = pre > 0
    np.multiply(pre, LEAKY_SLOPE, out=pre, where=~positive)
    return positive


def pair_rows(table, i, j):
    """The (n, 2d) block [table[i] | table[j]] of row-aligned pairs,
    gathered in row slices of about CHUNK elements."""
    d = table.shape[1]
    x = np.empty((len(i), 2 * d), table.dtype)
    step = max(1, CHUNK // d)
    for lo in range(0, len(i), step):
        x[lo:lo + step, :d] = table[i[lo:lo + step]]
        x[lo:lo + step, d:] = table[j[lo:lo + step]]
    return x


def projection_forward(params, x):
    """Similarity-projection forward pass for the pair block x = [e_i | e_j]
    (`pair_rows`), with T, w and c read from the parameter block `params`.

    One GEMM, ((xT' + e_i) + e_j) + c in place, then the LeakyReLU in
    place. Returns (z, (h, positive)): the LeakyReLU output and the mask
    of its positive entries, which the backward pass needs with x.
    """
    d = params.dim
    h = x @ params.T.T                               # (n, d), then in place
    h += x[:, :d]
    h += x[:, d:]
    h += params.c
    positive = _leaky_relu_(h)
    act = h @ params.w                               # (n,)
    z = 1.0 / (1.0 + np.exp(-act))
    return z, (h, positive)


def user_vectors(ms, users, social_fusion=False):
    """The user rows that score items: agg_r[users], plus agg_s[users]
    under social fusion."""
    _require_encoded(ms)
    vec = ms.agg_r[users]
    if social_fusion:
        vec = vec + ms.agg_s[users]
    return vec


# --- checkpoint IO -----------------------------------------------------------

CHECKPOINT_DTYPE = np.dtype(ParamBlock.DTYPE).newbyteorder("<")


def save_checkpoint(ms, out_dir, config_lines):
    """Write each parameter as a flat little-endian array, and a `config`
    file: `num_users=I`, `num_items=J`, then the run's config echo
    `config_lines` (`TrainConfig.lines`), which `checkpoint_config` reads."""
    os.makedirs(out_dir, exist_ok=True)
    for name, view in ms.params.as_dict().items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            np.ascontiguousarray(view, dtype=CHECKPOINT_DTYPE).tofile(fh)
    write_lines(os.path.join(out_dir, "config"), [
        f"num_users={ms.num_users}", f"num_items={ms.num_items}", *config_lines])


def checkpoint_config(in_dir):
    """(num_users, num_items, TrainConfig) as checkpoint `in_dir`'s `config`
    sets them; it must set each, and an error names the file."""
    path = os.path.join(in_dir, "config")
    if not os.path.isfile(path):
        raise ValueError(f"checkpoint {in_dir} has no config file {path}")
    values = parse_config_file(path)
    sizes = [read_int(values, key, path) for key in ("num_users", "num_items")]
    del values["num_users"], values["num_items"]
    return (*sizes, TrainConfig().read(values, path, complete=True))


def load_checkpoint(in_dir):
    """Rebuild a ModelState (parameters, layer count and aggregation) from
    save_checkpoint output: a block sized by `num_users`, `num_items` and
    `dim` of `config`, each file's bytes read straight into its view and
    swapped there when `CHECKPOINT_DTYPE` is not the block's byte order.
    A file whose size disagrees with `config`, that reads short, or that
    holds a non-finite value, is an error."""
    num_users, num_items, cfg = checkpoint_config(in_dir)
    params = ParamBlock(num_users, num_items, cfg.dim)
    for name, view in params.as_dict().items():
        path = os.path.join(in_dir, name)
        found = os.path.getsize(path) / CHECKPOINT_DTYPE.itemsize
        if found != view.size:
            raise ValueError(f"checkpoint file {path} holds {found:g} values, "
                             f"its config needs {view.size}")
        with open(path, "rb") as fh:
            read = fh.readinto(view)
        if read != view.nbytes:
            raise ValueError(f"checkpoint file {path} read {read} of its "
                             f"{view.nbytes} bytes")
        if CHECKPOINT_DTYPE != view.dtype:
            view.byteswap(inplace=True)
        if not np.isfinite(view).all():
            raise ValueError(f"checkpoint file {path} holds a non-finite value")
    return ModelState(params, num_layers=cfg.layers, agg=cfg.agg)
