"""Training tuples, loss terms, analytic gradients and Adam updates.

The joint objective is

    total = rec + lambda1 * social + lambda2 * align + lambda3 * reg

where rec/social are BPR sums over sampled triples, align is either the
denoised hinge sum(max(0, 1 - z * zhat)) over sampled user pairs or an
InfoNCE replacement (variant "contrastive"), and reg is the squared
Frobenius norm of the raw embedding tables. All gradients are derived by
hand; the encoder is linear, so backpropagation through L layers is the
same sum-of-powers propagation applied to the aggregated-embedding
gradients.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .graph import CHUNK, CPUS, for_each_chunk
from .model import (LEAKY_SLOPE, PARAM_NAMES, aggregate_backward, pack_params,
                    param_views, projection_forward, reuse)

VARIANTS = ("full", "no_align", "direct_social", "contrastive")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteLossError(RuntimeError):
    """Raised when a loss component stops being finite."""

    def __init__(self, component, value):
        super().__init__(f"loss component {component!r} is non-finite ({value})")
        self.component = component


@dataclass
class TrainConfig:
    """All training hyperparameters.

    Variants: "full" keeps every term; "no_align" drops the cross-view
    alignment loss; "direct_social" drops both social-side losses and
    instead adds social user embeddings into interaction scoring;
    "contrastive" swaps the hinge alignment for InfoNCE at the same weight.
    """

    dim: int = 128
    layers: int = 2
    lr: float = 1e-3
    lr_decay: float = 0.96
    batch: int = 2048
    lambda1: float = 1e-1
    lambda2: float = 1e-5
    lambda3: float = 1e-6
    epochs: int = 100
    patience: int = 10
    agg: str = "sum"
    variant: str = "full"
    infonce_tau: float = 0.1
    seed: int = 0
    negatives: int = 99
    cutoffs: tuple = (5, 10, 20)

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be nonnegative")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")
        if self.infonce_tau <= 0:
            raise ValueError("infonce temperature must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, "
                             f"expected one of {', '.join(VARIANTS)}")
        if self.agg not in ("sum", "mean"):
            raise ValueError("agg must be 'sum' or 'mean'")

    def effective_weights(self):
        """(lambda1, lambda2) after applying the variant semantics."""
        l1, l2 = self.lambda1, self.lambda2
        if self.variant == "no_align":
            l2 = 0.0
        elif self.variant == "direct_social":
            l1 = 0.0
            l2 = 0.0
        return l1, l2

    @property
    def social_fusion(self):
        return self.variant == "direct_social"

    def with_overrides(self, **kw):
        return replace(self, **kw)


@dataclass(eq=False)
class Batch:
    """Sampled training tuples (dense indices)."""

    rec_triples: np.ndarray  # (n, 3) user, positive item, negative item
    soc_triples: np.ndarray  # (m, 3) user, tied user, untied user
    ssl_pairs: np.ndarray    # (k, 2) user pair for cross-view alignment


@dataclass(eq=False)
class GradientSet:
    """Gradients in the parameter layout: named views of one flat block.

    Built from separate arrays, the set copies them into a new block.
    `work` keeps the arrays compute_gradients works in, so a set reused
    across steps allocates nothing.
    """

    E_u: np.ndarray
    E_v: np.ndarray
    T: np.ndarray
    w: np.ndarray
    c: np.ndarray
    flat: np.ndarray = field(default=None, repr=False)
    work: dict = field(default_factory=dict, repr=False)  # see reuse()

    def __post_init__(self):
        if self.flat is None:
            self.flat = pack_params(self.as_dict())
            for name, view in param_views(self.flat, len(self.E_u), len(self.E_v),
                                          self.E_u.shape[1]).items():
                setattr(self, name, view)

    @classmethod
    def for_model(cls, ms):
        flat = np.empty(ms.params.size)
        return cls(**param_views(flat, ms.num_users, ms.num_items, ms.dim), flat=flat)

    @property
    def E(self):
        """Gradient of the (I+J, d) embedding table: E_u rows, then E_v rows."""
        rows, d = len(self.E_u) + len(self.E_v), self.E_u.shape[1]
        return self.flat[:rows * d].reshape(rows, d)

    def as_dict(self):
        return {name: getattr(self, name) for name in PARAM_NAMES}


def sample_batch(ds, batch_size, rng, need_social=True):
    """Draw BPR triples for both views plus uniformly random user pairs.

    Rec triples: user drawn from the train-edge endpoints, positive
    uniform among that user's train items, negative rejection-sampled
    among non-interacted items. Social triples mirror that over ties.
    """
    n_train = len(ds.train_edges)
    if n_train == 0:
        raise ValueError("cannot sample from a dataset without train edges")
    I, J = ds.num_users, ds.num_items
    item_sets = ds.user_train_items()
    items_per_user = [None] * I

    rec = np.empty((batch_size, 3), dtype=np.int64)
    edge_idx = rng.integers(n_train, size=batch_size)
    for row, e in enumerate(edge_idx):
        u = int(ds.train_edges[e, 0])
        pos_set = item_sets[u]
        if len(pos_set) >= J:
            raise ValueError(f"user {u} interacts with every item; "
                             "negative sampling cannot terminate")
        if items_per_user[u] is None:
            items_per_user[u] = np.fromiter(pos_set, dtype=np.int64, count=len(pos_set))
        choices = items_per_user[u]
        v_pos = int(choices[rng.integers(len(choices))])
        while True:
            v_neg = int(rng.integers(J))
            if v_neg not in pos_set:
                break
        rec[row] = (u, v_pos, v_neg)

    if need_social:
        n_soc = len(ds.social_edges)
        if n_soc == 0:
            raise ValueError("social triples requested but dataset has no ties")
        tie_sets = ds.user_ties()
        soc = np.empty((batch_size, 3), dtype=np.int64)
        tie_idx = rng.integers(n_soc, size=batch_size)
        for row, e in enumerate(tie_idx):
            i = int(ds.social_edges[e, 0])
            ties = tie_sets[i]
            if len(ties) >= I - 1:
                raise ValueError(f"user {i} is tied to every other user; "
                                 "negative sampling cannot terminate")
            nbrs = np.fromiter(ties, dtype=np.int64, count=len(ties))
            i_pos = int(nbrs[rng.integers(len(nbrs))])
            while True:
                i_neg = int(rng.integers(I))
                if i_neg != i and i_neg not in ties:
                    break
            soc[row] = (i, i_pos, i_neg)
    else:
        soc = np.zeros((0, 3), dtype=np.int64)

    ssl = rng.integers(I, size=(batch_size, 2)).astype(np.int64)
    return Batch(rec_triples=rec, soc_triples=soc, ssl_pairs=ssl)


# --- loss terms ---------------------------------------------------------------

def bpr_loss(pos_scores, neg_scores):
    """Summed pairwise ranking loss, stabilized as softplus(neg - pos)."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.shape != neg.shape:
        raise ValueError("positive/negative score lists differ in length")
    return float(np.logaddexp(0.0, neg - pos).sum())


def ssl_hinge_loss(z, zhat):
    """Denoised alignment loss: sum of max(0, 1 - z * zhat) over pairs."""
    z = np.asarray(z, dtype=np.float64)
    zhat = np.asarray(zhat, dtype=np.float64)
    if z.shape != zhat.shape:
        raise ValueError("similarity lists differ in length")
    return float(np.maximum(0.0, 1.0 - z * zhat).sum())


def infonce_loss(anchors, positives, tau):
    """Contrastive alignment with in-batch negatives and cosine scores."""
    loss, _, _ = _infonce_grads(np.atleast_2d(anchors), np.atleast_2d(positives), tau)
    return loss


def _infonce_grads(A, B, tau):
    """InfoNCE over cosine similarities; returns (loss, dA, dB).

    Row i of A is an anchor, row i of B its positive; every other row of B
    is an in-batch negative. Loss is the mean over anchors of
    -log softmax(S_ii / tau) with S the cosine-similarity matrix.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError("anchor/positive row counts differ")
    n = A.shape[0]
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("zero-norm row in contrastive batch")
    Ah = A / na[:, None]
    Bh = B / nb[:, None]
    S = (Ah @ Bh.T) / tau
    m = S.max(axis=1, keepdims=True)
    expS = np.exp(S - m)
    lse = m[:, 0] + np.log(expS.sum(axis=1))
    loss = float(np.mean(lse - np.diag(S)))

    P = expS / expS.sum(axis=1, keepdims=True)
    G = (P - np.eye(n)) / n
    dAh = (G @ Bh) / tau
    dBh = (G.T @ Ah) / tau
    # back through the row normalization: d(x/|x|) projects out the radial part
    dA = (dAh - (dAh * Ah).sum(axis=1, keepdims=True) * Ah) / na[:, None]
    dB = (dBh - (dBh * Bh).sum(axis=1, keepdims=True) * Bh) / nb[:, None]
    return loss, dA, dB


def _alignment_hinge(proj, a_i, a_j, b_i, b_j):
    """Hinge alignment over gathered pair rows; returns loss and row grads.

    a_* are interaction-view rows, b_* social-view rows. Output gradients
    are unweighted; pairs whose product already clears the margin
    contribute exactly zero.
    """
    z, (x, pre, h) = projection_forward(proj, a_i, a_j)
    zhat = (b_i * b_j).sum(axis=1)
    margin = 1.0 - z * zhat
    active = margin > 0
    loss = float(margin[active].sum())

    d = a_i.shape[1] if a_i.ndim == 2 else a_i.shape[0]
    da_i = np.zeros_like(np.atleast_2d(a_i))
    da_j = np.zeros_like(da_i)
    db_i = np.zeros_like(np.atleast_2d(b_i))
    db_j = np.zeros_like(db_i)
    dT = np.zeros_like(proj.T)
    dw = np.zeros_like(proj.w)
    dc = np.zeros_like(proj.c)
    if active.any():
        za, zha = z[active], zhat[active]
        # zhat side (the adaptive pull of Eq.-style -z * e_j)
        db_i[active] = -za[:, None] * np.atleast_2d(b_j)[active]
        db_j[active] = -za[:, None] * np.atleast_2d(b_i)[active]
        # z side, through sigmoid -> w -> leaky -> T/c and the identity paths
        dact = -zha * za * (1.0 - za)
        ha, prea, xa = h[active], pre[active], x[active]
        dw += ha.T @ dact
        dpre = dact[:, None] * proj.w[None, :] * np.where(prea > 0, 1.0, LEAKY_SLOPE)
        dc += dpre.sum(axis=0)
        dT += dpre.T @ xa
        dx = dpre @ proj.T
        da_i[active] = dx[:, :d] + dpre
        da_j[active] = dx[:, d:] + dpre
    return loss, da_i, da_j, db_i, db_j, dT, dw, dc


def _scatter_add(target, rows, values):
    """`np.add.at(target, rows, values)`, row by row in the same order.

    Round k adds the k-th occurrence of every row with one buffered
    fancy-index add, so each row still sums its values in batch order.
    """
    if len(rows) == 0:
        return
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    counts = np.diff(np.append(starts, len(rows)))
    for k in range(counts.max()):
        pick = order[starts[counts > k] + k]
        target[rows[pick]] += values[pick]


def _check_finite(name, value):
    if not np.isfinite(value):
        raise NonFiniteLossError(name, value)
    return value


def joint_loss(batch, ms, cfg):
    """Evaluate the weighted multi-task objective on a batch.

    Returns (total, parts) where parts holds the raw (unweighted)
    component values under keys rec/social/align/reg.
    """
    if ms.agg_r is None:
        raise ValueError("encode() must run before joint_loss")
    I = ms.num_users
    l1, l2 = cfg.effective_weights()

    rec = 0.0
    if len(batch.rec_triples):
        u, vp, vn = batch.rec_triples.T
        uvec = ms.agg_r[u]
        if cfg.social_fusion:
            uvec = uvec + ms.agg_s[u]
        pos = (uvec * ms.agg_r[I + vp]).sum(axis=1)
        neg = (uvec * ms.agg_r[I + vn]).sum(axis=1)
        rec = bpr_loss(pos, neg)

    social = 0.0
    if l1 > 0 and len(batch.soc_triples):
        i, ip, ineg = batch.soc_triples.T
        pos = (ms.agg_s[i] * ms.agg_s[ip]).sum(axis=1)
        neg = (ms.agg_s[i] * ms.agg_s[ineg]).sum(axis=1)
        social = bpr_loss(pos, neg)

    align = 0.0
    if l2 > 0 and len(batch.ssl_pairs):
        i, j = batch.ssl_pairs.T
        if cfg.variant == "contrastive":
            anchors = np.unique(i)
            align = infonce_loss(ms.agg_r[anchors], ms.agg_s[anchors],
                                 cfg.infonce_tau)
        else:
            z, _ = projection_forward(ms.proj, ms.agg_r[i], ms.agg_r[j])
            zhat = (ms.agg_s[i] * ms.agg_s[j]).sum(axis=1)
            align = ssl_hinge_loss(z, zhat)

    reg = float((ms.E_u ** 2).sum() + (ms.E_v ** 2).sum())

    parts = {"rec": _check_finite("rec", rec),
             "social": _check_finite("social", social),
             "align": _check_finite("align", align),
             "reg": _check_finite("reg", reg)}
    total = rec + l1 * social + l2 * align + cfg.lambda3 * reg
    return _check_finite("total", total), parts


def compute_gradients(batch, ms, cfg, out=None):
    """Exact analytic gradients of the joint objective for this batch.

    Accumulates per-row gradients on the aggregated embeddings, then pulls
    them back through the L-layer propagation of each view. Repeated batch
    indices accumulate (unbuffered adds). Writes into `out`, a GradientSet
    of this model's layout, when given; otherwise into a new one.
    """
    if ms.agg_r is None:
        raise ValueError("encode() must run before compute_gradients")
    I = ms.num_users
    l1, l2 = cfg.effective_weights()

    grads = out
    if grads is None or grads.flat.size != ms.params.size:
        grads = GradientSet.for_model(ms)
    flat = grads.flat
    for_each_chunk(flat.size, lambda lo, hi, _: flat[lo:hi].fill(0.0))
    # the interaction-view gradient is built in place in the E_u/E_v rows
    grad_agg_r = grads.E
    grad_agg_s = reuse(grads.work, "grad_agg_s", ms.agg_s.shape)
    grad_agg_s.fill(0.0)
    gT, gw, gc = grads.T, grads.w, grads.c

    if len(batch.rec_triples):
        u, vp, vn = batch.rec_triples.T
        uvec = ms.agg_r[u]
        if cfg.social_fusion:
            uvec = uvec + ms.agg_s[u]
        pv = ms.agg_r[I + vp]
        nv = ms.agg_r[I + vn]
        x = (uvec * (pv - nv)).sum(axis=1)
        coef = -expit(-x)  # d softplus(-x) / dx
        du = coef[:, None] * (pv - nv)
        _scatter_add(grad_agg_r, u, du)
        if cfg.social_fusion:
            _scatter_add(grad_agg_s, u, du)
        _scatter_add(grad_agg_r, I + vp, coef[:, None] * uvec)
        _scatter_add(grad_agg_r, I + vn, -coef[:, None] * uvec)

    if l1 > 0 and len(batch.soc_triples):
        i, ip, ineg = batch.soc_triples.T
        bi = ms.agg_s[i]
        bp = ms.agg_s[ip]
        bn = ms.agg_s[ineg]
        x = (bi * (bp - bn)).sum(axis=1)
        coef = -l1 * expit(-x)
        _scatter_add(grad_agg_s, i, coef[:, None] * (bp - bn))
        _scatter_add(grad_agg_s, ip, coef[:, None] * bi)
        _scatter_add(grad_agg_s, ineg, -coef[:, None] * bi)

    if l2 > 0 and len(batch.ssl_pairs):
        i, j = batch.ssl_pairs.T
        if cfg.variant == "contrastive":
            anchors = np.unique(i)
            _, dA, dB = _infonce_grads(ms.agg_r[anchors], ms.agg_s[anchors],
                                       cfg.infonce_tau)
            grad_agg_r[anchors] += l2 * dA
            grad_agg_s[anchors] += l2 * dB
        else:
            _, da_i, da_j, db_i, db_j, dT, dw, dc = _alignment_hinge(
                ms.proj, ms.agg_r[i], ms.agg_r[j], ms.agg_s[i], ms.agg_s[j])
            _scatter_add(grad_agg_r, i, l2 * da_i)
            _scatter_add(grad_agg_r, j, l2 * da_j)
            _scatter_add(grad_agg_s, i, l2 * db_i)
            _scatter_add(grad_agg_s, j, l2 * db_j)
            gT += l2 * dT
            gw += l2 * dw
            gc += l2 * dc

    work_r = [reuse(grads.work, f"back_r{k}", grad_agg_r.shape) for k in (0, 1)]
    work_s = [reuse(grads.work, f"back_s{k}", grad_agg_s.shape) for k in (0, 1)]
    g_r0 = aggregate_backward(ms.g_r, grad_agg_r, ms.num_layers, ms.agg, work=work_r)
    g_s0 = aggregate_backward(ms.g_s, grad_agg_s, ms.num_layers, ms.agg, work=work_s)

    # E_u: (g_r0 + g_s0) + 2*lambda3*E_u; E_v: g_r0 + 2*lambda3*E_v
    reg = 2.0 * cfg.lambda3
    g, e, g_s = g_r0.reshape(-1), ms.E.reshape(-1), g_s0.reshape(-1)
    scratch = reuse(grads.work, "chunk", (CPUS, CHUNK))

    def assemble(lo, hi, k):
        s = scratch[k, :hi - lo]
        if lo < g_s.size:
            users = min(hi, g_s.size)
            np.add(g[lo:users], g_s[lo:users], out=g[lo:users])
        np.multiply(e[lo:hi], reg, out=s)
        np.add(g[lo:hi], s, out=g[lo:hi])

    for_each_chunk(g.size, assemble)
    return grads


# --- optimizer ----------------------------------------------------------------

@dataclass(eq=False)
class AdamState:
    """First/second moments over the flat parameter block, plus the two
    per-CPU slices of scratch the fused update works in."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.scratch is None:
            self.scratch = (np.empty((CPUS, CHUNK)), np.empty((CPUS, CHUNK)))

    @classmethod
    def for_model(cls, ms):
        return cls(m=np.zeros(ms.params.size), v=np.zeros(ms.params.size))


def adam_step(ms, grads, opt, t, lr_t):
    """One Adam update (bias-corrected, step index t >= 1), in place.

    One fused pass over the flat parameter block in cache-sized slices,
    split across CPUs; each element sees the operations of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), in that order.
    """
    if t < 1:
        raise ValueError("Adam step index is 1-based")
    p, g, m, v = ms.params, grads.flat, opt.m, opt.v
    if not p.size == g.size == m.size == v.size:
        raise ValueError("parameters, gradients and Adam moments differ in size")
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t

    def update(lo, hi, k):
        s1, s2 = opt.scratch[0][k, :hi - lo], opt.scratch[1][k, :hi - lo]
        gk, mk, vk, pk = g[lo:hi], m[lo:hi], v[lo:hi], p[lo:hi]
        np.multiply(mk, ADAM_BETA1, out=mk)
        np.multiply(gk, 1.0 - ADAM_BETA1, out=s1)
        np.add(mk, s1, out=mk)
        np.multiply(vk, ADAM_BETA2, out=vk)
        np.multiply(gk, 1.0 - ADAM_BETA2, out=s1)
        np.multiply(s1, gk, out=s1)
        np.add(vk, s1, out=vk)
        np.divide(mk, bc1, out=s1)
        np.multiply(s1, lr_t, out=s1)
        np.divide(vk, bc2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(pk, s1, out=pk)

    for_each_chunk(p.size, update)
    return ms
