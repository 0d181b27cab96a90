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

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import coo_tocsr, csr_matvecs
from scipy.special import expit

from .config import VARIANTS, TrainConfig  # noqa: F401 (re-exported)
from .graph import CHUNK, CPUS, for_each_chunk
from .model import (ParamBlock, _require_encoded, _slope, aggregate_backward,
                    pair_rows, projection_forward, reuse, user_vectors)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteLossError(RuntimeError):
    """Raised when a loss component stops being finite."""

    def __init__(self, component, value):
        super().__init__(f"loss component {component!r} is non-finite ({value})")
        self.component = component


@dataclass(eq=False)
class Batch:
    """Sampled training tuples (dense indices)."""

    rec_triples: np.ndarray  # (n, 3) user, positive item, negative item
    soc_triples: np.ndarray  # (m, 3) user, tied user, untied user
    ssl_pairs: np.ndarray    # (k, 2) user pair for cross-view alignment


class GradientSet(ParamBlock):
    """Gradients in the parameter layout. `loss` is (batch, total, parts)
    of the batch the gradients are for, as `compute_gradients` recorded it.
    """

    loss = None


def sample_batch(ds, batch_size, rng, need_social=True):
    """Draw BPR triples for both views plus uniformly random user pairs.

    Rec triples come from the train edges and the users' train items,
    social triples from the ties and the users' tie lists (see
    `_bpr_triples`); then the uniformly random alignment pairs.
    """
    if len(ds.train_edges) == 0:
        raise ValueError("cannot sample from a dataset without train edges")
    rec = _bpr_triples(ds.train_edges, ds.train_item_lists(), batch_size, rng,
                       exclude_anchor=False)
    if need_social:
        if len(ds.social_edges) == 0:
            raise ValueError("social triples requested but dataset has no ties")
        soc = _bpr_triples(ds.social_edges, ds.tie_lists(), batch_size, rng,
                           exclude_anchor=True)
    else:
        soc = np.zeros((0, 3), dtype=np.int64)
    ssl = rng.integers(ds.num_users, size=(batch_size, 2))
    return Batch(rec_triples=rec, soc_triples=soc, ssl_pairs=ssl)


def _bpr_triples(edges, lists, count, rng, exclude_anchor):
    """`count` (anchor, positive, negative) rows over an edge list.

    The anchor is the source of a uniformly drawn edge, the positive
    uniform among the anchor's neighbours in `lists`, the negative uniform
    over [0, lists.width), redrawn while it is a neighbour or, with
    `exclude_anchor`, the anchor itself. The draws come in one fixed order:
    every anchor, then every positive, then every negative, then rounds
    that redraw the rejected negatives, in row order, until none is
    rejected.
    """
    N = lists.width
    anchors = edges[rng.integers(len(edges), size=count), 0]
    start = lists.indptr[anchors]
    degree = lists.indptr[anchors + 1] - start
    full = degree + exclude_anchor >= N
    if full.any():
        raise ValueError(f"user {anchors[full.argmax()]} leaves no negative among "
                         f"{N} candidates; negative sampling cannot terminate")
    positives = lists.items[start + rng.integers(0, degree)]
    negatives = rng.integers(N, size=count)
    rows = np.arange(count)
    while True:
        a, v = anchors[rows], negatives[rows]
        rows = rows[lists.holds(a, v) | (exclude_anchor & (v == a))]
        if not len(rows):
            return np.column_stack([anchors, positives, negatives])
        negatives[rows] = rng.integers(N, size=len(rows))


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


def _infonce_grads(A, B, tau):
    """InfoNCE over cosine similarities; returns (loss, dA, dB).

    Row i of A is an anchor, row i of B its positive; every other row of B
    is an in-batch negative. Loss is the mean over anchors of
    -log softmax(S_ii / tau) with S the cosine-similarity matrix.
    """
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


def _bpr_term(a, p, n, weight=1.0):
    """BPR over row-aligned anchor, positive and negative rows: the loss
    and the gradients of `weight` times it on the a, p and n rows."""
    loss = bpr_loss((a * p).sum(axis=1), (a * n).sum(axis=1))
    diff = p - n
    coef = -weight * expit(-(a * diff).sum(axis=1))  # d softplus(-x) / dx
    da = coef[:, None] * a
    return loss, coef[:, None] * diff, da, -da


def _hinge_term(params, x, b_i, b_j):
    """Hinge alignment over gathered pair rows, with T, w and c read from
    the parameter block `params`: x is the interaction-view pair block
    [a_i | a_j] (`pair_rows`), b_* are social-view rows.

    Returns (loss, active, (da_i, da_j, db_i, db_j), (dT, dw, dc)); the
    row gradients cover only the `active` pairs, those whose product is
    inside the margin, since the others contribute exactly zero. Gradients
    are unweighted.
    """
    z, (h, positive) = projection_forward(params, x)
    zhat = (b_i * b_j).sum(axis=1)
    loss = ssl_hinge_loss(z, zhat)
    active = np.flatnonzero(1.0 - z * zhat > 0)
    za, zha = z[active], zhat[active]
    # zhat side (the adaptive pull of Eq.-style -z * e_j)
    db_i = -za[:, None] * b_j[active]
    db_j = -za[:, None] * b_i[active]
    # z side, through sigmoid -> w -> leaky -> T/c and the identity paths
    dact = -zha * za * (1.0 - za)
    dpre = dact[:, None] * params.w[None, :] * _slope(positive[active])
    dx = dpre @ params.T
    d = dpre.shape[1]
    rows = (dx[:, :d] + dpre, dx[:, d:] + dpre, db_i, db_j)
    return loss, active, rows, (dpre.T @ x[active], h[active].T @ dact, dpre.sum(axis=0))


def _row_sum(out, terms):
    """Add (rows, values) terms into `out`, which holds zeros, as one
    `np.add.at(out, rows, values)` per term in turn would: each row sums
    its values from +0.0 in term order, then in batch order.

    A stable counting sort orders the concatenated rows, and the CSR
    kernel adds 1.0 * value row by row in that order. A sum that starts
    at +0.0 never becomes -0.0, so rows of zeros may be left out.
    """
    terms = [(r, v) for r, v in terms if len(r)]
    if not terms:
        return out
    rows = np.concatenate([r for r, _ in terms])
    values = np.concatenate([v for _, v in terms])
    n, (num_rows, width) = len(rows), out.shape
    if rows.min() < 0 or rows.max() >= num_rows:  # the kernels do not check
        raise IndexError(f"gradient row index outside [0, {num_rows})")
    ones = np.ones(n)
    indptr, order = np.empty(num_rows + 1, rows.dtype), np.empty(n, rows.dtype)
    coo_tocsr(num_rows, n, n, rows, np.arange(n, dtype=rows.dtype), ones,
              indptr, order, np.empty(n))
    csr_matvecs(num_rows, n, width, indptr, order, ones, values.ravel(), out.ravel())
    return out


def _check_finite(name, value):
    if not np.isfinite(value):
        raise NonFiniteLossError(name, value)
    return value


def _evaluate_terms(batch, ms, cfg, square=None):
    """Run each term of the objective once on the batch; `square` is an
    array shaped like the embedding table to square it in, or None.

    Returns (total, parts, terms_r, terms_s, proj): the loss as
    `joint_loss` gives it, the weighted (rows, row gradients) terms on the
    interaction (I+J rows) and social (I rows) aggregations in the order
    they are summed, and the weighted hinge gradients of (T, w, c), or ().
    Raises NonFiniteLossError naming the first non-finite component.
    """
    _require_encoded(ms)
    I = ms.num_users
    l1, l2 = cfg.effective_weights()
    rec = social = align = 0.0
    terms_r, terms_s, proj = [], [], ()

    if len(batch.rec_triples):
        u, vp, vn = batch.rec_triples.T
        rec, du, dp, dn = _bpr_term(user_vectors(ms, u, cfg.social_fusion),
                                    ms.agg_r[I + vp], ms.agg_r[I + vn])
        terms_r += [(u, du), (I + vp, dp), (I + vn, dn)]
        if cfg.social_fusion:
            terms_s.append((u, du))

    if l1 > 0 and len(batch.soc_triples):
        i, ip, ineg = batch.soc_triples.T
        social, di, dp, dn = _bpr_term(ms.agg_s[i], ms.agg_s[ip], ms.agg_s[ineg], l1)
        terms_s += [(i, di), (ip, dp), (ineg, dn)]

    if l2 > 0 and len(batch.ssl_pairs):
        i, j = batch.ssl_pairs.T
        if cfg.variant == "contrastive":
            anchors = np.unique(i)
            align, dA, dB = _infonce_grads(ms.agg_r[anchors], ms.agg_s[anchors],
                                           cfg.infonce_tau)
            terms_r.append((anchors, l2 * dA))
            terms_s.append((anchors, l2 * dB))
        else:
            align, active, (da_i, da_j, db_i, db_j), proj = _hinge_term(
                ms.params, pair_rows(ms.agg_r, i, j), ms.agg_s[i], ms.agg_s[j])
            for g in (da_i, da_j, db_i, db_j, *proj):
                g *= l2
            i, j = i[active], j[active]
            terms_r += [(i, da_i), (j, da_j)]
            terms_s += [(i, db_i), (j, db_j)]

    squares = np.square(ms.E, out=square)
    reg = float(squares[:I].sum() + squares[I:].sum())

    parts = {"rec": _check_finite("rec", rec),
             "social": _check_finite("social", social),
             "align": _check_finite("align", align),
             "reg": _check_finite("reg", reg)}
    total = rec + l1 * social + l2 * align + cfg.lambda3 * reg
    return _check_finite("total", total), parts, terms_r, terms_s, proj


def joint_loss(batch, ms, cfg, grads=None):
    """Evaluate the weighted multi-task objective on a batch.

    Returns (total, parts) where parts holds the raw (unweighted)
    component values under keys rec/social/align/reg. Given `grads`, the
    GradientSet `compute_gradients` returned for this batch, it returns
    the loss recorded there instead of running the terms again.
    """
    if grads is not None:
        recorded, total, parts = grads.loss
        if recorded is not batch:
            raise ValueError("the gradient set was computed for another batch")
        return total, parts
    return _evaluate_terms(batch, ms, cfg)[:2]


def compute_gradients(batch, ms, cfg, out=None):
    """Exact analytic gradients of the joint objective for this batch.

    Runs each term once (`_evaluate_terms`) and records the loss on the
    returned set, for `joint_loss`. Sums the per-row gradients on the
    aggregated embeddings of each view (`_row_sum`), then pulls them back
    through the L-layer propagation of each view. Writes into `out`, a
    GradientSet of this model's layout, when given; otherwise into a new
    one.
    """
    grads = out
    if grads is None or grads.layout != ms.params.layout:
        grads = GradientSet(*ms.params.layout)
    total, parts, terms_r, terms_s, proj = _evaluate_terms(batch, ms, cfg, grads.E)
    grads.loss = (batch, total, parts)
    flat = grads.flat
    for_each_chunk(flat.size, lambda lo, hi, _: flat[lo:hi].fill(0.0))
    # the interaction-view gradient is built in place in the E_u/E_v rows
    grad_agg_r = _row_sum(grads.E, terms_r)
    grad_agg_s = reuse(ms.buffers, "grad_agg_s", ms.agg_s.shape)
    grad_agg_s.fill(0.0)
    _row_sum(grad_agg_s, terms_s)
    for g, d in zip((grads.T, grads.w, grads.c), proj):
        g += d

    g_r0 = aggregate_backward(ms.g_r, grad_agg_r, ms.num_layers, ms.agg,
                              work=ms.work("r"))
    g_s0 = aggregate_backward(ms.g_s, grad_agg_s, ms.num_layers, ms.agg,
                              work=ms.work("s"))

    # E_u: (g_r0 + g_s0) + 2*lambda3*E_u; E_v: g_r0 + 2*lambda3*E_v
    reg = 2.0 * cfg.lambda3
    g, e, g_s = g_r0.reshape(-1), ms.E.reshape(-1), g_s0.reshape(-1)
    scratch = reuse(ms.buffers, "chunks", (2, CPUS, CHUNK))

    def assemble(lo, hi, k):
        s = scratch[0, k, :hi - lo]
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
    """First/second moments, each a flat array sized and typed like the
    parameter block's."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def for_model(cls, ms):
        return cls(m=np.zeros_like(ms.params.flat), v=np.zeros_like(ms.params.flat))


def adam_step(ms, grads, opt, t, lr_t):
    """One Adam update (bias-corrected, step index t >= 1), in place.

    One fused pass over the flat parameter block in cache-sized slices,
    split across CPUs; each element sees the operations of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), in that order.
    """
    if t < 1:
        raise ValueError("Adam step index is 1-based")
    p, g, m, v = ms.params.flat, grads.flat, opt.m, opt.v
    if not p.size == g.size == m.size == v.size:
        raise ValueError("parameters, gradients and Adam moments differ in size")
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    scratch = reuse(ms.buffers, "chunks", (2, CPUS, CHUNK))

    def update(lo, hi, k):
        s1, s2 = scratch[0, k, :hi - lo], scratch[1, k, :hi - lo]
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
