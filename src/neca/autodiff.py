"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray; an op's ``Var`` also holds its parents and a
backward closure that maps the gradient of its value to its parents'
gradients, returned in ``parents`` order.  Graphs are built per forward pass
(one op per model block: a GAT layer per network, the fusion and the loss,
eleven nodes with the parameters), so there is no parameter registry and no
in-place reuse.  The graph is a tree: each op feeds one other op.
``backward(root)`` walks it from the root, runs each op's backward once and
drops it right after, which frees the state it saved, and adds the
gradients that reach a leaf into its ``.grad``.

All ops operate on float64 arrays and are deterministic for a given shape.
Every matrix product goes through ``_product``, which hands BLAS products
of a fixed, small size: BLAS can round differently when it splits a large
product across threads, and products that small it runs on one thread, so
the bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Output rows and columns, and inner terms, per BLAS call in ``_product``.
# Part of the numerics: other sizes change the bytes of some products.
CHUNK = 32
INNER_CHUNK = 256


class Var:
    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for operands of two or more axes, in fixed pieces.

    Each BLAS call computes one CHUNK x CHUNK tile of the output over at most
    INNER_CHUNK inner terms, and a longer inner axis is summed piece by piece
    in order.  On OpenBLAS 0.3.31 a call that size runs on one thread; with
    whole inner axes, one and two threads gave different bytes for the
    loss's (|V|, |V|) backward product from |V| = 995.
    """
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
    for i in range(0, a.shape[-2], CHUNK):
        rows = a[..., i:i + CHUNK, :]
        for j in range(0, b.shape[-1], CHUNK):
            cols = b[..., j:j + CHUNK]
            tile = out[..., i:i + CHUNK, j:j + CHUNK]
            np.matmul(rows[..., :INNER_CHUNK], cols[..., :INNER_CHUNK, :], out=tile)
            for k in range(INNER_CHUNK, a.shape[-1], INNER_CHUNK):
                tile += rows[..., k:k + INNER_CHUNK] @ cols[..., k:k + INNER_CHUNK, :]
    return out


class Neighborhoods(NamedTuple):
    """The directed (target, source) pairs of a graph, sorted by (target, source).

    Every per-pair array is in this order, so each target's pairs are one slice.
    """

    src: np.ndarray          # (E,) source of each pair
    counts: np.ndarray       # (|V|,) pairs of each target, all at least 1
    starts: np.ndarray       # (|V|,) first pair of each target
    flat: np.ndarray         # (E,) target * |V| + source, the pair in a (|V|, |V|) array
    order: np.ndarray        # (E,) the position of each pair in the input


def neighborhoods(tgt: np.ndarray, src: np.ndarray, num: int) -> Neighborhoods:
    """The ``Neighborhoods`` of directed pairs given in any order.

    No pair may repeat or name a node outside [0, num).  Every node must be
    the target of a pair, as its softmax is undefined without one; the caller
    checks this in ``counts``, where it can name the node.  ``order`` carries
    per-pair input values, such as edge weights, into pair order.
    """
    for ids in (tgt, src):
        bad = ids[(ids < 0) | (ids >= num)]
        if len(bad):
            raise ValueError(f"node id {int(bad[0])} is outside [0, {num})")
    order = np.lexsort((src, tgt))
    tgt, src = tgt[order], src[order]
    counts = np.bincount(tgt, minlength=num)
    flat = tgt * num + src
    if (np.diff(flat) == 0).any():
        raise ValueError("a directed pair repeats")
    return Neighborhoods(src, counts, np.cumsum(counts) - counts, flat, order)


def _per_target(seg: np.ndarray, nbhd: Neighborhoods) -> np.ndarray:
    """A (K, |V|) value of each target, repeated over its pairs."""
    return np.repeat(seg, nbhd.counts, axis=1)


def segment_softmax(z: np.ndarray, nbhd: Neighborhoods) -> np.ndarray:
    """The softmax of (K, E) values in pair order over each target's pairs, in place.

    Each target's maximum is subtracted first, so no value overflows.
    """
    z -= _per_target(np.maximum.reduceat(z, nbhd.starts, axis=1), nbhd)
    w = np.exp(z, out=z)
    w /= _per_target(np.add.reduceat(w, nbhd.starts, axis=1), nbhd)
    return w


def pair_softmax(scores: np.ndarray, nbhd: Neighborhoods,
                 slope: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attention weights from (K, 2, n) target and neighbor scores.

    Head k's logit for the pair of target i and neighbor j is the LeakyReLU
    of ``scores[k, 0, i] + scores[k, 1, j]``; its weight is the softmax over
    i's pairs in ``nbhd``.  Only the pairs are computed.  Returns the
    (K, n, n) weights, 0 off the pairs, and in pair order the (K, E) weights
    and the mask of logits >= 0.
    """
    k, n = scores.shape[0], len(nbhd.counts)
    # (K, E) logits in pair order; slope * z <= z exactly when z >= 0, so the
    # elementwise maximum is the LeakyReLU
    z = _per_target(scores[:, 0], nbhd)
    z += scores[:, 1, nbhd.src]
    np.maximum(z, slope * z, out=z)
    pos = z >= 0
    w = segment_softmax(z, nbhd)
    dense = np.zeros((k, n * n))
    dense[:, nbhd.flat] = w
    return dense.reshape(k, n, n), w, pos


def gat(w1: Var, attn: Var, nbhd: Neighborhoods, slope: float, alpha: float) -> Var:
    """GAT's multi-head attention layer over one network; returns (n, K*d).

    Head k projects the n one-hot nodes to ``w1[k]``'s (d, n) columns and
    scores them with ``attn[k]``, the target half then the neighbor half;
    ``pair_softmax`` turns the scores into weights over each target's pairs
    in ``nbhd``.  Each node's output is the ELU (``alpha``) of its weighted
    sum of projections, head k in columns k*d to (k+1)*d.  The segment-max
    shift of the softmax is a constant, so the gradient is exact.
    """
    k, d, n = w1.value.shape
    a = attn.value.reshape(k, 2, d)
    # row 0 of each head scores every node as a target, row 1 as a neighbor
    weights, w, pos = pair_softmax(_product(a, w1.value), nbhd, slope)
    w1t = np.swapaxes(w1.value, -1, -2)
    agg = _product(weights, w1t)
    act = agg >= 0
    out = np.where(act, agg, alpha * (np.exp(np.minimum(agg, 0.0)) - 1.0))

    def back(g):
        # the ELU's derivative is 1 for z >= 0 and ELU(z) + alpha below
        g_agg = np.swapaxes(g.reshape(n, k, d), 0, 1) * np.where(act, 1.0, out + alpha)
        # The weights' gradient is a dense product read only at the pairs:
        # the cross-attribute network keeps about 70% of the n * n entries,
        # where gathers over the pairs lost to the tiled BLAS products.
        g_weights = _product(g_agg, w1.value)
        g_w1 = np.swapaxes(_product(np.swapaxes(weights, -1, -2), g_agg), -1, -2)
        # softmax backward, then the LeakyReLU derivative: slope below 0 and
        # 1 elsewhere (slope + (1 - slope) rounds to exactly 1 for any slope
        # in (0, 1)).  Segment sums over each target's pairs and a bincount
        # over each source's pairs per head (one over head-offset bins builds
        # a (K, E) index per call, and measured slower) give the two score
        # rows; a node that is no pair's source gets 0.  The indices are in
        # range; in its default mode take would buffer out.
        gz = np.take(g_weights.reshape(k, n * n), nbhd.flat, axis=1, out=np.empty_like(w),
                     mode="clip")
        gz *= w
        buf = _per_target(np.add.reduceat(gz, nbhd.starts, axis=1), nbhd)
        gz -= np.multiply(buf, w, out=buf)
        np.multiply(pos, 1.0 - slope, out=buf)
        buf += slope
        gz *= buf
        g_scores = np.zeros((k, 2, n))
        g_scores[:, 0] = np.add.reduceat(gz, nbhd.starts, axis=1)
        for h in range(k):
            g_scores[h, 1] = np.bincount(nbhd.src, gz[h], minlength=n)
        return (g_w1 + _product(np.swapaxes(a, -1, -2), g_scores),
                _product(g_scores, w1t).reshape(k, 2 * d))

    return Var(np.swapaxes(out, 0, 1).reshape(n, k * d), (w1, attn), back)


def fusion(inter: Var, intra: Var, w2: Var, b: Var,
           s: Var) -> tuple[Var, tuple[float, float], tuple[float, float]]:
    """HAN's semantic-level attention over two (n, D) embeddings of the same rows.

    Each embedding's importance gamma is the row mean of
    ``tanh(x @ w2.T + b) @ s``, and beta is the softmax of the two gammas,
    shifted by their maximum.  Returns the (n, D) ``beta_inter * inter +
    beta_intra * intra``, (gamma_inter, gamma_intra) and (beta_inter,
    beta_intra); the output's gradient reaches all five inputs.
    """
    mats = inter, intra
    n = mats[0].value.shape[0]
    tanhs = [np.tanh(_product(x.value, w2.value.T) + b.value) for x in mats]
    gammas = [_product(t, s.value[:, None])[:, 0].sum() * (1.0 / n) for t in tanhs]
    shift = max(gammas)
    exps = [np.exp(gamma - shift) for gamma in gammas]
    denom = exps[0] + exps[1]
    betas = [e / denom for e in exps]

    def back(g):
        # beta_x = e_x / denom with e_x = exp(gamma_x - shift) and denom = e_inter + e_intra
        g_betas = [(g * x.value).sum(axis=0).sum(axis=0) for x in mats]
        d_inter, d_intra = (-gb * e / (denom * denom) for gb, e in zip(g_betas, exps))
        g_denom = d_inter + d_intra
        g_mats, terms = [], []
        for x, t, e, beta, gb in zip(mats, tanhs, exps, betas, g_betas):
            # the gradient of each row's score is gamma's over n
            g_rows = np.full(n, (gb / denom + g_denom) * e * (1.0 / n))[:, None]
            pre = g_rows * s.value * (1.0 - t * t)   # before the tanh
            g_mats.append(g * beta + _product(pre, w2.value))
            terms.append((_product(x.value.T, pre), pre.sum(axis=0), _product(t.T, g_rows)[:, 0]))
        g_w2, g_b, g_s = (u + v for u, v in zip(*terms))
        return (*g_mats, g_w2.T, g_b, g_s)

    fused = Var(mats[0].value * betas[0] + mats[1].value * betas[1], (*mats, w2, b, s), back)
    return fused, (float(gammas[0]), float(gammas[1])), (float(betas[0]), float(betas[1]))


def kernel_bce(fused: Var, nbhd: Neighborhoods, p: np.ndarray, sigma: float, eps: float) -> Var:
    """Mean binary cross-entropy of Gaussian-kernel similarities against ``p``.

    ``nbhd`` holds the directed pairs of rows of the (|V|, d) ``fused`` and
    ``p`` one probability per pair.  The kernel exp(-|f_u - f_v|^2 / (2 sigma^2))
    of a pair, clamped to [eps, 1 - eps], is scored against its probability:
    the value is -mean(p log k + (1 - p) log(1 - k)) over the pairs.  No
    gradient passes through a clamped kernel.
    """
    n, e = fused.value.shape[0], len(nbhd.flat)
    # squared distances |f_u|^2 + |f_v|^2 - 2 f_u.f_v, centered first so the
    # cancellation error scales with the spread of the rows, not with their
    # offset from the origin
    f = fused.value - fused.value.mean(axis=0)
    norms = (f * f).sum(axis=1)
    sq = np.repeat(norms, nbhd.counts) + norms[nbhd.src] - 2.0 * _product(f, f.T).take(nbhd.flat)
    k = np.exp(sq * (-1.0 / (2.0 * sigma ** 2)))
    inside = (k >= eps) & (k <= 1.0 - eps)
    np.clip(k, eps, 1.0 - eps, out=k)
    # np.sum, not a dot product: BLAS may split a long dot across threads
    loss = -np.sum(p * np.log(k) + (1.0 - p) * np.log(1.0 - k)) / e

    def back(g):
        # dL/dsq = (p - k) / ((1 - k) 2 sigma^2 E) inside the clamp; each pair
        # moves both of its rows, so the scattered weights are symmetrized
        half = np.zeros(n * n)
        half[nbhd.flat] = g * inside * (p - k) / ((1.0 - k) * (2.0 * sigma ** 2 * e))
        half = half.reshape(n, n)
        w = half + half.T
        grad = 2.0 * (w.sum(axis=1)[:, None] * f - _product(w, f))
        return (grad - grad.mean(axis=0),)   # the centring's backward

    return Var(loss, (fused,), back)


def backward(root: Var) -> None:
    """Add d(root)/d(leaf) into ``.grad`` of every leaf of the tree under ``root``.

    Each op's backward runs once, and is dropped right after, with the state
    it saved: a GAT layer's (K, |V|, |V|) attention weights go before the
    next layer's backward starts.  Parents are visited in order, inter
    before intra.  A leaf reached twice, as in ``fusion(x, x)``, sums its
    gradients; an op reached again, or a second ``backward`` of one root,
    raises ``ValueError``.
    """
    if root.value.ndim != 0:
        raise ValueError("backward expects a scalar root")
    stack = [(root, np.ones_like(root.value))]
    while stack:
        node, g = stack.pop()
        if not node.parents:
            node.grad = g if node.grad is None else node.grad + g
        elif node._backward is None:
            raise ValueError(f"the backward of {node!r} has already run")
        else:
            grads = node._backward(g)
            node._backward = None
            stack.extend(reversed(tuple(zip(node.parents, grads, strict=True))))
