"""Training loop: cross-attribute proximity loss, exact gradients, Adam.

The loss compares, for every directed cross-attribute neighbor pair (u, v),
the Gaussian-kernel similarity of the fused embeddings against the impacting
strength p(v|u), the target node's edge weight renormalized over its
neighborhood, under a binary cross-entropy.  Because the network weights
are a global softmax of the raw co-occurrence counts, the per-neighborhood
renormalization reduces to a neighborhood softmax of the raw counts, which
is how it is computed (no underflow from tiny global weights).  The loss is
evaluated densely over all node pairs, with squared distances taken from a
Gram matrix and the terms weighted by |V|×|V| matrices that are zero off the
cross-attribute pairs.

Gradients for every parameter tensor come from the reverse-mode tape in
``autodiff``; optimization is plain full-batch Adam with bias correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .cavnet import HetNet
from .model import (EmbeddingTable, RunConfig, compute_table, forward_fused, init_params,
                    wrap_params)


ADAM_BETA1 = 0.9       # Adam first-moment decay
ADAM_BETA2 = 0.999     # Adam second-moment decay
ADAM_EPS = 1e-8        # Adam denominator epsilon
CLAMP_EPS = 1e-7       # kernel values are clipped to [CLAMP_EPS, 1 - CLAMP_EPS]


class TrainingError(Exception):
    """Non-finite loss or gradient, or another contract violation in training."""


@dataclass
class TrainReport:
    loss_history: list[float]   # one loss per epoch run
    stop_reason: str            # "max_epochs" or "converged"


def loss_targets(net: HetNet) -> tuple[np.ndarray, np.ndarray, int]:
    """(P, Q, pairs) over the directed cross-attribute pairs (target u, neighbor v).

    P[u, v] is the impacting strength p(v|u), the neighborhood softmax of
    the raw counts, and Q[u, v] = 1 - P[u, v]; both are 0 off the pairs.
    """
    tgt, src, eidx = net.directed_pairs("inter")
    if len(tgt) == 0:
        raise TrainingError("empty cross-attribute edge set")
    num = net.node_set.total
    raw = np.full((num, num), -np.inf)
    raw[tgt, src] = net.inter.raw[eidx]
    on_pair = np.isfinite(raw)
    e = np.exp(raw - raw.max(axis=1, keepdims=True), where=on_pair, out=np.zeros((num, num)))
    p = e / e.sum(axis=1, keepdims=True)
    return p, on_pair - p, len(tgt)


def _loss_var(net: HetNet, fused: ad.Var, config: RunConfig) -> ad.Var:
    p, q, pairs = net.derived(loss_targets)
    num = len(p)
    # squared distances from the Gram matrix: |f_u|^2 + |f_v|^2 - 2 f_u.f_v,
    # centered first so the cancellation error scales with the spread of
    # the rows, not with their offset from the origin
    f = ad.sub(fused, ad.mul(ad.summation(fused, axis=0), 1.0 / num))
    norms = ad.summation(ad.mul(f, f), axis=1)
    sq = ad.sub(ad.add(ad.reshape(norms, (num, 1)), ad.reshape(norms, (1, num))),
                ad.mul(ad.gram(f), 2.0))
    kernel = ad.exp(ad.mul(sq, -1.0 / (2.0 * config.sigma ** 2)))
    kernel = ad.clip(kernel, CLAMP_EPS, 1.0 - CLAMP_EPS)
    terms = ad.add(ad.mul(ad.log(kernel), p), ad.mul(ad.log(ad.sub(1.0, kernel)), q))
    return ad.mul(ad.summation(terms), -1.0 / pairs)


def neca_loss(net: HetNet, fused: np.ndarray, config: RunConfig) -> float:
    """Mean binary cross-entropy between kernel similarities and impacting strengths."""
    return float(_loss_var(net, ad.Var(fused), config).value)


def forward_loss(net: HetNet, params: dict[str, np.ndarray], config: RunConfig):
    """One differentiable forward pass; returns (loss Var, forward state, param Vars)."""
    pvars = wrap_params(params)
    fw = forward_fused(net, pvars, config)
    return _loss_var(net, fw.fused, config), fw, pvars


def gradients(net: HetNet, params: dict[str, np.ndarray], config: RunConfig):
    """One forward and backward pass: (loss, (beta_inter, beta_intra), gradients).

    The gradients are exact reverse-mode gradients of the loss for every
    parameter tensor.  No forward state is returned, so the tape is freed
    before the next pass.  A non-finite loss or gradient raises
    ``TrainingError`` naming it.
    """
    loss, fw, pvars = forward_loss(net, params, config)
    if not np.isfinite(loss.value):
        raise TrainingError("loss is not finite")
    ad.backward(loss)
    grads = {}
    for name in pvars:
        g = pvars[name].grad
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"gradient for tensor {name!r} is not finite")
        grads[name] = g
    return float(loss.value), (float(fw.beta_inter.value), float(fw.beta_intra.value)), grads


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              m: dict[str, np.ndarray], v: dict[str, np.ndarray],
              config: RunConfig, t: int) -> None:
    """Standard bias-corrected Adam update of ``params`` and the moments ``m``
    and ``v``, in place; t counts from 1."""
    if t < 1:
        raise TrainingError("adam step index starts at 1")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, tensor in params.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1 ** t)
        v_hat = v[name] / (1.0 - b2 ** t)
        tensor -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(net: HetNet, config: RunConfig,
          log_fn=None) -> tuple[dict[str, np.ndarray], EmbeddingTable, TrainReport]:
    """Full-batch training until convergence or the epoch cap.

    Stops when the relative loss change drops below ``tol``.  ``log_fn``,
    when given, receives (epoch, loss, beta_inter, beta_intra) once per epoch.
    """
    params = init_params(net.node_set.total, config)
    m = {name: np.zeros_like(tensor) for name, tensor in params.items()}
    v = {name: np.zeros_like(tensor) for name, tensor in params.items()}
    history: list[float] = []
    prev = None
    stop = "max_epochs"
    for epoch in range(1, config.epochs + 1):
        try:
            loss, betas, grads = gradients(net, params, config)
        except TrainingError as exc:
            raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
        history.append(loss)
        if log_fn is not None:
            log_fn(epoch, loss, *betas)
        adam_step(params, grads, m, v, config, epoch)
        if prev is not None and abs(loss - prev) / max(abs(prev), 1e-12) < config.tol:
            stop = "converged"
            break
        prev = loss
    table = compute_table(net, params, config)
    return params, table, TrainReport(loss_history=history, stop_reason=stop)
