"""Training loop: cross-attribute proximity loss, exact gradients, Adam.

The loss compares, for every directed cross-attribute neighbor pair (u, v),
the Gaussian-kernel similarity of the fused embeddings against the impacting
strength p(v|u), the target node's edge weight renormalized over its
neighborhood, under a binary cross-entropy.  The graph holds both: the pairs
in ``HetNet.pairs["inter"]`` and p, one value per pair, in ``HetNet.impact``.
The loss is one tape op, ``autodiff.kernel_bce``, evaluated at the E
directed pairs only.

Gradients for every parameter tensor come from the reverse-mode tape in
``autodiff``, a tree of four ops over the seven parameters: ``backward``
walks it from the loss, each op returns its inputs' gradients and is freed
once it has run, and the gradients add up at the parameters.  Optimization
is plain full-batch Adam with bias correction.
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


def _loss_var(net: HetNet, fused: ad.Var, config: RunConfig) -> ad.Var:
    num = net.node_set.total
    if fused.value.ndim != 2 or fused.shape[0] != num:
        raise TrainingError(f"fused embedding has shape {fused.shape}, "
                            f"expected ({num}, d) for the {num} nodes of the graph")
    return ad.kernel_bce(fused, net.pairs["inter"], net.impact, config.sigma, CLAMP_EPS)


def neca_loss(net: HetNet, fused: np.ndarray, config: RunConfig) -> float:
    """Mean binary cross-entropy between kernel similarities and impacting strengths."""
    return float(_loss_var(net, ad.Var(fused), config).value)


def forward_loss(net: HetNet, params: dict[str, np.ndarray], config: RunConfig):
    """One differentiable forward pass; returns (loss Var, (beta_inter, beta_intra), param Vars)."""
    pvars = wrap_params(params)
    fused, betas = forward_fused(net, pvars)
    return _loss_var(net, fused, config), betas, pvars


def gradients(net: HetNet, params: dict[str, np.ndarray], config: RunConfig):
    """One forward and backward pass: (loss, (beta_inter, beta_intra), gradients).

    The gradients are exact reverse-mode gradients of the loss for every
    parameter tensor.  The backward pass walks the tape's tree from the loss
    and frees each op's saved state once its backward has run, so the
    cross-attribute layer's (K, |V|, |V|) attention weights are gone before
    the within-attribute layer's backward starts, and the two never share
    the peak.  Nothing of the tape outlives the call.  A non-finite loss or
    gradient raises ``TrainingError`` naming it.
    """
    loss, betas, pvars = forward_loss(net, params, config)
    if not np.isfinite(loss.value):
        raise TrainingError("loss is not finite")
    ad.backward(loss)
    grads = {}
    for name in pvars:
        g = pvars[name].grad
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"gradient for tensor {name!r} is not finite")
        grads[name] = g
    return float(loss.value), betas, grads


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
    table = compute_table(net, params)
    return params, table, TrainReport(loss_history=history, stop_reason=stop)
