"""Trainable embedding architecture over the two CAV networks.

Per network and per head: nodes are one-hot encoded, linearly projected,
and aggregated from their structural neighborhood with attention weights
(LeakyReLU logit over the concatenated target/neighbor projections, softmax
over the neighborhood, ELU on the weighted sum).  Head outputs are
concatenated.  The two per-network representations are fused by a learned
two-way softmax over dataset-level importance scores, and per-object vectors
are the in-order concatenation of the fused vectors of the object's values.

The differentiable forward pass (see ``autodiff``) is one ``autodiff.gat``
op per network, which computes every head at once: it scores each node as a
target and as a neighbor, takes the softmax over the network's directed
pairs on the pairs alone, and aggregates with the (K, |V|, |V|) weights,
zero off the pairs, in one batched matrix product.  The pairs are the
graph's (``HetNet.pairs``), sorted by target when the graph is made.  One
``autodiff.fusion`` op blends the two networks' embeddings;
``forward_fused`` returns its fused ``Var``, which roots the tree of ops
below the loss, and the two fusion weights.  Each op's backward returns its
inputs' gradients, and the backward pass frees an op's saved state, the
attention weights included, as soon as that backward has run.  The
trainable tensors are one dict from name to array, the form the tape, Adam
and the gradients all use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .cavnet import NETWORKS, CavNodeSet, HetNet

LEAKY_SLOPE = 0.2   # negative slope of the attention-logit LeakyReLU, as in GAT
ELU_ALPHA = 1.0     # ELU alpha of the aggregated neighborhood


@dataclass
class RunConfig:
    """Every hyperparameter of a run: the model's, the training's and the graph's.

    ``seed`` drives parameter initialization; ``cli.run_pipeline`` also
    draws the graph's connectivity edges with it.  A field's name is also
    its flag (``--name-with-dashes``), its config-file key and its key in
    the metadata JSON; its ``help`` metadata is the flag's help text.
    """

    heads: int = field(default=8, metadata={"help": "attention heads K"})
    head_dim: int = field(default=8, metadata={"help": "width d of each head"})
    fusion_dim: int = field(default=16, metadata={"help": "width of the importance-score layer"})
    seed: int = field(default=0, metadata={"help": "master seed (graph sampling and init)"})
    lr: float = field(default=0.005, metadata={"help": "Adam learning rate"})
    epochs: int = field(default=200, metadata={"help": "epoch cap"})
    tol: float = field(default=1e-5, metadata={"help": "relative loss-change stop"})
    sigma: float = field(default=1.0, metadata={"help": "Gaussian kernel bandwidth"})
    beta_connect: float = field(default=0.01, metadata={"help": "connectivity-edge affinity"})

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1 or self.fusion_dim < 1:
            raise ValueError("heads, head_dim and fusion_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")
        if not np.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0 < self.beta_connect < np.inf:
            raise ValueError("beta_connect must be positive and finite")

    @property
    def cav_dim(self) -> int:
        return self.heads * self.head_dim


def init_params(num_nodes: int, config: RunConfig) -> dict[str, np.ndarray]:
    """All trainable tensors by name, uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    ``w1.<net>`` has shape (heads, head_dim, |V|): head k maps one-hot node
    features into its space with ``w1.<net>[k]``.  ``attn.<net>`` has shape
    (heads, 2*head_dim) and scores a concatenated (target, neighbor)
    projection pair.  ``w2``, ``b`` and ``s`` parameterize the importance
    score used by the fusion weights.  Tensors are drawn from the seeded
    generator in the dict's order, heads one after the other within each
    stacked tensor.
    """
    rng = np.random.default_rng(config.seed)
    k, d, dp, kd = config.heads, config.head_dim, config.fusion_dim, config.cav_dim

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = {f"w1.{net}": draw((k, d, num_nodes), num_nodes) for net in NETWORKS}
    params.update((f"attn.{net}", draw((k, 2 * d), 2 * d)) for net in NETWORKS)
    params.update(w2=draw((dp, kd), kd), b=draw((dp,), kd), s=draw((dp,), dp))
    return params


# ---------------------------------------------------------------------------
# Object assembly

def assemble_objects(nodes: CavNodeSet, fused: np.ndarray) -> np.ndarray:
    """Per-object vectors: fused CAV vectors concatenated in attribute order."""
    n, m = nodes.ids.shape
    return fused[nodes.ids].reshape(n, m * fused.shape[1])


# ---------------------------------------------------------------------------
# Differentiable forward pass

def wrap_params(params: dict[str, np.ndarray]) -> dict[str, Var]:
    return {name: Var(tensor) for name, tensor in params.items()}


def network_embedding(net: HetNet, which: str, pvars: dict[str, Var]) -> Var:
    """Multi-head attention embedding of one network over its directed pairs; (|V|, K*d)."""
    return ad.gat(pvars[f"w1.{which}"], pvars[f"attn.{which}"], net.pairs[which],
                  LEAKY_SLOPE, ELU_ALPHA)


def forward_fused(net: HetNet, pvars: dict[str, Var]) -> tuple[Var, tuple[float, float]]:
    """The fused (|V|, K*d) ``Var`` of both networks, and (beta_inter, beta_intra)."""
    inter, intra = (network_embedding(net, which, pvars) for which in NETWORKS)
    fused, _, betas = ad.fusion(inter, intra, pvars["w2"], pvars["b"], pvars["s"])
    return fused, betas


@dataclass
class EmbeddingTable:
    """Learned per-CAV vectors and assembled per-object vectors."""

    fused: np.ndarray
    beta_inter: float
    beta_intra: float
    objects: np.ndarray


def compute_table(net: HetNet, params: dict[str, np.ndarray]) -> EmbeddingTable:
    fused, (beta_inter, beta_intra) = forward_fused(net, wrap_params(params))
    return EmbeddingTable(
        fused=fused.value,
        beta_inter=beta_inter,
        beta_intra=beta_intra,
        objects=assemble_objects(net.node_set, fused.value),
    )
