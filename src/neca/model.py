"""Trainable embedding architecture over the two CAV networks.

Per network and per head: nodes are one-hot encoded, linearly projected,
and aggregated from their structural neighborhood with attention weights
(LeakyReLU logit over the concatenated target/neighbor projections, softmax
over the neighborhood, ELU on the weighted sum).  Head outputs are
concatenated.  The two per-network representations are fused by a learned
two-way softmax over dataset-level importance scores, and per-object vectors
are the in-order concatenation of the fused vectors of the object's values.

The differentiable forward pass is vectorized over directed edges (see
``autodiff``); the standalone operation functions below implement the same
arithmetic one node at a time and serve as the reference contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .cavnet import CavNodeSet, HetNet
from .dataset import CAD


class ModelError(Exception):
    """Shape mismatch or structural contract violation."""


NETWORKS = ("inter", "intra")


@dataclass
class NecaConfig:
    """Architecture hyperparameters; ``seed`` drives parameter initialization."""

    heads: int = 8
    head_dim: int = 8
    fusion_dim: int = 16
    leaky_slope: float = 0.2
    elu_alpha: float = 1.0
    include_self_loop: bool = False
    share_projections: bool = False   # one W1/attention set for both networks
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1 or self.fusion_dim < 1:
            raise ModelError("heads, head_dim and fusion_dim must be >= 1")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ModelError("leaky_slope must lie in (0, 1)")

    @property
    def cav_dim(self) -> int:
        return self.heads * self.head_dim


@dataclass
class NecaParams:
    """All trainable tensors.

    ``w1[net][k]`` has shape (head_dim, |V|) and maps one-hot node features
    into head k's space; ``attn[net][k]`` has length 2*head_dim and scores a
    concatenated (target, neighbor) projection pair.  ``w2``, ``b`` and ``s``
    parameterize the importance score used by the fusion weights.
    """

    w1: dict[str, list[np.ndarray]]
    attn: dict[str, list[np.ndarray]]
    w2: np.ndarray
    b: np.ndarray
    s: np.ndarray

    def named_tensors(self):
        """(name, tensor) pairs in a fixed canonical order.

        With shared projections only the "inter" tensors exist (and receive
        gradient contributions from both networks).
        """
        for net in self.w1:
            for k, t in enumerate(self.w1[net]):
                yield f"w1.{net}.{k}", t
        for net in self.attn:
            for k, t in enumerate(self.attn[net]):
                yield f"attn.{net}.{k}", t
        yield "w2", self.w2
        yield "b", self.b
        yield "s", self.s

    def get(self, name: str) -> np.ndarray:
        for n, t in self.named_tensors():
            if n == name:
                return t
        raise KeyError(name)

    def set(self, name: str, value: np.ndarray) -> None:
        parts = name.split(".")
        if parts[0] in ("w1", "attn"):
            getattr(self, parts[0])[parts[1]][int(parts[2])] = value
        else:
            setattr(self, parts[0], value)

    def copy(self) -> "NecaParams":
        return NecaParams(
            w1={net: [t.copy() for t in ts] for net, ts in self.w1.items()},
            attn={net: [t.copy() for t in ts] for net, ts in self.attn.items()},
            w2=self.w2.copy(), b=self.b.copy(), s=self.s.copy(),
        )


def init_params(num_nodes: int, config: NecaConfig) -> NecaParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] from the seeded generator."""
    rng = np.random.default_rng(config.seed)
    d, dp, kd = config.head_dim, config.fusion_dim, config.cav_dim
    nets = ("inter",) if config.share_projections else NETWORKS

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return NecaParams(
        w1={net: [draw((d, num_nodes), num_nodes) for _ in range(config.heads)]
            for net in nets},
        attn={net: [draw((2 * d,), 2 * d) for _ in range(config.heads)]
              for net in nets},
        w2=draw((dp, kd), kd),
        b=draw((dp,), kd),
        s=draw((dp,), dp),
    )


# ---------------------------------------------------------------------------
# Standalone operations (contract implementations, one node at a time)

def init_node_features(nodes: CavNodeSet) -> np.ndarray:
    """One-hot features: node i gets the i-th standard basis vector."""
    return np.eye(nodes.total)


def project(w1: np.ndarray, node_feature: np.ndarray) -> np.ndarray:
    if w1.shape[1] != node_feature.shape[0]:
        raise ModelError(f"projection shape mismatch: {w1.shape} vs {node_feature.shape}")
    return w1 @ node_feature


def attention_logit(a_vec: np.ndarray, h_target: np.ndarray, h_neighbor: np.ndarray,
                    slope: float = 0.2) -> float:
    """LeakyReLU(a_vec . [h_target || h_neighbor]); the target comes first."""
    if a_vec.shape[0] != h_target.shape[0] + h_neighbor.shape[0]:
        raise ModelError("attention vector length must equal both projections combined")
    z = float(a_vec @ np.concatenate([h_target, h_neighbor]))
    return z if z >= 0 else slope * z


def neighbor_weights(logits: Mapping) -> dict:
    """Softmax of attention logits over one target's neighborhood."""
    if not logits:
        raise ModelError("isolated node: empty neighborhood")
    keys = list(logits)
    vals = np.array([logits[k] for k in keys], dtype=np.float64)
    e = np.exp(vals - vals.max())
    w = e / e.sum()
    return dict(zip(keys, w))


def aggregate(weights: Mapping, projections: Mapping, elu_alpha: float = 1.0) -> np.ndarray:
    """ELU of the attention-weighted sum of neighbor projections."""
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-9:
        raise ModelError(f"neighbor weights sum to {total}, expected 1")
    acc = sum(weights[k] * np.asarray(projections[k], dtype=np.float64) for k in weights)
    return np.where(acc >= 0, acc, elu_alpha * (np.exp(np.minimum(acc, 0.0)) - 1.0))


def importance_score(vectors: np.ndarray, s: np.ndarray, w2: np.ndarray,
                     b: np.ndarray) -> float:
    """Mean over nodes of s . tanh(w2 @ v + b)."""
    return float(np.mean(np.tanh(vectors @ w2.T + b) @ s))


def fusion_weights(gamma_inter: float, gamma_intra: float) -> tuple[float, float]:
    """Two-way softmax over the importance scores."""
    shift = max(gamma_inter, gamma_intra)
    e1, e2 = np.exp(gamma_inter - shift), np.exp(gamma_intra - shift)
    return float(e1 / (e1 + e2)), float(e2 / (e1 + e2))


def fuse(e: np.ndarray, a: np.ndarray, beta_inter: float, beta_intra: float) -> np.ndarray:
    if abs(beta_inter + beta_intra - 1.0) > 1e-9:
        raise ModelError("fusion weights must sum to 1")
    return beta_inter * e + beta_intra * a


def assemble_objects(cad: CAD, nodes: CavNodeSet, fused: np.ndarray) -> np.ndarray:
    """Per-object vectors: fused CAV vectors concatenated in attribute order."""
    if cad.domains != nodes.domains:
        raise ModelError("the CAD's attribute domains differ from the node set's")
    return fused[cad.codes + nodes.offsets[:-1]].reshape(cad.n, cad.m * fused.shape[1])


# ---------------------------------------------------------------------------
# Vectorized differentiable forward pass

def wrap_params(params: NecaParams) -> dict[str, Var]:
    return {name: Var(tensor) for name, tensor in params.named_tensors()}


def _check_no_isolated(net: HetNet, which: str) -> None:
    adj = net.inter_adj if which == "inter" else net.intra_adj
    for node_id, neigh in enumerate(adj):
        if len(neigh) == 0:
            raise ModelError(f"isolated node {net.node_set.qualified(node_id)} in {which} network")


def network_embedding(net: HetNet, which: str, pvars: dict[str, Var],
                      config: NecaConfig) -> Var:
    """Multi-head attention embedding of one network; returns (|V|, K*d)."""
    _check_no_isolated(net, which)
    num = net.node_set.total
    tgt, src, _ = net.directed_pairs(which)
    if config.include_self_loop:
        loop = np.arange(num)
        tgt = np.concatenate([tgt, loop])
        src = np.concatenate([src, loop])
    d = config.head_dim
    net_key = "inter" if config.share_projections else which
    heads = []
    for k in range(config.heads):
        h = ad.transpose(pvars[f"w1.{net_key}.{k}"])        # (|V|, d): row = projection
        a_vec = pvars[f"attn.{net_key}.{k}"]
        a_tgt = ad.slice_vec(a_vec, 0, d)
        a_src = ad.slice_vec(a_vec, d, 2 * d)
        logits = ad.leaky_relu(
            ad.add(ad.gather(ad.matmul(h, a_tgt), tgt), ad.gather(ad.matmul(h, a_src), src)),
            config.leaky_slope,
        )
        alpha = ad.segment_softmax(logits, tgt, num)
        msgs = ad.mul(ad.gather(h, src), ad.reshape(alpha, (len(tgt), 1)))
        heads.append(ad.elu(ad.segment_sum(msgs, tgt, num), config.elu_alpha))
    return ad.concat_cols(heads)


@dataclass
class ForwardVars:
    """Differentiable forward state up to the fused per-CAV matrix."""

    inter: Var
    intra: Var
    gamma_inter: Var
    gamma_intra: Var
    beta_inter: Var
    beta_intra: Var
    fused: Var


def forward_fused(net: HetNet, pvars: dict[str, Var], config: NecaConfig) -> ForwardVars:
    e = network_embedding(net, "inter", pvars, config)
    a = network_embedding(net, "intra", pvars, config)
    w2t = ad.transpose(pvars["w2"])

    def gamma(mat):
        scores = ad.matmul(ad.tanh(ad.add(ad.matmul(mat, w2t), pvars["b"])), pvars["s"])
        return ad.mean(scores)

    g_e, g_a = gamma(e), gamma(a)
    shift = max(float(g_e.value), float(g_a.value))
    ee, ea = ad.exp(ad.sub(g_e, shift)), ad.exp(ad.sub(g_a, shift))
    denom = ad.add(ee, ea)
    b_e, b_a = ad.div(ee, denom), ad.div(ea, denom)
    fused = ad.add(ad.mul(e, b_e), ad.mul(a, b_a))
    return ForwardVars(e, a, g_e, g_a, b_e, b_a, fused)


def embed_network(net: HetNet, which: str, params: NecaParams,
                  config: NecaConfig) -> np.ndarray:
    """Per-node K*d embeddings of one network (forward values only)."""
    return network_embedding(net, which, wrap_params(params), config).value


@dataclass
class EmbeddingTable:
    """Learned per-CAV vectors and assembled per-object vectors."""

    inter: np.ndarray
    intra: np.ndarray
    fused: np.ndarray
    gamma_inter: float
    gamma_intra: float
    beta_inter: float
    beta_intra: float
    objects: np.ndarray


def compute_table(cad: CAD, net: HetNet, params: NecaParams,
                  config: NecaConfig) -> EmbeddingTable:
    fw = forward_fused(net, wrap_params(params), config)
    return EmbeddingTable(
        inter=fw.inter.value,
        intra=fw.intra.value,
        fused=fw.fused.value,
        gamma_inter=float(fw.gamma_inter.value),
        gamma_intra=float(fw.gamma_intra.value),
        beta_inter=float(fw.beta_inter.value),
        beta_intra=float(fw.beta_intra.value),
        objects=assemble_objects(cad, net.node_set, fw.fused.value),
    )
