"""Reference implementations the package's stages are tested against.

The coded CAD pipeline: the string-record loops the package used before it
coded a CAD as an integer matrix; every stage walks the records and
re-hashes (attribute, token) for each cell.  Tests compare the vectorized
stages in ``neca`` against them byte for byte.

The model and loss: the one-node-at-a-time operations, the edge-list
forward pass (one head at a time, gathering each directed pair and
scattering with ``np.add.at``) and the per-pair loss that the dense,
head-batched tape path replaced.  Their sums run in another order, so tests
compare against them to a relative tolerance.

Graph I/O: each edge expanded both ways from the edge set alone, the
sorted neighbor lists of each node, a parser for the exported edge list and
a CSV writer for a CAD.

The embedding file: a reader that calls ``float`` on every token of every
line, in file order, that the run-matching reader is compared against.

The silhouette's class distance sums: the serial walk over the upper
triangle's tiles, adding each tile's products to the sums as it goes.  The
tile rows on worker threads must give the same bytes.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Mapping

import numpy as np

from neca.cavnet import CONNECTIVITY, WITHIN, GraphError, stable_softmax
from neca.cli import StageError
from neca.dataset import DatasetError
from neca.evaluation import _SILHOUETTE_BLOCK
from neca.model import ELU_ALPHA, LEAKY_SLOPE
from neca.training import CLAMP_EPS, TrainingError


class ModelError(Exception):
    """Shape mismatch or structural contract violation in a model oracle."""


def records(cad) -> tuple[tuple[str, ...], ...]:
    """The code matrix of ``cad`` decoded to one tuple of tokens per record."""
    columns = [np.array(d, dtype=object)[cad.codes[:, j]] for j, d in enumerate(cad.domains)]
    return tuple(zip(*columns)) if columns else ((),) * cad.n


def id_for(nodes, attr: int, token: str) -> int:
    """Node id of ``token`` in attribute ``attr`` of a ``CavNodeSet``."""
    return int(nodes.offsets[attr]) + nodes.domains[attr].index(token)


def observed_domains(records, m: int) -> tuple[tuple[str, ...], ...]:
    domains = [dict() for _ in range(m)]  # dict preserves first-appearance order
    for rec in records:
        for j, tok in enumerate(rec):
            domains[j].setdefault(tok, None)
    return tuple(tuple(d) for d in domains)


def impute_modes(records, names, missing_token: str = "?") -> list[tuple[str, ...]]:
    """Records with each missing token replaced by its column's first-appearing mode."""
    columns = []
    for j in range(len(names)):
        col = [rec[j] for rec in records]
        present = [t for t in col if t != missing_token]
        if not col.count(missing_token):
            columns.append(col)
            continue
        if not present:
            raise DatasetError(f"attribute {names[j]!r}: all values missing, no mode")
        counts = Counter(present)
        best = max(counts.values())
        mode = next(t for t in present if counts[t] == best)
        columns.append([mode if t == missing_token else t for t in col])
    return list(zip(*columns)) if columns else [() for _ in records]


class NodeIndex:
    """(attribute, token) -> node id, attribute-major then domain order, with counts."""

    def __init__(self, records, domains):
        self.index_of = {}
        attrs = []
        for j, domain in enumerate(domains):
            for token in domain:
                self.index_of[(j, token)] = len(attrs)
                attrs.append(j)
        self.attr_of = np.array(attrs, dtype=np.int64)
        self.counts = np.zeros(len(attrs), dtype=np.int64)
        for rec in records:
            for j, token in enumerate(rec):
                self.counts[self.index_of[(j, token)]] += 1
        self.total = len(attrs)


def co_occurrence(records, u: tuple[int, str], v: tuple[int, str]) -> int:
    """Number of records taking (attr, token) u and (attr, token) v."""
    if u[0] == v[0]:
        raise GraphError("co-occurrence requires nodes of different attributes")
    return sum(1 for rec in records if rec[u[0]] == u[1] and rec[v[0]] == v[1])


def intra_affinity(nodes, n: int, u: int, v: int, beta: float) -> float:
    """Raw within-network affinity: n/(g(u)+g(v)) same attribute, beta otherwise."""
    if u == v:
        raise GraphError("affinity requires two distinct nodes")
    if nodes.attr_of[u] == nodes.attr_of[v]:
        return n / float(nodes.counts[u] + nodes.counts[v])
    return beta


def _finalize_edges(pairs: dict, kinds: dict | None = None):
    order = sorted(pairs)
    u = np.array([p[0] for p in order], dtype=np.int64)
    v = np.array([p[1] for p in order], dtype=np.int64)
    raw = np.array([pairs[p] for p in order], dtype=np.float64)
    kind = None
    if kinds is not None:
        kind = np.array([kinds[p] for p in order], dtype=np.int8)
    return u, v, raw, stable_softmax(raw), kind


def inter_edges(records, nodes: NodeIndex):
    """(u, v, raw, weight, None) of the co-occurrence network."""
    counts: Counter = Counter()
    for rec in records:
        ids = [nodes.index_of[(j, tok)] for j, tok in enumerate(rec)]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                x, y = ids[a], ids[b]
                counts[(x, y) if x < y else (y, x)] += 1
    return _finalize_edges(dict(counts))


def intra_edges(records, domains, nodes: NodeIndex, beta: float, seed: int):
    """(u, v, raw, weight, kind) of the clique-plus-connectivity network."""
    n, m = len(records), len(domains)
    pairs: dict = {}
    kinds: dict = {}
    offsets = np.concatenate([[0], np.cumsum([len(d) for d in domains])])
    for j, domain in enumerate(domains):
        base = offsets[j]
        for a in range(len(domain)):
            for b in range(a + 1, len(domain)):
                key = (base + a, base + b)
                pairs[key] = intra_affinity(nodes, n, *key, beta)
                kinds[key] = WITHIN
    rng = np.random.default_rng(seed)
    for node_id in range(nodes.total):
        j = int(nodes.attr_of[node_id])
        foreign = [jj for jj in range(m) if jj != j]
        jj = foreign[rng.integers(len(foreign))]
        other = int(offsets[jj] + rng.integers(len(domains[jj])))
        key = (node_id, other) if node_id < other else (other, node_id)
        if key not in pairs:
            pairs[key] = beta
            kinds[key] = CONNECTIVITY
    return _finalize_edges(pairs, kinds)


def onehot(records, nodes: NodeIndex) -> np.ndarray:
    vectors = np.zeros((len(records), nodes.total))
    for i, rec in enumerate(records):
        for j, token in enumerate(rec):
            vectors[i, nodes.index_of[(j, token)]] = 1.0
    return vectors


def frequency(records, nodes: NodeIndex) -> np.ndarray:
    n = len(records)
    vectors = np.empty((n, len(records[0])))
    for i, rec in enumerate(records):
        for j, token in enumerate(rec):
            vectors[i, j] = np.log(n / nodes.counts[nodes.index_of[(j, token)]])
    return vectors


def assemble(records, nodes: NodeIndex, fused: np.ndarray) -> np.ndarray:
    width = fused.shape[1]
    out = np.empty((len(records), len(records[0]) * width))
    for i, rec in enumerate(records):
        for j, token in enumerate(rec):
            out[i, j * width:(j + 1) * width] = fused[nodes.index_of[(j, token)]]
    return out


def save_csv(cad, path, label_name: str = "label") -> None:
    """Write a CAD back to CSV (features plus the label column if present)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if cad.labels is None:
            writer.writerow(cad.attribute_names)
            writer.writerows(records(cad))
        else:
            writer.writerow(cad.attribute_names + (label_name,))
            writer.writerows(rec + (label,) for rec, label in zip(records(cad), cad.labels))


# ---------------------------------------------------------------------------
# Graph structure and the exported edge list

def directed_pairs(net, which: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected edge of one network both ways: (target, source, edge index)."""
    e = net.edges(which)
    both = np.arange(2 * len(e)) % len(e)
    return np.concatenate([e.u, e.v]), np.concatenate([e.v, e.u]), both


def adjacency(net, which: str) -> list[np.ndarray]:
    """Sorted neighbor ids of every node of one network."""
    tgt, src, _ = directed_pairs(net, which)
    order = np.lexsort((src, tgt))
    bounds = np.cumsum(np.bincount(tgt, minlength=net.node_set.total))[:-1]
    return np.split(src[order], bounds)


def read_edge_list(path) -> list[tuple[str, str, float, float, str]]:
    """Parse an exported edge list back into (u, v, raw, weight, kind) rows."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        u, v, raw, weight, kind = line.split("\t")
        rows.append((u, v, float(raw), float(weight), kind))
    return rows


def read_embedding(path) -> np.ndarray:
    """The embedding file's matrix, one ``float`` per token, one line at a time.

    Blank lines are skipped.  The first line that is not the header's width
    of numbers raises the ``StageError`` that ``neca.cli.read_embedding``
    raises for it.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "object_id":
            raise StageError("eval", f"{path} is not an embedding file")
        width = len(header) - 1
        for k, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")[1:]
            if len(tokens) != width:
                raise StageError("eval", f"{path}, line {k}: {len(tokens)} values, "
                                         f"header has {width}")
            row = []
            for token in tokens:
                try:
                    row.append(float(token))
                except ValueError:
                    raise StageError("eval", f"{path}, line {k}: {token!r} is not a number") \
                        from None
            rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


# ---------------------------------------------------------------------------
# Model and loss

def init_node_features(nodes) -> np.ndarray:
    """One-hot features: node i gets the i-th standard basis vector."""
    return np.eye(nodes.total)


def neighbor_weights(logits: Mapping) -> dict:
    """Softmax of attention logits over one target's neighborhood."""
    if not logits:
        raise ModelError("isolated node: empty neighborhood")
    keys = list(logits)
    vals = np.array([logits[k] for k in keys], dtype=np.float64)
    e = np.exp(vals - vals.max())
    w = e / e.sum()
    return dict(zip(keys, w))


def fusion_weights(gamma_inter: float, gamma_intra: float) -> tuple[float, float]:
    """Two-way softmax over the importance scores."""
    shift = max(gamma_inter, gamma_intra)
    e1, e2 = np.exp(gamma_inter - shift), np.exp(gamma_intra - shift)
    return float(e1 / (e1 + e2)), float(e2 / (e1 + e2))


def fuse(e: np.ndarray, a: np.ndarray, beta_inter: float, beta_intra: float) -> np.ndarray:
    if abs(beta_inter + beta_intra - 1.0) > 1e-9:
        raise ModelError("fusion weights must sum to 1")
    return beta_inter * e + beta_intra * a


def gaussian_similarity(f_u: np.ndarray, f_v: np.ndarray, sigma: float) -> float:
    """exp(-||f_u - f_v||^2 / (2 sigma^2)), in (0, 1]."""
    d = np.asarray(f_u, dtype=np.float64) - np.asarray(f_v, dtype=np.float64)
    return float(np.exp(-(d @ d) / (2.0 * sigma * sigma)))


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


def aggregate(weights, projections, elu_alpha: float = 1.0) -> np.ndarray:
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


def impacting_strength(net, target: int, neighbor: int) -> float:
    """p(neighbor | target): target's edge weight renormalized over its neighborhood."""
    neigh = adjacency(net, "inter")[target]
    pos = np.searchsorted(neigh, neighbor)
    if pos >= len(neigh) or neigh[pos] != neighbor:
        raise TrainingError(f"node {neighbor} is not a cross-attribute neighbor of {target}")
    lookup = {}
    for i in range(len(net.inter)):
        lookup[(int(net.inter.u[i]), int(net.inter.v[i]))] = net.inter.raw[i]
    raws = np.array([lookup[(min(target, nb), max(target, nb))] for nb in neigh])
    e = np.exp(raws - raws.max())
    return float(e[pos] / e.sum())


def _segment_softmax(logits: np.ndarray, seg: np.ndarray, num: int) -> np.ndarray:
    shift = np.full(num, -np.inf)
    np.maximum.at(shift, seg, logits)
    e = np.exp(logits - shift[seg])
    denom = np.zeros(num)
    np.add.at(denom, seg, e)
    return e / denom[seg]


def network_embedding(net, which: str, params, config) -> np.ndarray:
    """Edge-list multi-head attention embedding of one network, (|V|, K*d)."""
    num = net.node_set.total
    for node_id, neigh in enumerate(adjacency(net, which)):
        if len(neigh) == 0:
            raise ModelError(f"isolated node {net.node_set.qualified(node_id)} in {which} network")
    tgt, src, _ = directed_pairs(net, which)
    d = config.head_dim
    heads = []
    for k in range(config.heads):
        h = params[f"w1.{which}"][k].T
        a_vec = params[f"attn.{which}"][k]
        z = (h @ a_vec[:d])[tgt] + (h @ a_vec[d:])[src]
        alpha = _segment_softmax(np.where(z >= 0, z, LEAKY_SLOPE * z), tgt, num)
        acc = np.zeros((num, d))
        np.add.at(acc, tgt, h[src] * alpha[:, None])
        heads.append(np.where(acc >= 0, acc,
                              ELU_ALPHA * (np.exp(np.minimum(acc, 0.0)) - 1.0)))
    return np.concatenate(heads, axis=1)


def fused_embedding(net, params, config) -> np.ndarray:
    """Both networks' edge-list embeddings fused by their importance scores."""
    e = network_embedding(net, "inter", params, config)
    a = network_embedding(net, "intra", params, config)
    betas = fusion_weights(importance_score(e, params["s"], params["w2"], params["b"]),
                           importance_score(a, params["s"], params["w2"], params["b"]))
    return fuse(e, a, *betas)


def neca_loss(net, fused: np.ndarray, config) -> float:
    """Mean BCE over the gathered directed cross-attribute pairs."""
    tgt, src, eidx = directed_pairs(net, "inter")
    p = _segment_softmax(net.inter.raw[eidx], tgt, net.node_set.total)
    diff = fused[tgt] - fused[src]
    kernel = np.exp(-(diff * diff).sum(axis=1) / (2.0 * config.sigma ** 2))
    kernel = np.clip(kernel, CLAMP_EPS, 1.0 - CLAMP_EPS)
    terms = np.log(kernel) * p + np.log(1.0 - kernel) * (1.0 - p)
    return float(-terms.sum() / len(tgt))


def class_distance_sums(emb) -> np.ndarray:
    """(n, T) sums of distances from each object to each class of a
    ``LabeledEmbedding``, one tile after another on the calling thread."""
    x = emb.points
    sq = np.sum(x * x, axis=1, keepdims=True)
    one = np.ones_like(sq)
    left = np.hstack([x, sq, one])
    right = np.hstack([-2.0 * x, one, sq])
    indicator = np.zeros((emb.n, emb.t))
    indicator[np.arange(emb.n), emb.label_idx] = 1.0
    sums = np.zeros((emb.n, emb.t))
    blocks = [slice(lo, lo + _SILHOUETTE_BLOCK) for lo in range(0, emb.n, _SILHOUETTE_BLOCK)]
    for i, rows in enumerate(blocks):
        for cols in blocks[i:]:
            dist = left[rows] @ right[cols].T
            np.maximum(dist, 0.0, out=dist)
            np.sqrt(dist, out=dist)
            if cols is rows:   # a diagonal tile holds both halves
                np.fill_diagonal(dist, 0.0)
                sums[rows] += dist @ indicator[rows]
            else:
                sums[rows] += dist @ indicator[cols]
                sums[cols] += dist.T @ indicator[rows]
    return sums
