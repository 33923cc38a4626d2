"""Per-record reference implementations of the coded CAD pipeline.

These are the string-record loops the package used before it coded a CAD
as an integer matrix: every stage walks the records and re-hashes
(attribute, token) for each cell.  Tests compare the vectorized stages in
``neca`` against them byte for byte.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from neca.cavnet import CONNECTIVITY, WITHIN, GraphError, stable_softmax
from neca.dataset import DatasetError


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
