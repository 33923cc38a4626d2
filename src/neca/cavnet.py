"""Weighted heterogeneous networks over categorical attribute values.

Every (attribute, value) pair observed in a CAD becomes a CAV node.  Two
edge sets are built over the node universe:

* cross-attribute edges weighted by co-occurrence counts, softmax-normalized
  over the whole edge set;
* within-attribute edges weighted by an information-style affinity
  n / (g(u) + g(v)), plus one randomly sampled cross-attribute connectivity
  edge per node (small constant affinity beta) so the network is connected,
  again softmax-normalized over the whole edge set.

The softmax runs over every edge of a network, so raw scores are retained on
each edge and neighborhoods are defined structurally (by edge existence),
never by floating-point weight positivity.  A ``HetNet`` expands each
network's edges into directed pairs sorted by target once, when it is made:
the neighborhoods attention runs over.  Beside them it keeps the impacting
strengths p(v|u) the loss reads, the cross-attribute weights renormalized
over each neighborhood.  It takes them from the raw scores, which equals
renormalizing the weights without the underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .dataset import CAD


class GraphError(Exception):
    """Contract violation while building or querying a network."""


@dataclass
class CavNodeSet:
    """Node-id layout of the CAV universe: attribute-major, then domain order.

    Node ``offsets[j] + l`` is value ``domains[j][l]``; ``offsets[-1]`` is |V|.
    """

    domains: tuple[tuple[str, ...], ...]
    attribute_names: tuple[str, ...]
    offsets: np.ndarray         # (m + 1,) first node id of each attribute, then |V|
    ids: np.ndarray             # (n, m) node id of every cell of the CAD
    counts: np.ndarray          # occurrences g(node) in the CAD
    attr_of: np.ndarray         # node id -> attribute index

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    def qualified(self, node_id: int) -> str:
        j = int(self.attr_of[node_id])
        return f"{self.attribute_names[j]}={self.domains[j][node_id - self.offsets[j]]}"


def build_node_set(cad: CAD) -> CavNodeSet:
    """One node per (attribute, domain token), attribute-major, domain order."""
    sizes = [len(d) for d in cad.domains]
    offsets = np.zeros(cad.m + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(sizes)
    ids = cad.codes + offsets[:-1]
    counts = np.bincount(ids.ravel(), minlength=offsets[-1])
    attr_of = np.repeat(np.arange(cad.m, dtype=np.int64), sizes)
    return CavNodeSet(cad.domains, cad.attribute_names, offsets, ids, counts, attr_of)


def stable_softmax(raw: np.ndarray) -> np.ndarray:
    """Softmax computed in log-space with max-subtraction (shift-invariant)."""
    shifted = raw - raw.max()
    e = np.exp(shifted)
    return e / e.sum()


WITHIN = 0
CONNECTIVITY = 1

_KIND_NAMES = {None: "inter", WITHIN: "within", CONNECTIVITY: "connectivity"}

NETWORKS = ("inter", "intra")


@dataclass
class EdgeSet:
    """Undirected edges stored once with u < v, sorted by (u, v)."""

    u: np.ndarray
    v: np.ndarray
    raw: np.ndarray
    weight: np.ndarray
    kind: np.ndarray | None = None   # intra only: WITHIN or CONNECTIVITY

    def __len__(self) -> int:
        return len(self.u)

    def kind_name(self, i: int) -> str:
        return _KIND_NAMES[None if self.kind is None else int(self.kind[i])]


def build_inter_network(cad: CAD, nodes: CavNodeSet) -> EdgeSet:
    """Cross-attribute edges for every co-occurring value pair, sorted by (u, v).

    Edge weights are the softmax of the co-occurrence counts over the whole
    edge set; raw counts are retained.  Ids are attribute-major, so one bincount
    per attribute, of its values against every later node, counts its pairs in order.
    """
    if cad.m < 2:
        raise GraphError("inter network requires >= 2 attributes")
    ids, offsets, num = nodes.ids, nodes.offsets, nodes.total
    keys, counts = [], []
    for a in range(cad.m - 1):
        count = np.bincount(((ids[:, a, None] - offsets[a]) * num + ids[:, a + 1:]).ravel())
        hit = np.flatnonzero(count)
        keys.append(hit + offsets[a] * num)
        counts.append(count[hit])
    key, raw = np.concatenate(keys), np.concatenate(counts).astype(np.float64)
    return EdgeSet(key // num, key % num, raw, stable_softmax(raw))


def build_intra_network(cad: CAD, nodes: CavNodeSet, beta: float = 0.01,
                        seed: int = 0) -> EdgeSet:
    """Within-attribute cliques plus one random connectivity edge per node.

    Clique edges get the affinity n / (g(u) + g(v)).  For each node a
    foreign attribute is chosen uniformly, then a value node within it;
    duplicate draws collapse to a single edge of affinity ``beta``.
    Affinities are softmax-normalized over the whole intra edge set.
    """
    if cad.m < 2:
        raise GraphError("intra network requires >= 2 attributes")
    offsets, num = nodes.offsets, nodes.total
    cliques = [np.triu_indices(len(d), 1) for d in cad.domains]
    u = np.concatenate([a + offsets[j] for j, (a, _) in enumerate(cliques)])
    v = np.concatenate([b + offsets[j] for j, (_, b) in enumerate(cliques)])
    within = u * num + v
    affinity = cad.n / (nodes.counts[u] + nodes.counts[v]).astype(np.float64)
    rng = np.random.default_rng(seed)
    drawn = set()
    for node_id in range(nodes.total):
        j = int(nodes.attr_of[node_id])
        foreign = [jj for jj in range(cad.m) if jj != j]
        jj = foreign[rng.integers(len(foreign))]
        other = int(offsets[jj] + rng.integers(len(cad.domains[jj])))
        drawn.add(node_id * num + other if node_id < other else other * num + node_id)
    # connectivity edges cross attributes, so they never repeat a clique edge
    connect = np.fromiter(drawn, np.int64, len(drawn))
    key = np.concatenate([within, connect])
    order = np.argsort(key)
    key, raw = key[order], np.concatenate([affinity, np.full(len(connect), beta)])[order]
    kind = np.concatenate([np.full(len(within), WITHIN, np.int8),
                           np.full(len(connect), CONNECTIVITY, np.int8)])[order]
    return EdgeSet(key // num, key % num, raw, stable_softmax(raw), kind)


@dataclass
class HetNet:
    """The two weighted networks over one CAV node set, with their directed pairs.

    ``pairs`` holds each network's edges expanded both ways and sorted by
    (target, source), the neighborhoods its attention runs over; ``impact``
    holds p(v|u) of each cross-attribute pair in ``pairs["inter"]`` order.
    Both are built from the edges when the graph is made, and an isolated
    node, which has no neighborhood, is an error.
    """

    node_set: CavNodeSet
    inter: EdgeSet
    intra: EdgeSet
    rng_seed: int
    pairs: dict[str, ad.Neighborhoods] = field(init=False, repr=False, compare=False)
    impact: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pairs = {}
        for which in NETWORKS:
            e = self.edges(which)
            nbhd = ad.neighborhoods(np.concatenate([e.u, e.v]), np.concatenate([e.v, e.u]),
                                    self.node_set.total)
            if not nbhd.counts.all():
                isolated = self.node_set.qualified(int(np.argmin(nbhd.counts)))
                raise GraphError(f"isolated node {isolated} in {which} network")
            self.pairs[which] = nbhd
        inter = self.pairs["inter"]
        raw = np.concatenate([self.inter.raw, self.inter.raw])[None, inter.order]
        self.impact = ad.segment_softmax(raw, inter)[0]

    def edges(self, which: str) -> EdgeSet:
        if which == "inter":
            return self.inter
        if which == "intra":
            return self.intra
        raise GraphError(f"unknown network {which!r}")


def build_hetnet(cad: CAD, beta: float = 0.01, seed: int = 0) -> HetNet:
    nodes = build_node_set(cad)
    return HetNet(
        node_set=nodes,
        inter=build_inter_network(cad, nodes),
        intra=build_intra_network(cad, nodes, beta=beta, seed=seed),
        rng_seed=seed,
    )


def export_edge_list(net: HetNet, which: str) -> str:
    """Tab-separated rows: u_token, v_token, raw, weight, kind.

    Tokens are attribute-qualified ("Attr=value") so they identify nodes
    unambiguously; rows are sorted by (u id, v id).
    """
    edges = net.edges(which)
    lines = []
    for i in range(len(edges)):
        lines.append("\t".join([
            net.node_set.qualified(int(edges.u[i])),
            net.node_set.qualified(int(edges.v[i])),
            repr(float(edges.raw[i])),
            repr(float(edges.weight[i])),
            edges.kind_name(i),
        ]))
    return "\n".join(lines) + "\n"
