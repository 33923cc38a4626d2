"""Internal cluster-validity indices against held-out class labels.

Both indices use Euclidean distance.  The silhouette index is the macro
average (mean over classes of the per-class mean of s(x)); the micro average
(mean over all objects) is available as an option.  Singleton-class objects
get s(x) = 0, and when an object's a and b are both 0 (coincident points)
s(x) = 0 as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SILHOUETTE_BLOCK = 256   # distance-matrix rows held at a time


class EvaluationError(Exception):
    """Undefined index or inconsistent inputs."""


@dataclass
class LabeledEmbedding:
    """An n-by-width real matrix with one class token per row."""

    vectors: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = tuple(self.labels)
        if self.vectors.ndim != 2:
            raise EvaluationError("vectors must be a 2-d matrix")
        if len(self.labels) != self.vectors.shape[0]:
            raise EvaluationError("one label required per row")
        code = {c: k for k, c in enumerate(dict.fromkeys(self.labels))}
        self.classes = tuple(code)
        self.label_idx = np.array([code[lab] for lab in self.labels], dtype=np.int64)
        self.members = [np.flatnonzero(self.label_idx == k) for k in range(len(code))]

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def t(self) -> int:
        return len(self.classes)


def calinski_harabasz(emb: LabeledEmbedding) -> float:
    """Between-class over within-class scatter ratio; larger is better.

    Returns +inf when the within-class scatter is exactly zero (degenerate
    perfect separation).
    """
    if emb.t < 2 or emb.n <= emb.t:
        raise EvaluationError("CH undefined: requires 2 <= T < n")
    center = emb.vectors.mean(axis=0)
    between = 0.0
    within = 0.0
    for idx in emb.members:
        pts = emb.vectors[idx]
        centroid = pts.mean(axis=0)
        between += len(idx) * float(np.sum((centroid - center) ** 2))
        within += float(np.sum((pts - centroid) ** 2))
    between /= emb.t - 1
    within /= emb.n - emb.t
    if within == 0.0:
        return float("inf")
    return between / within


def _class_distance_sums(emb: LabeledEmbedding) -> np.ndarray:
    """(n, T) sums of Euclidean distances from each object to each class.

    Streams row blocks of the upper triangle of the distance matrix
    (quadratic expansion) and multiplies each block, and its transpose, by
    the n-by-T class indicator matrix, so memory is O(block * n + n * T)
    rather than O(n^2) and each distance is computed once.
    """
    x = emb.vectors
    blocks = [(lo, min(lo + _SILHOUETTE_BLOCK, emb.n))
              for lo in range(0, emb.n, _SILHOUETTE_BLOCK)]
    sq = np.concatenate([np.sum(x[lo:hi] * x[lo:hi], axis=1) for lo, hi in blocks])
    indicator = np.zeros((emb.n, emb.t))
    indicator[np.arange(emb.n), emb.label_idx] = 1.0
    sums = np.zeros((emb.n, emb.t))
    for lo, hi in blocks:
        gram = x[lo:hi] @ x[lo:].T
        gram *= 2.0
        d2 = sq[lo:hi, None] + sq[None, lo:]
        d2 -= gram
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2, out=d2)
        dist[np.arange(hi - lo), np.arange(hi - lo)] = 0.0
        sums[lo:hi] += dist @ indicator[lo:]
        sums[hi:] += dist[:, hi - lo:].T @ indicator[lo:hi]
    return sums


def silhouette_samples(emb: LabeledEmbedding) -> np.ndarray:
    """Per-object s(x) = (b - a) / max(a, b), with the singleton rule s = 0."""
    if emb.t < 2:
        raise EvaluationError("silhouette undefined for a single class")
    sums = _class_distance_sums(emb)
    sizes = np.bincount(emb.label_idx, minlength=emb.t).astype(np.float64)
    rows = np.arange(emb.n)
    own_size = sizes[emb.label_idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, emb.label_idx] / (own_size - 1.0)
    mean_to = sums / sizes
    mean_to[rows, emb.label_idx] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    zero = (own_size <= 1) | (denom == 0.0)   # singleton class, or a = b = 0
    s = np.zeros(emb.n)
    s[~zero] = (b[~zero] - a[~zero]) / denom[~zero]
    return s


def silhouette(emb: LabeledEmbedding, average: str = "macro") -> float:
    """Macro-averaged silhouette index in [-1, 1] (micro available)."""
    s = silhouette_samples(emb)
    if average == "micro":
        return float(s.mean())
    if average != "macro":
        raise EvaluationError(f"unknown average {average!r}")
    per_class = [float(s[idx].mean()) for idx in emb.members]
    return float(np.mean(per_class))


INDICES = {"ch": calinski_harabasz, "s": silhouette}


@dataclass
class ComparisonRow:
    index: str          # "ch" or "s"
    method: str
    value: float
    rank: int           # 1 = best within the index, 2 = second best
    degenerate: bool    # CH infinity sentinel


def evaluate_all(embeddings: dict[str, LabeledEmbedding],
                 indices: tuple[str, ...] = ("ch", "s")) -> list[ComparisonRow]:
    """Score every method on every index; rank best and second best per index."""
    methods = list(embeddings)
    if not methods:
        raise EvaluationError("no embeddings to evaluate")
    label_sets = {embeddings[m].labels for m in methods}
    if len(label_sets) != 1:
        raise EvaluationError("all embeddings must share the same labels")
    unknown = [index for index in indices if index not in INDICES]
    if unknown:
        raise EvaluationError(f"unknown index {unknown[0]!r} (choose from {', '.join(INDICES)})")
    rows: list[ComparisonRow] = []
    for index in indices:
        values = {m: INDICES[index](embeddings[m]) for m in methods}
        ordered = sorted(methods, key=lambda m: values[m], reverse=True)
        for m in methods:
            pos = ordered.index(m) + 1
            rows.append(ComparisonRow(
                index=index,
                method=m,
                value=values[m],
                rank=pos if pos <= 2 else 0,
                degenerate=bool(np.isinf(values[m])),
            ))
    return rows


def format_rows(rows: list[ComparisonRow]) -> str:
    """Aligned text table: one line per index, one column per method.

    The best value per index is marked '*', the second best '+' (mirroring
    the usual bold/underline convention in results tables).
    """
    methods = list(dict.fromkeys(r.method for r in rows))
    indices = list(dict.fromkeys(r.index for r in rows))
    width = max(12, max(len(m) for m in methods) + 3)
    lines = ["index  " + "".join(m.rjust(width) for m in methods)]
    by_key = {(r.index, r.method): r for r in rows}
    for index in indices:
        cells = []
        for m in methods:
            r = by_key[(index, m)]
            mark = "*" if r.rank == 1 else ("+" if r.rank == 2 else " ")
            cells.append(f"{r.value:.4g}{mark}".rjust(width))
        lines.append(f"{index:<7}" + "".join(cells))
    return "\n".join(lines)
