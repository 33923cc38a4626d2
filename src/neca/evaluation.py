"""Internal cluster-validity indices against held-out class labels.

Both indices use Euclidean distance.  The silhouette index is the macro
average (mean over classes of the per-class mean of s(x)).  Singleton-class
objects get s(x) = 0, and when an object's a and b are both 0 (coincident
points) s(x) = 0 as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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


def silhouette(emb: LabeledEmbedding) -> float:
    """Macro-averaged silhouette index in [-1, 1]."""
    s = silhouette_samples(emb)
    per_class = [float(s[idx].mean()) for idx in emb.members]
    return float(np.mean(per_class))


INDICES = {"ch": calinski_harabasz, "s": silhouette}


@dataclass
class ComparisonRow:
    """One method's scores on one index, over all of the method's runs."""

    index: str            # a key of INDICES
    method: str
    values: list[float]   # one per run, in run order
    best: float
    median: float
    runs: int
    rank: int = 0         # 1..k within the index by best; ties keep method order


def evaluate_all(runs: Mapping[str, Iterable[LabeledEmbedding]],
                 indices: tuple[str, ...] = ("ch", "s")) -> list[ComparisonRow]:
    """Score every run of every method on every index, and rank the methods by best.

    Each embedding is scored on each index once, and each method's runs are
    taken one at a time, so a generator of runs holds one embedding at a time.
    Rows come method by method, each method's in ``indices`` order.
    """
    if not runs:
        raise EvaluationError("no embeddings to evaluate")
    unknown = [index for index in indices if index not in INDICES]
    if unknown:
        raise EvaluationError(f"unknown index {unknown[0]!r} (choose from {', '.join(INDICES)})")
    labels = None
    rows: list[ComparisonRow] = []
    for method, embeddings in runs.items():
        scores = []
        for emb in embeddings:
            if labels is None:
                labels = emb.labels
            elif emb.labels != labels:
                raise EvaluationError("all embeddings must share the same labels")
            scores.append([INDICES[index](emb) for index in indices])
        if not scores:
            raise EvaluationError(f"no embeddings to evaluate for {method!r}")
        for index, values in zip(indices, map(list, zip(*scores))):
            rows.append(ComparisonRow(index, method, values, max(values),
                                      float(np.median(values)), len(values)))
    for index in indices:
        ranked = sorted((row for row in rows if row.index == index), key=lambda row: -row.best)
        for rank, row in enumerate(ranked, 1):
            row.rank = rank
    return rows
