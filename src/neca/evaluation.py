"""Internal cluster-validity indices against held-out class labels.

Both indices use Euclidean distance.  The silhouette index is the macro
average (mean over classes of the per-class mean of s(x)).  Singleton-class
objects get s(x) = 0, and when an object's a and b are both 0 (coincident
points) s(x) = 0 as well.

As the indices see only distances, they run on a compaction of the matrix
that keeps every distance: ``factor_columns`` splits the columns
into runs, and a run of width w whose rows take k < w distinct values is
replaced by those rows rotated into a k-dimensional basis.  An assembled
embedding, one w-wide row per attribute value, then costs |V| columns
instead of m * w.

The silhouette never holds the n-by-n distance matrix.  It walks the upper
triangle in square tiles small enough to stay in cache; one BLAS product of
rows augmented with their squared norms gives each tile its squared
distances.  The tile rows run on worker threads, one per CPU that BLAS
leaves free, and the calling thread adds their class sums in the serial
order, so the result has the same bytes for any worker count.  Memory is
O(n * d + workers * (block^2 + n * T)) beside the (n, T) class sums.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping

import numpy as np

_SILHOUETTE_BLOCK = 256   # rows and columns of a distance-matrix tile
_FACTOR_ROWS = 1024       # rows factor_columns screens, and checks at a time
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class EvaluationError(Exception):
    """Undefined index or inconsistent inputs."""


def factor_columns(x: np.ndarray) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Runs ``(lo, hi, codes, first)`` of consecutive columns that cover ``x``.

    Each run is exact, bit for bit: ``x[:, lo:hi]`` equals
    ``x[first][codes, lo:hi]``, and ``codes`` takes every value below
    ``k = len(first)``.  Bits are compared, not values, so -0.0 and NaN payloads
    survive.  A run starts with the distinct values of its first column and
    takes in each next column that is a function of them; windows of columns
    are checked at once, starting one wider than the previous run.  Columns
    whose successor is provably not a function of them (an adjacent pair of
    leading rows agrees on one and not on the other) could only form runs of
    width 1; a stretch of them is one run with a code per row.  Rows are
    checked ``_FACTOR_ROWS`` at a time, so beside a run's O(n) codes the
    check holds no more than that many rows.
    """
    x = np.asarray(x, dtype=np.float64)
    n, width = x.shape
    bits = x.view(np.int64)
    head = bits[:_FACTOR_ROWS]
    same = head[1:] == head[:-1]
    isolated = np.append(np.any(same[:, :-1] > same[:, 1:], axis=0), True)
    rows = np.arange(n)
    runs = []
    lo, step = 0, 1
    while lo < width:
        if isolated[lo]:
            hi = lo + 1
            while hi < width and isolated[hi]:
                hi += 1
            runs.append((lo, hi, rows, rows))
            lo = hi
            continue
        _, first, codes = np.unique(bits[:, lo], return_index=True, return_inverse=True)
        rep = first[codes]
        hi = lo + 1
        while hi < width:
            end = min(hi + step, width)
            bad = np.zeros(end - hi, dtype=bool)
            for r in range(0, n, _FACTOR_ROWS):
                block = slice(r, r + _FACTOR_ROWS)
                bad |= (bits[rep[block], hi:end] != bits[block, hi:end]).any(axis=0)
            if bad.any():
                hi += int(np.argmax(bad))
                break
            hi, step = end, 2 * step
        runs.append((lo, hi, codes, first))
        lo, step = hi, hi - lo + 1
    return runs


def _compact(x: np.ndarray) -> np.ndarray:
    """``x`` with every pairwise and centroid distance kept, at inner dimension
    the sum over its column runs of min(k, w); ``x`` itself unless that is
    smaller than its width.

    A run with k < w distinct rows ``t`` becomes the k-wide rows of R^T from
    ``t^T = QR``: each row's coordinates in an orthonormal basis of the rows.
    """
    runs = factor_columns(x)
    if sum(min(len(first), hi - lo) for lo, hi, _, first in runs) >= x.shape[1]:
        return x
    return np.hstack([np.linalg.qr(x[first, lo:hi].T, mode="r").T[codes]
                      if len(first) < hi - lo else x[:, lo:hi]
                      for lo, hi, codes, first in runs])


@dataclass
class LabeledEmbedding:
    """An n-by-width finite real matrix with one class token per row.

    Only what the indices read is kept: the labels, their class indices and
    ``points``, the matrix compacted with every distance kept (``_compact``),
    not ``vectors``; a matrix that does not compact is its own ``points``.
    """

    vectors: InitVar[np.ndarray]
    labels: tuple[str, ...]

    def __post_init__(self, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        self.labels = tuple(self.labels)
        if vectors.ndim != 2:
            raise EvaluationError("vectors must be a 2-d matrix")
        if len(self.labels) != vectors.shape[0]:
            raise EvaluationError("one label required per row")
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise EvaluationError(f"row {int(np.argmin(finite))} has a non-finite value")
        self.points = _compact(vectors)
        code = {c: k for k, c in enumerate(dict.fromkeys(self.labels))}
        self.classes = tuple(code)
        self.label_idx = np.array([code[lab] for lab in self.labels], dtype=np.int64)
        self.members = [np.flatnonzero(self.label_idx == k) for k in range(len(code))]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def t(self) -> int:
        return len(self.classes)


def _ch_classes(emb: LabeledEmbedding) -> None:
    """Raise unless the labels alone leave CH defined: 2 <= T < n."""
    if emb.t < 2 or emb.n <= emb.t:
        raise EvaluationError("CH undefined: requires 2 <= T < n")


def _silhouette_classes(emb: LabeledEmbedding) -> None:
    """Raise unless the labels alone leave the silhouette defined: T >= 2."""
    if emb.t < 2:
        raise EvaluationError("silhouette undefined for a single class")


def calinski_harabasz(emb: LabeledEmbedding) -> float:
    """Between-class over within-class scatter ratio; larger is better.

    Returns +inf when the within-class scatter is exactly zero and the
    between-class scatter is not (degenerate perfect separation).  When both
    are zero every point coincides and the ratio is 0/0, an
    ``EvaluationError``: +inf would rank such an embedding above every other.
    """
    _ch_classes(emb)
    center = emb.points.mean(axis=0)
    between = 0.0
    within = 0.0
    for idx in emb.members:
        pts = emb.points[idx]
        centroid = pts.mean(axis=0)
        between += len(idx) * float(np.sum((centroid - center) ** 2))
        within += float(np.sum((pts - centroid) ** 2))
    between /= emb.t - 1
    within /= emb.n - emb.t
    if within == 0.0:
        if between == 0.0:
            raise EvaluationError("CH undefined: every point coincides")
        return float("inf")
    return between / within


def _tile_workers(cpus: int, env: Mapping[str, str], tile_rows: int) -> int:
    """Worker threads for ``tile_rows`` silhouette tile rows on ``cpus`` usable CPUs.

    Each BLAS product runs on ``blas`` threads: the first of ``_BLAS_THREADS``
    in ``env`` that holds a positive integer, else ``cpus``.  ``cpus // blas``
    workers never run more threads than there are CPUs; with BLAS unpinned
    on two CPUs, each product already used both, and two workers were
    slower than one.  Each worker gets at least two tile rows: the rows
    shrink along the triangle, so with fewer the pool overlaps too little
    to pay for starting it.
    """
    blas = cpus
    for name in _BLAS_THREADS:
        try:
            count = int(env.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            blas = count
            break
    return max(1, min(cpus // blas, tile_rows // 2))


def _class_distance_sums(emb: LabeledEmbedding) -> np.ndarray:
    """(n, T) sums of Euclidean distances from each object to each class.

    Walks the upper triangle of the distance matrix in square tiles of
    ``_SILHOUETTE_BLOCK`` rows and columns, small enough to stay in cache.
    One product of the augmented rows ``[x, |x|^2, 1]`` and
    ``[-2x, 1, |x|^2]`` gives a tile its squared distances (quadratic
    expansion); the tile, and its transpose, are then multiplied by the
    n-by-T class indicator matrix.  Each distance is computed once.

    A task is one tile row: block ``i`` against every block ``j >= i``.  The
    tasks run on ``_tile_workers`` threads and return their products; the
    calling thread adds them to the sums row by row and tile by tile, the
    order of a serial walk, so the sums have the same bytes for any worker
    count.  At most two tile rows per worker are in flight, so memory is
    O(n * d + workers * (block^2 + n * T)) rather than O(n^2).
    """
    x = emb.points
    sq = np.sum(x * x, axis=1, keepdims=True)
    one = np.ones_like(sq)
    left = np.hstack([x, sq, one])
    right = np.hstack([-2.0 * x, one, sq])
    indicator = np.zeros((emb.n, emb.t))
    indicator[np.arange(emb.n), emb.label_idx] = 1.0
    sums = np.zeros((emb.n, emb.t))
    blocks = [slice(lo, lo + _SILHOUETTE_BLOCK) for lo in range(0, emb.n, _SILHOUETTE_BLOCK)]

    def tile_row(i):
        rows = blocks[i]
        parts = []
        for cols in blocks[i:]:
            dist = left[rows] @ right[cols].T
            np.maximum(dist, 0.0, out=dist)
            np.sqrt(dist, out=dist)
            if cols is rows:   # a diagonal tile holds both halves
                np.fill_diagonal(dist, 0.0)
                parts.append((cols, dist @ indicator[rows], None))
            else:
                parts.append((cols, dist @ indicator[cols], dist.T @ indicator[rows]))
        return parts

    def add(tile_rows):
        for rows, parts in zip(blocks, tile_rows):
            for cols, row_part, col_part in parts:
                sums[rows] += row_part
                if col_part is not None:
                    sums[cols] += col_part

    def in_order(pool):
        pending = deque()
        for i in range(len(blocks)):
            pending.append(pool.submit(tile_row, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = _tile_workers(cpus or 1, os.environ, len(blocks))
    if workers == 1:
        add(map(tile_row, range(len(blocks))))
    else:
        from concurrent.futures import ThreadPoolExecutor   # not paid by `import neca`
        with ThreadPoolExecutor(workers) as pool:
            add(in_order(pool))
    return sums


def silhouette_samples(emb: LabeledEmbedding) -> np.ndarray:
    """Per-object s(x) = (b - a) / max(a, b), with the singleton rule s = 0."""
    _silhouette_classes(emb)
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
CLASS_CHECKS = {"ch": _ch_classes, "s": _silhouette_classes}


def check_indices(indices: Iterable[str]) -> None:
    """Raise unless every name is a key of INDICES, named once."""
    indices = list(indices)
    unknown = [index for index in indices if index not in INDICES]
    if unknown:
        raise EvaluationError(f"unknown index {unknown[0]!r} (choose from {', '.join(INDICES)})")
    repeated = [index for i, index in enumerate(indices) if index in indices[:i]]
    if repeated:
        raise EvaluationError(f"index {repeated[0]!r} is named twice")


@dataclass
class ComparisonRow:
    """One method's scores on one index, over all of the method's runs.

    The row is undefined when the index raised ``EvaluationError`` on any of
    the runs: ``reason`` keeps the first message, and best and median are NaN.
    """

    index: str            # a key of INDICES
    method: str
    values: list[float]   # one per run, in run order; NaN where the index raised
    best: float
    median: float
    runs: int
    rank: int = 0         # 1..k within the index by best, undefined last; ties keep method order
    reason: str | None = None


def evaluate_all(runs: Mapping[str, Iterable[LabeledEmbedding]],
                 indices: tuple[str, ...] = ("ch", "s")) -> list[ComparisonRow]:
    """Score every run of every method on every index, and rank the methods by best.

    Each embedding is scored on each index once, and each method's runs are
    taken one at a time, so a generator of runs holds one embedding at a time,
    and of it only the compacted points (see ``LabeledEmbedding``).
    Rows come method by method, each method's in ``indices`` order.  An index
    that raises on a run leaves that method's row undefined (see
    ``ComparisonRow``), ranked after every defined row; an index that no
    method can score raises the first row's reason.  An index that the
    labels alone leave undefined raises on the first embedding, before the
    next is made.
    """
    if not runs:
        raise EvaluationError("no embeddings to evaluate")
    check_indices(indices)
    labels = None
    rows: list[ComparisonRow] = []
    for method, embeddings in runs.items():
        scores, reasons = [], {}

        def score(index, emb):
            try:
                return INDICES[index](emb)
            except EvaluationError as exc:
                reasons.setdefault(index, str(exc))
                return math.nan

        for emb in embeddings:
            if labels is None:
                labels = emb.labels
                for index in indices:
                    CLASS_CHECKS[index](emb)
            elif emb.labels != labels:
                raise EvaluationError("all embeddings must share the same labels")
            scores.append([score(index, emb) for index in indices])
        if not scores:
            raise EvaluationError(f"no embeddings to evaluate for {method!r}")
        for index, values in zip(indices, map(list, zip(*scores))):
            reason = reasons.get(index)
            best, median = ((math.nan, math.nan) if reason
                            else (max(values), float(np.median(values))))
            rows.append(ComparisonRow(index, method, values, best, median, len(values),
                                      reason=reason))
    for index in indices:
        same = [row for row in rows if row.index == index]
        if all(row.reason for row in same):
            raise EvaluationError(same[0].reason)
        ranked = sorted(same, key=lambda row: math.inf if row.reason else -row.best)
        for rank, row in enumerate(ranked, 1):
            row.rank = rank
    return rows
