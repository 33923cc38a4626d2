import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import neca
from neca import evaluation
from neca.encoders import encode_frequency, encode_onehot
from neca.evaluation import (_SILHOUETTE_BLOCK, INDICES, ComparisonRow, EvaluationError,
                             LabeledEmbedding, _class_distance_sums, _tile_workers,
                             calinski_harabasz, evaluate_all, factor_columns, silhouette,
                             silhouette_samples)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(evaluation, "_tile_workers", lambda cpus, env, tile_rows: workers)


def brute_ch(x, labels):
    """Independent O(n^2)-style CH: plain loops, direct squared norms."""
    classes = list(dict.fromkeys(labels))
    t, n = len(classes), len(labels)
    center = [sum(row[d] for row in x) / n for d in range(len(x[0]))]
    between = 0.0
    within = 0.0
    for c in classes:
        members = [x[i] for i in range(n) if labels[i] == c]
        centroid = [sum(row[d] for row in members) / len(members) for d in range(len(x[0]))]
        between += len(members) * sum((a - b) ** 2 for a, b in zip(centroid, center))
        within += sum(sum((row[d] - centroid[d]) ** 2 for d in range(len(row)))
                      for row in members)
    between /= t - 1
    within /= n - t
    return float("inf") if within == 0 else between / within


def brute_silhouette(x, labels, average="macro"):
    """Independent O(n^2) silhouette with direct per-pair norms."""
    n = len(labels)
    classes = list(dict.fromkeys(labels))

    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x[i], x[j])))

    s = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            s.append(0.0)
            continue
        a = sum(dist(i, j) for j in same) / len(same)
        b = min(
            sum(dist(i, j) for j in range(n) if labels[j] == c) / labels.count(c)
            for c in classes if c != labels[i]
        )
        s.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    if average == "micro":
        return sum(s) / n
    per_class = [
        sum(s[i] for i in range(n) if labels[i] == c) / labels.count(c)
        for c in classes
    ]
    return sum(per_class) / len(classes)


def dense_silhouette_samples(x, labels):
    """The full n-by-n distance matrix formula, one object at a time."""
    sq = np.sum(x * x, axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
    np.fill_diagonal(dist, 0.0)
    classes = list(dict.fromkeys(labels))
    label_idx = np.array([classes.index(lab) for lab in labels])
    sizes = np.bincount(label_idx).astype(np.float64)
    class_sums = np.stack([dist[:, label_idx == c].sum(axis=1)
                           for c in range(len(classes))], axis=1)
    s = np.zeros(len(labels))
    for i, ci in enumerate(label_idx):
        if sizes[ci] <= 1:
            continue
        a = class_sums[i, ci] / (sizes[ci] - 1.0)
        b = min(class_sums[i, c] / sizes[c] for c in range(len(classes)) if c != ci)
        s[i] = 0.0 if max(a, b) == 0.0 else (b - a) / max(a, b)
    return s


def random_instance(rng, n_max=60):
    n = rng.integers(6, n_max)
    t = rng.integers(2, 6)
    width = rng.integers(1, 8)
    labels = [f"c{rng.integers(t)}" for _ in range(n)]
    # ensure at least 2 distinct classes and n > t
    labels[0], labels[1] = "c0", "c1"
    vectors = rng.standard_normal((n, width)) + 3.0 * np.array(
        [int(lab[1:]) for lab in labels])[:, None]
    return vectors, labels


class TestCalinskiHarabasz:
    def test_hand_arithmetic_oracle(self):
        # A = {0, 2}, B = {10, 12} on the line: CH = 100 / 2 = 50
        emb = LabeledEmbedding(np.array([[0.0], [2.0], [10.0], [12.0]]),
                               ("A", "A", "B", "B"))
        assert calinski_harabasz(emb) == pytest.approx(50.0, abs=1e-12)

    def test_zero_within_scatter_gives_infinity(self):
        emb = LabeledEmbedding(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]]),
                               ("A", "A", "B", "B"))
        assert math.isinf(calinski_harabasz(emb))

    @pytest.mark.parametrize("width", [0, 3])
    def test_coincident_points_are_undefined(self, width):
        # between and within scatter are both 0: +inf would rank these points
        # above any real embedding
        emb = LabeledEmbedding(np.zeros((6, width)), "AAABBB")
        with pytest.raises(EvaluationError, match="CH undefined: every point coincides"):
            calinski_harabasz(emb)
        with pytest.raises(EvaluationError, match="CH undefined"):
            evaluate_all({"flat": [emb]})

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        vectors, labels = random_instance(rng)
        a = calinski_harabasz(LabeledEmbedding(vectors, labels))
        b = calinski_harabasz(LabeledEmbedding(2.0 * vectors, labels))
        assert a == pytest.approx(b, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        vectors, labels = random_instance(rng)
        a = calinski_harabasz(LabeledEmbedding(vectors, labels))
        b = calinski_harabasz(LabeledEmbedding(vectors + 13.7, labels))
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError, match="CH undefined"):
            calinski_harabasz(LabeledEmbedding(np.zeros((3, 2)), ("A", "A", "A")))

    def test_n_equals_t_rejected(self):
        with pytest.raises(EvaluationError, match="CH undefined"):
            calinski_harabasz(LabeledEmbedding(np.zeros((2, 2)), ("A", "B")))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            vectors, labels = random_instance(rng)
            fast = calinski_harabasz(LabeledEmbedding(vectors, labels))
            slow = brute_ch(vectors.tolist(), labels)
            assert fast == pytest.approx(slow, rel=1e-9)


class TestSilhouette:
    def test_two_singletons_index_zero(self):
        emb = LabeledEmbedding(np.array([[0.0], [5.0]]), ("A", "B"))
        assert silhouette(emb) == 0.0

    def test_perfect_separation(self):
        emb = LabeledEmbedding(np.array([[0.0], [0.0], [10.0], [10.0]]),
                               ("A", "A", "B", "B"))
        assert silhouette(emb) == pytest.approx(1.0)

    def test_hand_arithmetic_oracle(self):
        # A = {0, 2}, B = {3, 5}: s = (0.5, 0, 0, 0.5) -> index 0.25
        emb = LabeledEmbedding(np.array([[0.0], [2.0], [3.0], [5.0]]),
                               ("A", "A", "B", "B"))
        s = silhouette_samples(emb)
        np.testing.assert_allclose(s, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        assert silhouette(emb) == pytest.approx(0.25, abs=1e-12)

    def test_identical_vectors_give_zero(self):
        emb = LabeledEmbedding(np.zeros((4, 3)), ("A", "A", "B", "B"))
        assert silhouette(emb) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            silhouette(LabeledEmbedding(np.zeros((3, 1)), ("A", "A", "A")))

    def test_macro_differs_from_micro_on_unbalanced_classes(self):
        vectors = np.array([[0.0], [0.1], [0.2], [0.3], [10.0]])
        labels = ("A", "A", "A", "A", "B")
        emb = LabeledEmbedding(vectors, labels)
        macro, micro = silhouette(emb), float(np.mean(silhouette_samples(emb)))
        assert macro != pytest.approx(micro)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            vectors, labels = random_instance(rng)
            emb = LabeledEmbedding(vectors, labels)
            assert silhouette(emb) == pytest.approx(
                brute_silhouette(vectors.tolist(), labels), abs=1e-9)
            assert np.mean(silhouette_samples(emb)) == pytest.approx(
                brute_silhouette(vectors.tolist(), labels, "micro"), abs=1e-9)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(12)
        labels = [f"c{k}" for k in rng.integers(0, 4, size=517)]
        labels[:3] = ["solo", "c0", "c1"]   # a singleton class among them
        offset = {"solo": 4.0, "c0": 0.0, "c1": 1.0, "c2": 2.0, "c3": 3.0}
        vectors = rng.standard_normal((517, 9)) + np.array(
            [offset[lab] for lab in labels])[:, None]
        vectors[10] = vectors[11]            # coincident points
        fast = silhouette_samples(LabeledEmbedding(vectors, labels))
        np.testing.assert_allclose(fast, dense_silhouette_samples(vectors, labels),
                                   rtol=0, atol=1e-12)
        assert fast[0] == 0.0

    def test_tiles_match_dense_formula_across_tile_boundaries(self):
        # three full tiles and a partial one; a coincident pair straddles the
        # first tile boundary and a singleton class sits in the partial tile
        n = 3 * _SILHOUETTE_BLOCK + 37
        rng = np.random.default_rng(14)
        labels = [f"c{k}" for k in rng.integers(0, 5, size=n)]
        labels[n - 5] = "solo"
        offset = np.array([0.0 if lab == "solo" else float(lab[1:]) for lab in labels])
        vectors = rng.standard_normal((n, 9)) + offset[:, None]
        edge = _SILHOUETTE_BLOCK
        vectors[edge] = vectors[edge - 1]
        fast = silhouette_samples(LabeledEmbedding(vectors, labels))
        np.testing.assert_allclose(fast, dense_silhouette_samples(vectors, labels),
                                   rtol=0, atol=1e-12)
        assert fast[n - 5] == 0.0
        # the brute force is slow: a cut that still crosses the first boundary
        # and keeps the partial tile with its singleton
        cut = np.r_[0:edge + 24, 3 * edge:n]
        sub_vectors, sub_labels = vectors[cut], [labels[i] for i in cut]
        assert silhouette(LabeledEmbedding(sub_vectors, sub_labels)) == pytest.approx(
            brute_silhouette(sub_vectors.tolist(), sub_labels), abs=1e-9)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_memory_bounded_by_blocks(self, monkeypatch, workers):
        # the n-by-n distance matrix alone would be 1.1 GB here; tracemalloc
        # sees the worker threads' allocations too
        if workers is not None:
            force_workers(monkeypatch, workers)
        rng = np.random.default_rng(13)
        labels = ["A"] * 6000 + ["B"] * 6000
        vectors = rng.standard_normal((12_000, 16))
        vectors[6000:] += 1.0
        emb = LabeledEmbedding(vectors, labels)
        tracemalloc.start()
        try:
            value = silhouette(emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("n", [5 * _SILHOUETTE_BLOCK + 37, 366])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tile_rows_on_workers_sum_to_the_serial_bytes(self, monkeypatch, n, workers):
        # four classes, one a singleton in the partial last tile, and a
        # coincident pair across the first tile boundary
        rng = np.random.default_rng(15)
        labels = [f"c{k}" for k in rng.integers(0, 3, size=n)]
        labels[n - 3] = "solo"
        vectors = rng.standard_normal((n, 11)) + rng.integers(0, 3, size=n)[:, None]
        vectors[_SILHOUETTE_BLOCK] = vectors[_SILHOUETTE_BLOCK - 1]
        emb = LabeledEmbedding(vectors, labels)
        assert emb.t == 4
        force_workers(monkeypatch, workers)
        assert _class_distance_sums(emb).tobytes() == oracles.class_distance_sums(emb).tobytes()

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_samples_bounded(self, seed):
        rng = np.random.default_rng(seed)
        vectors, labels = random_instance(rng, n_max=25)
        s = silhouette_samples(LabeledEmbedding(vectors, labels))
        assert np.all(s >= -1.0 - 1e-12) and np.all(s <= 1.0 + 1e-12)
        idx = silhouette(LabeledEmbedding(vectors, labels))
        assert -1.0 - 1e-12 <= idx <= 1.0 + 1e-12


# a quiet NaN with a payload other than np.nan's
NAN_PAYLOAD = np.array([0x7FF8000000000001]).view(np.float64)[0]
POOL = [0.0, -0.0, np.nan, NAN_PAYLOAD, np.inf, -1.5, 2.0, 5e-324]


def assert_exact_runs(x, runs):
    """The runs rebuild ``x`` bit for bit, in order, over every column."""
    n, width = x.shape
    assert [lo for lo, *_ in runs] == [0] + [hi for _, hi, *_ in runs[:-1]]
    assert (runs[-1][1] if runs else 0) == width
    for lo, hi, codes, first in runs:
        assert lo < hi and codes.shape == (n,)
        assert np.array_equal(np.unique(codes), np.arange(len(first)))   # k == len(first)
        assert x[first][codes, lo:hi].tobytes() == np.ascontiguousarray(x[:, lo:hi]).tobytes()


@st.composite
def block_matrices(draw):
    """[T_1[c_1], ..., T_m[c_m]]: each block a k-row table gathered by codes."""
    n = draw(st.integers(0, 30))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        k, w = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        table = draw(hnp.arrays(np.float64, (k, w), elements=st.sampled_from(POOL)
                                | st.floats(-4, 4, width=64)))
        codes = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        blocks.append(table[codes])
    return np.hstack(blocks)


class TestFactorColumns:
    @given(block_matrices())
    @settings(max_examples=150, deadline=None)
    def test_block_matrices_rebuilt_exactly(self, x):
        assert_exact_runs(x, factor_columns(x))

    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12)
                      .filter(lambda s: s[1] > 0),
                      elements=st.sampled_from(POOL)))
    @settings(max_examples=150, deadline=None)
    def test_repeated_special_values_rebuilt_exactly(self, x):
        # few distinct cells: signed zeros, NaN payloads, constant columns, repeated rows
        assert_exact_runs(x, factor_columns(x))

    @pytest.mark.parametrize("x", [np.zeros((0, 5)), np.full((1, 7), -0.0),
                                   np.array([[np.nan, 0.0, -0.0]] * 4),
                                   np.random.default_rng(0).standard_normal((3000, 5))])
    def test_edge_shapes(self, x):
        assert_exact_runs(x, factor_columns(x))

    def test_a_late_row_splits_the_run(self):
        # past the rows screened and checked in one block, one cell breaks the table
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 8))[rng.integers(0, 3, size=3000)]
        x[2999, 5] = 7.0
        runs = factor_columns(x)
        assert_exact_runs(x, runs)
        assert [(lo, hi) for lo, hi, *_ in runs][0] == (0, 5)

    def test_blocks_become_runs(self):
        rng = np.random.default_rng(1)
        tables = [rng.standard_normal((k, 16)) for k in (3, 5, 2, 6, 4, 2)]
        x = np.hstack([t[rng.integers(0, len(t), size=600)] for t in tables])
        runs = factor_columns(x)
        assert [(lo, hi, len(first)) for lo, hi, _, first in runs] == [
            (16 * j, 16 * j + 16, len(t)) for j, t in enumerate(tables)]

    def test_indices_on_factored_matrix_match_dense_references(self):
        # 600 x (6 * 16) from six tables: the indices run at inner dimension 22.
        # The objects are distinct value combinations: a coincident pair's distance
        # is rounding noise of the quadratic expansion, in any basis.
        rng = np.random.default_rng(2)
        sizes = (3, 5, 2, 6, 4, 2)
        ids = np.unravel_index(rng.choice(np.prod(sizes), size=600, replace=False), sizes)
        classes = np.where(rng.random(600) < 0.8, (ids[0] + ids[3]) % 3, rng.integers(0, 3, 600))
        labels = [f"c{k}" for k in classes]
        tables = [rng.standard_normal((k, 16)) for k in sizes]
        x = np.hstack([t[c] for t, c in zip(tables, ids)])
        emb = LabeledEmbedding(x, labels)
        assert emb.points.shape == (600, 22)
        np.testing.assert_allclose(silhouette_samples(emb), dense_silhouette_samples(x, labels),
                                   rtol=0, atol=1e-12)
        assert calinski_harabasz(emb) == pytest.approx(brute_ch(x.tolist(), labels), rel=1e-12)

    @pytest.mark.parametrize("encoder", [encode_onehot, encode_frequency])
    def test_encodings_pass_through(self, toy_cad, encoder):
        vectors = encoder(toy_cad).vectors
        emb = LabeledEmbedding(vectors, ("A", "B", "A", "B", "A", "B"))
        assert emb.points is vectors

    def test_compacted_input_is_not_kept(self):
        # an assembled embedding, one 16-wide row per attribute value, is freed
        # as soon as its LabeledEmbedding exists; the scores keep their bits
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 5, size=(400, 6)) + 5 * np.arange(6)
        labels = [f"c{k}" for k in ids[:, 0] % 3]
        objects = rng.standard_normal((30, 16))[ids].reshape(400, 96)
        dense = LabeledEmbedding(objects.copy(), labels)
        ref = weakref.ref(objects)
        emb = LabeledEmbedding(objects, labels)
        del objects
        assert ref() is None
        assert emb.n == 400 and emb.points.shape == (400, 30)
        assert silhouette(emb) == silhouette(dense)
        assert calinski_harabasz(emb) == calinski_harabasz(dense)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_row_named(self, value):
        x = np.zeros((6, 3))
        x[4, 2] = value
        x[5, 0] = np.nan
        with pytest.raises(EvaluationError, match=r"^row 4 has a non-finite value$"):
            LabeledEmbedding(x, ("A", "B") * 3)


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        vectors, labels = random_instance(rng)
        perm = rng.permutation(len(labels))
        emb1 = LabeledEmbedding(vectors, labels)
        emb2 = LabeledEmbedding(vectors[perm], tuple(labels[i] for i in perm))
        assert calinski_harabasz(emb1) == pytest.approx(calinski_harabasz(emb2), rel=1e-12)
        assert silhouette(emb1) == pytest.approx(silhouette(emb2), abs=1e-12)

    def test_label_renaming_invariance(self):
        rng = np.random.default_rng(4)
        vectors, labels = random_instance(rng)
        renamed = tuple(f"group-{lab}" for lab in labels)
        emb1 = LabeledEmbedding(vectors, labels)
        emb2 = LabeledEmbedding(vectors, renamed)
        assert calinski_harabasz(emb1) == calinski_harabasz(emb2)
        assert silhouette(emb1) == silhouette(emb2)


class TestEvaluateAll:
    def test_single_method_is_best(self):
        rng = np.random.default_rng(5)
        vectors, labels = random_instance(rng)
        rows = evaluate_all({"onehot": [LabeledEmbedding(vectors, labels)]})
        assert all(isinstance(r, ComparisonRow) and r.rank == 1 for r in rows)

    def test_identical_methods_identical_scores(self):
        rng = np.random.default_rng(6)
        vectors, labels = random_instance(rng)
        rows = evaluate_all({
            "a": [LabeledEmbedding(vectors, labels)],
            "b": [LabeledEmbedding(vectors.copy(), labels)],
        })
        by_index = {}
        for r in rows:
            by_index.setdefault(r.index, []).append(r.best)
        for vals in by_index.values():
            assert vals[0] == vals[1]
        # a tie keeps the methods' order
        assert [(r.method, r.rank) for r in rows if r.index == "ch"] == [("a", 1), ("b", 2)]

    def test_runs_summarized_and_methods_ranked_one_to_k(self):
        rng = np.random.default_rng(11)
        base, labels = random_instance(rng)
        runs = {method: [LabeledEmbedding(base + rng.standard_normal(base.shape) * scale, labels)
                         for _ in range(3)]
                for method, scale in (("mid", 1.0), ("tight", 0.1), ("loose", 5.0))}
        rows = evaluate_all(runs)
        assert [(r.method, r.index) for r in rows] == [
            (m, index) for m in ("mid", "tight", "loose") for index in ("ch", "s")]
        for row in rows:
            expected = [INDICES[row.index](emb) for emb in runs[row.method]]
            assert row.values == expected and row.runs == 3
            assert row.best == max(expected) and row.median == sorted(expected)[1]
        for index in ("ch", "s"):
            same = [r for r in rows if r.index == index]
            assert sorted(r.rank for r in same) == [1, 2, 3]
            assert [r.best for r in sorted(same, key=lambda r: r.rank)] == sorted(
                (r.best for r in same), reverse=True)

    def test_runs_are_taken_one_at_a_time(self, monkeypatch):
        events = []
        for index, fn in list(INDICES.items()):
            monkeypatch.setitem(INDICES, index,
                                lambda emb, index=index, fn=fn: events.append(index) or fn(emb))
        rng = np.random.default_rng(12)
        vectors, labels = random_instance(rng)

        def runs():
            for k in range(2):
                events.append(f"run {k}")
                yield LabeledEmbedding(vectors + k, labels)

        rows = evaluate_all({"gen": runs()})
        assert events == ["run 0", "ch", "s", "run 1", "ch", "s"]
        assert [r.runs for r in rows] == [2, 2]

    def test_undefined_row_ranks_last_and_keeps_its_reason(self):
        rng = np.random.default_rng(9)
        vectors, labels = random_instance(rng)
        flat = np.zeros_like(vectors)   # every point coincides: CH is undefined
        rows = evaluate_all({
            "flat": [LabeledEmbedding(flat, labels)],
            "mixed": [LabeledEmbedding(vectors, labels), LabeledEmbedding(flat, labels)],
            "real": [LabeledEmbedding(vectors, labels)],
        })
        ch = {r.method: r for r in rows if r.index == "ch"}
        assert [ch[m].rank for m in ("real", "flat", "mixed")] == [1, 2, 3]
        assert ch["real"].reason is None and ch["real"].best == calinski_harabasz(
            LabeledEmbedding(vectors, labels))
        for method in ("flat", "mixed"):
            assert ch[method].reason == "CH undefined: every point coincides"
            assert math.isnan(ch[method].best) and math.isnan(ch[method].median)
        # the run that scored keeps its value
        assert ch["mixed"].values[0] == ch["real"].best and math.isnan(ch["mixed"].values[1])
        # the silhouette is defined for every run
        assert all(r.reason is None and r.rank for r in rows if r.index == "s")

    def test_index_no_method_can_score_raises(self):
        labels = ("A", "A", "B", "B")
        with pytest.raises(EvaluationError, match="CH undefined: every point coincides"):
            evaluate_all({"a": [LabeledEmbedding(np.zeros((4, 2)), labels)],
                          "b": [LabeledEmbedding(np.ones((4, 3)), labels)]})

    @pytest.mark.parametrize("labels, indices, message", [
        (("A",) * 4, ("ch", "s"), "CH undefined: requires 2 <= T < n"),
        (("A",) * 4, ("s", "ch"), "silhouette undefined for a single class"),
        (("A", "B"), ("s", "ch"), "CH undefined: requires 2 <= T < n"),
    ])
    def test_labels_that_leave_an_index_undefined_raise_at_the_first_run(
            self, labels, indices, message):
        drawn = []

        def runs():
            for k in range(3):
                drawn.append(k)
                yield LabeledEmbedding(np.arange(2.0 * len(labels)).reshape(-1, 2) + k, labels)

        with pytest.raises(EvaluationError, match=re.escape(message)):
            evaluate_all({"a": runs(), "b": runs()}, indices)
        assert drawn == [0]

    def test_method_without_runs_rejected(self):
        with pytest.raises(EvaluationError, match="no embeddings to evaluate for 'a'"):
            evaluate_all({"a": []})

    def test_best_and_second_marked(self):
        rng = np.random.default_rng(8)
        base, labels = random_instance(rng)
        rows = evaluate_all({
            "tight": [LabeledEmbedding(base, labels)],
            "loose": [LabeledEmbedding(base + rng.standard_normal(base.shape) * 5.0, labels)],
        })
        for index in ("ch", "s"):
            ranked = sorted((r for r in rows if r.index == index), key=lambda r: -r.best)
            assert ranked[0].rank == 1 and ranked[1].rank == 2

    def test_inconsistent_labels_rejected(self):
        points = np.arange(8.0).reshape(4, 2)
        a = LabeledEmbedding(points, ("A", "A", "B", "B"))
        b = LabeledEmbedding(points, ("A", "B", "B", "B"))
        with pytest.raises(EvaluationError, match="labels"):
            evaluate_all({"a": [a], "b": [b]})

    def test_unknown_index_rejected_before_scoring(self, monkeypatch):
        scored = []
        monkeypatch.setitem(INDICES, "ch", lambda emb: scored.append(emb) or 1.0)
        rng = np.random.default_rng(10)
        vectors, labels = random_instance(rng)
        with pytest.raises(EvaluationError, match="unknown index 'bogus'"):
            evaluate_all({"a": [LabeledEmbedding(vectors, labels)]}, indices=("ch", "bogus"))
        assert scored == []


class TestTileWorkers:
    @pytest.mark.parametrize("cpus, env, tile_rows, workers", [
        (2, {}, 32, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 32, 2),
        (4, {"OMP_NUM_THREADS": "2"}, 32, 2),
        # at least two tile rows per worker
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 1),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 6, 3),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2, 1),   # the de-train shape, n = 366
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 32, 1),
        (1, {}, 32, 1),
    ])
    def test_never_more_threads_than_cpus(self, cpus, env, tile_rows, workers):
        assert _tile_workers(cpus, env, tile_rows) == workers

    @pytest.mark.parametrize("value", ["0", "abc", ""])
    def test_a_value_that_is_not_a_positive_count_is_not_set(self, value):
        assert _tile_workers(4, {"OPENBLAS_NUM_THREADS": value}, 32) == 1
        env = {"OPENBLAS_NUM_THREADS": value, "MKL_NUM_THREADS": "2"}
        assert _tile_workers(4, env, 32) == 2

    def test_import_leaves_the_pool_module_unloaded(self):
        # `import neca` is part of every command's start-up; the subprocess
        # imports the copy under test, from src/ or an installed package
        env = dict(os.environ, PYTHONPATH=str(Path(neca.__file__).parent.parent))
        code = (f"import neca, sys; assert neca.__file__ == {neca.__file__!r}, neca.__file__; "
                "assert 'concurrent.futures' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
