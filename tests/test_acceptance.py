"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 5 needs the SB, SH and ZO dataset files; when they are
neither in the cache nor in a mirror directory the test skips with
instructions, without trying to download them.
"""

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neca import autodiff as ad
from neca.cavnet import build_hetnet, build_inter_network, build_intra_network, build_node_set
from neca.cli import FetchError, bundled_manifest, fetch_dataset
from neca.dataset import impute_modes, load_csv, make_cad
from neca.encoders import encode_frequency, encode_onehot
from neca.evaluation import LabeledEmbedding, calinski_harabasz, silhouette
from neca.model import NETWORKS, RunConfig, init_params, network_embedding, wrap_params
from neca.training import forward_loss, gradients, train

from test_evaluation import brute_ch, brute_silhouette


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[acceptance] criterion {num} ({desc}): SKIPPED - {exc}")
        raise
    except BaseException:
        print(f"[acceptance] criterion {num} ({desc}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({desc}): PASS "
          f"({time.perf_counter() - t0:.1f}s)")


def toy_cad():
    rows = [
        ("M", "Engineering", "Programmer"),
        ("M", "Science", "Analyst"),
        ("F", "Liberal Arts", "Lawyer"),
        ("M", "Engineering", "Programmer"),
        ("F", "Liberal Arts", "Marketing"),
        ("M", "Engineering", "Technician"),
    ]
    return make_cad(rows, ("Gender", "Specialty", "Position"))


def random_cad(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    m = int(rng.integers(2, 5))
    sizes = [int(rng.integers(1, 5)) for _ in range(m)]
    records = [tuple(f"v{int(rng.integers(sizes[j]))}" for j in range(m))
               for _ in range(n)]
    return make_cad(records, tuple(f"attr{j}" for j in range(m)))


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences on the toy CAD."""
    with criterion(1, "gradient correctness"):
        t0 = time.perf_counter()
        cad = toy_cad()
        assert (cad.n, cad.m) == (6, 3)
        net = build_hetnet(cad, seed=0)
        assert net.node_set.total == 10
        h = 1e-4
        for seed in (1, 2, 3):
            cfg = RunConfig(heads=2, head_dim=3, fusion_dim=4, seed=seed)
            params = init_params(10, cfg)
            _, _, grads = gradients(net, params, cfg)
            for name, tensor in params.items():
                flat = tensor.reshape(-1)
                gflat = grads[name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    hi = float(forward_loss(net, params, cfg)[0].value)
                    flat[i] = orig - h
                    lo = float(forward_loss(net, params, cfg)[0].value)
                    flat[i] = orig
                    numeric = (hi - lo) / (2 * h)
                    err = abs(gflat[i] - numeric)
                    if err > 1e-6:  # near zero the absolute bound applies
                        rel = err / max(abs(numeric), abs(gflat[i]))
                        assert rel < 1e-4, \
                            f"seed {seed} {name}[{i}]: analytic {gflat[i]} vs FD {numeric}"
        assert time.perf_counter() - t0 < 10.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def _inter_weights_normalized(seed):
    edges = build_inter_network(*(lambda c: (c, build_node_set(c)))(random_cad(seed)))
    assert abs(edges.weight.sum() - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def _intra_weights_normalized(seed):
    cad = random_cad(seed)
    edges = build_intra_network(cad, build_node_set(cad), beta=0.01, seed=seed)
    assert abs(edges.weight.sum() - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.0, 40.0))
def _attention_normalized(seed, spread):
    # one mask over every head, as in the attention; each row keeps an entry
    rng = np.random.default_rng(seed)
    heads, num = (int(x) for x in rng.integers(1, 9, size=2))
    mask = rng.random((num, num)) < rng.random()
    mask[np.arange(num), rng.integers(num, size=num)] = True
    scores = rng.uniform(-spread, spread, size=(heads, 2, num))
    alpha = ad.pair_softmax(scores, ad.neighborhoods(*np.nonzero(mask), num), 0.2)[0]
    assert np.all(np.abs(alpha.sum(axis=-1) - 1.0) <= 1e-9)
    assert np.all(alpha[:, ~mask] == 0.0)


def _forward_with_gamma_reaching(seed, reach):
    """The inter and intra embeddings and ``autodiff.fusion``'s (fused, gammas,
    betas) of them on a random CAD, ``s`` scaled so the larger |gamma| is ``reach``."""
    cad = random_cad(seed)
    net = build_hetnet(cad, seed=seed)
    cfg = RunConfig(heads=2, head_dim=3, fusion_dim=4, seed=seed)
    params = init_params(net.node_set.total, cfg)

    def forward():
        pvars = wrap_params(params)
        inter, intra = (network_embedding(net, which, pvars) for which in NETWORKS)
        return (inter.value, intra.value,
                *ad.fusion(inter, intra, pvars["w2"], pvars["b"], pvars["s"]))

    top = max(map(abs, forward()[3]))
    if top > 0.0:   # gamma is linear in s
        params["s"] *= reach / top
    return forward()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.0, 150.0))
def _fusion_weights_normalized(seed, reach):
    *_, gammas, betas = _forward_with_gamma_reaching(seed, reach)
    top = max(map(abs, gammas))
    assert top == pytest.approx(reach, rel=1e-9) or top == 0.0
    assert abs(betas[0] + betas[1] - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.0, 150.0))
def _fused_betweenness(seed, reach):
    e, a, fused, _, _ = _forward_with_gamma_reaching(seed, reach)
    f = fused.value
    assert np.all(f >= np.minimum(e, a) - 1e-12)
    assert np.all(f <= np.maximum(e, a) + 1e-12)


def random_labeled(seed, n_max=60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, n_max))
    t = int(rng.integers(2, 6))
    labels = [f"c{int(rng.integers(t))}" for _ in range(n)]
    labels[0], labels[1] = "c0", "c1"
    vectors = rng.standard_normal((n, int(rng.integers(1, 8)))) \
        + 2.0 * np.array([int(l[1:]) for l in labels])[:, None]
    return vectors, labels


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def _silhouette_bounded(seed):
    vectors, labels = random_labeled(seed, n_max=25)
    idx = silhouette(LabeledEmbedding(vectors, labels))
    assert -1.0 - 1e-12 <= idx <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def _indices_invariant_to_permutation_and_renaming(seed):
    vectors, labels = random_labeled(seed, n_max=25)
    emb = LabeledEmbedding(vectors, labels)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(len(labels))
    permuted = LabeledEmbedding(vectors[perm], tuple(labels[i] for i in perm))
    renamed = LabeledEmbedding(vectors, tuple(f"x{l}" for l in labels))
    assert calinski_harabasz(emb) == pytest.approx(calinski_harabasz(permuted), rel=1e-9)
    assert silhouette(emb) == pytest.approx(silhouette(permuted), abs=1e-9)
    assert calinski_harabasz(emb) == calinski_harabasz(renamed)
    assert silhouette(emb) == silhouette(renamed)


def test_criterion_2_invariant_suite():
    """Softmax normalizations, betweenness, bounds, invariances (100+ cases each)."""
    with criterion(2, "invariant suite"):
        t0 = time.perf_counter()
        _inter_weights_normalized()
        _intra_weights_normalized()
        _attention_normalized()
        _fusion_weights_normalized()
        _fused_betweenness()
        _silhouette_bounded()
        _indices_invariant_to_permutation_and_renaming()
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_oracle_equivalence():
    """Optimized CH/S match an independent brute-force pass to 1e-9."""
    with criterion(3, "oracle equivalence"):
        # frozen hand-computed cases reproduce exactly
        ch_emb = LabeledEmbedding(np.array([[0.0], [2.0], [10.0], [12.0]]),
                                  ("A", "A", "B", "B"))
        assert calinski_harabasz(ch_emb) == pytest.approx(50.0, abs=1e-12)
        s_emb = LabeledEmbedding(np.array([[0.0], [2.0], [3.0], [5.0]]),
                                 ("A", "A", "B", "B"))
        assert silhouette(s_emb) == pytest.approx(0.25, abs=1e-12)

        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(10, 201))
            t = int(rng.integers(2, 6))
            width = int(rng.integers(1, 10))
            labels = [f"c{int(rng.integers(t))}" for _ in range(n)]
            labels[:t] = [f"c{i}" for i in range(t)]  # all classes non-empty
            vectors = rng.standard_normal((n, width)) \
                + 2.5 * np.array([int(l[1:]) for l in labels])[:, None]
            emb = LabeledEmbedding(vectors, labels)
            assert calinski_harabasz(emb) == pytest.approx(
                brute_ch(vectors.tolist(), labels), rel=1e-9)
            assert silhouette(emb) == pytest.approx(
                brute_silhouette(vectors.tolist(), labels), abs=1e-9)


def test_criterion_4_training_descent():
    """Median loss over epochs 41-50 strictly below epochs 1-10, five seeds.

    Early stopping is disabled so that 50 epochs of history exist; all other
    hyperparameters are the defaults.
    """
    with criterion(4, "training descent"):
        t0 = time.perf_counter()
        cad = toy_cad()
        for seed in range(5):
            net = build_hetnet(cad, seed=seed)
            _, _, report = train(net, RunConfig(seed=seed, epochs=50, tol=0.0))
            assert len(report.loss_history) == 50
            early = statistics.median(report.loss_history[0:10])
            late = statistics.median(report.loss_history[40:50])
            assert late < early, f"seed {seed}: {late} !< {early}"
        assert time.perf_counter() - t0 < 20.0


def _benchmark_dataset(name):
    """The bundled dataset from the cache or a mirror; a download fails at once."""
    def refuse(request, timeout):
        raise urllib.error.URLError("the acceptance suite does not download")

    manifest = bundled_manifest(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(urllib.request, "urlopen", refuse)
        try:
            path = fetch_dataset(manifest)
        except FetchError as exc:
            pytest.skip(
                f"dataset {name.upper()} unavailable ({exc}); place {name}.data in "
                f"$NECA_CACHE (default ~/.cache/neca) or a $NECA_MIRROR directory, "
                f"or run `neca fetch {name.upper()}` with network access")
    cad = load_csv(path, manifest)
    return impute_modes(cad, manifest.missing_token)


def test_criterion_5_benchmark_direction():
    """Best-of-5 embedding beats the baselines on at least 2 of SB, SH, ZO."""
    with criterion(5, "desk-scale benchmark direction"):
        t0 = time.perf_counter()
        expected = {"sb": (47, 35, 4), "sh": (80, 22, 2), "zo": (101, 16, 7)}
        s_wins = 0
        ch_wins = 0
        for name, (n, m, classes) in expected.items():
            cad = _benchmark_dataset(name)
            assert (cad.n, cad.m) == (n, m), f"{name}: got {(cad.n, cad.m)}"
            assert len(set(cad.labels)) == classes, f"{name}: label count"
            onehot_s = silhouette(LabeledEmbedding(encode_onehot(cad).vectors, cad.labels))
            freq_ch = calinski_harabasz(
                LabeledEmbedding(encode_frequency(cad).vectors, cad.labels))
            best_s = -np.inf
            best_ch = -np.inf
            for seed in range(5):
                net = build_hetnet(cad, seed=seed)
                _, table, _ = train(net, RunConfig(seed=seed))
                emb = LabeledEmbedding(table.objects, cad.labels)
                best_s = max(best_s, silhouette(emb))
                best_ch = max(best_ch, calinski_harabasz(emb))
            print(f"[acceptance]   {name.upper()}: neca S {best_s:.3f} vs onehot "
                  f"{onehot_s:.3f}; neca CH {best_ch:.2f} vs frequency {freq_ch:.2f}")
            s_wins += best_s >= onehot_s
            ch_wins += best_ch >= freq_ch
        assert s_wins >= 2, f"silhouette wins: {s_wins}/3"
        assert ch_wins >= 2, f"CH wins: {ch_wins}/3"
        assert time.perf_counter() - t0 < 900.0


def test_criterion_6_end_to_end_reproducibility(toy_csv, tmp_path):
    """Byte-identical embeddings across runs and across thread-count settings."""
    with criterion(6, "end-to-end reproducibility"):
        digests = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "4"), ("d", "8")):
            out = tmp_path / f"emb_{tag}.csv"
            env = dict(os.environ)
            env.update({
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            })
            proc = subprocess.run(
                [sys.executable, "-m", "neca", "embed", str(toy_csv),
                 "--drop", "Name", "--out", str(out), "--epochs", "30",
                 "--seed", "123"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(set(digests)) == 1, f"embedding files differ: {digests}"


def test_criterion_7_baseline_exactness():
    """Frequency encoding reproduces log(100/40) to 1e-12."""
    with criterion(7, "baseline exactness"):
        rows = [("Engineering",)] * 40 + [(f"other{i}",) for i in range(60)]
        cad = make_cad(rows, ("Specialty",))
        enc = encode_frequency(cad)
        value = enc.vectors[0, 0]
        assert abs(value - math.log(100 / 40)) <= 1e-12
