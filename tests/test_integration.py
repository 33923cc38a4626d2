"""Whole-pipeline oracle: recompute forward pass and loss from first principles.

Everything here is deliberately scalar dict-and-loop arithmetic, independent
of the vectorized forward and of the autodiff tape, so a mismatch in head
ordering, normalization scope, fusion, assembly or the directed loss terms
would surface immediately.
"""

import math
import weakref

import numpy as np
import pytest

import oracles
from neca import (DatasetManifest, LabeledEmbedding, RunConfig, autodiff as ad, build_hetnet,
                  impute_modes, load_csv, silhouette, train)
from neca.model import (ELU_ALPHA, LEAKY_SLOPE, assemble_objects, compute_table, init_params,
                        network_embedding, wrap_params)
from neca.training import CLAMP_EPS, neca_loss


def reference_network_embedding(net, which, params, cfg):
    total = net.node_set.total
    d = cfg.head_dim
    out = np.zeros((total, cfg.heads * d))
    adj = oracles.adjacency(net, which)
    for k in range(cfg.heads):
        w1 = params[f"w1.{which}"][k]
        a_vec = params[f"attn.{which}"][k]
        proj = {v: w1[:, v] for v in range(total)}  # one-hot feature selects a column
        for v in range(total):
            neigh = [int(x) for x in adj[v]]
            logits = {}
            for nb in neigh:
                z = float(a_vec @ np.concatenate([proj[v], proj[nb]]))
                logits[nb] = z if z >= 0 else LEAKY_SLOPE * z
            mx = max(logits.values())
            exps = {nb: math.exp(z - mx) for nb, z in logits.items()}
            denom = sum(exps.values())
            agg = np.zeros(d)
            for nb in neigh:
                agg += (exps[nb] / denom) * proj[nb]
            out[v, k * d:(k + 1) * d] = np.where(
                agg >= 0, agg, ELU_ALPHA * (np.exp(np.minimum(agg, 0.0)) - 1.0))
    return out


def reference_loss(net, fused, sigma, clamp):
    raw_of = {}
    for i in range(len(net.inter)):
        u, v = int(net.inter.u[i]), int(net.inter.v[i])
        raw_of[(u, v)] = raw_of[(v, u)] = float(net.inter.raw[i])
    total = 0.0
    count = 0
    for v, neigh in enumerate(oracles.adjacency(net, "inter")):
        neigh = [int(x) for x in neigh]
        raws = [raw_of[(v, nb)] for nb in neigh]
        mx = max(raws)
        exps = [math.exp(r - mx) for r in raws]
        z = sum(exps)
        for nb, e in zip(neigh, exps):
            p = e / z
            d2 = float(np.sum((fused[v] - fused[nb]) ** 2))
            g = math.exp(-d2 / (2.0 * sigma * sigma))
            g = min(max(g, clamp), 1.0 - clamp)
            total += p * math.log(g) + (1.0 - p) * math.log(1.0 - g)
            count += 1
    return -total / count


def test_pipeline_matches_first_principles_recomputation(toy_cad):
    net = build_hetnet(toy_cad, seed=3)
    cfg = RunConfig(heads=2, head_dim=3, fusion_dim=4, seed=5, sigma=1.2)
    params = init_params(net.node_set.total, cfg)

    e = reference_network_embedding(net, "inter", params, cfg)
    a = reference_network_embedding(net, "intra", params, cfg)
    scores_e = [float(params["s"] @ np.tanh(params["w2"] @ row + params["b"])) for row in e]
    scores_a = [float(params["s"] @ np.tanh(params["w2"] @ row + params["b"])) for row in a]
    g_e, g_a = np.mean(scores_e), np.mean(scores_a)
    shift = max(g_e, g_a)
    b_e = math.exp(g_e - shift) / (math.exp(g_e - shift) + math.exp(g_a - shift))
    b_a = 1.0 - b_e
    fused = b_e * e + b_a * a

    pvars = wrap_params(params)
    inter, intra = (network_embedding(net, which, pvars) for which in ("inter", "intra"))
    np.testing.assert_allclose(inter.value, e, atol=1e-12)
    np.testing.assert_allclose(intra.value, a, atol=1e-12)
    _, (gamma_inter, gamma_intra), _ = ad.fusion(inter, intra, pvars["w2"], pvars["b"],
                                                 pvars["s"])
    assert gamma_inter == pytest.approx(g_e, abs=1e-12)
    assert gamma_intra == pytest.approx(g_a, abs=1e-12)
    table = compute_table(net, params)
    assert table.beta_inter == pytest.approx(b_e, abs=1e-12)
    np.testing.assert_allclose(table.fused, fused, atol=1e-12)
    np.testing.assert_allclose(
        table.objects, assemble_objects(net.node_set, fused), atol=1e-12)

    expected = reference_loss(net, fused, cfg.sigma, CLAMP_EPS)
    assert neca_loss(net, table.fused, cfg) == pytest.approx(expected, abs=1e-12)


def test_pipeline_oracle_holds_across_seeds_and_widths(toy_cad):
    for seed, heads, d in ((0, 1, 4), (1, 3, 2), (2, 2, 5)):
        net = build_hetnet(toy_cad, seed=seed)
        cfg = RunConfig(heads=heads, head_dim=d, fusion_dim=3, seed=seed)
        params = init_params(net.node_set.total, cfg)
        table = compute_table(net, params)
        pvars = wrap_params(params)
        e = reference_network_embedding(net, "inter", params, cfg)
        a = reference_network_embedding(net, "intra", params, cfg)
        np.testing.assert_allclose(network_embedding(net, "inter", pvars).value, e, atol=1e-12)
        np.testing.assert_allclose(network_embedding(net, "intra", pvars).value, a, atol=1e-12)
        fused = table.beta_inter * e + table.beta_intra * a
        np.testing.assert_allclose(table.fused, fused, atol=1e-12)
        assert neca_loss(net, table.fused, cfg) == pytest.approx(
            reference_loss(net, fused, cfg.sigma, CLAMP_EPS), abs=1e-12)


def test_library_flow_frees_the_assembled_objects_with_the_table(toy_csv):
    # the README's library flow, through the package's public names; a scored
    # embedding keeps only its compacted points, so dropping the table frees
    # the assembled objects
    cad = impute_modes(load_csv(toy_csv, DatasetManifest(name="toy", drop_columns=("Name",))))
    config = RunConfig(epochs=2)
    params, table, report = train(build_hetnet(cad, beta=config.beta_connect, seed=config.seed),
                                  config)
    assert table.objects.shape == (6, 192)
    objects = weakref.ref(table.objects)
    emb = LabeledEmbedding(table.objects, "AABABB")
    del table
    assert objects() is None and emb.points.shape[1] < 192
    assert -1 <= silhouette(emb) <= 1
