import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from neca import autodiff as ad
from neca.cavnet import EdgeSet, GraphError, build_hetnet, build_node_set
from neca.dataset import make_cad
from neca.model import (ELU_ALPHA, LEAKY_SLOPE, NETWORKS, EmbeddingTable, RunConfig,
                        assemble_objects, compute_table, init_params, network_embedding,
                        wrap_params)
from neca.training import neca_loss
import oracles
from oracles import (ModelError, aggregate, attention_logit, fuse, fusion_weights,
                     importance_score, init_node_features, neighbor_weights, project)


def small_config(**kw):
    defaults = dict(heads=2, head_dim=3, fusion_dim=4, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def embed_network(net, which, params):
    """Per-node K*d embeddings of one network, from the dense forward pass."""
    return network_embedding(net, which, wrap_params(params)).value


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.heads, cfg.head_dim, cfg.fusion_dim) == (8, 8, 16)
        assert LEAKY_SLOPE == 0.2 and ELU_ALPHA == 1.0

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="heads"):
            RunConfig(heads=0)


class TestParams:
    def test_shapes(self):
        cfg = small_config()
        params = init_params(10, cfg)
        for net in ("inter", "intra"):
            assert params[f"w1.{net}"].shape == (2, 3, 10)
            assert params[f"attn.{net}"].shape == (2, 6)
        assert params["w2"].shape == (4, 6)
        assert params["b"].shape == (4,)
        assert params["s"].shape == (4,)

    def test_bounds_follow_fan_in(self):
        params = init_params(100, small_config())
        assert np.abs(params["w1.inter"]).max() <= 1 / math.sqrt(100)
        assert np.abs(params["attn.intra"]).max() <= 1 / math.sqrt(6)
        assert np.abs(params["s"]).max() <= 1 / math.sqrt(4)

    def test_heads_stack_the_per_head_draws(self):
        # one (d, |V|) or (2d,) draw per head, in the order of separate
        # per-head tensors, so a seed keeps its initial values
        params = init_params(10, small_config(seed=4))
        rng = np.random.default_rng(4)

        def draw(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        for group, shape, fan_in in (("w1", (3, 10), 10), ("attn", (6,), 6)):
            for net in ("inter", "intra"):
                for k in range(2):
                    assert np.array_equal(params[f"{group}.{net}"][k], draw(shape, fan_in))
        assert np.array_equal(params["w2"], draw((4, 6), 6))
        assert np.array_equal(params["b"], draw((4,), 6))
        assert np.array_equal(params["s"], draw((4,), 4))

    def test_seeded_and_deterministic(self):
        a = init_params(10, small_config(seed=5))
        b = init_params(10, small_config(seed=5))
        c = init_params(10, small_config(seed=6))
        for (n1, t1), (n2, t2) in zip(a.items(), b.items()):
            assert n1 == n2 and np.array_equal(t1, t2)
        assert not np.array_equal(a["w2"], c["w2"])

    def test_named_tensor_round_trip(self):
        params = init_params(4, small_config())
        assert list(params) == ["w1.inter", "w1.intra", "attn.inter", "attn.intra", "w2", "b", "s"]
        # the tape wraps the stored arrays, so Adam's in-place updates of the
        # dict's arrays reach the next forward pass
        pvars = wrap_params(params)
        assert list(pvars) == list(params)
        assert all(pvars[name].value is tensor for name, tensor in params.items())


class TestNodeFeatures:
    def test_identity(self, toy_cad):
        nodes = build_node_set(toy_cad)
        feats = init_node_features(nodes)
        assert feats.shape == (10, 10)
        np.testing.assert_array_equal(feats, np.eye(10))

    def test_row_sums_one(self):
        cad = make_cad([("a", "x"), ("b", "y")], ("A", "B"))
        feats = init_node_features(build_node_set(cad))
        np.testing.assert_allclose(feats.sum(axis=1), 1.0)


class TestProject:
    def test_identity_projection_selects_basis(self):
        w1 = np.eye(3)
        np.testing.assert_array_equal(project(w1, np.eye(3)[2]), np.eye(3)[2])

    def test_zero_matrix(self):
        assert np.all(project(np.zeros((2, 3)), np.eye(3)[0]) == 0)

    def test_one_hot_selects_column_matvec_oracle(self):
        rng = np.random.default_rng(1)
        w1 = rng.standard_normal((2, 3))
        feature = np.eye(3)[1]
        expected = np.array([sum(w1[r, c] * feature[c] for c in range(3)) for r in range(2)])
        np.testing.assert_allclose(project(w1, feature), expected)
        np.testing.assert_allclose(project(w1, feature), w1[:, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            project(np.zeros((2, 3)), np.zeros(4))


class TestAttentionLogit:
    def test_zero_vector_gives_zero(self):
        assert attention_logit(np.zeros(4), np.ones(2), -np.ones(2)) == 0.0

    def test_negative_branch_scaled_by_slope(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        h_t = np.array([-2.0, 7.0])
        assert attention_logit(a, h_t, np.zeros(2), slope=0.2) == pytest.approx(-0.4)

    def test_asymmetry_witness(self):
        # halves of a differ, so swapping target and neighbor changes the logit
        a = np.array([1.0, 0.0, 0.0, 0.0])
        h1, h2 = np.array([1.0, 0.0]), np.array([2.0, 0.0])
        assert attention_logit(a, h1, h2) != attention_logit(a, h2, h1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            attention_logit(np.zeros(3), np.zeros(2), np.zeros(2))


class TestNeighborWeights:
    def test_single_neighbor(self):
        assert neighbor_weights({"n": 3.7}) == {"n": 1.0}

    def test_equal_logits(self):
        w = neighbor_weights({i: 0.4 for i in range(4)})
        assert all(v == pytest.approx(0.25) for v in w.values())

    def test_two_term(self):
        w = neighbor_weights({"a": 0.0, "b": math.log(3)})
        assert w["a"] == pytest.approx(0.25)
        assert w["b"] == pytest.approx(0.75)

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ModelError, match="isolated"):
            neighbor_weights({})

    @given(st.dictionaries(st.integers(0, 50), st.floats(-30, 30), min_size=1, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_sums_to_one(self, logits):
        assert abs(sum(neighbor_weights(logits).values()) - 1.0) <= 1e-9


class TestAggregate:
    def test_single_nonnegative_projection_passes_through(self):
        p = np.array([0.5, 2.0])
        np.testing.assert_allclose(aggregate({"n": 1.0}, {"n": p}), p)

    def test_negative_sum_hits_elu(self):
        out = aggregate({"n": 1.0}, {"n": np.array([-1.0])})
        assert out[0] == pytest.approx(math.exp(-1) - 1, abs=1e-9)

    def test_opposed_projections_cancel(self):
        p = np.array([3.0, -2.0])
        out = aggregate({"a": 0.5, "b": 0.5}, {"a": p, "b": -p})
        np.testing.assert_allclose(out, 0.0)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ModelError):
            aggregate({"a": 0.7, "b": 0.7}, {"a": np.ones(1), "b": np.ones(1)})


class TestEmbedNetwork:
    def path_net(self):
        # two records over attributes A, B give the 3-node path a1 - b1 - a2
        cad = make_cad([("a1", "b1"), ("a2", "b1")], ("A", "B"))
        return cad, build_hetnet(cad, seed=0)

    def test_manual_forward_oracle_on_path(self):
        cad, net = self.path_net()
        cfg = RunConfig(heads=1, head_dim=2, fusion_dim=2, seed=0)
        params = init_params(3, cfg)
        w1, a_vec = params["w1.inter"][0], params["attn.inter"][0]
        feats = init_node_features(net.node_set)
        expected = np.zeros((3, 2))
        for t in range(3):
            h_t = project(w1, feats[t])
            neigh = [int(x) for x in oracles.adjacency(net, "inter")[t]]
            logits = {nb: attention_logit(a_vec, h_t, project(w1, feats[nb]), LEAKY_SLOPE)
                      for nb in neigh}
            alphas = neighbor_weights(logits)
            expected[t] = aggregate(alphas, {nb: project(w1, feats[nb]) for nb in neigh},
                                    ELU_ALPHA)
        np.testing.assert_allclose(embed_network(net, "inter", params), expected,
                                   atol=1e-12)

    def test_single_head_width(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = RunConfig(heads=1, head_dim=5, fusion_dim=2, seed=1)
        out = embed_network(net, "intra", init_params(10, cfg))
        assert out.shape == (10, 5)

    def test_identical_heads_duplicate_output(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = small_config(heads=2)
        params = init_params(10, cfg)
        params["w1.inter"][1] = params["w1.inter"][0].copy()
        params["attn.inter"][1] = params["attn.inter"][0].copy()
        out = embed_network(net, "inter", params)
        np.testing.assert_allclose(out[:, :3], out[:, 3:], atol=1e-12)

    def test_deterministic(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = small_config()
        params = init_params(10, cfg)
        a = embed_network(net, "inter", params)
        b = embed_network(net, "inter", params)
        assert np.array_equal(a, b)

    def test_attention_weights_asymmetric_between_node_pair(self):
        # alpha(u, v) normalizes over u's neighborhood, alpha(v, u) over v's;
        # on the path a1 - b1 - a2 the endpoint weight is 1 while the hub
        # splits its attention, so the pair is asymmetric
        cad, net = self.path_net()
        cfg = RunConfig(heads=1, head_dim=2, fusion_dim=2, seed=1)
        params = init_params(3, cfg)
        w1, a_vec = params["w1.inter"][0], params["attn.inter"][0]
        feats = init_node_features(net.node_set)

        def alpha(target, neighbor):
            h_t = project(w1, feats[target])
            logits = {int(nb): attention_logit(a_vec, h_t, project(w1, feats[int(nb)]),
                                               LEAKY_SLOPE)
                      for nb in oracles.adjacency(net, "inter")[target]}
            return neighbor_weights(logits)[neighbor]

        a1 = oracles.id_for(net.node_set, 0, "a1")
        b1 = oracles.id_for(net.node_set, 1, "b1")
        assert alpha(a1, b1) == pytest.approx(1.0)
        assert alpha(b1, a1) != pytest.approx(1.0)

    def test_isolated_node_rejected(self):
        cad, net = self.path_net()
        keep = (net.inter.u != 0) & (net.inter.v != 0)
        isolated = net.node_set.qualified(0)
        with pytest.raises(GraphError, match=f"isolated node {isolated} in inter network"):
            replace(net, inter=EdgeSet(net.inter.u[keep], net.inter.v[keep],
                                       net.inter.raw[keep], net.inter.weight[keep]))


def assert_rel_close(actual, expected, rel=1e-12):
    """Largest difference within ``rel`` of the largest magnitude."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


class TestDenseMatchesEdgeList:
    """The dense head-batched path against the edge-list oracle on random CADs."""

    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_embeddings_fused_matrix_and_loss(self, seed, heads, head_dim):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 6))
        sizes = rng.integers(1, 7, size=m)
        records = [tuple(f"v{int(rng.integers(k))}" for k in sizes) for _ in range(n)]
        cad = make_cad(records, tuple(f"a{j}" for j in range(m)))
        net = build_hetnet(cad, seed=seed)
        cfg = RunConfig(heads=heads, head_dim=head_dim, fusion_dim=3, seed=seed)
        params = init_params(net.node_set.total, cfg)
        table = compute_table(net, params)
        for which in NETWORKS:
            assert_rel_close(embed_network(net, which, params),
                             oracles.network_embedding(net, which, params, cfg))
        assert_rel_close(table.fused, oracles.fused_embedding(net, params, cfg))
        tcfg = replace(cfg, sigma=float(rng.uniform(0.3, 2.0)))
        loss = neca_loss(net, table.fused, tcfg)
        assert abs(loss - oracles.neca_loss(net, table.fused, tcfg)) <= 1e-12 * abs(loss)


class TestImportanceScore:
    def test_zero_s_gives_zero(self):
        vecs = np.random.default_rng(0).standard_normal((5, 6))
        assert importance_score(vecs, np.zeros(4), np.ones((4, 6)), np.ones(4)) == 0.0

    def test_single_node_zero_map(self):
        assert importance_score(np.ones((1, 6)), np.ones(4), np.zeros((4, 6)), np.zeros(4)) == 0.0

    def test_two_node_scalar_oracle(self):
        # 1-dim everything: gamma = mean(s * tanh(w2 * v + b))
        vecs = np.array([[2.0], [-1.0]])
        s, w2, b = np.array([0.5]), np.array([[3.0]]), np.array([-1.0])
        expected = 0.5 * (math.tanh(5.0) + math.tanh(-4.0)) / 2
        assert importance_score(vecs, s, w2, b) == pytest.approx(expected, abs=1e-12)


class TestFusionWeights:
    def test_equal_scores_split_evenly(self):
        assert fusion_weights(1.3, 1.3) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_log3_gap(self):
        bi, ba = fusion_weights(math.log(3), 0.0)
        assert bi == pytest.approx(0.75) and ba == pytest.approx(0.25)

    def test_shift_invariance(self):
        a = fusion_weights(0.2, -1.1)
        b = fusion_weights(0.2 + 17.0, -1.1 + 17.0)
        assert a == (pytest.approx(b[0]), pytest.approx(b[1]))

    @given(st.floats(-200, 200), st.floats(-200, 200))
    @settings(max_examples=120, deadline=None)
    def test_sums_to_one_and_positive(self, gi, ga):
        bi, ba = fusion_weights(gi, ga)
        assert abs(bi + ba - 1.0) <= 1e-9
        assert bi > 0 and ba > 0


class TestFuse:
    def test_identical_inputs_fixed_point(self):
        e = np.array([1.0, -2.0])
        np.testing.assert_allclose(fuse(e, e.copy(), 0.3, 0.7), e)

    def test_beta_one_returns_inter(self):
        e, a = np.array([1.0, 0.0]), np.array([5.0, 5.0])
        np.testing.assert_allclose(fuse(e, a, 1.0, 0.0), e)

    def test_elementwise_mix(self):
        out = fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.75, 0.25)
        np.testing.assert_allclose(out, [0.75, 0.25])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ModelError):
            fuse(np.zeros(2), np.zeros(2), 0.6, 0.6)

    @given(st.integers(1, 8), st.floats(0.001, 0.999), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_coordinatewise_betweenness(self, width, beta, seed):
        rng = np.random.default_rng(seed)
        e, a = rng.standard_normal(width), rng.standard_normal(width)
        f = fuse(e, a, beta, 1.0 - beta)
        assert np.all(f >= np.minimum(e, a) - 1e-12)
        assert np.all(f <= np.maximum(e, a) + 1e-12)


class TestAssembleObjects:
    def test_identical_records_identical_vectors(self, toy_cad):
        nodes = build_node_set(toy_cad)
        rng = np.random.default_rng(0)
        fused = rng.standard_normal((10, 4))
        objs = assemble_objects(nodes, fused)
        assert objs.shape == (6, 12)
        np.testing.assert_array_equal(objs[0], objs[3])   # John == Ben
        assert not np.array_equal(objs[0], objs[1])       # John != Tony

    def test_single_attribute_object_equals_cav(self):
        cad = make_cad([("x",), ("y",)], ("A",))
        nodes = build_node_set(cad)
        fused = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(assemble_objects(nodes, fused), fused)

    def test_attribute_order_preserved(self, toy_cad):
        nodes = build_node_set(toy_cad)
        fused = np.arange(10, dtype=float).reshape(10, 1)
        objs = assemble_objects(nodes, fused)
        john = [oracles.id_for(nodes, 0, "M"), oracles.id_for(nodes, 1, "Engineering"),
                oracles.id_for(nodes, 2, "Programmer")]
        np.testing.assert_array_equal(objs[0], np.array(john, dtype=float))


class TestComputeTable:
    def test_shapes_and_beta_coupling(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = small_config()
        params = init_params(10, cfg)
        table = compute_table(net, params)
        assert isinstance(table, EmbeddingTable)
        kd = cfg.cav_dim
        assert embed_network(net, "inter", params).shape == \
            embed_network(net, "intra", params).shape == table.fused.shape == (10, kd)
        assert table.objects.shape == (6, 3 * kd)
        assert table.beta_inter + table.beta_intra == pytest.approx(1.0, abs=1e-12)
        assert 0 < table.beta_inter < 1

    def test_fused_is_convex_combination(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = small_config(seed=2)
        params = init_params(10, cfg)
        table = compute_table(net, params)
        expected = table.beta_inter * embed_network(net, "inter", params) \
            + table.beta_intra * embed_network(net, "intra", params)
        np.testing.assert_allclose(table.fused, expected, atol=1e-12)

    def test_importance_scores_match_standalone_op(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = small_config(seed=3)
        params = init_params(10, cfg)
        table = compute_table(net, params)
        pvars = wrap_params(params)
        inter, intra = (network_embedding(net, which, pvars) for which in NETWORKS)
        _, gammas, _ = ad.fusion(inter, intra, pvars["w2"], pvars["b"], pvars["s"])
        assert gammas[0] == pytest.approx(
            importance_score(inter.value, params["s"], params["w2"], params["b"]), abs=1e-12)
        assert gammas[1] == pytest.approx(
            importance_score(intra.value, params["s"], params["w2"], params["b"]), abs=1e-12)
        assert (table.beta_inter, table.beta_intra) == \
            pytest.approx(fusion_weights(*gammas), abs=1e-12)
