import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neca import autodiff as ad
from neca.cavnet import EdgeSet, GraphError, HetNet, build_hetnet
from neca.dataset import make_cad
from neca.model import RunConfig, init_params
from neca.training import (CLAMP_EPS, TrainingError, TrainReport, adam_step, forward_loss,
                           gradients, neca_loss, train)
from oracles import adjacency, directed_pairs, gaussian_similarity, id_for, impacting_strength


def small_model(**kw):
    defaults = dict(heads=2, head_dim=3, fusion_dim=4, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def loss_value(net, params, config):
    return float(forward_loss(net, params, config)[0].value)


class TestImpactingStrength:
    def test_single_neighbor_is_one(self):
        cad = make_cad([("a", "x")], ("A", "B"))
        net = build_hetnet(cad, seed=0)
        assert impacting_strength(net, 0, 1) == pytest.approx(1.0)

    def test_two_equal_neighbors_split(self):
        cad = make_cad([("a", "x"), ("a", "y")], ("A", "B"))
        net = build_hetnet(cad, seed=0)
        x = id_for(net.node_set, 1, "x")
        a = id_for(net.node_set, 0, "a")
        assert impacting_strength(net, a, x) == pytest.approx(0.5)

    def test_toy_female_neighborhood_oracle(self, toy_cad):
        # F co-occurs with Liberal Arts (2), Lawyer (1), Marketing (1);
        # p = softmax of the raw counts over that neighborhood.
        net = build_hetnet(toy_cad, seed=0)
        ns = net.node_set
        f = id_for(ns, 0, "F")
        la = id_for(ns, 1, "Liberal Arts")
        law = id_for(ns, 2, "Lawyer")
        mkt = id_for(ns, 2, "Marketing")
        z = math.exp(2) + 2 * math.exp(1)
        assert impacting_strength(net, f, la) == pytest.approx(math.exp(2) / z, abs=1e-12)
        assert impacting_strength(net, f, law) == pytest.approx(math.exp(1) / z, abs=1e-12)
        assert impacting_strength(net, f, mkt) == pytest.approx(math.exp(1) / z, abs=1e-12)

    def test_per_target_values_sum_to_one(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        for target in range(net.node_set.total):
            total = sum(impacting_strength(net, target, int(nb))
                        for nb in adjacency(net, "inter")[target])
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_non_neighbor_rejected(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        ns = net.node_set
        f = id_for(ns, 0, "F")
        eng = id_for(ns, 1, "Engineering")  # F never co-occurs with Engineering
        with pytest.raises(TrainingError, match="not a cross-attribute neighbor"):
            impacting_strength(net, f, eng)

    def test_vectorized_targets_match_scalar_op(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        num = net.node_set.total
        pairs, p = net.pairs["inter"].flat, net.impact
        tgt, src, _ = directed_pairs(net, "inter")
        # every directed pair once, sorted by (target, source)
        np.testing.assert_array_equal(pairs, np.sort(tgt * num + src))
        assert len(np.unique(pairs)) == len(pairs) == len(p)
        tgt, src = np.divmod(pairs, num)
        for t, s, strength in zip(tgt, src, p):
            assert strength == pytest.approx(impacting_strength(net, int(t), int(s)), abs=1e-12)


class TestGaussianSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, -2.0, 3.0])
        assert gaussian_similarity(v, v, 1.0) == 1.0

    def test_distance_two_sigma_squared(self):
        # ||diff||^2 = 2 sigma^2  ->  exp(-1)
        sigma = 1.7
        f_u = np.zeros(1)
        f_v = np.array([math.sqrt(2) * sigma])
        assert gaussian_similarity(f_u, f_v, sigma) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        assert gaussian_similarity(u, v, 2.0) == gaussian_similarity(v, u, 2.0)


def four_node_net():
    # attributes A{a1,a2}, B{b1,b2}; three co-occurring pairs -> 3 edges, 4 nodes
    cad = make_cad([("a1", "b1"), ("a2", "b1"), ("a2", "b2")], ("A", "B"))
    return cad, build_hetnet(cad, seed=0)


class TestLoss:
    def test_brute_force_summation_oracle(self):
        _, net = four_node_net()
        rng = np.random.default_rng(0)
        fused = rng.standard_normal((4, 3))
        cfg = RunConfig(sigma=1.3)

        # independent summation: loop every directed pair explicitly
        total = 0.0
        count = 0
        for target in range(4):
            for nb in adjacency(net, "inter")[target]:
                p = impacting_strength(net, target, int(nb))
                g = gaussian_similarity(fused[target], fused[int(nb)], cfg.sigma)
                g = min(max(g, CLAMP_EPS), 1.0 - CLAMP_EPS)
                total += p * math.log(g) + (1.0 - p) * math.log(1.0 - g)
                count += 1
        expected = -total / count
        assert neca_loss(net, fused, cfg) == pytest.approx(expected, abs=1e-10)

    def test_single_edge_full_strength_clamps(self):
        cad = make_cad([("a", "x")], ("A", "B"))
        net = build_hetnet(cad, seed=0)
        fused = np.ones((2, 3))  # identical embeddings -> kernel 1 -> clamped
        cfg = RunConfig()
        expected = -math.log(1.0 - CLAMP_EPS)
        assert neca_loss(net, fused, cfg) == pytest.approx(expected, rel=1e-6)
        assert neca_loss(net, fused, cfg) == pytest.approx(CLAMP_EPS, rel=1e-3)

    def test_cross_entropy_lower_bound(self):
        _, net = four_node_net()
        pc = np.clip(net.impact, 1e-12, 1 - 1e-12)
        entropy = float(-np.mean(pc * np.log(pc) + (1 - pc) * np.log(1 - pc)))
        rng = np.random.default_rng(1)
        cfg = RunConfig()
        for _ in range(20):
            fused = rng.standard_normal((4, 5))
            assert neca_loss(net, fused, cfg) >= entropy - 1e-9

    @given(st.floats(-1e6, 1e6), st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_loss_finite_for_any_embedding(self, scale_factor, seed):
        # clamping keeps both log terms finite even for coincident or
        # wildly separated embeddings
        _, net = four_node_net()
        rng = np.random.default_rng(seed)
        fused = rng.standard_normal((4, 3)) * scale_factor
        assert math.isfinite(neca_loss(net, fused, RunConfig()))

    def test_empty_edge_set_rejected(self, toy_cad):
        # with two or more attributes, no cross-attribute edges leave every node isolated
        net = build_hetnet(toy_cad, seed=0)
        empty = EdgeSet(u=np.array([], dtype=np.int64), v=np.array([], dtype=np.int64),
                        raw=np.array([]), weight=np.array([]))
        with pytest.raises(GraphError, match="isolated node .* in inter network"):
            HetNet(net.node_set, empty, net.intra, 0)

    def test_pairs_and_impact_are_built_once_per_graph(self):
        _, net = four_node_net()
        pairs, impact = net.pairs, net.impact
        params, cfg = init_params(4, small_model()), small_model()
        gradients(net, params, cfg)
        gradients(net, params, cfg)
        assert net.pairs is pairs and net.impact is impact
        assert net.pairs["inter"] is pairs["inter"] and net.pairs["intra"] is pairs["intra"]
        # a graph with other edge counts builds its own
        e = net.inter
        other = replace(net, inter=EdgeSet(e.u, e.v, np.arange(len(e), 0, -1.0), e.weight))
        assert other.pairs is not pairs and other.impact is not impact
        np.testing.assert_array_equal(other.pairs["inter"].flat, pairs["inter"].flat)
        assert not np.array_equal(other.impact, impact)
        assert net.pairs is pairs and net.impact is impact

    def test_row_count_must_match_the_graph(self):
        # the flat pair indices would read the wrong entries of a larger matrix
        _, net = four_node_net()
        with pytest.raises(TrainingError, match=r"shape \(5, 3\), expected \(4, d\)"):
            neca_loss(net, np.zeros((5, 3)), RunConfig())


def kernel_bce_var(net, fused, config):
    """The loss op on ``fused`` as a leaf, after its backward."""
    v = ad.Var(fused)
    loss = ad.kernel_bce(v, net.pairs["inter"], net.impact, config.sigma, CLAMP_EPS)
    ad.backward(loss)
    return loss, v


class TestLossOp:
    def test_finite_differences_with_clamped_pairs(self):
        _, net = four_node_net()
        a1, a2 = id_for(net.node_set, 0, "a1"), id_for(net.node_set, 0, "a2")
        b1, b2 = id_for(net.node_set, 1, "b1"), id_for(net.node_set, 1, "b2")
        fused = np.zeros((4, 3))
        fused[a1] = fused[b1] = [0.3, -0.2, 0.1]     # coincident: clamps at 1 - eps
        fused[a2] = [0.9, 0.4, -0.5]                 # a2 on b1 stays inside the clamp
        fused[b2] = [40.0, 0.0, 0.0]                 # far from a2: clamps at eps
        cfg = RunConfig(sigma=1.0)
        _, v = kernel_bce_var(net, fused, cfg)
        numeric = np.zeros_like(fused)
        h = 1e-6
        for i in np.ndindex(fused.shape):
            hi, lo = fused.copy(), fused.copy()
            hi[i] += h
            lo[i] -= h
            numeric[i] = (neca_loss(net, hi, cfg) - neca_loss(net, lo, cfg)) / (2 * h)
        np.testing.assert_allclose(v.grad, numeric, rtol=1e-5, atol=1e-8)
        # a1 and b2 have only clamped pairs, so no gradient reaches them
        assert not v.grad[[a1, b2]].any()
        assert v.grad[[a2, b1]].all()

    def test_shift_of_every_row_changes_nothing(self):
        _, net = four_node_net()
        rng = np.random.default_rng(2)
        fused = rng.standard_normal((4, 3))
        cfg = RunConfig(sigma=1.3)
        loss, v = kernel_bce_var(net, fused, cfg)
        shifted_loss, shifted = kernel_bce_var(net, fused + rng.standard_normal(3) * 10, cfg)
        assert float(shifted_loss.value) == pytest.approx(float(loss.value), rel=1e-12)
        np.testing.assert_allclose(shifted.grad, v.grad, rtol=1e-12, atol=1e-12)


def fd_check(net, params, config, h=1e-4, rel_tol=1e-4, abs_tol=1e-6):
    """Central finite differences vs the tape, every component of every tensor."""
    _, _, grads = gradients(net, params, config)
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_value(net, params, config)
            flat[i] = orig - h
            lo = loss_value(net, params, config)
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            err = abs(gflat[i] - numeric)
            if err > abs_tol:
                rel = err / max(abs(numeric), abs(gflat[i]))
                assert rel < rel_tol, f"{name}[{i}]: analytic {gflat[i]}, numeric {numeric}"
                worst = max(worst, rel)
    return worst


class TestGradients:
    def test_finite_differences_on_toy(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        mcfg = small_model(seed=1)
        params = init_params(net.node_set.total, mcfg)
        fd_check(net, params, mcfg)

    def test_finite_differences_on_tiny_net(self):
        _, net = four_node_net()
        mcfg = RunConfig(heads=1, head_dim=2, fusion_dim=3, seed=4, sigma=0.8)
        params = init_params(4, mcfg)
        fd_check(net, params, mcfg)

    def test_symmetric_networks_give_symmetric_gradients(self):
        # single-value attributes: both networks are the same single edge, so
        # with shared projection parameters and s = 0 the two sides are twins
        cad = make_cad([("x", "y")], ("A", "B"))
        net = build_hetnet(cad, seed=0)
        mcfg = RunConfig(heads=2, head_dim=2, fusion_dim=3, seed=5)
        params = init_params(2, mcfg)
        params["w1.intra"] = params["w1.inter"].copy()
        params["attn.intra"] = params["attn.inter"].copy()
        params["s"] = np.zeros_like(params["s"])
        _, _, grads = gradients(net, params, mcfg)
        np.testing.assert_allclose(grads["w1.inter"], grads["w1.intra"], atol=1e-12)
        np.testing.assert_allclose(grads["attn.inter"], grads["attn.intra"], atol=1e-12)
        np.testing.assert_allclose(grads["s"], 0.0, atol=1e-12)

    def test_gradients_deterministic(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        mcfg = small_model(seed=3)
        params = init_params(10, mcfg)
        _, _, g1 = gradients(net, params, mcfg)
        _, _, g2 = gradients(net, params, mcfg)
        for name in g1:
            assert np.array_equal(g1[name], g2[name])

    def test_tape_is_one_op_per_block(self, toy_cad):
        # 7 parameters, one gat per network, the fusion and the loss
        loss, _, pvars = forward_loss(build_hetnet(toy_cad, seed=0), init_params(10, small_model()),
                                      small_model())
        seen, stack = {}, [loss]
        while stack:
            node = stack.pop()
            seen[id(node)] = node
            stack.extend(p for p in node.parents if id(p) not in seen)
        assert len(seen) == 11
        assert {id(v) for v in pvars.values()} <= seen.keys()

    def test_each_backward_frees_its_state_before_the_next_runs(self, toy_cad):
        # inter's gat backward, and with it its (K, |V|, |V|) attention
        # weights, is gone by the time intra's starts
        loss, _, _ = forward_loss(build_hetnet(toy_cad, seed=0), init_params(10, small_model()),
                                  small_model())
        fused = loss.parents[0]
        inter, intra = fused.parents[:2]
        inter_backward = weakref.ref(inter._backward)
        intra_backward = intra._backward
        seen = []

        def spy(g):
            seen.append((inter._backward, inter_backward()))
            return intra_backward(g)

        intra._backward = spy
        ad.backward(loss)
        assert seen == [(None, None)]
        assert all(node._backward is None for node in (loss, fused, inter, intra))
        with pytest.raises(ValueError, match="already run"):
            ad.backward(loss)


def moments(params):
    """Zero Adam first and second moments for ``params``."""
    return ({n: np.zeros_like(t) for n, t in params.items()},
            {n: np.zeros_like(t) for n, t in params.items()})


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        mcfg = small_model()
        params = init_params(5, mcfg)
        before = {n: t.copy() for n, t in params.items()}
        grads = {n: np.zeros_like(t) for n, t in params.items()}
        adam_step(params, grads, *moments(params), RunConfig(), 1)
        for name, tensor in params.items():
            np.testing.assert_array_equal(tensor, before[name])

    def test_first_step_magnitude_is_learning_rate(self):
        mcfg = small_model()
        params = init_params(5, mcfg)
        before = {n: t.copy() for n, t in params.items()}
        rng = np.random.default_rng(0)
        grads = {n: rng.standard_normal(t.shape) for n, t in params.items()}
        cfg = RunConfig(lr=0.01)
        adam_step(params, grads, *moments(params), cfg, 1)
        for name, tensor in params.items():
            delta = tensor - before[name]
            # bias correction makes m_hat/sqrt(v_hat) ~ sign(g) on step one
            np.testing.assert_allclose(delta, -cfg.lr * np.sign(grads[name]),
                                       atol=1e-5)

    def test_identical_inputs_identical_trajectories(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        cfg = small_model(seed=7, epochs=5, tol=0.0)
        _, _, r1 = train(net, cfg)
        _, _, r2 = train(net, cfg)
        assert r1.loss_history == r2.loss_history

    def test_step_index_starts_at_one(self):
        params = init_params(3, small_model())
        grads = {n: np.zeros_like(t) for n, t in params.items()}
        with pytest.raises(TrainingError):
            adam_step(params, grads, *moments(params), RunConfig(), 0)


class TestTrain:
    def test_max_epochs_one_records_one_loss(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        _, _, report = train(net, small_model(epochs=1))
        assert len(report.loss_history) == 1
        assert report.stop_reason == "max_epochs"

    def test_loss_descends_on_toy(self, toy_cad):
        net = build_hetnet(toy_cad, seed=42)
        _, _, report = train(net, small_model(seed=42, epochs=50, tol=0.0))
        assert report.loss_history[49] < report.loss_history[0]

    def test_report_invariants(self, toy_cad):
        net = build_hetnet(toy_cad, seed=1)
        _, table, report = train(net, small_model(epochs=3))
        assert isinstance(report, TrainReport)
        assert len(report.loss_history) == 3
        assert report.stop_reason in ("max_epochs", "converged")
        assert all(math.isfinite(x) for x in report.loss_history)

    def test_convergence_by_relative_change(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        _, _, report = train(net, small_model(epochs=500, tol=1e-3))
        assert report.stop_reason == "converged"
        assert len(report.loss_history) < 500
        a, b = report.loss_history[-2], report.loss_history[-1]
        assert abs(b - a) / max(abs(a), 1e-12) < 1e-3

    def test_log_fn_receives_epoch_lines(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        lines = []
        train(net, small_model(epochs=4, tol=0.0), log_fn=lambda *args: lines.append(args))
        assert len(lines) == 4
        epoch, loss, bi, ba = lines[0]
        assert epoch == 1 and math.isfinite(loss)
        assert bi + ba == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_naming_the_epoch(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        with pytest.raises(TrainingError, match=r"diverged at epoch \d+: "):
            train(net, small_model(lr=1e200, epochs=10, tol=0.0))

    def test_nan_gradient_stops_training_in_its_epoch(self, toy_cad, monkeypatch):
        # a NaN in one gradient, with a finite loss, must not reach Adam
        from neca import autodiff, training
        state = {}
        forward, backward = training.forward_loss, autodiff.backward

        def forward_loss(*args, **kwargs):
            state["out"] = forward(*args, **kwargs)
            return state["out"]

        def poisoned_backward(root):
            backward(root)
            state["out"][2]["w2"].grad[0, 0] = np.nan

        monkeypatch.setattr(training, "forward_loss", forward_loss)
        monkeypatch.setattr(autodiff, "backward", poisoned_backward)
        net = build_hetnet(toy_cad, seed=0)
        with pytest.raises(TrainingError, match="diverged at epoch 1: .*'w2'"):
            train(net, small_model(epochs=5, tol=0.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_rejected(self, toy_cad):
        net = build_hetnet(toy_cad, seed=0)
        mcfg = small_model()
        params = init_params(10, mcfg)
        params["s"] = np.full_like(params["s"], np.inf)
        with pytest.raises(TrainingError, match="not finite"):
            gradients(net, params, mcfg)

    def test_embeddings_reproducible_bitwise(self, toy_cad):
        net1 = build_hetnet(toy_cad, seed=9)
        net2 = build_hetnet(toy_cad, seed=9)
        cfg = small_model(seed=9, epochs=10, tol=0.0)
        _, t1, r1 = train(net1, cfg)
        _, t2, r2 = train(net2, cfg)
        assert r1.loss_history == r2.loss_history
        assert np.array_equal(t1.objects, t2.objects)
