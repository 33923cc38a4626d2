import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from neca import cli
from neca.cavnet import (GraphError, build_hetnet, build_inter_network,
                         build_intra_network, build_node_set, export_edge_list,
                         stable_softmax)
from neca.dataset import make_cad
from oracles import adjacency, read_edge_list


def co_occurrence(cad, u, v):
    """The oracle's count for (attr, token) nodes u and v, after checking the
    inter network's raw count (0 when there is no edge) against it."""
    count = oracles.co_occurrence(oracles.records(cad), u, v)
    nodes = build_node_set(cad)
    a, b = sorted((oracles.id_for(nodes, *u), oracles.id_for(nodes, *v)))
    edges = build_inter_network(cad, nodes)
    assert edges.raw[(edges.u == a) & (edges.v == b)].sum() == count
    return count


class TestNodeSet:
    def test_toy_universe_size(self, toy_cad):
        nodes = build_node_set(toy_cad)
        assert nodes.total == 10  # 2 + 3 + 5

    def test_counts_match_column_tallies(self, toy_cad):
        nodes = build_node_set(toy_cad)
        assert nodes.counts[oracles.id_for(nodes, 0, "M")] == 4
        assert nodes.counts[oracles.id_for(nodes, 0, "F")] == 2
        assert nodes.counts[oracles.id_for(nodes, 1, "Engineering")] == 3
        assert nodes.counts[oracles.id_for(nodes, 1, "Science")] == 1

    def test_per_attribute_counts_sum_to_n(self, toy_cad):
        nodes = build_node_set(toy_cad)
        for j in range(toy_cad.m):
            assert nodes.counts[nodes.attr_of == j].sum() == toy_cad.n

    def test_single_value_attribute(self):
        cad = make_cad([("x",)] * 5, ("a",))
        nodes = build_node_set(cad)
        assert nodes.total == 1
        assert nodes.counts[0] == 5

    def test_independent_distinct_count_oracle(self, toy_cad):
        # |V| cross-checked against a second pass using plain set arithmetic
        distinct = sum(len({rec[j] for rec in oracles.records(toy_cad)}) for j in range(toy_cad.m))
        assert build_node_set(toy_cad).total == distinct


class TestCoOccurrence:
    def test_engineering_programmer(self, toy_cad):
        u = (1, "Engineering")
        v = (2, "Programmer")
        assert co_occurrence(toy_cad, u, v) == 2  # John, Ben

    def test_female_engineering_never_cooccur(self, toy_cad):
        assert co_occurrence(toy_cad, (0, "F"), (1, "Engineering")) == 0

    def test_male_engineering(self, toy_cad):
        assert co_occurrence(toy_cad, (0, "M"), (1, "Engineering")) == 3

    def test_symmetric(self, toy_cad):
        u, v = (0, "M"), (2, "Programmer")
        assert co_occurrence(toy_cad, u, v) == co_occurrence(toy_cad, v, u)

    def test_same_attribute_rejected(self, toy_cad):
        with pytest.raises(GraphError):
            co_occurrence(toy_cad, (0, "M"), (0, "F"))


class TestInterNetwork:
    def test_two_count_softmax(self):
        # counts {1, 2}: weights are the two-term softmax evaluated directly
        cad = make_cad([("a", "x"), ("a", "x"), ("b", "y")], ("A", "B"))
        edges = build_inter_network(cad, build_node_set(cad))
        w = dict(zip(zip(edges.u, edges.v), edges.weight))
        assert len(edges) == 2
        by_raw = sorted(edges.weight[np.argsort(edges.raw)])
        assert by_raw[0] == pytest.approx(math.exp(1) / (math.exp(1) + math.exp(2)), abs=1e-5)
        assert by_raw[1] == pytest.approx(math.exp(2) / (math.exp(1) + math.exp(2)), abs=1e-5)
        assert w  # edge map non-empty

    def test_equal_counts_give_uniform_weights(self):
        cad = make_cad([("a", "x"), ("b", "y")], ("A", "B"))
        edges = build_inter_network(cad, build_node_set(cad))
        np.testing.assert_allclose(edges.weight, 1.0 / len(edges), atol=1e-12)

    def test_toy_edge_inventory(self, toy_cad):
        # distinct co-occurring cross-attribute pairs counted by hand: 13
        edges = build_inter_network(toy_cad, build_node_set(toy_cad))
        assert len(edges) == 13

    def test_engineering_programmer_dominates_specialty_position(self, toy_cad):
        nodes = build_node_set(toy_cad)
        edges = build_inter_network(toy_cad, nodes)
        attr = nodes.attr_of
        sp_mask = (attr[edges.u] != attr[edges.v]) & \
                  (np.minimum(attr[edges.u], attr[edges.v]) == 1) & \
                  (np.maximum(attr[edges.u], attr[edges.v]) == 2)
        eng_prog = {oracles.id_for(nodes, 1, "Engineering"),
                    oracles.id_for(nodes, 2, "Programmer")}
        target = [i for i in np.nonzero(sp_mask)[0]
                  if {int(edges.u[i]), int(edges.v[i])} == eng_prog]
        others = [i for i in np.nonzero(sp_mask)[0] if i not in target]
        assert len(target) == 1
        assert all(edges.weight[target[0]] > edges.weight[i] for i in others)

    def test_weights_sum_to_one(self, toy_cad):
        edges = build_inter_network(toy_cad, build_node_set(toy_cad))
        assert abs(edges.weight.sum() - 1.0) <= 1e-9

    def test_single_attribute_rejected(self):
        cad = make_cad([("a",), ("b",)], ("A",))
        with pytest.raises(GraphError, match=">= 2 attributes"):
            build_inter_network(cad, build_node_set(cad))

    def test_cross_attribute_only(self, toy_cad):
        nodes = build_node_set(toy_cad)
        edges = build_inter_network(toy_cad, nodes)
        assert np.all(nodes.attr_of[edges.u] != nodes.attr_of[edges.v])

    def test_monotone_raw_weight_relation(self, toy_cad):
        edges = build_inter_network(toy_cad, build_node_set(toy_cad))
        order = np.argsort(edges.raw, kind="stable")
        assert np.all(np.diff(edges.weight[order]) >= 0)


class TestIntraAffinity:
    def test_gender_pair(self, toy_cad):
        nodes = build_node_set(toy_cad)
        u = oracles.id_for(nodes, 0, "M")
        v = oracles.id_for(nodes, 0, "F")
        assert oracles.intra_affinity(nodes, toy_cad.n, u, v, 0.01) == pytest.approx(1.0)

    def test_specialty_pair(self, toy_cad):
        nodes = build_node_set(toy_cad)
        u = oracles.id_for(nodes, 1, "Engineering")
        v = oracles.id_for(nodes, 1, "Science")
        assert oracles.intra_affinity(nodes, toy_cad.n, u, v, 0.01) == pytest.approx(1.5)

    def test_cross_attribute_returns_beta(self, toy_cad):
        nodes = build_node_set(toy_cad)
        u = oracles.id_for(nodes, 0, "M")
        v = oracles.id_for(nodes, 1, "Science")
        assert oracles.intra_affinity(nodes, toy_cad.n, u, v, 0.01) == 0.01

    def test_symmetric(self, toy_cad):
        nodes = build_node_set(toy_cad)
        u, v = oracles.id_for(nodes, 2, "Lawyer"), oracles.id_for(nodes, 2, "Analyst")
        assert oracles.intra_affinity(nodes, toy_cad.n, u, v, 0.01) == \
            oracles.intra_affinity(nodes, toy_cad.n, v, u, 0.01)

    def test_identical_nodes_rejected(self, toy_cad):
        nodes = build_node_set(toy_cad)
        with pytest.raises(GraphError):
            oracles.intra_affinity(nodes, toy_cad.n, 3, 3, 0.01)


class TestIntraNetwork:
    def test_gender_contributes_one_within_edge(self, toy_cad):
        nodes = build_node_set(toy_cad)
        edges = build_intra_network(toy_cad, nodes, seed=7)
        within = edges.kind == 0
        gender = (nodes.attr_of[edges.u] == 0) & (nodes.attr_of[edges.v] == 0)
        assert (within & gender).sum() == 1

    def test_within_edge_count_is_complete_graphs(self, toy_cad):
        nodes = build_node_set(toy_cad)
        edges = build_intra_network(toy_cad, nodes, seed=7)
        expected = sum(len(d) * (len(d) - 1) // 2 for d in toy_cad.domains)
        assert (edges.kind == 0).sum() == expected

    def test_weights_sum_to_one(self, toy_cad):
        nodes = build_node_set(toy_cad)
        edges = build_intra_network(toy_cad, nodes, seed=7)
        assert abs(edges.weight.sum() - 1.0) <= 1e-9

    def test_deterministic_given_seed(self, toy_cad):
        nodes = build_node_set(toy_cad)
        a = build_intra_network(toy_cad, nodes, seed=42)
        b = build_intra_network(toy_cad, nodes, seed=42)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.raw, b.raw) and np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.kind, b.kind)

    def test_connectivity_edges_cross_attributes(self, toy_cad):
        nodes = build_node_set(toy_cad)
        edges = build_intra_network(toy_cad, nodes, seed=3)
        conn = edges.kind == 1
        assert np.all(nodes.attr_of[edges.u[conn]] != nodes.attr_of[edges.v[conn]])

    def test_every_node_has_foreign_intra_neighbor(self, toy_cad):
        net = build_hetnet(toy_cad, seed=5)
        attr = net.node_set.attr_of
        for node_id, neigh in enumerate(adjacency(net, "intra")):
            assert any(attr[nb] != attr[node_id] for nb in neigh)

    def test_intra_graph_connected(self, toy_cad):
        net = build_hetnet(toy_cad, seed=11)
        total = net.node_set.total
        adj = adjacency(net, "intra")
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nb in adj[cur]:
                if int(nb) not in seen:
                    seen.add(int(nb))
                    frontier.append(int(nb))
        assert len(seen) == total

    def test_single_value_attribute_allowed(self):
        cad = make_cad([("x", "p"), ("x", "q")], ("A", "B"))
        net = build_hetnet(cad, seed=0)
        lone = oracles.id_for(net.node_set, 0, "x")
        assert len(adjacency(net, "intra")[lone]) >= 1

    def test_mutual_connectivity_draws_collapse_to_one_edge(self):
        # two single-value attributes: each node must draw the other
        cad = make_cad([("x", "y")], ("A", "B"))
        nodes = build_node_set(cad)
        edges = build_intra_network(cad, nodes, seed=0)
        assert len(edges) == 1
        assert edges.kind[0] == 1
        assert edges.weight[0] == pytest.approx(1.0)

    def test_single_attribute_rejected(self):
        cad = make_cad([("a",), ("b",)], ("A",))
        with pytest.raises(GraphError):
            build_intra_network(cad, build_node_set(cad), seed=0)

    def test_all_weights_strictly_positive(self, toy_cad):
        net = build_hetnet(toy_cad, seed=1)
        assert np.all(net.inter.weight > 0)
        assert np.all(net.intra.weight > 0)


class TestSoftmaxProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.floats(-100, 100))
    @settings(max_examples=120, deadline=None)
    def test_shift_invariance(self, raw, shift):
        raw = np.array(raw)
        a = stable_softmax(raw)
        b = stable_softmax(raw + shift)
        np.testing.assert_allclose(a, b, atol=1e-9)
        assert abs(a.sum() - 1.0) <= 1e-9

    def test_huge_counts_do_not_overflow(self):
        w = stable_softmax(np.array([5000.0, 4999.0, 1.0]))
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_network_weights_invariant_to_count_shift(self, toy_cad):
        # adding a constant to every raw co-occurrence count leaves the
        # normalized edge weights unchanged
        edges = build_inter_network(toy_cad, build_node_set(toy_cad))
        np.testing.assert_allclose(stable_softmax(edges.raw + 137.0), edges.weight,
                                   atol=1e-9)


class TestExport:
    def test_round_trip(self, toy_cad, tmp_path):
        net = build_hetnet(toy_cad, seed=9)
        for which in ("inter", "intra"):
            path = tmp_path / f"{which}.tsv"
            path.write_text(export_edge_list(net, which), encoding="utf-8")
            rows = read_edge_list(path)
            edges = net.edges(which)
            assert len(rows) == len(edges)
            for i, (u, v, raw, weight, kind) in enumerate(rows):
                assert u == net.node_set.qualified(int(edges.u[i]))
                assert v == net.node_set.qualified(int(edges.v[i]))
                assert raw == edges.raw[i]          # repr round-trips exactly
                assert weight == edges.weight[i]
                assert kind == edges.kind_name(i)

    def test_weight_column_sums_to_one(self, toy_cad, tmp_path):
        net = build_hetnet(toy_cad, seed=9)
        path = tmp_path / "inter.tsv"
        path.write_text(export_edge_list(net, "inter"), encoding="utf-8")
        total = sum(r[3] for r in read_edge_list(path))
        assert abs(total - 1.0) <= 1e-9

    def test_row_count_matches_cooccurring_pairs(self, toy_cad, tmp_path):
        net = build_hetnet(toy_cad, seed=9)
        path = tmp_path / "inter.tsv"
        path.write_text(export_edge_list(net, "inter"), encoding="utf-8")
        # distinct co-occurring cross-attribute pairs, counted independently
        pairs = set()
        for rec in oracles.records(toy_cad):
            for j in range(toy_cad.m):
                for jj in range(j + 1, toy_cad.m):
                    pairs.add(((j, rec[j]), (jj, rec[jj])))
        assert len(read_edge_list(path)) == len(pairs)

    def test_unwritable_path_raises(self, toy_csv, tmp_path):
        # export_edge_list returns the text; the command line writes it
        out = tmp_path / "no_such_dir" / "x.tsv"
        args = cli.build_parser().parse_args(["export-graph", str(toy_csv), "--drop", "Name",
                                              "--which", "inter", "--out", str(out)])
        with pytest.raises(cli.StageError, match=r"\[output\]"):
            args.fn(args)
