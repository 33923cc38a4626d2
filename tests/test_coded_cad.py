"""The coded CAD pipeline against the per-record oracles, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from neca.cavnet import build_inter_network, build_intra_network, build_node_set
from neca.dataset import DatasetError, impute_modes, make_cad
from neca.encoders import encode_frequency, encode_onehot
from neca.model import assemble_objects


@st.composite
def raw_tables(draw):
    """Records over 2-5 attributes of 1-6 values, with '?' cells.

    One column always starts with a missing cell, so its mode is imputed
    into the first record and the imputed domain order changes.
    """
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    columns = []
    for _ in range(m):
        size = draw(st.integers(1, 6))
        tokens = ["?"] + [f"v{k}" for k in range(size)]
        columns.append(draw(st.lists(st.sampled_from(tokens), min_size=n, max_size=n)))
    columns[draw(st.integers(0, m - 1))][0] = "?"
    return [tuple(col[i] for col in columns) for i in range(n)]


def same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


@given(raw_tables(), st.integers(0, 2 ** 16), st.sampled_from([0.01, 0.5]))
@settings(max_examples=150, deadline=None)
def test_coded_pipeline_matches_per_record_oracles(records, seed, beta):
    names = tuple(f"a{j}" for j in range(len(records[0])))
    raw = make_cad(records, names)
    assert oracles.records(raw) == tuple(records)
    assert raw.domains == oracles.observed_domains(records, len(names))
    try:
        imputed = oracles.impute_modes(records, names)
    except DatasetError as exc:
        with pytest.raises(DatasetError, match="no mode") as coded:
            impute_modes(raw)
        assert str(coded.value) == str(exc)
        return
    cad = impute_modes(raw)
    domains = oracles.observed_domains(imputed, len(names))
    assert oracles.records(cad) == tuple(imputed)
    assert cad.domains == domains

    expected = oracles.NodeIndex(imputed, domains)
    nodes = build_node_set(cad)
    same_bytes(nodes.counts, expected.counts)
    same_bytes(nodes.attr_of, expected.attr_of)
    for (j, token), node_id in expected.index_of.items():
        assert oracles.id_for(nodes, j, token) == node_id
        assert nodes.qualified(node_id) == f"{names[j]}={token}"

    for edges, want in ((build_inter_network(cad, nodes), oracles.inter_edges(imputed, expected)),
                        (build_intra_network(cad, nodes, beta=beta, seed=seed),
                         oracles.intra_edges(imputed, domains, expected, beta, seed))):
        for got, ref in zip((edges.u, edges.v, edges.raw, edges.weight), want):
            same_bytes(got, ref)
        assert (edges.kind is None) == (want[4] is None)
        if edges.kind is not None:
            same_bytes(edges.kind, want[4])

    same_bytes(encode_onehot(cad).vectors, oracles.onehot(imputed, expected))
    same_bytes(encode_frequency(cad).vectors, oracles.frequency(imputed, expected))
    fused = np.random.default_rng(seed).standard_normal((nodes.total, 3))
    same_bytes(assemble_objects(nodes, fused), oracles.assemble(imputed, expected, fused))


def test_codes_are_read_only(toy_cad):
    with pytest.raises(ValueError):
        toy_cad.codes[0, 0] = 1


def test_codes_decode_to_domain_tokens(toy_cad):
    assert toy_cad.codes.dtype == np.int64
    assert toy_cad.codes[:, 1].tolist() == [0, 1, 2, 0, 2, 0]
    assert oracles.records(toy_cad)[1] == ("M", "Science", "Analyst")
