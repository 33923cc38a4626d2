"""Degenerate tables: one attribute, constant attributes, one class, empty tokens."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neca import cli
from neca.dataset import DatasetManifest, impute_modes, load_csv

TINY = ["--epochs", "2", "--heads", "2", "--head-dim", "2", "--fusion-dim", "2"]
# the examples of one test share its tmp_path and capsys: each writes its own
# table over the last one and reads capsys afresh
EXAMPLES = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_table(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return path


@st.composite
def tables(draw, m):
    """(header, rows) of an m-attribute table plus a two-class ``cls`` column.

    Each attribute's domain size is drawn from 1 (a constant attribute) to 4,
    and every value of a domain occurs.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    n = draw(st.integers(max(sizes + [2]), 8))
    rows = [[f"v{j}_{i % k}" for j, k in enumerate(sizes)] + [f"c{i % 2}"] for i in range(n)]
    return [f"a{j}" for j in range(m)] + ["cls"], rows


class TestDegenerateTables:
    @given(tables(m=1))
    @EXAMPLES
    def test_single_attribute_is_a_graph_error(self, tmp_path, capsys, table):
        data = write_table(tmp_path / "one.csv", *table)
        out = tmp_path / "e.csv"
        capsys.readouterr()
        assert cli.main(["embed", str(data), "--label", "cls", "--out", str(out), *TINY]) == 1
        assert "[graph]" in capsys.readouterr().err
        assert not out.exists()

    @given(st.integers(2, 4).flatmap(lambda m: tables(m=m)))
    @EXAMPLES
    def test_constant_attributes_embed(self, tmp_path, table):
        header, rows = table
        data = write_table(tmp_path / "t.csv", header, rows)
        out = tmp_path / "e.csv"
        assert cli.main(["embed", str(data), "--label", "cls", "--out", str(out), *TINY]) == 0
        vectors = cli.read_embedding(out)
        assert vectors.shape == (len(rows), (len(header) - 1) * 2 * 2)
        assert np.all(np.isfinite(vectors))

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_single_class_is_an_eval_error(self, tmp_path, capsys, command):
        data = write_table(tmp_path / "t.csv", ["a", "b", "cls"],
                           [["x", "u", "A"], ["y", "v", "A"], ["x", "v", "A"]])
        emb = tmp_path / "e.csv"
        cli.write_embedding(emb, np.arange(6.0).reshape(3, 2))
        extra = ["--embedding", str(emb)] if command == "eval" else ["--runs", "1", *TINY]
        assert cli.main([command, str(data), "--label", "cls", *extra]) == 1
        assert "error: [eval] CH undefined" in capsys.readouterr().err

    def test_empty_token_is_a_domain_value(self, tmp_path):
        data = write_table(tmp_path / "t.csv", ["a", "b"], [["x", ""], ["", "u"], ["x", "u"]])
        cad = impute_modes(load_csv(data, DatasetManifest(name="t")))
        assert cad.domains == (("x", ""), ("", "u"))
        assert cad.codes.tolist() == [[0, 0], [1, 1], [0, 1]]

    def test_label_column_also_dropped_stays_the_label(self, tmp_path):
        data = write_table(tmp_path / "t.csv", ["a", "b", "cls"],
                           [["x", "u", "A"], ["y", "v", "B"]])
        cad = load_csv(data, DatasetManifest(name="t", label_column="cls",
                                             drop_columns=("cls", "b")))
        assert cad.attribute_names == ("a",)
        assert cad.labels == ("A", "B")
