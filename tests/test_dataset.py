import csv
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from neca.dataset import (CAD, DatasetError, DatasetManifest, impute_modes, load_csv,
                          make_cad, read_kv_file)
from oracles import records, save_csv


def toy_manifest():
    return DatasetManifest(name="toy", drop_columns=("Name",))


class TestLoadCsv:
    def test_toy_table_shape_and_domains(self, toy_csv):
        cad = load_csv(toy_csv, toy_manifest())
        assert (cad.n, cad.m) == (6, 3)
        assert [len(d) for d in cad.domains] == [2, 3, 5]
        assert cad.attribute_names == ("Gender", "Specialty", "Position")
        assert cad.labels is None

    def test_first_appearance_domain_order(self, toy_csv):
        cad = load_csv(toy_csv, toy_manifest())
        assert cad.domains[0] == ("M", "F")
        assert cad.domains[1] == ("Engineering", "Science", "Liberal Arts")

    def test_single_cell_dataset(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("a\nx\n")
        cad = load_csv(p, DatasetManifest(name="one"))
        assert (cad.n, cad.m) == (1, 1)
        assert cad.domains == (("x",),)

    def test_label_column_split_out(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("f1,f2,cls\na,u,pos\nb,v,neg\n")
        cad = load_csv(p, DatasetManifest(name="lab", label_column="cls"))
        assert cad.m == 2
        assert cad.labels == ("pos", "neg")

    def test_ragged_row_reports_row_number(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(p, DatasetManifest(name="ragged"))

    def test_empty_dataset_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(p, DatasetManifest(name="empty"))

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("a,b\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(p, DatasetManifest(name="hdr"))

    def test_missing_label_column_rejected(self, tmp_path):
        p = tmp_path / "nolabel.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="label column"):
            load_csv(p, DatasetManifest(name="x", label_column="cls"))

    def test_missing_drop_column_rejected(self, toy_csv):
        with pytest.raises(DatasetError, match="drop column 'nosuch' not found"):
            load_csv(toy_csv, DatasetManifest(name="toy", drop_columns=("Name", "nosuch")))

    @pytest.mark.parametrize("header, twice", [("a,a,class", "a"), ("a,class,class", "class")])
    def test_column_named_twice_rejected(self, tmp_path, header, twice):
        p = tmp_path / "twice.csv"
        p.write_text(header + "\nx,y,z\n")
        with pytest.raises(DatasetError, match=f"column {twice!r} is named twice"):
            load_csv(p, DatasetManifest(name="twice", label_column="class"))

    def test_byte_order_mark_and_crlf_header(self, tmp_path, toy_csv):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + toy_csv.read_bytes().replace(b"\n", b"\r\n"))
        cad = load_csv(p, toy_manifest())
        expected = load_csv(toy_csv, toy_manifest())
        assert cad.attribute_names == expected.attribute_names == ("Gender", "Specialty", "Position")
        assert cad.domains == expected.domains
        assert np.array_equal(cad.codes, expected.codes)
        labeled = load_csv(p, DatasetManifest(name="toy", label_column="Name"))
        assert labeled.m == 3 and labeled.labels[:2] == ("John", "Tony")

    def test_headerless_with_column_names(self, tmp_path):
        p = tmp_path / "raw.data"
        p.write_text("1,x\n2,y\n")
        m = DatasetManifest(name="raw", column_names=("num", "tok"))
        cad = load_csv(p, m)
        assert cad.attribute_names == ("num", "tok")
        assert records(cad)[0] == ("1", "x")

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text('a,b\n"x,1",y\n')
        cad = load_csv(p, DatasetManifest(name="q"))
        assert records(cad)[0] == ("x,1", "y")

    def test_round_trip_preserves_everything(self, tmp_path, toy_csv):
        cad = load_csv(toy_csv, toy_manifest())
        out = tmp_path / "again.csv"
        save_csv(cad, out)
        again = load_csv(out, DatasetManifest(name="again"))
        assert records(again) == records(cad)
        assert again.domains == cad.domains
        assert again.labels == cad.labels

    def test_round_trip_with_labels(self, tmp_path):
        cad = make_cad([("a", "x"), ("b", "y")], ("f1", "f2"), labels=("p", "q"))
        out = tmp_path / "lab.csv"
        save_csv(cad, out)
        again = load_csv(out, DatasetManifest(name="lab", label_column="label"))
        assert records(again) == records(cad)
        assert again.labels == ("p", "q")


TOKENS = ["a", " a", "a ", " a\t", "b", "b ", "?", "", " "]


@st.composite
def padded_tables(draw):
    """Rows of tokens that differ only by surrounding whitespace, plus labels.

    Column 0 always holds " a", "a " and "a", in an order and at rows drawn
    by hypothesis, so the token that the merged value keeps can come first
    at any row.
    """
    n = draw(st.integers(3, 12))
    m = draw(st.integers(1, 3))
    cells = draw(st.lists(st.lists(st.sampled_from(TOKENS), min_size=m + 1, max_size=m + 1),
                          min_size=n, max_size=n))
    rows = draw(st.permutations(range(n)))[:3]
    for row, token in zip(rows, draw(st.permutations([" a", "a ", "a"]))):
        cells[row][0] = token
    return cells


class TestStripDistinctTokens:
    @given(padded_tables())
    @settings(max_examples=150, deadline=None)
    def test_equals_stripping_every_cell(self, cells):
        m = len(cells[0]) - 1
        header = [f"c{j}" for j in range(m)] + ["label"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header] + cells)
            cad = load_csv(path, DatasetManifest(name="t", label_column="label"))
        stripped = [[t.strip() for t in row] for row in cells]
        expected = make_cad([row[:m] for row in stripped], header[:m],
                            labels=[row[m] for row in stripped])
        assert cad.codes.tobytes() == expected.codes.tobytes()
        assert cad.domains == expected.domains
        assert cad.labels == expected.labels
        assert all(type(label) is str for label in cad.labels)

    def test_drop_column_quoted_fields_and_padded_label(self, tmp_path):
        # every cell, the identifiers' too, is coded through one table of tokens;
        # a drop column between the features shares some of their tokens
        rng = np.random.default_rng(6)
        rows = [[str(rng.choice(["x", " x", "x,y", ' "q" ', "7"])),
                 f"id{i}" if i % 7 else "x",
                 str(rng.choice(["a", "b ", " c", "x"])),
                 str(rng.choice(["p", " p ", "q", "x,y"]))] for i in range(300)]
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["f1", "id", "f2", "label"]] + rows)
        cad = load_csv(path, DatasetManifest(name="t", label_column="label", drop_columns=("id",)))
        stripped = [[t.strip() for t in row] for row in rows]
        expected = make_cad([(row[0], row[2]) for row in stripped], ("f1", "f2"),
                            labels=[row[3] for row in stripped])
        assert cad.attribute_names == ("f1", "f2")
        assert cad.codes.tobytes() == expected.codes.tobytes()
        assert cad.codes.flags.c_contiguous and expected.codes.flags.c_contiguous
        assert cad.domains == expected.domains
        assert cad.labels == expected.labels


class TestCadInvariants:
    def test_every_domain_token_observed(self, toy_cad):
        for j, domain in enumerate(toy_cad.domains):
            assert np.all(np.bincount(toy_cad.codes[:, j], minlength=len(domain)) >= 1)

    def test_record_arity_enforced(self):
        with pytest.raises(DatasetError, match=r"\(n, 1\)"):
            CAD(codes=np.zeros((1, 2), dtype=np.int64), attribute_names=("x",),
                domains=(("a",),))
        with pytest.raises(DatasetError, match="record 0 has 2 entries"):
            make_cad([("a", "b")], ("x",))

    def test_token_outside_domain_rejected(self):
        for code in (1, -1):
            with pytest.raises(DatasetError, match="outside the domain of 'x'"):
                CAD(codes=np.array([[0], [code]]), attribute_names=("x",), domains=(("b",),))

    def test_label_count_enforced(self):
        with pytest.raises(DatasetError):
            make_cad([("a",)], ("x",), labels=("p", "q"))


class TestImputeModes:
    def test_unique_mode(self):
        cad = make_cad([("a",), ("a",), ("?",), ("b",)], ("c",))
        assert [r[0] for r in records(impute_modes(cad))] == ["a", "a", "a", "b"]

    def test_tie_breaks_to_first_appearance(self):
        cad = make_cad([("a",), ("b",), ("?",)], ("c",))
        assert [r[0] for r in records(impute_modes(cad))] == ["a", "b", "a"]

    def test_tie_break_enumerated_over_two_token_columns(self):
        # For every 2-token tied column, the mode is the first-appearing token.
        for perm in itertools.permutations(["a", "a", "b", "b"]):
            cad = make_cad([(t,) for t in perm] + [("?",)], ("c",))
            imputed = impute_modes(cad)
            assert records(imputed)[-1][0] == perm[0]

    def test_no_missing_is_identity(self, toy_cad):
        assert records(impute_modes(toy_cad)) == records(toy_cad)

    def test_idempotent(self):
        cad = make_cad([("a",), ("?",), ("b",), ("a",)], ("c",))
        once = impute_modes(cad)
        twice = impute_modes(once)
        assert records(once) == records(twice)
        assert once.domains == twice.domains

    def test_all_missing_column_rejected(self):
        cad = make_cad([("?",), ("?",)], ("c",))
        with pytest.raises(DatasetError, match="no mode"):
            impute_modes(cad)

    def test_domains_recomputed_after_imputation(self):
        cad = make_cad([("?",), ("a",)], ("c",))
        imputed = impute_modes(cad)
        assert imputed.domains == (("a",),)

    def test_codes_not_in_first_appearance_order(self):
        # a CAD built from codes may number its domain in any order and hold
        # values no record takes; the result is that of imputing the records
        rng = np.random.default_rng(7)
        domains = (("b", "?", "a", "c"), ("?", "x", "y"), ("u", "v", "?", "w", "z"))
        names = ("c0", "c1", "c2")
        for _ in range(20):
            codes = np.stack([rng.integers(0, len(d) - (j == 2), size=30)
                              for j, d in enumerate(domains)], axis=1)
            cad = CAD(codes, names, domains)
            imputed = oracles.impute_modes(records(cad), names)
            result = impute_modes(cad)
            assert records(result) == tuple(imputed)
            assert result.domains == oracles.observed_domains(imputed, len(names))

    def test_custom_missing_token(self):
        cad = make_cad([("NA",), ("x",)], ("c",))
        imputed = impute_modes(cad, missing_token="NA")
        assert records(imputed) == (("x",), ("x",))


class TestManifest:
    def test_kv_file_parsing(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("# comment\nname = zoo\nlabel = type\ndrop = animal\n")
        m = DatasetManifest.from_file(p)
        assert m.name == "zoo"
        assert m.label_column == "type"
        assert m.drop_columns == ("animal",)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("name = x\nbogus = 1\n")
        with pytest.raises(DatasetError, match="bogus"):
            DatasetManifest.from_file(p)

    def test_repeated_key_names_file_line_and_key(self, tmp_path):
        p = tmp_path / "dup.manifest"
        p.write_text("name = x\n# note\nlabel = a\nname = y\n")
        with pytest.raises(DatasetError, match=r"dup\.manifest:4: key 'name' repeats line 1"):
            read_kv_file(p)

    @pytest.mark.parametrize("key, value", [("header", "false"), ("notes", "unpinned")])
    def test_removed_keys_are_unknown(self, tmp_path, key, value):
        # a file is headerless exactly when `columns` names its columns, and notes are comments
        p = tmp_path / "m.manifest"
        p.write_text(f"name = x\ncolumns = a,b\n{key} = {value}\n")
        with pytest.raises(DatasetError, match=rf"unknown manifest keys: \['{key}'\]"):
            DatasetManifest.from_file(p)

    def test_comment_lines_anywhere(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("# Zoo: 101 animals\nname = zoo\n  # indented\ncolumns = animal,type\n"
                     "label = type\n# checksum unpinned\n")
        m = DatasetManifest.from_file(p)
        assert (m.name, m.column_names, m.label_column) == ("zoo", ("animal", "type"), "type")
        assert m.missing_token == "?" and m.source_url == "" and m.drop_columns == ()

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("name x\n")
        with pytest.raises(DatasetError, match=":1"):
            read_kv_file(p)

    def test_at_most_one_label_role(self, tmp_path):
        p = tmp_path / "ab.csv"
        p.write_text("a,b,c\nx,u,p\ny,v,q\n")
        cad = load_csv(p, DatasetManifest(name="x", label_column="a"))
        assert cad.labels == ("x", "y")
        assert cad.attribute_names == ("b", "c") and cad.domains == (("u", "v"), ("p", "q"))
