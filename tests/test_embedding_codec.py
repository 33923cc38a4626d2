"""Contract of the embedding CSV codec: exact bytes, exact read-back, loud failures."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from neca import cli
from neca.cli import StageError, read_embedding, write_embedding
from neca.dataset import make_cad
from neca.encoders import encode_frequency, encode_onehot


def oracle_write_embedding(path, matrix):
    """The per-cell writer: repr(float(x)) for every cell, one row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("object_id" + "".join(f",dim_{k}" for k in range(matrix.shape[1])) + "\n")
        for i, row in enumerate(matrix):
            fh.write(str(i) + "".join("," + repr(float(x)) for x in row) + "\n")


def assert_same_bytes(tmp_path, matrix):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_embedding(fast, matrix)
    oracle_write_embedding(slow, matrix)
    assert fast.read_bytes() == slow.read_bytes()
    return fast


SUBNORMALS = [5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, -4.9e-322]
SPECIAL = {
    "signed zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
    "infinities": np.array([[np.inf, -np.inf, 1.0]]),
    "nan": np.array([[np.nan, 1.0], [2.0, np.nan]]),
    "subnormals": np.array([SUBNORMALS]),
    "largest finite": np.array([[1.7976931348623157e308, -1.7976931348623157e308]]),
    "smallest normal": np.array([[2.2250738585072014e-308, 1.0000000000000002]]),
    "one distinct value": np.full((300, 7), 0.1),
}


class TestBytes:
    @pytest.mark.parametrize("name", sorted(SPECIAL))
    def test_special_values(self, tmp_path, name):
        path = assert_same_bytes(tmp_path, SPECIAL[name])
        back = read_embedding(path)
        expected = SPECIAL[name]
        assert back.shape == expected.shape
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(back), nan)
        assert back[~nan].tobytes() == expected[~nan].tobytes()

    def test_integer_dtype(self, tmp_path):
        matrix = np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * 10**17
        path = assert_same_bytes(tmp_path, matrix)
        assert read_embedding(path).tobytes() == matrix.astype(np.float64).tobytes()

    def test_transposed_view(self, tmp_path):
        base = np.random.default_rng(1).standard_normal((5, 600))
        view = base.T
        assert not view.flags.c_contiguous
        path = assert_same_bytes(tmp_path, view)
        assert read_embedding(path).tobytes() == np.ascontiguousarray(view).tobytes()

    def test_all_distinct(self, tmp_path):
        # every cell a different value: nothing is shared between cells
        matrix = np.random.default_rng(2).standard_normal((700, 40)) * 1e3
        assert len(np.unique(matrix)) == matrix.size
        path = assert_same_bytes(tmp_path, matrix)
        assert read_embedding(path).tobytes() == matrix.tobytes()

    def test_repeated_rows_across_chunks(self, tmp_path):
        # few distinct values, many rows: the shape of an assembled embedding
        table = np.random.default_rng(3).standard_normal((9, 4))
        ids = np.random.default_rng(4).integers(0, 9, size=(1000, 3))
        matrix = table[ids].reshape(1000, 12)
        path = assert_same_bytes(tmp_path, matrix)
        assert read_embedding(path).tobytes() == matrix.tobytes()

    def test_factored_blocks_across_chunks(self, tmp_path):
        # an assembled embedding: one 16-wide table row per attribute value,
        # with special values in the tables, over five chunks of rows
        rng = np.random.default_rng(5)
        tables = [rng.standard_normal((k, 16)) for k in (3, 1, 7, 2, 5, 4)]
        tables[0][1, :4] = [0.0, -0.0, np.nan, np.inf]
        tables[2][3, 5:8] = [5e-324, -np.inf, 1.7976931348623157e308]
        matrix = np.hstack([t[rng.integers(0, len(t), size=600)] for t in tables])
        # the one-row table is constant, a function of any codes: it joins the run before it
        assert [(lo, hi, len(first)) for lo, hi, _, first in cli.factor_columns(matrix)] == [
            (0, 32, 3), (32, 48, 7), (48, 64, 2), (64, 80, 5), (80, 96, 4)]
        path = assert_same_bytes(tmp_path, matrix)
        back = read_embedding(path)
        nan = np.isnan(matrix)
        assert np.array_equal(np.isnan(back), nan)
        assert back[~nan].tobytes() == matrix[~nan].tobytes()

    def test_memory_bounded_by_chunks(self, tmp_path):
        # every row distinct: no segment recurs, so caching them would hold the file
        matrix = np.random.default_rng(6).standard_normal((20_000, 64))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_embedding(path, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = path.stat().st_size * cli._CHUNK_ROWS / matrix.shape[0]
        assert peak < 12 * chunk_bytes   # the file is 157 chunks

    @pytest.mark.parametrize("kind", ["factorable", "dense"])
    def test_read_holds_one_copy(self, tmp_path, kind):
        # no second copy of the result, which would be 157 chunks more
        rng = np.random.default_rng(7)
        n = 20_000
        if kind == "dense":
            matrix = rng.standard_normal((n, 64))
        else:
            matrix = np.hstack([t[rng.integers(0, 5, size=n)]
                                for t in rng.standard_normal((4, 5, 16))])
        path = tmp_path / "big.csv"
        write_embedding(path, matrix)
        chunk_bytes = path.stat().st_size * cli._CHUNK_ROWS / n
        tracemalloc.start()
        try:
            back = read_embedding(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == matrix.tobytes()
        # one chunk's lines, tokens and learned text
        assert peak < matrix.nbytes + 16 * chunk_bytes

    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
                      elements=st.floats(allow_nan=False, width=64)))
    @settings(max_examples=150, deadline=None)
    def test_property_bytes_and_read_back(self, tmp_path_factory, matrix):
        tmp_path = tmp_path_factory.mktemp("codec")
        path = assert_same_bytes(tmp_path, matrix)
        back = read_embedding(path)
        assert back.shape == matrix.shape
        assert back.tobytes() == matrix.tobytes()


HEAD_ROWS = 8   # the first rows of a test file, which draw on few of each table's rows


@st.composite
def assembled_matrices(draw):
    """130-400 rows, each joining one row of each of a few small tables.

    The first ``HEAD_ROWS`` rows use only the first rows of each table, so
    the others first appear past them.  Some blocks take the codes of the
    block before them in those rows, so the reader keeps the two in one run
    until a later row splits it.  Some cases also change cells past those
    rows, which puts a different tail after a known first token or brings a
    new one.
    """
    n = draw(st.integers(130, 400))
    cells = st.floats(allow_nan=False, width=64)
    blocks, previous = [], None
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 5))
        table = draw(hnp.arrays(np.float64, (k, draw(st.integers(2, 4))), elements=cells))
        codes = draw(hnp.arrays(np.intp, n, elements=st.integers(0, k - 1)))
        codes[:HEAD_ROWS] %= draw(st.integers(1, k))
        if previous is not None and draw(st.booleans()):
            codes[:HEAD_ROWS] = previous[:HEAD_ROWS] % k
        previous = codes
        blocks.append(table[codes])
    matrix = np.hstack(blocks)
    for _ in range(draw(st.integers(0, 3))):
        matrix[draw(st.integers(HEAD_ROWS, n - 1)),
               draw(st.integers(0, matrix.shape[1] - 1))] = draw(cells)
    return matrix


def retoken(line, old, new):
    return ",".join(new if token == old else token for token in line.split(","))


def retoken_at(line, new):
    """``line`` with its token at each position of the dict ``new`` replaced."""
    return ",".join(new.get(j, token) for j, token in enumerate(line.split(",")))


def edit_line(k, edit):
    """The file text with its 1-based line ``k`` replaced by ``edit(line)``."""
    return edit_lines({k: edit})


def edit_lines(edits):
    """The file text with each 1-based line ``k`` of ``edits`` replaced by ``edits[k](line)``."""
    def edited(lines):
        for k, edit in edits.items():
            lines[k - 1] = edit(lines[k - 1])
        return "\n".join(lines) + "\n"
    return edited


def spy_parses(monkeypatch):
    """The tokens of every ``_parse_tokens`` call, in call order."""
    calls = []
    real_parse = cli._parse_tokens

    def spy(tokens):
        calls.append(list(tokens))
        return real_parse(tokens)

    monkeypatch.setattr(cli, "_parse_tokens", spy)
    return calls


# name -> (the edited text of the 200-row file's lines, and the number of
# tokens of each parse past line 5: a run's width for each run parsed).  The
# reader starts from one run over all 9 columns, and parses lines 2-5 whole:
# lines 2-4 bring its new first tokens, and line 5, line 2's first token with
# other text after it, splits it into the file's runs, 3, 2 and 4 columns wide.
HAND_EDITS = {
    # every first token is new: each run is parsed and learned
    "spaces around tokens": (edit_line(142, lambda line: f"  {' , '.join(line.split(','))} "),
                             [3, 2, 4]),
    # a new first token in the first run, known first tokens with other text after
    "1.00 for 1.0": (edit_line(152, lambda line: retoken(line, "1.0", "1.00")), [3, 2, 4]),
    # a new first token in the second run; in the third, other bits after a
    # known first token split the run, whose halves then match every line
    "-0.0 for 0.0": (edit_line(162, lambda line: retoken(line, "0.0", "-0.0")), [2, 4]),
    "crlf endings": (lambda lines: "\r\n".join(lines) + "\r\n", []),
    "blank lines": (lambda lines: "\n".join(lines[:136] + ["", "   ", "\t"] + lines[136:-1]
                                            + [""] + lines[-1:]) + "\n", []),
    "no final newline": (lambda lines: "\n".join(lines), []),
    # too many tokens: every run matches, and the text left after them raises
    "extra token after a match": (edit_line(172, lambda line: line + ",1.0"), []),
    # the run with the bad token, which fails to parse, so the line raises
    "bad token in a matching line": (edit_line(182, lambda line: line[:line.rindex(",")] + ",x"),
                                     [4]),
    # line 192 brings a new first token in the first run and 1.00 in the last;
    # line 195 repeats the first run's new segment, which was learned
    "new first token and 1.00": (edit_lines({
        192: lambda line: retoken_at(line, {1: "0.50", 8: "1.00"}),
        195: lambda line: retoken_at(line, {1: "0.50"})}), [3, 4]),
}


class TestRunMatching:
    """Lines made of the learned segments of column runs, which splits make finer."""

    @staticmethod
    def hand_matrix():
        # three runs, each from a table whose tokens include 1.0 and 0.0
        tables = (np.array([[1.0, 0.0, 1.0], [0.5, -2.25, 3.0], [0.0, 1.0, 0.0]]),
                  np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[1.0, 2.0, 0.0, -1.0], [0.25, 0.0, 1.0, 7.5]]))
        i = np.arange(200)
        return np.hstack([tables[0][i % 3], tables[1][i % 2], tables[2][i // 2 % 2]])

    @given(assembled_matrices())
    @settings(max_examples=60, deadline=None)
    def test_property_assembled_rows_read_back(self, tmp_path_factory, matrix):
        path = assert_same_bytes(tmp_path_factory.mktemp("runs"), matrix)
        assert read_embedding(path).tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("name", sorted(HAND_EDITS))
    def test_hand_edited_file_reads_as_the_oracle_reads_it(self, tmp_path, monkeypatch, name):
        edit, parses = HAND_EDITS[name]
        written = tmp_path / "written.csv"
        write_embedding(written, self.hand_matrix())
        path = tmp_path / "edited.csv"
        path.write_bytes(edit(written.read_text(encoding="utf-8").splitlines()).encode())
        calls = spy_parses(monkeypatch)
        try:
            expected = oracles.read_embedding(path)
        except StageError as exc:
            with pytest.raises(StageError) as raised:
                read_embedding(path)
            assert str(raised.value) == str(exc) and raised.value.stage == "eval"
        else:
            assert read_embedding(path).tobytes() == expected.tobytes()
        assert calls[:4] == [line.split(",")[1:] for line in written.read_text().splitlines()[1:5]]
        assert [len(tokens) for tokens in calls[4:]] == parses

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_end_across_a_decode_boundary(self, tmp_path, newline):
        # a file of more than four decode pieces, with a line end moved onto
        # the third boundary by zeros before an object id, which is not read
        rng = np.random.default_rng(12)
        matrix = np.hstack([table[rng.integers(0, 4, size=1000)]
                            for table in rng.standard_normal((3, 4, 8))])
        written = tmp_path / "written.csv"
        write_embedding(written, matrix)
        lines = written.read_text(encoding="utf-8").splitlines()
        lines[500] = retoken_at(lines[500], {2: " " + lines[500].split(",")[2]})
        boundary = 3 * cli._DECODE_BYTES
        text = newline.join(lines) + newline
        k = text.count(newline, 0, boundary - 1)   # the line whose end goes on the boundary
        end = text.rindex(newline, 0, boundary - 1)
        lines[k - 1] = "0" * (boundary - 1 - end) + lines[k - 1]
        text = newline.join(lines) + newline
        assert len(text) > 4 * cli._DECODE_BYTES and text.isascii()
        assert text[boundary - 1:boundary - 1 + len(newline)] == newline
        path = tmp_path / "edited.csv"
        path.write_bytes(text.encode())
        back = read_embedding(path)
        assert back.tobytes() == oracles.read_embedding(path).tobytes() == matrix.tobytes()

    def test_only_new_segments_are_parsed(self, tmp_path, monkeypatch):
        # the DE shape: 4-valued attributes and one 60-valued one; the first
        # rows draw from their first three (ten) values, the others first appear past them
        rng = np.random.default_rng(9)
        sizes = (4,) * 6 + (60,)
        tables = [rng.standard_normal((k, 8)) for k in sizes]
        codes = [rng.integers(0, k, size=400) for k in sizes]
        for column, k in zip(codes, sizes):
            column[:HEAD_ROWS] %= 3 if k == 4 else 10
        matrix = np.hstack([table[column] for table, column in zip(tables, codes)])
        # rows 0-6 tell every attribute apart, rows 0-5 do not
        assert [(lo, hi) for lo, hi, _, _ in cli.factor_columns(matrix[:7])] == [
            (lo, lo + 8) for lo in range(0, 56, 8)]
        assert len(cli.factor_columns(matrix[:6])) == 6
        new, seen = [], [set(column[:7].tolist()) for column in codes]
        for i in range(7, len(matrix)):
            for table, column, known in zip(tables, codes, seen):
                if column[i] not in known:
                    known.add(column[i])
                    new.append([repr(x) for x in table[column[i]].tolist()])
        # rows 0-6 hold 15 of the 4-valued attributes' 24 values and 5 of the
        # 59 values the 60-valued one takes
        assert len(new) == 9 + 54
        path = assert_same_bytes(tmp_path, matrix)
        calls = spy_parses(monkeypatch)
        assert read_embedding(path).tobytes() == matrix.tobytes()
        # rows 0-6 find the runs: rows 0 and 1 bring new first tokens of the
        # one run, and row 2, row 0's first token with other text, splits it
        # into five, two of them two attributes wide; row 3 brings a new first
        # token in two runs and row 4 in one; rows 5 and 6 split the two wide
        # runs, each also bringing a new first token in another run
        assert calls[:10] == [[repr(x) for x in matrix[row, lo:hi].tolist()] for row, lo, hi in [
            (0, 0, 56), (1, 0, 56), (2, 0, 56), (3, 0, 8), (3, 48, 56), (4, 32, 48),
            (5, 32, 48), (5, 48, 56), (6, 8, 24), (6, 40, 48)]]
        # past them the runs are the attributes, and only values not yet seen are parsed
        assert calls[10:] == new

    def test_merged_run_is_split_at_its_first_mismatch(self, tmp_path, monkeypatch):
        # two attributes agree on every line up to row 50, so the reader keeps
        # them in one 8-wide run until row 50 tells them apart
        rng = np.random.default_rng(11)
        first, second = rng.standard_normal((4, 4)), rng.standard_normal((5, 4))
        third = rng.standard_normal((3, 3))
        i = np.arange(300)
        a = np.where(i < 50, i % 3, i % 4)
        b = np.where(i < 50, i % 3, i // 4 % 4)
        a[20] = b[20] = 3     # a new first token of the merged run, learned whole
        b[[50, 150, 250]] = 4     # a value the merged run never held, learned at the split
        c = i % 2
        c[[100, 200]] = 2     # a new first token of the third run, then its repeat
        matrix = np.hstack([first[a], second[b], third[c]])
        assert [(lo, hi) for lo, hi, _, _ in cli.factor_columns(matrix[:4])] == [(0, 8), (8, 11)]
        assert (a[:50] == b[:50]).all() and a[50] != b[50]
        path = assert_same_bytes(tmp_path, matrix)
        calls = spy_parses(monkeypatch)
        assert read_embedding(path).tobytes() == matrix.tobytes()
        # rows 0-2 bring new first tokens of the one run the reader starts
        # from; row 3, row 0's first token with another third attribute value,
        # splits it into the merged run and the third.  The merged run is
        # parsed at row 20 and, once, at row 50, where it splits; its halves
        # then match every line, including pairs it never held whole.  Rows
        # 4-49 were matched in the same chunk before the split, and keep their values
        assert calls == [[repr(x) for x in matrix[row, lo:hi].tolist()] for row, lo, hi in [
            (0, 0, 11), (1, 0, 11), (2, 0, 11), (3, 0, 11), (20, 0, 8), (50, 0, 8),
            (100, 8, 11)]]

    def test_run_of_distinct_rows_is_parsed_once_per_row(self, tmp_path, monkeypatch):
        # the last run's first 200 rows are distinct, so it brings a new first
        # token on each of them; the other runs repeat and are still matched
        rng = np.random.default_rng(10)
        n = 300
        tables = [rng.standard_normal((4, 8)) for _ in range(3)]
        columns = [np.concatenate([np.arange(4), rng.integers(0, 4, size=n - 4)])
                   for _ in tables]
        wide = rng.standard_normal((200, 8))
        ids = np.arange(n) % len(wide)
        matrix = np.hstack([t[c] for t, c in zip(tables, columns)] + [wide[ids]])
        assert [(lo, hi, len(first)) for lo, hi, _, first in cli.factor_columns(matrix[:5])] == [
            (0, 8, 4), (8, 16, 4), (16, 24, 4), (24, 32, 5)]
        path = assert_same_bytes(tmp_path, matrix)
        calls = spy_parses(monkeypatch)
        assert read_embedding(path).tobytes() == matrix.tobytes()
        # rows 0-3 bring new first tokens of the one run the reader starts
        # from, and row 4, one of them with other text, splits it into the
        # four runs; then one parse per row of the wide table not yet seen,
        # and none for rows 200-299, which repeat its rows 0-99
        assert calls[:5] == [[repr(x) for x in row.tolist()] for row in matrix[:5]]
        assert calls[5:] == [[repr(x) for x in wide[i].tolist()] for i in range(5, len(wide))]

    @pytest.mark.parametrize("encode", [encode_frequency, encode_onehot])
    def test_every_split_refines(self, tmp_path, monkeypatch, encode):
        # every column of an encoded table is isolated, so factor_columns
        # keeps the first lines' columns as one run with a code per row; a
        # split must still refine, leaving at most width - 1 splits
        codes = np.random.default_rng(13).integers(0, 3, size=(600, 20))
        cad = make_cad([[f"v{c}" for c in row] for row in codes], [f"a{j}" for j in range(20)])
        matrix = encode(cad).vectors
        path = tmp_path / "encoded.csv"
        write_embedding(path, matrix)
        splits = []
        real_split = cli._Segments._split

        def split(segments, *args):
            splits.append(args[0])
            return real_split(segments, *args)

        monkeypatch.setattr(cli._Segments, "_split", split)
        assert read_embedding(path).tobytes() == matrix.tobytes()
        assert 0 < len(splits) <= matrix.shape[1] - 1

    def test_learned_text_is_bounded(self, tmp_path, monkeypatch):
        # past the first chunk every line starts with a new first token, so
        # every line brings a new segment: the learned text starts over at a
        # chunk's worth of tokens rather than growing with the rows
        rng = np.random.default_rng(8)
        tail = rng.choice([-1.0, 1.0], size=(2000, 6))
        tail[:, 0] = np.arange(2000)
        matrix = np.vstack([np.repeat(rng.standard_normal((4, 6)), 32, axis=0), tail])
        path = tmp_path / "emb.csv"
        write_embedding(path, matrix)
        sizes = []
        real_size = cli._Segments.size

        def size(segments):
            sizes.append(real_size(segments))
            return sizes[-1]

        monkeypatch.setattr(cli._Segments, "size", size)
        assert read_embedding(path).tobytes() == matrix.tobytes()
        cap = cli._CHUNK_ROWS * matrix.shape[1]
        assert sum(size >= cap for size in sizes) >= 10 and max(sizes) < 2 * cap


class TestReadFailures:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "object_id,dim_0,dim_1\n0,1.0,2.0\n1,3.0\n2,4.0,5.0\n")
        with pytest.raises(StageError, match=r"line 3") as exc:
            read_embedding(path)
        assert exc.value.stage == "eval" and str(path) in str(exc.value)

    def test_width_differs_from_header(self, tmp_path):
        # every row agrees with every other row, but not with the header
        path = self.write(tmp_path, "object_id,dim_0,dim_1\n0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n")
        with pytest.raises(StageError, match=r"line 2: 3 values, header has 2") as exc:
            read_embedding(path)
        assert exc.value.stage == "eval" and str(path) in str(exc.value)

    def test_non_numeric_token(self, tmp_path):
        path = self.write(tmp_path, "object_id,dim_0,dim_1\n0,1.0,2.0\n1,3.0,2.0\n"
                                    "\n3,abc,1.0\n")
        with pytest.raises(StageError, match=r"line 5: 'abc' is not a number") as exc:
            read_embedding(path)
        assert exc.value.stage == "eval" and str(path) in str(exc.value)

    def test_empty_token(self, tmp_path):
        path = self.write(tmp_path, "object_id,dim_0,dim_1\n0,1.0,\n")
        with pytest.raises(StageError, match=r"line 2: '' is not a number"):
            read_embedding(path)

    @pytest.mark.parametrize("k", [3, 150])
    def test_byte_not_utf8(self, tmp_path, k):
        # line 3 is parsed whole, as its first token is new in the one run the
        # reader starts from; line 150 matches learned runs but for the bad
        # byte, which is in the middle of the first run
        path = tmp_path / "emb.csv"
        write_embedding(path, TestRunMatching.hand_matrix())
        lines = path.read_bytes().split(b"\n")
        assert lines[k - 1].split(b",")[1:4] == [b"0.5", b"-2.25", b"3.0"]
        lines[k - 1] = lines[k - 1].replace(b"-2.25", b"-2.2\xff5")
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(StageError, match=rf"line {k}: '-2.2\\udcff5' is not a number") as exc:
            read_embedding(path)
        assert exc.value.stage == "eval" and str(path) in str(exc.value)

    def test_bad_line_number_past_first_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
        rows = [f"{i},{i}.5" for i in range(6)]
        rows[4] = "4,x"
        path = self.write(tmp_path, "object_id,dim_0\n" + "\n".join(rows) + "\n")
        with pytest.raises(StageError, match=r"line 6: 'x'"):
            read_embedding(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "object_id,dim_0,dim_1,dim_2\n")
        back = read_embedding(path)
        assert back.shape == (0, 3) and back.dtype == np.float64

    def test_header_of_no_dims(self, tmp_path):
        # a row of an object id alone is the header's width of numbers, none
        path = self.write(tmp_path, "object_id\n0\n1\n")
        back = read_embedding(path)
        assert back.shape == (2, 0) and back.dtype == np.float64
        assert oracles.read_embedding(path).shape == (2, 0)

    def test_not_an_embedding(self, tmp_path):
        path = self.write(tmp_path, "id,a\n0,1.0\n")
        with pytest.raises(StageError, match="not an embedding file"):
            read_embedding(path)


class TestAtomicWrites:
    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "emb.csv"
        target.write_text("previous contents\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
        real_format, calls = cli._format_rows, []

        def failing_format(matrix, runs, first_id, cache):
            calls.append(first_id)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_format(matrix, runs, first_id, cache)

        monkeypatch.setattr(cli, "_format_rows", failing_format)
        with pytest.raises(OSError, match="disk full"):
            write_embedding(target, np.ones((10, 3)))
        assert calls == [0, 2, 4]          # it failed partway through
        assert target.read_text(encoding="utf-8") == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.csv"]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_format_rows", lambda matrix, runs, first_id, cache: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            write_embedding(tmp_path / "emb.csv", np.ones((3, 3)))
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "emb.csv"
        target.write_text("previous contents\n", encoding="utf-8")
        write_embedding(target, np.eye(2))
        assert read_embedding(target).tobytes() == np.eye(2).tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.csv"]

    def test_failed_meta_write_keeps_old_meta(self, toy_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "emb.csv"
        meta = tmp_path / "emb.meta.json"
        meta.write_text('{"previous": true}\n', encoding="utf-8")

        def failing_dumps(*args, **kwargs):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(cli.json, "dumps", failing_dumps)
        assert cli.main(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                         "--epochs", "1"]) == 1
        monkeypatch.undo()
        assert "[output]" in capsys.readouterr().err
        assert json.loads(meta.read_text(encoding="utf-8")) == {"previous": True}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "emb.csv", "emb.meta.json", "toy_talent.csv"]
        assert math.isfinite(read_embedding(out).sum())
