"""The shared text reader and writer: undecodable bytes and bad vector rows
are named by file and line in every loader, and vector values keep the
exact bits `float` reads."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regir import _textio
from regir._textio import read_lines, read_vectors, write_table
from regir.corpus import ingest_collection, load_qrels
from regir.dense import VectorFormatError, load_doc_vectors, load_word_vectors
from regir.experiment import load_config
from regir.metrics import read_eval_csv
from regir.ranking import read_run
from regir.rerank import Hyperparams, load_token_vectors
from regir.text import load_stopwords

from test_loader_properties import PROPERTY

# each loader with a first line it accepts
LOADERS = [
    (ingest_collection, '{"doc_id": "d1", "title": "t", "body": "b"}'),
    (load_qrels, "q1\td1"),
    (read_run, "q1\t1\td1\t1.0"),
    (read_eval_csv, "query_id,r_at_20,ndcg_at_20,rp"),
    (load_stopwords, "the"),
    (load_word_vectors, "tax 1.0 0.0"),
    (load_doc_vectors, "#dim 2"),
    (load_token_vectors, "d1 0 1.0 0.0"),
    (load_config, "task = EU2UK"),
    (Hyperparams.from_file, "lr = 0.1"),
]


@pytest.mark.parametrize("loader, first", LOADERS,
                         ids=[loader.__qualname__ for loader, _ in LOADERS])
def test_loaders_name_the_undecodable_line(tmp_path, loader, first):
    path = tmp_path / "input.txt"
    path.write_bytes(first.encode() + b"\n\xff\xfe\n")
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(str(path))}: line 2: not valid UTF-8"):
        loader(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_undecodable_line_counts_universal_newlines_past_the_first_chunk(
        tmp_path, newline):
    path = tmp_path / "big.txt"
    path.write_bytes(newline.join([b"x" * 30] * 5000 + [b"ok \xc3(", b"end"]))
    with pytest.raises(ValueError, match=r": line 5001: not valid UTF-8"):
        list(read_lines(path))


@pytest.mark.parametrize("loader, rows", [
    (load_word_vectors, ["tax 1.0 0.0", "levy 1e308 1e308"]),
    (load_doc_vectors, ["d1 1.0 0.0", "d2 1e308 1e308"]),
    (load_token_vectors, ["d1 0 1.0 0.0", "d1 1 1e308 1e308"]),
])
def test_vector_loaders_reject_rows_with_an_infinite_norm(tmp_path, loader, rows):
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError,
                       match=r"vectors\.txt: line 2: non-finite value or norm"):
        loader(path)


def test_vector_loaders_keep_their_error_class(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_bytes(b"tax 1.0\n\xff\n")
    with pytest.raises(VectorFormatError, match="line 2"):
        load_word_vectors(path)


# finite values whose squares sum to a finite norm over a handful of columns
finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
tokens = (finite.map(repr)
          | st.tuples(finite, st.integers(0, 25), st.sampled_from("efgEG")).map(
              lambda t: f"{t[0]:.{t[1]}{t[2]}}")
          | st.integers(-10**30, 10**30).map(str)
          | st.from_regex(r"\A[+-]?(\d_)?\d{1,20}(\.\d{0,20})?([eE][+-]?\d{1,2})?\Z"))


@PROPERTY
@given(st.integers(1, 4).flatmap(
           lambda dim: st.lists(st.lists(tokens, min_size=dim, max_size=dim),
                                min_size=1, max_size=12)),
       st.integers(1, 9), st.none() | st.tuples(st.integers(0), st.integers(0)))
def test_row_parser_values_have_the_bits_of_float(tmp_path, monkeypatch, rows,
                                                  block, spoil):
    monkeypatch.setattr(_textio, "_BLOCK", block)  # many blocks per file
    if spoil is not None:
        row = spoil[0] % len(rows)
        rows[row][spoil[1] % len(rows[row])] = "1x"
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"k{i} {' '.join(r)}\n" for i, r in enumerate(rows)),
                    encoding="utf-8")
    if spoil is not None:
        with pytest.raises(ValueError, match=rf": line {row + 1}: non-numeric"):
            read_vectors(path)
        return
    keys, line_nos, matrix = read_vectors(path)
    expected = np.array([[float(t) for t in r] for r in rows])
    assert matrix.dtype == np.float64 and matrix.shape == expected.shape
    assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))
    assert keys == [[f"k{i}"] for i in range(len(rows))]
    assert line_nos == list(range(1, len(rows) + 1))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_vectors_read_alike_under_every_line_ending(tmp_path, newline):
    """The matrix has a row for each line, and universal newlines end a line
    at a lone CR too: the rows come out alike, with blank and comment lines
    between them and no newline at the end."""
    lines = ["# vectors", "a 1.5 -2", "", "b 0.25 3e-3", "# end", "c 7 8"]
    path = tmp_path / "v.txt"
    path.write_bytes(newline.join(lines).encode())
    keys, line_nos, matrix = read_vectors(path, comments=True)
    assert keys == [["a"], ["b"], ["c"]] and line_nos == [2, 4, 6]
    assert matrix.tolist() == [[1.5, -2.0], [0.25, 3e-3], [7.0, 8.0]]
    assert matrix.flags.c_contiguous and matrix.flags.owndata


def test_read_vectors_fills_one_matrix(tmp_path):
    """Parsing allocates the kept matrix once: no list of blocks to join
    into a second copy. The peak stays well below twice the matrix (2.1
    times it when the blocks were concatenated)."""
    rng = np.random.default_rng(5)
    values = rng.integers(-9999, 9999, size=(4000, 200)) / 1000
    path = tmp_path / "v.txt"
    path.write_text("".join(f"d{i:04d} " + " ".join(map("{:.3f}".format, row)) + "\n"
                            for i, row in enumerate(values.tolist())))
    tracemalloc.start()
    try:
        _, _, matrix = read_vectors(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(matrix, values)
    assert peak < 1.5 * matrix.nbytes


def test_write_table_puts_comment_lines_before_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "a,b", iter(["1,2", "3,4"]), comment="run x\nseed 7")
    assert path.read_text() == "# run x\n# seed 7\na,b\n1,2\n3,4\n"
    write_table(path, None, [], comment="")
    assert path.read_text() == ""
