"""Property tests for the text loaders: on arbitrary lines each either loads
or fails with a ValueError whose message starts with the file's path."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regir.corpus import ingest_collection
from regir.dense import load_doc_vectors, load_word_vectors
from regir.ranking import read_run
from regir.rerank import load_token_vectors

PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# writable as UTF-8: no lone surrogates
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=6)
ids = st.sampled_from(["a", "b", ""]) | text
numbers = (st.floats().map(repr) | st.integers(-2, 4).map(str)
           | st.sampled_from(["nan", "-inf", "1e999", "1_0", "", "x"]) | text)


def _loads_or_names_path(loader, path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        loader(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc


records = st.fixed_dictionaries({}, optional={
    "doc_id": ids | json_values, "title": text | json_values,
    "body": text | json_values,
    "year": st.integers(1700, 2100) | json_values}).map(json.dumps)


@PROPERTY
@given(st.lists(records | json_values.map(json.dumps) | text, max_size=6))
def test_ingest_collection_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(ingest_collection, tmp_path / "c.jsonl", lines)


run_rows = st.lists(st.sampled_from(["q1", "q2", ""]) | text, min_size=1,
                    max_size=5).flatmap(
    lambda fields: st.tuples(st.just(fields[0]), numbers, ids, numbers,
                             st.lists(text, max_size=1)))


@PROPERTY
@given(st.lists(run_rows.map(lambda r: "\t".join([*r[:4], *r[4]])) | text,
                max_size=6))
def test_read_run_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(read_run, tmp_path / "run.tsv", lines)


def _vector_line(key_fields):
    return st.tuples(key_fields, st.lists(numbers, max_size=3)).map(
        lambda kv: " ".join([*kv[0], *kv[1]]))


vector_lines = _vector_line(ids.map(lambda k: [k]))
headers = st.tuples(numbers, st.lists(text, max_size=2)).map(
    lambda h: " ".join(["#dim", h[0], "#tag", *h[1]]))
token_lines = _vector_line(st.tuples(ids, numbers))


@PROPERTY
@given(st.lists(vector_lines | text, max_size=6))
def test_load_word_vectors_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(load_word_vectors, tmp_path / "wv.txt", lines)


@PROPERTY
@given(st.lists(headers, max_size=1), st.lists(vector_lines | text, max_size=6))
def test_load_doc_vectors_fails_only_naming_the_path(tmp_path, header, lines):
    _loads_or_names_path(load_doc_vectors, tmp_path / "dv.txt", header + lines)


@PROPERTY
@given(st.lists(token_lines | text, max_size=6))
def test_load_token_vectors_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(load_token_vectors, tmp_path / "tok.txt", lines)
