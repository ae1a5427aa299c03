"""Property tests for the text loaders: on arbitrary lines, raw bytes
among them, each either loads or fails with a ValueError whose message
starts with the file's path."""

import json
import random
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from regir.corpus import (SplitManifest, convert_collection, ingest_collection,
                          load_qrels)
from regir.dense import load_doc_vectors, load_word_vectors
from regir.experiment import ExperimentConfig, load_config
from regir.metrics import read_eval_csv
from regir.ranking import read_run
from regir.rerank import Hyperparams, load_token_vectors
from regir.text import load_stopwords

from conftest import build_dataset

PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# writable as UTF-8: no lone surrogates
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# a line of any bytes, mostly not UTF-8
raw = st.binary(max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=6)
ids = st.sampled_from(["a", "b", ""]) | text
numbers = (st.floats().map(repr) | st.integers(-2, 4).map(str)
           | st.sampled_from(["nan", "-inf", "1e999", "1_0", "", "x"]) | text)


def _loads_or_names_path(loader, path, lines) -> None:
    path.write_bytes(b"\n".join(line if isinstance(line, bytes) else line.encode()
                                for line in lines) + b"\n")
    try:
        loader(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc


records = st.fixed_dictionaries({}, optional={
    "doc_id": ids | json_values, "title": text | json_values,
    "body": text | json_values,
    "year": st.integers(1700, 2100) | json_values}).map(json.dumps)


@PROPERTY
@given(st.lists(records | json_values.map(json.dumps) | text | raw, max_size=6))
def test_ingest_collection_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(ingest_collection, tmp_path / "c.jsonl", lines)


archives = st.lists(records | json_values.map(json.dumps), max_size=4).map(
    lambda rs: "[" + ",\n".join(rs) + "]")


@PROPERTY
@given(st.lists(archives | records | json_values.map(json.dumps) | text | raw,
                max_size=4))
def test_convert_collection_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(lambda p: convert_collection(p, tmp_path / "out.jsonl"),
                         tmp_path / "foreign.json", lines)


split_files = st.fixed_dictionaries({}, optional={
    key: st.lists(ids, max_size=3) | json_values
    for key in ("train", "dev", "test", "pool")}).map(json.dumps)


@PROPERTY
@given(st.lists(split_files | json_values.map(json.dumps) | text | raw,
                min_size=1, max_size=2))
def test_split_manifest_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(SplitManifest.from_json, tmp_path / "splits.json", lines)


run_rows = st.lists(st.sampled_from(["q1", "q2", ""]) | text, min_size=1,
                    max_size=5).flatmap(
    lambda fields: st.tuples(st.just(fields[0]), numbers, ids, numbers,
                             st.lists(text, max_size=1)))


@PROPERTY
@given(st.lists(run_rows.map(lambda r: "\t".join([*r[:4], *r[4]])) | text | raw,
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
@given(st.lists(vector_lines | text | raw, max_size=6))
def test_load_word_vectors_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(load_word_vectors, tmp_path / "wv.txt", lines)


@PROPERTY
@given(st.lists(headers, max_size=1), st.lists(vector_lines | text | raw, max_size=6))
def test_load_doc_vectors_fails_only_naming_the_path(tmp_path, header, lines):
    _loads_or_names_path(load_doc_vectors, tmp_path / "dv.txt", header + lines)


@PROPERTY
@given(st.lists(token_lines | text | raw, max_size=6))
def test_load_token_vectors_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(load_token_vectors, tmp_path / "tok.txt", lines)


@PROPERTY
@given(st.lists(st.tuples(ids, ids, st.lists(text, max_size=1)).map(
    lambda r: "\t".join([r[0], r[1], *r[2]])) | text | raw, max_size=6))
def test_load_qrels_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(load_qrels, tmp_path / "qrels.tsv", lines)


csv_rows = st.tuples(ids, st.lists(numbers, max_size=3)).map(
    lambda r: ",".join([r[0], *r[1]]))
csv_headers = st.lists(ids, max_size=3).map(
    lambda names: ",".join(["query_id", *names]))


@PROPERTY
@given(st.lists(csv_headers, max_size=1), st.lists(csv_rows | text | raw, max_size=6))
def test_read_eval_csv_fails_only_naming_the_path(tmp_path, header, lines):
    _loads_or_names_path(read_eval_csv, tmp_path / "eval.csv", header + lines)


@PROPERTY
@given(st.lists(text | raw, max_size=6))
def test_load_stopwords_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(load_stopwords, tmp_path / "sw.txt", lines)


def _key_value_lines(keys, values):
    return st.tuples(st.sampled_from(sorted(keys)) | text, values).map(
        lambda kv: f"{kv[0]} = {kv[1]}")


@PROPERTY
@given(st.lists(_key_value_lines(
    [*Hyperparams.__dataclass_fields__, "momentum"],
    numbers | st.sampled_from(["2,3", "2,x", ",", "1e-3"])) | text | raw, max_size=6))
def test_hyperparams_from_file_fails_only_naming_the_path(tmp_path, lines):
    _loads_or_names_path(Hyperparams.from_file, tmp_path / "hp.txt", lines)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return build_dataset(tmp_path_factory.mktemp("cfgwork"), random.Random(7))


CONFIG_KEYS = sorted({f.metadata["key"] for f in fields(ExperimentConfig)
                      if "key" in f.metadata})
CONFIG_BASE = ["task = EU2UK", "data.pool = pool.jsonl", "data.queries = queries.jsonl",
               "data.qrels = qrels.tsv", "data.splits = splits.json"]
config_values = numbers | st.sampled_from([
    "true", "no", "EU2UK", "UK2EU", "bm25", "ensemble", "w2v-cent", "doc-vectors",
    "bm25,w2v-cent", "drmm", "pacrr", "word", "token", "pre", "post", "wv.txt",
    "pool.jsonl", "missing.txt", "0:1:0.25", "0:a:1", "0:1", "1,x", "1,2",
    "0:1e9:1e-9"])


@PROPERTY
@given(st.sets(st.sampled_from(CONFIG_BASE)),
       st.lists(_key_value_lines([*CONFIG_KEYS, "retrieval.engine"], config_values)
                | text | raw, max_size=6))
def test_load_config_fails_only_naming_the_path(dataset, base, lines):
    _loads_or_names_path(load_config, dataset / "cfg.txt", sorted(base) + lines)
