import json
import re

import pytest

from regir.corpus import (Corpus, CorpusError, Document, Qrels, SplitManifest,
                          convert_collection, corpus_stats, ingest_collection,
                          load_qrels, write_collection)

from conftest import make_doc, write_jsonl
from oracles import mean_relevant


def test_document_text_joins_title_and_body():
    d = Document(doc_id="x", title="Title", body="body text", year=2000)
    assert d.text == "Title\nbody text"


def test_year_from_explicit_field(tmp_path):
    write_jsonl(tmp_path / "c.jsonl",
                [{"doc_id": "a", "title": "T", "body": "b", "year": 1999}])
    corpus = ingest_collection(tmp_path / "c.jsonl")
    assert corpus.get("a").year == 1999


def test_year_recovered_from_title(tmp_path):
    write_jsonl(tmp_path / "c.jsonl",
                [{"doc_id": "a", "title": "Council Regulation 2004 No 12",
                  "body": "b"}])
    corpus = ingest_collection(tmp_path / "c.jsonl")
    assert corpus.get("a").year == 2004


def test_year_unknown_becomes_zero(tmp_path):
    write_jsonl(tmp_path / "c.jsonl",
                [{"doc_id": "a", "title": "No usable date here", "body": "b"}])
    corpus = ingest_collection(tmp_path / "c.jsonl")
    assert corpus.get("a").year == 0


def test_implausible_year_field_rejected(tmp_path):
    write_jsonl(tmp_path / "c.jsonl",
                [{"doc_id": "a", "title": "T", "body": "b", "year": 1650}])
    with pytest.raises(CorpusError):
        ingest_collection(tmp_path / "c.jsonl")


@pytest.mark.parametrize("line, error", [
    ('["doc_id", "title", "body"]', "expected a JSON object, got list"),
    ('"doc_id title body"', "expected a JSON object, got str"),
    ("7", "expected a JSON object, got int"),
    ("[" * 100_000 + "]" * 100_000, "malformed JSON"),
    ('{"doc_id": "b", "title": "T", "body": "x", "year": "1999"}',
     "year must be an integer"),
    ('{"doc_id": "b", "title": "T", "body": "x", "year": 1650}',
     "year 1650 outside"),
])
def test_bad_record_names_path_and_line(tmp_path, line, error):
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id": "a", "title": "T", "body": "b"}\n' + line + "\n")
    with pytest.raises(CorpusError) as info:
        ingest_collection(path)
    assert str(info.value).startswith(f"{path}: line 2: {error}")


def test_duplicate_doc_id_rejected(tmp_path):
    write_jsonl(tmp_path / "c.jsonl",
                [{"doc_id": "a", "title": "T", "body": "b"},
                 {"doc_id": "a", "title": "U", "body": "c"}])
    with pytest.raises(CorpusError, match="duplicate"):
        ingest_collection(tmp_path / "c.jsonl")


def test_empty_title_rejected(tmp_path):
    write_jsonl(tmp_path / "c.jsonl", [{"doc_id": "a", "title": "", "body": "b"}])
    with pytest.raises(CorpusError):
        ingest_collection(tmp_path / "c.jsonl")


def test_empty_body_warns_but_loads(tmp_path, caplog):
    write_jsonl(tmp_path / "c.jsonl", [{"doc_id": "a", "title": "T", "body": ""}])
    with caplog.at_level("WARNING"):
        corpus = ingest_collection(tmp_path / "c.jsonl")
    assert "a" in corpus
    assert any("empty body" in r.message for r in caplog.records)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id": "a", "title": "T", "body": "b"}\nnot json\n')
    with pytest.raises(CorpusError, match="line 2"):
        ingest_collection(path)


def test_roundtrip_preserves_documents(tmp_path, rng):
    from conftest import random_corpus
    corpus = random_corpus(rng, 20, year_range=(1990, 2020))
    write_collection(corpus, tmp_path / "out.jsonl")
    back = ingest_collection(tmp_path / "out.jsonl")
    assert set(back.ids) == set(corpus.ids)
    for i in corpus.ids:
        assert back.get(i).text == corpus.get(i).text
        assert back.get(i).year == corpus.get(i).year


def test_convert_json_array_with_field_map(tmp_path):
    src = tmp_path / "foreign.json"
    src.write_text(json.dumps([
        {"id": "x1", "name": "Some Act", "content": "hello", "date": 2002},
        {"id": "x2", "name": "Other Act", "content": "bye", "date": 2004},
    ]))
    out = tmp_path / "canon.jsonl"
    corpus = convert_collection(src, out,
                                {"doc_id": "id", "title": "name",
                                 "body": "content", "year": "date"})
    assert len(corpus) == 2
    reloaded = ingest_collection(out)
    assert reloaded.get("x2").year == 2004
    assert reloaded.get("x1").title == "Some Act"


def test_corpus_stats_counts_whitespace_tokens(tiny_corpus):
    stats = corpus_stats(tiny_corpus)
    assert stats.doc_count == 4
    # title contributes tokens too: "Act 0" style titles add 2 each
    lengths = [len(tiny_corpus.get(i).text.split()) for i in tiny_corpus.ids]
    assert stats.mean_tokens == pytest.approx(sum(lengths) / 4)
    assert stats.year_histogram[2001] == 1


def test_qrels_load_and_restrict(tmp_path, tiny_corpus):
    q = tmp_path / "q.tsv"
    q.write_text("# comment line\nd1\td2\nd1\td3\nd4\td2\n")
    qrels = load_qrels(q, query_corpus=tiny_corpus, pool_corpus=tiny_corpus)
    assert qrels.relevant("d1") == {"d2", "d3"}
    assert mean_relevant(qrels) == pytest.approx(1.5)
    only = qrels.restrict(["d4"])
    assert only.relevant("d1") == set()
    assert only.relevant("d4") == {"d2"}


def test_qrels_unknown_ids_collected(tmp_path, tiny_corpus):
    q = tmp_path / "q.tsv"
    q.write_text("d1\tnope1\nghost\td2\n")
    with pytest.raises(CorpusError) as err:
        load_qrels(q, query_corpus=tiny_corpus, pool_corpus=tiny_corpus)
    assert "nope1" in str(err.value) and "ghost" in str(err.value)


def test_qrels_empty_file_rejected(tmp_path):
    q = tmp_path / "q.tsv"
    q.write_text("# nothing\n")
    with pytest.raises(CorpusError):
        load_qrels(q)


def test_split_manifest_validation():
    manifest = SplitManifest(train_ids=["q1"], dev_ids=["q2"], test_ids=["q3"],
                             pool_ids=["p1", "p2"])
    qrels = Qrels({"q1": {"p1"}, "q2": {"p2"}, "q3": {"p1"}})
    manifest.validate(qrels=qrels)

    overlapping = SplitManifest(["q1"], ["q1"], ["q3"], ["p1"])
    with pytest.raises(CorpusError, match="overlap"):
        overlapping.validate()


def test_split_manifest_empty_relevant_rejected():
    manifest = SplitManifest(["q1"], ["q2"], ["q3"], ["p1"])
    qrels = Qrels({"q1": {"p1"}, "q3": {"p1"}})
    with pytest.raises(CorpusError):
        manifest.validate(qrels=qrels)


def test_split_manifest_errors_name_ids_in_split_order():
    """The first five offending ids in the split's own order: a set's order
    would change with the hash seed."""
    ids = ["q9", "q3", "q7", "q1", "q5", "q8", "q2"]
    manifest = SplitManifest(["t1"], ids, ["t2"], ["p1"])
    queries = Corpus([make_doc(q, ["a"]) for q in ("t1", "t2")])
    with pytest.raises(CorpusError, match=re.escape(
            "split 'dev': ids missing from query collection: "
            "['q9', 'q3', 'q7', 'q1', 'q5']")):
        manifest.validate(query_corpus=queries)
    qrels = Qrels({"t1": {"p1"}, "t2": {"p1"}})
    with pytest.raises(CorpusError, match=re.escape(
            "split 'dev': queries with no relevant documents: "
            "['q9', 'q3', 'q7', 'q1', 'q5']")):
        manifest.validate(qrels=qrels)


def test_split_manifest_chronology_warns_not_fails(caplog):
    docs = [make_doc("q1", ["a"], year=2010), make_doc("q2", ["a"], year=2000),
            make_doc("q3", ["a"], year=2005)]
    corpus = Corpus(docs)
    manifest = SplitManifest(["q1"], ["q2"], ["q3"], [])
    with caplog.at_level("WARNING"):
        manifest.validate(query_corpus=corpus)
    assert any("chronolog" in r.message.lower() for r in caplog.records)


def write_splits(manifest: SplitManifest, path) -> None:
    path.write_text(json.dumps({"train": manifest.train_ids,
                                "dev": manifest.dev_ids,
                                "test": manifest.test_ids,
                                "pool": manifest.pool_ids}, indent=2))


def test_split_manifest_json_roundtrip(tmp_path):
    manifest = SplitManifest(["a"], ["b"], ["c"], ["p"])
    write_splits(manifest, tmp_path / "s.json")
    back = SplitManifest.from_json(tmp_path / "s.json")
    assert back == manifest


@pytest.mark.parametrize("content,message", [
    (b'{\n  "train": ["q1"],\n  "dev": ["q\xff"]\n}', "line 3: not valid UTF-8"),
    (b'{\n  "train": ["q1"],\n  "dev": \n', "line 3: malformed JSON"),
    (b'["q1"]', "split manifest must be a JSON object"),
    (b'{"train": ["q1"], "dev": [], "test": []}', "split manifest missing key 'pool'"),
    (b'{"train": "q1", "dev": [], "test": [], "pool": []}',
     "split 'train' must be a list of strings"),
    (b'{"train": [], "dev": [1], "test": [], "pool": []}',
     "split 'dev' must be a list of strings"),
], ids=["undecodable", "truncated", "not-an-object", "missing-key",
        "string-not-list", "non-string-id"])
def test_split_manifest_rejects_bad_file(tmp_path, content, message):
    path = tmp_path / "s.json"
    path.write_bytes(content)
    with pytest.raises(CorpusError) as info:
        SplitManifest.from_json(path)
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("content,message", [
    (b'[\n{"doc_id": "a", "title": "T", "body": "\xff"}\n]',
     "line 2: not valid UTF-8"),
    (b'[\n{"doc_id": "a", "title": "T", "body": "b"},\n', "line 2: malformed JSON"),
    (b'{"doc_id": "a", "title": "T", "body": "b"}\n{"doc_id": "b"', "line 2: malformed JSON"),
    (b'["just a string"]', "record 1: expected a JSON object"),
    (b'[{"doc_id": "a", "title": 7, "body": "b"}]', "record 1: title/body must be strings"),
    (b'[{"doc_id": "a", "title": "T", "body": "b"},'
     b' {"doc_id": "a", "title": "T", "body": "b"}]', "duplicate doc_id 'a'"),
], ids=["undecodable", "truncated-array", "truncated-jsonl", "not-an-object",
        "title-not-string", "duplicate"])
def test_convert_rejects_bad_archive_naming_the_file(tmp_path, content, message):
    src = tmp_path / "foreign.json"
    src.write_bytes(content)
    with pytest.raises(CorpusError) as info:
        convert_collection(src, tmp_path / "canon.jsonl")
    assert str(info.value).startswith(f"{src}: {message}")
