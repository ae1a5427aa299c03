import json
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from regir import corpus as corpus_module
from regir.bm25 import (Bm25Params, build_index, load_index, save_index,
                        tune_bm25)
from regir.corpus import (Corpus, CorpusError, Document, Qrels, SplitManifest,
                          convert_collection, corpus_stats, ingest_collection,
                          load_qrels, write_collection)
from regir.datefilter import choose_window
from regir.experiment import emit_rk_curve
from regir.fusion import tune_alpha
from regir.ranking import RankedList, Run
from regir.rerank.train import Hyperparams, train_model
from regir.text import build_pipeline

from conftest import build_dataset, make_doc, write_jsonl
from oracles import mean_relevant
from test_training import make_store


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


def test_the_current_year_is_read_once_per_collection_and_bounds_every_year(
        tmp_path, monkeypatch):
    """A collection read, ingested or converted, asks for today's date once,
    and that year bounds the year field and the title years of every
    record."""
    calls = []

    class Date:
        @staticmethod
        def today():
            calls.append(1)
            return SimpleNamespace(year=2005)

    monkeypatch.setattr(corpus_module, "datetime", SimpleNamespace(date=Date))
    records = [{"doc_id": "a", "title": "T", "body": "b", "year": 2005},
               {"doc_id": "b", "title": "Act 2004", "body": "b"},
               {"doc_id": "c", "title": "Act 2007 of 1999", "body": "b"},
               {"doc_id": "d", "title": "Act 2006", "body": "b"}]
    write_jsonl(tmp_path / "c.jsonl", records)
    docs = ingest_collection(tmp_path / "c.jsonl")
    assert [doc.year for doc in docs] == [2005, 2004, 1999, 0] and len(calls) == 1
    convert_collection(tmp_path / "c.jsonl", tmp_path / "out.jsonl")
    assert len(calls) == 2
    write_jsonl(tmp_path / "late.jsonl", records + [
        {"doc_id": "e", "title": "T", "body": "b", "year": 2006}])
    with pytest.raises(CorpusError, match=r"line 5: year 2006 outside \(1800, 2005\]"):
        ingest_collection(tmp_path / "late.jsonl")


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


# a tab breaks a run file's columns, a space a vector file's, a leading '#'
# makes a line a comment and a ',' breaks an eval CSV's columns
BAD_IDS = {"tab": "a\tb", "space": "a b", "newline": "a\nb", "comment": "#a",
           "comma": "a,b"}


@pytest.mark.parametrize("doc_id", BAD_IDS.values(), ids=list(BAD_IDS))
def test_ingest_refuses_an_id_the_text_formats_cannot_hold(tmp_path, doc_id):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"doc_id": "a#1", "title": "T", "body": "b"},
                       {"doc_id": doc_id, "title": "T", "body": "b"}])
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}: line 2: "
                                          rf"doc_id {re.escape(repr(doc_id))}"):
        ingest_collection(path)


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


def test_years_follow_the_ids_in_order(tmp_path):
    write_jsonl(tmp_path / "c.jsonl", [
        {"doc_id": "a", "title": "Act", "body": "x", "year": 2001},
        {"doc_id": "b", "title": "Act", "body": "x"},
        {"doc_id": "c", "title": "Act", "body": "x", "year": 1999},
        {"doc_id": "d", "title": "Act", "body": "x", "year": 2001}])
    corpus = ingest_collection(tmp_path / "c.jsonl")
    years = corpus.years(iter(["c", "a", "b", "d", "a"]))
    assert years.dtype == np.int64
    assert years.tolist() == [1999, 2001, 0, 2001, 2001]
    assert corpus.years([]).tolist() == []


def test_years_name_the_first_unknown_id(tiny_corpus):
    with pytest.raises(KeyError, match="unknown doc_id 'ghost'"):
        tiny_corpus.years(["d1", "ghost", "nope"])


def test_index_ids_are_the_pool_corpus_key_objects(tmp_path):
    """Each doc_id read from an index, and so each id a search returns, is
    the very object the pool corpus keys: a `years` probe matches by
    identity."""
    root = build_dataset(tmp_path, random.Random(5))
    pool = ingest_collection(root / "pool.jsonl")
    key = {doc_id: doc_id for doc_id in pool.ids}
    save_index(build_index(pool, build_pipeline(pool)), root / "index.bin")
    index = load_index(root / "index.bin")
    ranked = index.bm25_search(pool.get("uk007").text.split(), Bm25Params(), 10)
    loaded = {"index": list(index.doc_ids), "search": ranked.doc_ids}
    for source, ids in loaded.items():
        assert ids and all(key[d] is d for d in ids), source


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


def test_judged_keeps_the_given_order_and_refuses_a_set_with_none():
    qrels = Qrels({"q2": {"p1"}, "q1": {"p2"}, "q3": set()})
    assert qrels.judged(["q3", "q2", "q9", "q1"]) == ["q2", "q1"]
    with pytest.raises(ValueError, match="^no queries with relevant documents$"):
        qrels.judged(["q3", "q9"])


def _refusing_calls(tiny_corpus):
    """Each mean R@k over judged queries, called on queries with none."""
    unjudged = Qrels({"q1": set(), "q2": {"d9"}})
    run = Run({"q1": RankedList([("d1", 2.0), ("d2", 1.0)])})
    pipeline = build_pipeline(tiny_corpus, stopwords=frozenset(), idf_filter=False)
    hp = Hyperparams(max_epochs=1, negatives=2, B=6, hidden=3)
    store, qrels, prefetched, train_ids, dev_ids = make_store("drmm", hp)
    return {
        "tune_bm25": lambda: tune_bm25(build_index(tiny_corpus, pipeline),
                                       {"q1": ["tax"]}, unjudged, [1.2], [0.75], 2),
        "tune_alpha": lambda: tune_alpha(run, run, unjudged, [0.5], 2),
        "choose_window": lambda: choose_window(run, unjudged, tiny_corpus,
                                               tiny_corpus, [5], "post", 2, 2),
        "emit_rk_curve": lambda: emit_rk_curve(run, unjudged, 2),
        # judged train queries, so only the dev queries' mean refuses
        "train_model": lambda: train_model("drmm", train_ids, dev_ids,
                                           qrels.restrict(train_ids), prefetched,
                                           store, hp),
    }


@pytest.mark.parametrize("name", ["tune_bm25", "tune_alpha", "choose_window",
                                  "emit_rk_curve", "train_model"])
def test_every_mean_over_judged_queries_refuses_a_set_with_none(tiny_corpus, name):
    with pytest.raises(ValueError, match="^no queries with relevant documents$"):
        _refusing_calls(tiny_corpus)[name]()


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
    """Both warnings, over the known years only: the year-0 queries would
    otherwise be each split's minimum."""
    docs = [make_doc("q1", ["a"], year=2010), make_doc("q2", ["a"], year=2000),
            make_doc("q3", ["a"], year=1995), make_doc("q4", ["a"]),
            make_doc("q5", ["a"])]
    corpus = Corpus(docs)
    manifest = SplitManifest(["q1", "q4"], ["q5", "q2"], ["q3"], [])
    with caplog.at_level("WARNING"):
        manifest.validate(query_corpus=corpus)
    assert [r.getMessage() for r in caplog.records] == [
        "chronological order violated: max(train year)=2010 > "
        "min(dev year)=2000",
        "chronological order violated: min(dev year)=2000 > "
        "min(test year)=1995"]


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
