import json
import math
import pickle
import random
from collections import Counter, defaultdict

import pytest

import numpy as np

from regir._npz import write_npz
from regir.bm25 import (INDEX_FORMAT, Bm25Params, GridCell, PostingsIndex,
                        build_index, default_grid, load_index, save_index,
                        tune_bm25, write_grid_csv)
from regir.corpus import Corpus, Qrels
from regir.text import build_pipeline

from conftest import make_doc, random_corpus
from oracles import (bm25_score, doc_len_of, idf_from_token_lists,
                     index_from_postings, postings_dict, postings_of,
                     read_grid_csv, score_all_per_term, score_of,
                     top_k_lexsort, tune_bm25_per_cell, validate)


def index_from_token_lists(token_lists: dict[str, list[str]]) -> PostingsIndex:
    """Build an index directly from tokens, through a pipeline that keeps
    every term."""
    postings = defaultdict(list)
    for doc_id in sorted(token_lists):
        for term, tf in sorted(Counter(token_lists[doc_id]).items()):
            postings[term].append((doc_id, tf))
    table = idf_from_token_lists([token_lists[d] for d in sorted(token_lists)])
    return index_from_postings(dict(postings), token_lists, table)


def oracle_score(query, token_lists, doc_id, k1, b):
    """Naive full-scan BM25, written from the formula with no shared code."""
    n = len(token_lists)
    avg = sum(len(t) for t in token_lists.values()) / n
    length = len(token_lists[doc_id])
    total = 0.0
    for term in query:  # bag semantics: every occurrence contributes
        df = sum(1 for toks in token_lists.values() if term in toks)
        if df == 0:
            continue
        tf = token_lists[doc_id].count(term)
        if tf == 0:
            continue
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg))
    return total


def oracle_rank(query, token_lists, k1, b, k):
    scored = [(d, oracle_score(query, token_lists, d, k1, b))
              for d in token_lists]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


TOY = {"d1": ["a", "a", "b"], "d2": ["b", "c"]}


@pytest.fixture
def toy_index():
    return index_from_token_lists(TOY)


def test_toy_score_frozen(toy_index):
    score = bm25_score(toy_index, ["a"], "d1", Bm25Params(1.2, 0.75))
    expected = math.log(2) * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2.5))
    assert score == pytest.approx(expected, abs=1e-15)
    assert score == pytest.approx(0.902321773509988, abs=1e-12)


def test_toy_postings_shape(toy_index):
    assert postings_of(toy_index) == {"a": [("d1", 2)],
                                  "b": [("d1", 1), ("d2", 1)],
                                  "c": [("d2", 1)]}
    assert toy_index.avg_len == pytest.approx(2.5)
    validate(toy_index)


def test_duplicate_query_terms_double_contribution(toy_index):
    params = Bm25Params()
    one = bm25_score(toy_index, ["a"], "d1", params)
    two = bm25_score(toy_index, ["a", "a"], "d1", params)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_disjoint_query_scores_zero(toy_index):
    assert bm25_score(toy_index, ["zzz"], "d1", Bm25Params()) == 0.0


def test_unseen_term_leaves_scores_unchanged(toy_index):
    params = Bm25Params(0.9, 0.4)
    base = bm25_score(toy_index, ["a", "b"], "d1", params)
    with_noise = bm25_score(toy_index, ["a", "b", "qqq"], "d1", params)
    assert with_noise == base


def test_unknown_doc_rejected(toy_index):
    with pytest.raises(KeyError):
        bm25_score(toy_index, ["a"], "ghost", Bm25Params())


def test_b_zero_ignores_length():
    lists = {"short": ["x", "y"], "long": ["x"] + ["filler"] * 20}
    index = index_from_token_lists(lists)
    params = Bm25Params(1.2, 0.0)
    s1 = bm25_score(index, ["x"], "short", params)
    s2 = bm25_score(index, ["x"], "long", params)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_b_one_at_average_length_matches_b_zero():
    lists = {"d1": ["x", "y", "z"], "d2": ["u", "v", "w"]}  # both at avg len
    index = index_from_token_lists(lists)
    s_b1 = bm25_score(index, ["x"], "d1", Bm25Params(1.5, 1.0))
    s_b0 = bm25_score(index, ["x"], "d1", Bm25Params(1.5, 0.0))
    assert s_b1 == pytest.approx(s_b0, rel=1e-12)


def test_tf_monotonicity():
    scores = []
    for tf in (1, 2, 3, 5, 8):
        lists = {"d1": ["x"] * tf + ["pad"] * (10 - tf), "d2": ["pad"] * 10}
        index = index_from_token_lists(lists)
        scores.append(bm25_score(index, ["x"], "d1", Bm25Params(1.2, 0.0)))
    assert all(a < b for a, b in zip(scores, scores[1:]))


def test_params_validation():
    with pytest.raises(ValueError):
        Bm25Params(-0.1, 0.5)
    with pytest.raises(ValueError):
        Bm25Params(1.0, -0.5)
    Bm25Params(0.0, 0.0)
    Bm25Params(8.0, 1.3)  # above-1 b admitted for grid exploration


@pytest.mark.parametrize("k1,b", [
    (float("nan"), 0.75), (1.2, float("inf")), (float("-inf"), 0.75),
    ("1.2", 0.75), (1.2, None), (True, 0.75),
], ids=["nan", "inf", "-inf", "string", "none", "bool"])
def test_params_must_be_finite_numbers(k1, b):
    with pytest.raises(ValueError, match="must be a finite number"):
        Bm25Params(k1, b)


def test_ties_break_by_ascending_doc_id():
    lists = {"db": ["x", "pad"], "da": ["x", "pad"], "dc": ["x", "pad"]}
    index = index_from_token_lists(lists)
    ranked = index.bm25_search(["x"], Bm25Params(), k=3)
    assert ranked.doc_ids == ["da", "db", "dc"]


def test_search_ranks_whole_pool_when_k_large(toy_index):
    ranked = toy_index.bm25_search(["a"], Bm25Params(), k=50)
    assert len(ranked) == 2
    assert ranked.doc_ids[0] == "d1"
    # d2 scores zero but is still ranked
    assert score_of(ranked, "d2") == 0.0


def test_search_k_must_be_positive(toy_index):
    with pytest.raises(ValueError):
        toy_index.bm25_search(["a"], Bm25Params(), k=0)


@pytest.mark.parametrize("query", [[], ["zzz"], ["zzz", "qqq", "zzz"]])
def test_a_query_with_no_indexed_term_gets_an_empty_list(toy_index, query):
    """It matches nothing, so no pool document is ranked for it; a query with
    one indexed term still ranks the zero-score documents too."""
    assert toy_index.bm25_search(query, Bm25Params(), k=2) == []
    assert len(toy_index.bm25_search(query + ["c"], Bm25Params(), k=2)) == 2


@pytest.mark.parametrize("seed", range(8))
def test_search_matches_naive_oracle(seed):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(5, 60))]
    lists = {f"d{i:03d}": [rng.choice(vocab)
                           for _ in range(rng.randint(1, 50))]
             for i in range(rng.randint(2, 80))}
    index = index_from_token_lists(lists)
    params = Bm25Params(rng.choice([0.5, 1.2, 3.0]), rng.choice([0.0, 0.4, 1.0]))
    for _ in range(5):
        query = [rng.choice(vocab + ["oovword"])
                 for _ in range(rng.randint(1, 12))]
        got = index.bm25_search(query, params, k=len(lists))
        want = oracle_rank(query, lists, params.k1, params.b, len(lists))
        assert got.doc_ids == [d for d, _ in want]
        for (d, s_want), (d_got, s_got) in zip(want, got):
            assert d == d_got
            assert s_got == pytest.approx(s_want, rel=1e-9, abs=1e-12)


def test_score_all_alignment(toy_index):
    scores = toy_index.score_all(["a", "b"], Bm25Params())
    assert scores.shape == (2,)
    assert scores[0] == pytest.approx(
        bm25_score(toy_index, ["a", "b"], "d1", Bm25Params()))
    assert scores[1] == pytest.approx(
        bm25_score(toy_index, ["a", "b"], "d2", Bm25Params()))


@pytest.mark.parametrize("seed", range(4))
def test_score_all_equals_the_per_term_scatter_add(seed):
    """Bit for bit, on queries with repeated terms, terms outside the
    vocabulary or dropped by denoising, no kept term, and no term at all."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(5, 60))] + ["the", "of", "and"]
    corpus = random_corpus(rng, rng.randint(1, 50), vocab=vocab, doc_len=(0, 60))
    index = build_index(corpus, build_pipeline(corpus, idf_filter=bool(seed % 2)))
    unkept = ["the", "of", "oov"] + [t for t in vocab if t not in index.terms]
    queries = [[], ["oov"], unkept, ["the", "oov", "the"]]
    queries += [[rng.choice(vocab + ["oov"]) for _ in range(rng.randint(1, 80))]
                for _ in range(20)]
    for query in queries:
        params = Bm25Params(rng.choice([0.0, 0.9, 1.2, 3.0]),
                            rng.choice([0.0, 0.5, 0.75, 1.0, 1.3]))
        got = index.score_all(query, params)
        want = score_all_per_term(index, query, params)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


def test_build_index_from_corpus_counts_title_tokens():
    corpus = Corpus([make_doc("d1", ["tax", "levy"], title="customs"),
                     make_doc("d2", ["fish"], title="quota")])
    pipeline = build_pipeline(corpus, stopwords=frozenset(), idf_filter=False)
    index = build_index(corpus, pipeline)
    assert doc_len_of(index) == {"d1": 3, "d2": 2}
    assert postings_of(index)["customs"] == [("d1", 1)]
    validate(index)


def test_empty_pool_rejected(uniform_idf):
    with pytest.raises(ValueError):
        index_from_postings({}, {}, uniform_idf)


def test_rebuild_is_byte_identical(rng):
    corpus = random_corpus(rng, 25)
    pipeline = build_pipeline(corpus)
    a = pickle.dumps(build_index(corpus, pipeline), protocol=4)
    b = pickle.dumps(build_index(corpus, pipeline), protocol=4)
    assert a == b


def test_save_load_roundtrip(tmp_path, rng):
    corpus = random_corpus(rng, 25)
    pipeline = build_pipeline(corpus)
    index = build_index(corpus, pipeline)
    save_index(index, tmp_path / "idx.bin")
    back = load_index(tmp_path / "idx.bin")
    assert postings_of(back) == postings_of(index)
    assert doc_len_of(back) == doc_len_of(index)
    assert back.avg_len == index.avg_len
    query = ["tax", "fish", "quota"]
    assert back.bm25_search(query, Bm25Params(), 10).doc_ids == \
        index.bm25_search(query, Bm25Params(), 10).doc_ids
    # the text pipeline travels with the index
    assert back.pipeline.stopwords == pipeline.stopwords
    assert back.pipeline.idf_filter == pipeline.idf_filter
    assert back.pipeline.threshold == pipeline.threshold
    assert back.terms == index.terms
    assert np.array_equal(back.offsets, index.offsets)


@pytest.mark.parametrize("seed", range(8))
def test_csr_postings_equal_dict_oracle(seed):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(5, 80))] + ["the", "of", "and"]
    docs = list(random_corpus(rng, rng.randint(1, 60), vocab=vocab, doc_len=(0, 60)))
    rng.shuffle(docs)  # collection order is not doc_id order
    corpus = Corpus(docs)
    pipeline = build_pipeline(corpus, idf_filter=bool(seed % 2))
    index = build_index(corpus, pipeline)
    assert postings_of(index) == postings_dict(corpus, pipeline)
    assert doc_len_of(index) == {d.doc_id: len(pipeline(d.text)) for d in corpus}
    validate(index)


def test_saved_index_is_deterministic_and_never_pickled(tmp_path, rng, monkeypatch):
    corpus = random_corpus(rng, 25)
    pipeline = build_pipeline(corpus)
    save_index(build_index(corpus, pipeline), tmp_path / "a.bin")

    def no_pickle(*args, **kwargs):
        raise AssertionError("the index must not be unpickled")

    monkeypatch.setattr(pickle, "load", no_pickle)
    monkeypatch.setattr(pickle, "loads", no_pickle)
    save_index(load_index(tmp_path / "a.bin"), tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@pytest.fixture
def saved_index(tmp_path, rng):
    corpus = random_corpus(rng, 25)
    index = build_index(corpus, build_pipeline(corpus))
    path = tmp_path / "index.bin"
    save_index(index, path)
    return index, path


def test_load_rejects_truncated_files(saved_index, tmp_path):
    _, path = saved_index
    data = path.read_bytes()
    for cut in (0, 3, 30, len(data) // 3, len(data) // 2, len(data) - 22,
                len(data) - 1):
        bad = tmp_path / f"cut{cut}.bin"
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=str(bad)):
            load_index(bad)


def test_load_rejects_flipped_bytes(saved_index, tmp_path):
    """Every member is CRC-checked, so a flipped byte of array data or of
    the JSON header fails; a flip in zip bookkeeping that the CRC does not
    cover (a timestamp) either fails or leaves the index as it was."""
    index, path = saved_index
    data = path.read_bytes()
    bad = tmp_path / "flipped.bin"
    for offset in range(0, len(data), 7):
        flipped = bytearray(data)
        flipped[offset] ^= 0x55
        bad.write_bytes(bytes(flipped))
        try:
            back = load_index(bad)
        except ValueError as exc:
            assert str(bad) in str(exc)
            continue
        assert postings_of(back) == postings_of(index), offset
        assert back.terms == index.terms and list(back.doc_ids) == list(index.doc_ids)
    # the middle of the file lies in the postings arrays or the header JSON
    for offset in (len(data) // 3, len(data) // 2):
        flipped = bytearray(data)
        flipped[offset] ^= 0x01
        bad.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match=str(bad)):
            load_index(bad)


def test_load_rejects_wrong_header_version(saved_index, tmp_path):
    """A version-2 file, which also held the term list, the offsets and the
    idf table's doc count, is refused by its version."""
    index, path = saved_index
    bad = _tampered(path, tmp_path,
                    header_changes={"version": 2, "terms": index.terms,
                                    "idf_doc_count": index.doc_count},
                    offsets=np.array(index.offsets, dtype=np.int64))
    with pytest.raises(ValueError, match=f"{bad}: unsupported .* version 2 "
                                         r"\(this build reads 3\)"):
        load_index(bad)


def test_load_rejects_v1_pickle_without_unpickling(tmp_path, monkeypatch):
    path = tmp_path / "old.bin"
    with open(path, "wb") as fh:
        pickle.dump({"format": INDEX_FORMAT, "version": 1, "postings": {}}, fh,
                    protocol=4)

    def no_pickle(*args, **kwargs):
        raise AssertionError("a v1 index must not be unpickled")

    monkeypatch.setattr(pickle, "load", no_pickle)
    monkeypatch.setattr(pickle, "loads", no_pickle)
    with pytest.raises(ValueError, match=f"{path}: .*version-1 pickle"):
        load_index(path)


def _tampered(path, tmp_path, header_changes=(), **changes):
    """A copy of a saved index with some header fields and arrays replaced."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    header = json.loads(arrays.pop("header").tobytes())
    header.update(header_changes)
    arrays.update(changes)
    bad = tmp_path / "tampered.bin"
    write_npz(bad, header, arrays)
    return bad


@pytest.mark.parametrize("change, message", [
    (lambda a: {"positions": a["positions"] + 10_000}, "out of range"),
    (lambda a: {"tf": np.zeros_like(a["tf"])}, "tf < 1"),
    (lambda a: {"idf_df": np.maximum(a["idf_df"] - 1, 1)}, "postings length"),
    (lambda a: {"positions": a["positions"][::-1].copy()}, "ascending"),
    (lambda a: {"tf": a["tf"].astype(np.int64)}, "expected 1-d int32"),
])
def test_load_checks_csr_invariants(saved_index, tmp_path, change, message):
    _, path = saved_index
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    bad = _tampered(path, tmp_path, **change(arrays))
    with pytest.raises(ValueError, match=f"{bad}: .*{message}"):
        load_index(bad)


@pytest.mark.parametrize("field", ["ids", "idf_terms"])
def test_load_rejects_header_names_that_are_not_lists(saved_index, tmp_path, field):
    # a string's characters are sorted unique strings too
    _, path = saved_index
    bad = _tampered(path, tmp_path, header_changes={field: "abc"})
    with pytest.raises(ValueError, match=f"{bad}: .*not unique strings"):
        load_index(bad)


def test_load_rejects_postings_count_off_the_kept_df_sum(saved_index, tmp_path):
    _, path = saved_index
    with np.load(path, allow_pickle=False) as npz:
        positions, tf = npz["positions"], npz["tf"]
    bad = _tampered(path, tmp_path, positions=positions[:-1].copy(),
                    tf=tf[:-1].copy())
    with pytest.raises(ValueError, match=f"{bad}: postings length "
                                         f"{len(positions) - 1} differs from "
                                         f"the df sum {len(positions)}"):
        load_index(bad)


@pytest.mark.parametrize("changes, message", [
    ({"stopwords": "the"}, "stopwords are not a list of strings"),
    ({"stopwords": ["the", 1]}, "stopwords are not a list of strings"),
    ({"idf_filter": "no"}, "idf_filter is not a JSON boolean"),
    ({"idf_filter": 0}, "idf_filter is not a JSON boolean"),
    ({"stopwords": None}, "stopwords are not a list of strings"),
], ids=["stopwords-string", "stopwords-number", "idf-filter-string",
        "idf-filter-number", "no-pipeline"])
def test_load_rejects_pipeline_fields_of_the_wrong_type(saved_index, tmp_path,
                                                        changes, message):
    """A string is not read as its characters, nor a truthy value as True."""
    _, path = saved_index
    bad = _tampered(path, tmp_path, header_changes=changes)
    with pytest.raises(ValueError, match=f"{bad}: {message}"):
        load_index(bad)


def test_load_rejects_a_header_without_the_pipeline(saved_index, tmp_path):
    _, path = saved_index
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    header = json.loads(arrays.pop("header").tobytes())
    del header["idf_filter"]
    bad = tmp_path / "short.bin"
    write_npz(bad, header, arrays)
    with pytest.raises(ValueError, match=f"{bad}: header lacks 'idf_filter'"):
        load_index(bad)


@pytest.mark.parametrize("change, message", [
    (lambda a: {"idf_df": a["idf_df"][:-1].copy()},
     "idf terms and df values differ in length"),
    (lambda a: {"tf": a["tf"][:-1].copy()}, "tf and positions differ in length"),
    (lambda a: {"idf_df": np.where(np.arange(len(a["idf_df"])) == 0, 0,
                                   a["idf_df"])}, r"df\[.*\] = 0 outside \[1, 25\]"),
    (lambda a: {"idf_df": a["idf_df"] + 25}, r"df\[.*\] = \d+ outside \[1, 25\]"),
], ids=["idf-lengths", "postings-lengths", "df-zero", "df-above-doc-count"])
def test_load_checks_the_idf_table(saved_index, tmp_path, change, message):
    _, path = saved_index
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    bad = _tampered(path, tmp_path, **change(arrays))
    with pytest.raises(ValueError, match=f"^{bad}: {message}"):
        load_index(bad)


def test_build_refuses_a_corpus_the_pipeline_was_not_built_from(rng):
    corpus = random_corpus(rng, 25)
    pipeline = build_pipeline(corpus, idf_filter=False)
    smaller = Corpus(list(corpus)[:-1])
    for other in (smaller, random_corpus(rng, 25)):
        with pytest.raises(ValueError, match="not the collection the text "
                                             "pipeline was built from"):
            build_index(other, pipeline)


def test_load_rejects_foreign_pickle(tmp_path):
    path = tmp_path / "junk.bin"
    with open(path, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(ValueError):
        load_index(path)


# --- tuning ---

def test_default_grid_shape():
    k1_grid, b_grid = default_grid()
    assert k1_grid[0] == 0.5 and k1_grid[-1] == 8.0 and len(k1_grid) == 16
    assert b_grid[0] == 0.0 and b_grid[-1] == 1.0 and len(b_grid) == 11


def test_tune_single_cell(toy_index):
    qrels = Qrels({"q1": {"d1"}})
    best, cells = tune_bm25(toy_index, {"q1": ["a"]}, qrels, [2.0], [0.3], k=1)
    assert (best.k1, best.b) == (2.0, 0.3)
    assert len(cells) == 1
    assert cells[0].recall_at_k == 1.0


def test_tune_prefers_dominant_cell():
    # relevant doc repeats the query term but is long; a decoy matches once
    # and is short. High b demotes the long doc, low b promotes it, so only
    # low-b cells rank the relevant doc first.
    lists = {"rel": ["x"] * 6 + ["pad"] * 30,
             "decoy": ["x", "other"],
             "filler": ["pad", "other", "pad"]}
    index = index_from_token_lists(lists)
    qrels = Qrels({"q1": {"rel"}})
    queries = {"q1": ["x"]}
    best, cells = tune_bm25(index, queries, qrels, [1.2], [0.0, 1.0], k=1)
    by_cell = {(c.k1, c.b): c.recall_at_k for c in cells}
    assert by_cell[(1.2, 0.0)] == 1.0
    assert by_cell[(1.2, 1.0)] == 0.0
    assert (best.k1, best.b) == (1.2, 0.0)


def test_tune_tie_prefers_smaller_k1_then_b(toy_index):
    qrels = Qrels({"q1": {"d1"}})
    best, _ = tune_bm25(toy_index, {"q1": ["a"]}, qrels,
                        [2.0, 0.5, 1.0], [0.8, 0.2], k=1)
    assert (best.k1, best.b) == (0.5, 0.2)


def test_tune_ignores_queries_without_judgments(toy_index):
    qrels = Qrels({"q1": {"d1"}})
    with_extra, _ = tune_bm25(toy_index, {"q1": ["a"], "q2": ["b"]}, qrels,
                              [1.0], [0.5], k=1)
    assert (with_extra.k1, with_extra.b) == (1.0, 0.5)


def test_tune_cells_equal_a_search_per_cell(tmp_path):
    """Gathering each query's postings once changes no cell, so the grid
    file keeps its bytes."""
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(40)]
    corpus = random_corpus(rng, 60, vocab=vocab)
    index = build_index(corpus, build_pipeline(corpus, idf_filter=False))
    ids = sorted(d.doc_id for d in corpus)
    queries = {f"q{i}": [rng.choice(vocab + ["oov"]) for _ in range(rng.randint(0, 30))]
               for i in range(12)}
    qrels = Qrels({q: set(rng.sample(ids, rng.randint(1, 3)))
                   for q in sorted(queries)[:10]})
    k1_grid, b_grid = [0.5, 1.2, 3.0], [0.0, 0.3, 0.75, 1.0]
    _, cells = tune_bm25(index, queries, qrels, k1_grid, b_grid, k=5)
    want = tune_bm25_per_cell(index, queries, qrels, k1_grid, b_grid, k=5)
    assert cells == want
    write_grid_csv(cells, tmp_path / "got.csv", comment="manifest x")
    write_grid_csv(want, tmp_path / "want.csv", comment="manifest x")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("query", [[], ["zzz"], ["zzz", "qqq", "zzz"]])
def test_tune_scores_a_query_with_no_indexed_term_as_search_ranks_it(query):
    """Every cell holds the recall of the empty list `bm25_search` returns
    for such a query, 0, not that of the k lowest rows (here d1, its
    relevant document)."""
    index = index_from_token_lists({"d1": ["a", "b"], "d2": ["b", "c"],
                                    "d3": ["c", "d"]})
    qrels = Qrels({"q1": {"d1"}, "q2": {"d3"}})
    queries = {"q1": query, "q2": ["d"]}
    k1_grid, b_grid = [0.5, 1.2], [0.0, 0.75]
    _, cells = tune_bm25(index, queries, qrels, k1_grid, b_grid, k=2)
    assert cells == tune_bm25_per_cell(index, queries, qrels, k1_grid, b_grid, k=2)
    assert [c.recall_at_k for c in cells] == [0.5] * 4


def tied_index(rng: random.Random) -> tuple[PostingsIndex, list[str]]:
    """An index whose documents come in groups of equal token lists, so
    equal scores, with non-ASCII ids; a rare term matches only a few
    documents, so a query of it scores fewer rows than k."""
    vocab = ["a", "b", "c", "d", "rare"]
    lists = {}
    for group in range(12):
        tokens = [rng.choice(vocab[:4]) for _ in range(rng.randint(1, 8))]
        if group < 2:
            tokens.append("rare")
        for member in range(rng.randint(1, 4)):
            lists[f"{rng.choice(['d', 'é', 'ü', '文'])}{group:02d}{member}"] = tokens
    return index_from_token_lists(lists), vocab


GRID_K1, GRID_B = [0.0, 0.5, 1.2, 3.0], [0.0, 0.75, 1.0, 1.6, 2.5]


@pytest.mark.parametrize("seed", range(6))
def test_search_equals_the_lexsort_of_every_pool_score(seed):
    """By repr: ties straddling the k-th score keep their rows (so ids) in
    ascending order, and when fewer than k rows score above 0 the rest fill
    in row order, zero scores and, past b = 1, negative ones too."""
    rng = random.Random(seed)
    index, vocab = tied_index(rng)
    queries = [["rare"], ["rare", "a"]] + [
        [rng.choice(vocab) for _ in range(rng.randint(1, 6))] for _ in range(6)]
    for query in queries:
        for k1 in GRID_K1:
            for b in GRID_B:
                params = Bm25Params(k1, b)
                scores = index.score_all(query, params)
                for k in range(1, index.doc_count + 2):
                    assert repr(index.bm25_search(query, params, k)) == repr(
                        top_k_lexsort(index.doc_ids, scores, min(k, index.doc_count)))


@pytest.mark.parametrize("seed", range(6))
def test_tune_cells_equal_the_per_cell_search_grid_at_ties(seed):
    """By repr, with relevant documents inside tied groups, among rows that
    score 0, and outside the pool."""
    rng = random.Random(seed)
    index, vocab = tied_index(rng)
    ids = index.doc_ids.tolist()
    queries = {"q0": ["rare"], "q1": ["zzz"],
               **{f"q{i}": [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
                  for i in range(2, 8)}}
    qrels = Qrels({q: set(rng.sample(ids, rng.randint(1, 4)))
                   | ({"0-not-pooled", "\uffff-not-pooled"} if q == "q2" else set())
                   for q in queries})
    for k in (1, 3, 7, len(ids), len(ids) + 5):
        _, cells = tune_bm25(index, queries, qrels, GRID_K1, GRID_B, k)
        assert repr(cells) == repr(tune_bm25_per_cell(index, queries, qrels,
                                                      GRID_K1, GRID_B, k))


def test_grid_csv_roundtrip(tmp_path):
    cells = [GridCell(0.5, 0.0, 0.25), GridCell(0.5, 0.1, 1.0)]
    path = tmp_path / "grid.csv"
    write_grid_csv(cells, path)
    first = path.read_text().splitlines()[0]
    assert first == "k1,b,recall_at_k"
    assert read_grid_csv(path) == cells
