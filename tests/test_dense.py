import math
import random
import tracemalloc

import numpy as np
import pytest

from regir import dense
from regir.corpus import Corpus
from regir.dense import (CentroidError, DocVectorStore, VectorFormatError,
                         WordVectors, build_centroid_store, centroid,
                         knn_search, load_doc_vectors, load_word_vectors,
                         save_doc_vectors)
from regir.experiment import Prefetcher
from regir.text import build_pipeline

from conftest import FixedIdf, keyed, make_doc
from oracles import centroid_loop, score_of


def wv_from(mapping):
    return keyed(WordVectors, mapping)


def centroid_fetch(store, pipeline, word_vectors, queries, query_ids, depth):
    """Each query's w2v-cent list through the run's pre-fetcher."""
    prefetcher = Prefetcher(("w2v-cent",), depth, queries, pipeline,
                            word_vectors=word_vectors, cent_store=store)
    return {q: prefetcher.fetch(q, depth)[0] for q in query_ids}


def doc_vectors_fetch(pool_store, query_store, query_ids, depth):
    """Each query's doc-vectors list through the run's pre-fetcher."""
    prefetcher = Prefetcher(("doc-vectors",), depth, Corpus([]),
                            pool_store=pool_store, query_store=query_store)
    return {q: prefetcher.fetch(q, depth)[0] for q in query_ids}


def idf_from(values):
    """Table with prescribed idf values; 0.0 for any other term."""
    return FixedIdf(values, default=0.0)


# --- loading ---

def test_load_word_vectors(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text("tax 1.0 0.0 0.5\nlevy 0.0 1.0 -0.5\n")
    wv = load_word_vectors(path)
    assert wv.dim == 3
    assert np.allclose(wv.vectors["levy"], [0.0, 1.0, -0.5])


def test_load_word_vectors_dim_mismatch_names_line(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text("tax 1.0 0.0 0.5\nlevy 0.0 1.0\n")
    with pytest.raises(VectorFormatError, match="line 2"):
        load_word_vectors(path)


def test_load_word_vectors_empty_rejected(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text("")
    with pytest.raises(VectorFormatError):
        load_word_vectors(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("loader, first", [(load_word_vectors, "tax"),
                                           (load_doc_vectors, "d1")])
def test_vector_loaders_reject_non_finite_values(tmp_path, loader, first, bad):
    path = tmp_path / "vectors.txt"
    path.write_text(f"{first} 1.0 0.0\nd2 0.5 {bad}\n")
    with pytest.raises(VectorFormatError, match=r"vectors\.txt: line 2: non-finite"):
        loader(path)


@pytest.mark.parametrize("loader, key", [(load_word_vectors, "term"),
                                         (load_doc_vectors, "doc_id")])
def test_vector_loaders_reject_duplicate_keys(tmp_path, loader, key):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1.0 0.0\nb 0.5 0.5\na 0.0 1.0\n")
    with pytest.raises(VectorFormatError,
                       match=rf"vectors\.txt: line 3: duplicate {key} 'a'"):
        loader(path)


@pytest.mark.parametrize("header", ["#dim 0", "#dim -2 #tag x"])
def test_doc_vectors_header_dim_must_be_positive(tmp_path, header):
    path = tmp_path / "dv.txt"
    path.write_text(header + "\n")
    with pytest.raises(VectorFormatError, match=r"dv\.txt: line 1: dim must be >= 1"):
        load_doc_vectors(path)


def test_doc_vectors_roundtrip(tmp_path):
    store = DocVectorStore(["d1", "d2"], np.array([[1.0, 2.0], [0.5, -1.0]]),
                           tag="layer-9")
    save_doc_vectors(store, tmp_path / "dv.txt")
    back = load_doc_vectors(tmp_path / "dv.txt")
    assert back.dim == 2 and back.tag == "layer-9"
    assert set(back) == {"d1", "d2"}
    assert np.allclose(back.get("d2"), [0.5, -1.0])


def test_doc_vectors_validate_against_corpus():
    corpus = Corpus([make_doc("d1", ["tax"])])
    store = DocVectorStore(["d1", "ghost"], np.array([[1.0], [2.0]]))
    with pytest.raises(VectorFormatError, match=r"^v\.vec: doc vectors reference ids "
                       r"absent from pool\.jsonl: \['ghost'\]$"):
        store.validate_against(corpus, "v.vec", "pool.jsonl")


def test_each_vector_set_is_stored_as_one_matrix(tmp_path):
    """Loaded word vectors, a loaded doc store whose rows come out of doc_id
    order and a built centroid store each hold their vectors as the rows of
    one matrix, and `vectors[key]` is a view of a row."""
    wv_path, dv_path = tmp_path / "wv.txt", tmp_path / "dv.txt"
    wv_path.write_text("tax 1.0 0.0\nlevy 0.5 0.5\nfish 0.0 1.0\nquota -0.2 0.8\n")
    dv_path.write_text("#dim 2\nd2 0.5 -1.0\nd1 1.0 2.0\nd3 0.0 0.0\n")
    corpus = centroid_fixture_corpus()
    pipeline = build_pipeline(corpus, stopwords=frozenset(), idf_filter=False)
    wv = load_word_vectors(wv_path)
    docs = load_doc_vectors(dv_path)
    for store in (wv, docs, build_centroid_store(corpus, pipeline, wv)):
        assert store.matrix.dtype == np.float64 and store.matrix.flags.c_contiguous
        assert len(store.matrix) == len(store) > 0
        for key in store.vectors:
            assert np.shares_memory(store.vectors[key], store.matrix)
    assert list(docs) == ["d1", "d2", "d3"]
    assert docs.vectors["d2"].tolist() == [0.5, -1.0]


def test_stores_keep_the_callers_matrix():
    matrix = np.arange(6.0).reshape(3, 2)
    assert WordVectors(["c", "a", "b"], matrix).matrix is matrix
    assert DocVectorStore(["a", "b", "c"], matrix).matrix is matrix


@pytest.mark.parametrize("cls", [WordVectors, DocVectorStore])
def test_stores_check_the_shape_and_the_keys(cls):
    for keys, matrix in ((["a", "b"], np.zeros((3, 2))), (["a"], np.zeros((1, 0))),
                         (["a", "b"], np.zeros(2))):
        with pytest.raises(VectorFormatError, match="shape"):
            cls(keys, matrix)
    with pytest.raises(VectorFormatError,
                       match=rf"row 2: duplicate {cls.key_name} 'a'"):
        cls(["a", "b", "a"], np.zeros((3, 2)))


# --- centroid ---

def test_centroid_single_token_is_its_vector():
    wv = wv_from({"tax": [0.3, 0.7]})
    c = centroid(["tax"], wv, idf_from({"tax": 2.0}))
    assert np.allclose(c, [0.3, 0.7])


def test_centroid_equal_weights_symmetric():
    wv = wv_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    c = centroid(["a", "b"], wv, idf_from({"a": 1.5, "b": 1.5}))
    assert np.allclose(c, [0.5, 0.5])


def test_centroid_hand_case():
    # tf {a:2, b:1}, idf {a:1, b:2} -> (2*1*(1,0) + 1*2*(0,1)) / (2+2)
    wv = wv_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    c = centroid(["a", "a", "b"], wv, idf_from({"a": 1.0, "b": 2.0}))
    assert np.allclose(c, [0.5, 0.5])


def test_centroid_permutation_invariant(rng):
    wv = wv_from({f"w{i}": [rng.uniform(-1, 1) for _ in range(4)]
                  for i in range(6)})
    idf = idf_from({f"w{i}": 0.5 + i for i in range(6)})
    tokens = [f"w{i % 6}" for i in range(20)]
    shuffled = tokens[:]
    rng.shuffle(shuffled)
    assert np.allclose(centroid(tokens, wv, idf), centroid(shuffled, wv, idf))


def test_centroid_skips_oov_terms():
    wv = wv_from({"a": [1.0, 0.0]})
    c = centroid(["a", "missing"], wv, idf_from({"a": 1.0, "missing": 9.0}))
    assert np.allclose(c, [1.0, 0.0])


def test_centroid_all_oov_raises():
    wv = wv_from({"a": [1.0]})
    with pytest.raises(CentroidError):
        centroid(["zz", "yy"], wv, idf_from({}))


def test_centroid_zero_weight_mass_raises():
    wv = wv_from({"a": [1.0]})
    with pytest.raises(CentroidError):
        centroid(["a"], wv, idf_from({"a": 0.0}))


# --- knn ---

def make_store(vectors):
    return keyed(DocVectorStore, vectors)


def test_knn_exact_match_first():
    store = make_store({"d1": [1.0, 0.0], "d2": [0.0, 1.0]})
    ranked = knn_search(np.array([1.0, 0.0]), store, k=2)
    assert ranked.doc_ids == ["d1", "d2"]
    assert score_of(ranked, "d1") == pytest.approx(1.0)
    assert score_of(ranked, "d2") == pytest.approx(0.0)


def test_knn_zero_norm_doc_gets_sentinel():
    store = make_store({"d1": [0.0, 0.0], "d2": [1.0, 1.0]})
    ranked = knn_search(np.array([1.0, 0.0]), store, k=2)
    assert ranked.doc_ids[-1] == "d1"
    assert score_of(ranked, "d1") == -1.0


def test_knn_rejects_zero_query():
    store = make_store({"d1": [1.0, 0.0]})
    with pytest.raises(ValueError):
        knn_search(np.zeros(2), store, k=1)


def test_knn_rejects_dim_mismatch():
    store = make_store({"d1": [1.0, 0.0]})
    with pytest.raises(ValueError):
        knn_search(np.ones(3), store, k=1)


def test_knn_tie_breaks_by_doc_id():
    store = make_store({"db": [2.0, 0.0], "da": [4.0, 0.0]})
    ranked = knn_search(np.array([1.0, 0.0]), store, k=2)
    assert ranked.doc_ids == ["da", "db"]


def test_knn_returns_at_most_the_whole_store():
    store = make_store({"db": [2.0, 0.0], "da": [0.0, 4.0]})
    assert knn_search(np.array([1.0, 0.0]), store, k=5).doc_ids == ["db", "da"]
    empty = DocVectorStore([], np.empty((0, 2)))
    assert knn_search(np.array([1.0, 0.0]), empty, k=5) == []


@pytest.mark.parametrize("seed", range(5))
def test_knn_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, dim = 50, 16
    ids = [f"d{i:03d}" for i in range(n)]
    mat = rng.normal(size=(n, dim))
    store = make_store({d: mat[i] for i, d in enumerate(ids)})
    query = rng.normal(size=dim)
    got = knn_search(query, store, k=n)
    sims = {}
    for i, d in enumerate(ids):
        denom = math.sqrt(sum(x * x for x in mat[i])) * \
            math.sqrt(sum(x * x for x in query))
        sims[d] = sum(a * b for a, b in zip(mat[i], query)) / denom
    want = sorted(ids, key=lambda d: (-sims[d], d))
    assert got.doc_ids == want
    for d in ids:
        assert score_of(got, d) == pytest.approx(sims[d], rel=1e-9, abs=1e-12)


def test_knn_scale_invariance(rng):
    np_rng = np.random.default_rng(11)
    store_a = make_store({f"d{i}": np_rng.normal(size=8) for i in range(20)})
    scaled = {d: 3.7 * store_a.get(d) for d in store_a}
    store_b = make_store(scaled)
    query = np_rng.normal(size=8)
    assert knn_search(query, store_a, 20).doc_ids == \
        knn_search(query, store_b, 20).doc_ids


# --- store building and prefetch ---

def centroid_fixture_corpus():
    docs = [make_doc("d1", ["tax", "tax", "levy"], title="tax"),
            make_doc("d2", ["fish", "quota"], title="fish"),
            make_doc("d3", ["unknownword"], title="unknownword")]
    return Corpus(docs)


def make_wv():
    return wv_from({"tax": [1.0, 0.0], "levy": [0.5, 0.5],
                    "fish": [0.0, 1.0], "quota": [-0.2, 0.8]})


def test_build_centroid_store_skip_policy(caplog):
    corpus = centroid_fixture_corpus()
    pipeline = build_pipeline(corpus, stopwords=frozenset(), idf_filter=False)
    with caplog.at_level("WARNING"):
        store = build_centroid_store(corpus, pipeline, make_wv(),
                                     on_empty="skip-document")
    assert set(store) == {"d1", "d2"}
    assert any("d3" in r.message for r in caplog.records)


def test_build_centroid_store_error_policy():
    corpus = centroid_fixture_corpus()
    pipeline = build_pipeline(corpus, stopwords=frozenset(), idf_filter=False)
    with pytest.raises(CentroidError):
        build_centroid_store(corpus, pipeline, make_wv(), on_empty="error")


def test_precomputed_store_equals_per_query_centroids(rng):
    from conftest import random_corpus
    corpus = random_corpus(rng, 15)
    pipeline = build_pipeline(corpus, stopwords=frozenset(), idf_filter=False)
    np_rng = np.random.default_rng(3)
    vocab = sorted({t for d in corpus for t in pipeline(d.text)})
    wv = wv_from({t: np_rng.normal(size=6).tolist() for t in vocab})
    store = build_centroid_store(corpus, pipeline, wv)
    for doc_id in corpus.ids:
        direct = centroid(pipeline(corpus.get(doc_id).text), wv,
                          pipeline.idf_table)
        assert np.allclose(store.get(doc_id), direct)


@pytest.mark.parametrize("seed", range(3))
def test_centroids_have_the_bits_of_the_running_sum(seed):
    """The store's and the query-side centroids equal `acc += w * x` summed
    term by term, down to the sign of zero components."""
    from conftest import random_corpus
    rng = random.Random(seed)
    corpus = random_corpus(rng, 20, vocab=[f"w{i}" for i in range(40)] + ["the"])
    pipeline = build_pipeline(corpus, idf_filter=bool(seed % 2))
    np_rng = np.random.default_rng(seed)
    vocab = sorted({t for d in corpus for t in pipeline(d.text)})
    vectors = {t: np_rng.normal(size=6) for t in vocab[::2]}
    vectors[vocab[0]][:3] = -0.0
    wv = keyed(WordVectors, vectors)
    store = build_centroid_store(corpus, pipeline, wv)
    for doc in corpus:
        tokens = pipeline(doc.text)
        try:
            want = centroid_loop(tokens, wv, pipeline.idf_table)
        except ValueError:
            assert doc.doc_id not in store
            continue
        assert store.get(doc.doc_id).tobytes() == want.tobytes()
        assert centroid(tokens, wv, pipeline.idf_table).tobytes() == want.tobytes()


def mixed_length_pool(rng):
    """One long document among many short ones, lengths often equal, and
    three that have no centroid: p010's only vector has -0.0 components,
    p015's vectors sum to zero (`up` and `down` occur in the same
    documents, so their idf agrees), and p020's terms are all out of
    vocabulary. Taken longest first, p015 comes before p010. Word vectors
    hold -0.0 components elsewhere too."""
    np_rng = np.random.default_rng(rng.randrange(2 ** 32))
    words = [f"w{i}" for i in range(30)]
    vectors = {w: np_rng.normal(size=4) for w in words}
    vectors["w3"][1:] = -0.0
    vectors.update(up=np.array([1.0, -2.0, 0.5, 3.0]),
                   down=np.array([-1.0, 2.0, -0.5, -3.0]),
                   neg=np.array([-0.0, -0.0, 0.0, -0.0]))
    texts = {"p000": [rng.choice(words) for _ in range(400)] + ["up", "down"]}
    for i in range(1, 60):
        texts[f"p{i:03d}"] = [rng.choice(words) for _ in range(rng.choice([1, 2, 3, 7]))]
    texts["p010"] = ["neg", "neg"]
    texts["p015"] = ["up", "down", "down", "up"]
    texts["p020"] = ["oov", "other", "oov"]
    docs = [make_doc(d, t[1:], title=t[0]) for d, t in texts.items()]
    rng.shuffle(docs)
    pool = Corpus(docs)
    return pool, build_pipeline(pool, stopwords=frozenset(), idf_filter=False), \
        keyed(WordVectors, vectors)


def first_centroid_error(pool, pipeline, wv) -> str:
    """The error of the first document in doc_id order with no centroid,
    one `centroid` call per document."""
    for doc in pool:
        try:
            centroid(pipeline(doc.text), wv, pipeline.idf_table)
        except CentroidError as exc:
            return f"document {doc.doc_id!r}: {exc}"
    raise AssertionError("every document has a centroid")


@pytest.mark.parametrize("seed", range(3))
def test_store_summed_by_position_has_the_bits_of_the_per_document_loop(
        seed, monkeypatch):
    """At the module's block bound, at one row per block and at blocks of
    three rows, which split documents of equal length across blocks, every
    centroid equals `acc += w * x` summed term by term, byte for byte; the
    documents without one are skipped, and with on_empty='error' the first
    of them in doc_id order is named with its own reason."""
    pool, pipeline, wv = mixed_length_pool(random.Random(seed))
    want = {}
    for doc in pool:
        try:
            want[doc.doc_id] = centroid_loop(pipeline(doc.text), wv,
                                             pipeline.idf_table)
        except ValueError:
            pass
    assert {"p010", "p015", "p020"}.isdisjoint(want) and len(want) == len(pool) - 3
    for block in (dense.CENTROID_BLOCK_ENTRIES, 1, 3 * wv.dim):
        monkeypatch.setattr(dense, "CENTROID_BLOCK_ENTRIES", block)
        store = build_centroid_store(pool, pipeline, wv)
        assert list(store) == list(want)
        assert all(store[d].tobytes() == v.tobytes() for d, v in want.items())
        with pytest.raises(CentroidError) as error:
            build_centroid_store(pool, pipeline, wv, on_empty="error")
        assert str(error.value) == first_centroid_error(pool, pipeline, wv) == (
            "document 'p010': the tf*idf weighted sum of the word vectors is zero")
        rest = Corpus([doc for doc in pool if doc.doc_id not in ("p010", "p015")])
        rest_pipeline = build_pipeline(rest, stopwords=frozenset(), idf_filter=False)
        with pytest.raises(CentroidError) as error:
            build_centroid_store(rest, rest_pipeline, wv, on_empty="error")
        assert str(error.value) == first_centroid_error(rest, rest_pipeline, wv) == (
            "document 'p020': no in-vocabulary token with positive tf*idf weight")


def test_centroid_of_negative_zero_components_is_positive_zero():
    wv = wv_from({"a": [-0.0, 1.0]})
    assert np.signbit(centroid(["a"], wv, idf_from({"a": 2.0}))).tolist() == \
        [False, False]


def test_dense_prefetch_single_doc_pool():
    corpus = Corpus([make_doc("q1", ["tax", "levy"], title="tax")])
    pool = Corpus([make_doc("p1", ["tax"], title="tax")])
    pipeline = build_pipeline(pool, stopwords=frozenset(), idf_filter=False)
    store = build_centroid_store(pool, pipeline, make_wv())
    ranked = centroid_fetch(store, pipeline, make_wv(), corpus, ["q1"], 5)["q1"]
    assert ranked.doc_ids == ["p1"]


def test_dense_prefetch_doc_vectors_mode():
    pool = make_store({"p1": [1.0, 0.0], "p2": [0.0, 1.0]})
    queries = make_store({"q1": [0.9, 0.1]})
    ranked = doc_vectors_fetch(pool, queries, ["q1"], 2)["q1"]
    assert ranked.doc_ids == ["p1", "p2"]


def test_dense_prefetch_missing_query_vector():
    pool = make_store({"p1": [1.0, 0.0]})
    queries = make_store({"other": [1.0, 0.0]})
    with pytest.raises(KeyError):
        doc_vectors_fetch(pool, queries, ["q1"], 1)


def test_queries_with_a_zero_doc_vector_get_an_empty_list(caplog):
    """Such a query used to abort the whole pre-fetch with `zero query
    vector`; now it gets the no-centroid policy. A vector whose squares all
    underflow has a zero norm too."""
    pool = make_store({"p1": [1.0, 0.0], "p2": [0.0, 1.0]})
    queries = make_store({"q1": [0.0, 0.0], "q2": [0.9, 0.1], "q3": [1e-200, 0.0]})
    with caplog.at_level("WARNING"):
        run = doc_vectors_fetch(pool, queries, ["q1", "q2", "q3"], 2)
    assert [run[q].doc_ids for q in ("q1", "q2", "q3")] == [[], ["p1", "p2"], []]
    assert [r.message for r in caplog.records] == [
        f"query {q}: zero doc vector; empty list" for q in ("q1", "q3")]


@pytest.mark.parametrize("dim", [3, 50, 200, 768])
def test_store_norms_in_row_blocks_equal_whole_matrix_norms(dim, monkeypatch):
    """Block by block, at the module's block size and at one that splits the
    rows unevenly, the norms keep the bits of one whole-matrix call."""
    rng = np.random.default_rng(dim)
    matrix = rng.normal(size=(700, dim)) * rng.choice([1e-150, 1.0, 1e150],
                                                      size=(700, 1))
    matrix[::97] = 0.0
    want = np.linalg.norm(matrix, axis=1)
    keys = [f"d{i:04d}" for i in range(700)]
    for block in (dense.NORM_BLOCK_ENTRIES, 3 * dim + 1):
        monkeypatch.setattr(dense, "NORM_BLOCK_ENTRIES", block)
        assert np.array_equal(DocVectorStore(keys, matrix)._norms, want)


def test_store_norms_square_one_block_at_a_time():
    """Building a store over a matrix it keeps as given allocates far less
    than the matrix-sized temporary of squares a whole-matrix norm takes."""
    matrix = np.random.default_rng(0).normal(size=(4000, 200))
    keys = [f"d{i:04d}" for i in range(4000)]
    tracemalloc.start()
    try:
        store = DocVectorStore(keys, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.matrix is matrix
    assert peak < matrix.nbytes / 4


# --- centroids whose weighted sum is zero ---

def zero_sum_fixture():
    """`nil` has a zero vector, and `up` and `down` cancel at equal weight
    (both occur in p2 and p4, so their idf agrees). p3's and p4's centroids
    are exactly zero, and so are q1's and q2's."""
    wv = wv_from({"tax": [1.0, 0.0], "up": [1.0, 2.0], "down": [-1.0, -2.0],
                  "nil": [0.0, 0.0]})
    pool = Corpus([make_doc("p1", ["tax"], title="tax"),
                   make_doc("p2", ["down", "tax"], title="up"),
                   make_doc("p3", ["nil"], title="nil"),
                   make_doc("p4", ["down"], title="up")])
    queries = Corpus([make_doc("q1", ["nil"], title="nil"),
                      make_doc("q2", ["down"], title="up"),
                      make_doc("q3", ["up"], title="tax")])
    pipeline = build_pipeline(pool, stopwords=frozenset(), idf_filter=False)
    return wv, pool, queries, pipeline


def test_a_zero_weighted_sum_has_no_centroid():
    wv = zero_sum_fixture()[0]
    idf = idf_from({"tax": 1.0, "up": 1.0, "down": 1.0, "nil": 1.0})
    for tokens in (["nil"], ["nil", "nil"], ["up", "down"]):
        with pytest.raises(CentroidError, match="sum of the word vectors is zero"):
            centroid(tokens, wv, idf)
    assert centroid(["up", "up", "down"], wv, idf).tolist() == [1 / 3, 2 / 3]


def test_pool_documents_with_a_zero_centroid_are_skipped(caplog):
    wv, pool, _, pipeline = zero_sum_fixture()
    with caplog.at_level("WARNING"):
        store = build_centroid_store(pool, pipeline, wv)
    assert list(store) == ["p1", "p2"]
    assert any("skipped 2 document(s)" in r.message for r in caplog.records)
    with pytest.raises(CentroidError, match="document 'p3'"):
        build_centroid_store(pool, pipeline, wv, on_empty="error")


def test_queries_with_a_zero_centroid_get_an_empty_list(caplog):
    """Such a query used to abort the pre-fetch with `zero query vector`."""
    wv, pool, queries, pipeline = zero_sum_fixture()
    store = build_centroid_store(pool, pipeline, wv)
    caplog.clear()
    with caplog.at_level("WARNING"):
        run = centroid_fetch(store, pipeline, wv, queries, ["q1", "q2", "q3"], 5)
    assert [len(run[q]) for q in ("q1", "q2", "q3")] == [0, 0, 2]
    assert [r.message for r in caplog.records] == [
        f"query {q}: no centroid (the tf*idf weighted sum of the word vectors "
        f"is zero); empty list" for q in ("q1", "q2")]
