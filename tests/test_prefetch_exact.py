"""The pre-fetch steps that run once per query, each against its one-entry-
at-a-time oracle: denoising, term rows and idf, sorting and top-k, the
RankedList duplicate check, the date filter, min-max normalization and
fusion. Results are compared by `repr`, which tells -0.0 from 0.0 and a
numpy scalar from a built-in float, so equal means bit-identical."""

import functools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regir.bm25 import Bm25Params, build_index, load_index, save_index, tune_bm25
from regir.corpus import Corpus, Document, Qrels
from regir.datefilter import DateWindow, apply_filter
from regir.dense import WordVectors, centroid
from regir.fusion import fuse, normalize_scores
from regir.ranking import RankedList, ranked_rows, sort_scored, top_k_from_arrays
from regir.text import IdfTable, TextPipeline, build_pipeline, distinct_rows

from conftest import make_doc, random_corpus
from oracles import (apply_filter_per_entry, denoise_per_token,
                     distinct_rows_per_term, fuse_dict_sort, idf_per_df,
                     normalize_scores_per_entry, sort_scored_by_tuple,
                     top_k_lexsort)

PROPERTY = settings(max_examples=300, deadline=None)

TERMS = ["a", "b", "c", "d", "e", "f", "the", "of", "zz"]
terms = st.sampled_from(TERMS)
# a few repeated values, so that ties, -0.0 and 0.0 meet
tied_scores = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, -1.5])
scores = st.floats(allow_nan=False, allow_infinity=False) | tied_scores
ids = st.sampled_from([f"d{i}" for i in range(12)])


def same(got, want):
    assert repr(got) == repr(want)


def outcome(fn, *args):
    """repr of what fn(*args) returns, or the message of its ValueError."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


# --- denoising and idf weights ---

@st.composite
def pipelines(draw):
    """A pipeline over an idf table of a few random documents. Stopwords
    may lie outside the table (a threshold of 0.0 when none is inside it),
    and the idf filter may be off."""
    docs = draw(st.lists(st.sets(terms, min_size=1), min_size=1, max_size=6))
    df = {}
    for doc in docs:
        for term in doc:
            df[term] = df.get(term, 0) + 1
    stopwords = draw(st.frozensets(terms | st.sampled_from(["and", "or"])))
    return TextPipeline(IdfTable(len(docs), df), stopwords=stopwords,
                        idf_filter=draw(st.booleans()))


query_tokens = st.lists(terms | st.sampled_from(["unseen", "and"]), max_size=30)


@PROPERTY
@given(pipelines(), query_tokens)
def test_denoise_equals_the_per_token_test(pipeline, tokens):
    assert pipeline.denoise(tokens) == denoise_per_token(pipeline, tokens)
    assert pipeline.kept_terms == sorted(
        denoise_per_token(pipeline, list(pipeline.idf_table.terms)))


def test_denoise_keeps_unseen_terms_and_drops_stopwords_outside_the_table():
    # "the" occurs everywhere: the threshold is its idf, the table minimum
    table = IdfTable(3, {"the": 3, "tax": 1, "levy": 2})
    pipeline = TextPipeline(table, stopwords=frozenset({"the", "of"}))
    assert pipeline.threshold == table.idf("the")
    tokens = ["of", "tax", "the", "unseen", "levy", "of"]
    assert pipeline.denoise(tokens) == ["tax", "unseen", "levy"]
    assert pipeline.denoise(tokens) == denoise_per_token(pipeline, tokens)


def test_a_threshold_of_zero_and_the_filter_off_keep_every_other_term():
    table = IdfTable(2, {"tax": 2, "levy": 1})
    tokens = ["tax", "of", "levy", "new"]
    for pipeline in (TextPipeline(table, stopwords=frozenset({"of"})),
                     TextPipeline(table, stopwords=frozenset({"of"}),
                                  idf_filter=False)):
        assert pipeline.denoise(tokens) == ["tax", "levy", "new"]
        assert pipeline.denoise(tokens) == denoise_per_token(pipeline, tokens)
    assert TextPipeline(table, stopwords=frozenset({"of"})).threshold == 0.0


@PROPERTY
@given(pipelines(), query_tokens, st.lists(terms, unique=True))
def test_distinct_rows_and_idfs_equal_the_per_term_loop(pipeline, tokens, mapped):
    table = pipeline.idf_table
    row = {term: 3 * i for i, term in enumerate(mapped)}
    got, want = distinct_rows(tokens, row), distinct_rows_per_term(tokens, row)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype
        same(g.tolist(), w.tolist())
    same(table.idfs(tokens).tolist(), [table.idf(t) for t in tokens])


@PROPERTY
@given(st.integers(1, 2**40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), max_size=20))))
def test_idf_of_df_equals_the_per_df_formula(n_and_dfs):
    n, dfs = n_and_dfs
    table = IdfTable(n, {f"t{i}": df for i, df in enumerate(dfs) if df})
    want = [idf_per_df(n, df) for df in dfs]
    same(table.idf_of_df(np.array(dfs, dtype=np.int64)).tolist(), want)
    same(table.idfs(f"t{i}" if df else "unseen" for i, df in enumerate(dfs)).tolist(),
         want)


@pytest.mark.parametrize("idf_filter", [True, False])
def test_index_idf_equals_the_table_idf_after_build_and_load(tmp_path, idf_filter):
    rng = random.Random(29)
    vocab = [f"w{i}" for i in range(300)] + ["the", "of", "and"]
    corpus = random_corpus(rng, 120, vocab=vocab, doc_len=(0, 80))
    pipeline = build_pipeline(corpus, idf_filter=idf_filter)
    index = build_index(corpus, pipeline)
    save_index(index, tmp_path / "idx.bin")
    want = [pipeline.idf_table.idf(term) for term in pipeline.kept_terms]
    for got in (index, load_index(tmp_path / "idx.bin")):
        assert got.idf.dtype == np.float64
        same(got.idf.tolist(), want)
        same(got.idf.tolist(), [got.idf_table.idf(term) for term in got.terms])


# --- a query's bag read as counts ---

# ASCII and accented forms of one term, text in another script, stopwords,
# numbers and a term no pool document holds
WORDS = ["levy", "tax", "duty", "cafe", "Café", "CAFÉ", "naïve", "naive", "Straße",
         "Ärzte", "日本", "the", "of", "and", "2009", "12", "x1", "unseen"]
# the title, and a body that denoise to nothing
NOTHING = ("Of the 2009", "and the 12")


@functools.cache
def counts_setup(idf_filter: bool):
    """A pool over WORDS with frequent stopwords, as in real text, its
    pipeline and index, and word vectors for part of its kept terms, one of
    them zero."""
    rng = random.Random(31)
    pool = random_corpus(rng, 40, vocab=WORDS[:-1] + ["the", "of", "and"] * 6,
                         doc_len=(1, 30))
    pipeline = build_pipeline(pool, idf_filter=idf_filter)
    terms = pipeline.kept_terms[::2]
    matrix = np.random.default_rng(31).normal(size=(len(terms), 3))
    matrix[0] = 0.0
    qrels = Qrels({f"q{i}": {pool.ids[3 * i], pool.ids[3 * i + 1]} for i in range(7)})
    return pipeline, build_index(pool, pipeline), WordVectors(terms, matrix), qrels


@st.composite
def query_bodies(draw):
    words = draw(st.lists(st.sampled_from(WORDS), max_size=25))
    seps = draw(st.lists(st.sampled_from([" ", "-", ", ", "\n", "/"]),
                         min_size=len(words), max_size=len(words)))
    return "".join(map(str.__add__, words, seps))


@PROPERTY
@given(st.booleans(), st.lists(query_bodies(), min_size=1, max_size=6))
def test_a_bag_read_as_counts_ranks_as_its_token_list(idf_filter, bodies):
    """`Bags.counts` holds the items of `Counter` over the query's denoised
    tokens, in their order, and `bm25_search`, `centroid` and a `tune_bm25`
    grid give the same bits for either form."""
    pipeline, index, wv, qrels = counts_setup(idf_filter)
    queries = Corpus([Document(f"q{i}", NOTHING[0], body)
                      for i, body in enumerate([*bodies, NOTHING[1]])])
    bags = pipeline.bags(queries)
    token_lists, counts = {}, {}
    for i, query in enumerate(queries):
        tokens = token_lists[query.doc_id] = pipeline(query.text)
        bag = counts[query.doc_id] = bags.counts(i)
        assert list(bag.items()) == list(Counter(tokens).items())
        for params in (Bm25Params(), Bm25Params(0.5, 0.0)):
            same(index.bm25_search(bag, params, 7), index.bm25_search(tokens, params, 7))
        assert (outcome(centroid, bag, wv, pipeline.idf_table)
                == outcome(centroid, tokens, wv, pipeline.idf_table))
    assert counts[queries.ids[-1]] == {}
    grid = ([0.5, 1.2], [0.0, 0.75], 5)
    same(tune_bm25(index, counts, qrels, *grid), tune_bm25(index, token_lists, qrels, *grid))


# --- sorting, top-k and duplicates ---

@PROPERTY
@given(st.lists(st.tuples(ids, scores), max_size=20))
def test_sort_scored_equals_the_tuple_keyed_sort(pairs):
    same(sort_scored(pairs), sort_scored_by_tuple(pairs))


def top_k(doc_ids, scores, k: int, ascending_ids: bool):
    """The top k as a pre-fetcher cuts it: over ids that ascend with the
    rows (an index's, a vector store's) the first k of `ranked_rows`, as
    BM25 and kNN take them; else `top_k_from_arrays`, as fusion does."""
    if not ascending_ids:
        return top_k_from_arrays(doc_ids, scores, k)
    top = ranked_rows(scores, k)[:k]
    return list(zip(doc_ids[top].tolist(), scores[top].tolist()))


@PROPERTY
@given(st.lists(st.tuples(ids, scores), max_size=12, unique_by=lambda p: p[0]),
       st.integers(0, 15), st.sampled_from([object, str]), st.booleans())
def test_top_k_from_arrays_equals_the_full_lexsort(pairs, k, id_type, ascending_ids):
    if ascending_ids:  # ties then break by row, which must be by id
        pairs = sorted(pairs)
    doc_ids = np.array([d for d, _ in pairs], dtype=id_type)
    values = np.array([s for _, s in pairs], dtype=np.float64)
    got = top_k(doc_ids, values, k, ascending_ids)
    same(got, top_k_lexsort(doc_ids, values, min(k, len(pairs))))
    assert all(type(d) is str and type(s) is float for d, s in got)


def test_top_k_from_arrays_returns_built_in_str_and_float():
    for doc_ids in (np.array(["b", "a"]), np.array(["b", "a"], dtype=object)):
        for values in (np.array([1.0, 1.0]), np.array([1.0, 1.0], dtype=np.float32)):
            got = top_k_from_arrays(doc_ids, values, 2)
            assert got == [("a", 1.0), ("b", 1.0)]
            assert all(type(d) is str and type(s) is float for d, s in got)


def pool_scores(rng, n: int) -> np.ndarray:
    """A BM25-like score vector: at least 70% exact zeros, about a tenth of
    them -0.0, a few negative scores, and the rest on a coarse grid, so that
    equal scores run long."""
    scores = np.zeros(n)
    hits = rng.choice(n, size=int(rng.uniform(0.05, 0.3) * n), replace=False)
    scores[hits] = rng.integers(1, 60, size=len(hits)) / 8
    negative = rng.choice(n, size=n // 100, replace=False)
    scores[negative] = -rng.integers(1, 5, size=len(negative)) / 4
    scores[rng.choice(np.flatnonzero(scores == 0), size=n // 10, replace=False)] = -0.0
    return scores


@pytest.mark.parametrize("n", [2000, 5000, 10000])
@pytest.mark.parametrize("ascending_ids", [True, False])
@pytest.mark.parametrize("with_nan", [False, True])
def test_top_k_from_arrays_at_pool_scale_equals_the_full_lexsort(n, ascending_ids,
                                                                 with_nan):
    """Cuts at 1, among ties, at the edge of the zeros and inside them, at
    n and past it. A NaN score is ranked as if it were not there."""
    rng = np.random.default_rng(n + 2 * ascending_ids + with_nan)
    scores = pool_scores(rng, n)
    assert np.mean(scores == 0) >= 0.7 and np.signbit(scores[scores == 0]).any()
    if with_nan:
        scores[rng.choice(n, size=n // 50, replace=False)] = np.nan
    names = [f"d{i:05d}" for i in range(n)]
    if not ascending_ids:  # ties then break by id, which rows do not follow
        rng.shuffle(names)
    doc_ids = np.array(names, dtype=object)
    numbers = ~np.isnan(scores)
    want = top_k_lexsort(doc_ids[numbers], scores[numbers], n)
    positive = int(np.sum(scores > 0))
    # a cut inside a run of equal positive scores
    tie = next(i for i in range(1, positive) if want[i - 1][1] == want[i][1])
    cuts = {1, 2, tie, tie + 1, positive, positive + 1, positive + n // 20,
            int(numbers.sum()), n, n + 7, *rng.integers(1, n + 8, size=4).tolist()}
    for k in sorted(cuts):
        same(top_k(doc_ids, scores, k, ascending_ids), want[:k])


def test_top_k_from_arrays_never_ranks_a_nan_score():
    doc_ids = np.array(["a", "b", "c", "d"], dtype=object)
    scores = np.array([np.nan, np.nan, 1.0, 0.5])
    for ascending_ids in (True, False):
        assert top_k(doc_ids, scores, 2, ascending_ids) == [("c", 1.0), ("d", 0.5)]
        assert top_k(doc_ids, scores, 4, ascending_ids) == [("c", 1.0), ("d", 0.5)]
        assert top_k(doc_ids, np.full(4, np.nan), 3, ascending_ids) == []


def test_ranked_list_names_the_first_repeated_doc_id():
    with pytest.raises(ValueError, match=r"^duplicate doc_id in ranking: 'a'$"):
        RankedList([("b", 3.0), ("a", 2.0), ("a", 1.0), ("b", 0.0)], presorted=True)
    # sorted first: ("b", 3.0), ("a", 2.0), ("b", 1.5), ("a", 1.0)
    with pytest.raises(ValueError, match=r"^duplicate doc_id in ranking: 'b'$"):
        RankedList([("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)])


# --- the date filter ---

years = st.sampled_from([0, 1990, 1995, 1999, 2000, 2001, 2005, 2020])
windows = st.sampled_from([0, 1, 2, 5, 30, math.inf]).map(DateWindow)


@PROPERTY
@given(st.lists(st.tuples(ids, scores, years), max_size=12, unique_by=lambda r: r[0]),
       years, windows)
def test_apply_filter_equals_the_per_entry_filter(rows, query_year, window):
    pool = Corpus([make_doc(d, ["tax"], year=y) for d, _, y in rows])
    ranking = RankedList([(d, s) for d, s, _ in rows])
    query = make_doc("q", ["tax"], year=query_year)
    same(apply_filter(query, ranking, window, pool),
         apply_filter_per_entry(query, ranking, window, pool))


def test_apply_filter_zero_and_infinite_windows_and_year_zero():
    pool = Corpus([make_doc("d1", ["tax"], year=2000), make_doc("d2", ["tax"], year=0),
                   make_doc("d3", ["tax"], year=2001)])
    ranking = RankedList([("d1", 3.0), ("d2", 2.0), ("d3", 1.0)])
    query = make_doc("q", ["tax"], year=2000)
    assert apply_filter(query, ranking, DateWindow(0), pool).doc_ids == ["d1", "d2"]
    assert apply_filter(query, ranking, DateWindow(math.inf), pool) == ranking
    undated = make_doc("q0", ["tax"], year=0)
    assert apply_filter(undated, ranking, DateWindow(0), pool) is ranking


def test_apply_filter_names_an_unknown_doc_id_as_corpus_get_does():
    pool = Corpus([make_doc("d1", ["tax"], year=2000)])
    ranking = RankedList([("d1", 2.0), ("ghost", 1.0)])
    query = make_doc("q", ["tax"], year=2000)
    messages = []
    for run in (apply_filter, apply_filter_per_entry):
        with pytest.raises(KeyError) as excinfo:
            run(query, ranking, DateWindow(1), pool)
        messages.append(str(excinfo.value))
    assert messages == ["\"unknown doc_id 'ghost'\""] * 2
    with pytest.raises(KeyError, match="unknown doc_id 'ghost'"):
        pool.years(["d1", "ghost"])
    assert pool.years(["d1", "d1"]).tolist() == [2000, 2000]


# --- normalization and fusion ---

lists = st.lists(st.tuples(ids, scores), max_size=12,
                 unique_by=lambda p: p[0]).map(RankedList)


@PROPERTY
@given(lists)
def test_normalize_scores_equals_the_per_entry_normalization(ranking):
    """An empty list, and one whose score span overflows, are refused alike."""
    assert outcome(normalize_scores, ranking) == \
        outcome(normalize_scores_per_entry, ranking)


def test_a_score_span_that_overflows_is_refused_naming_both_ends():
    huge = RankedList([("a", 1e308), ("b", 0.0), ("c", -1e308)])
    message = ("cannot normalize scores from -1e+308 to 1e+308: their span "
               "is not finite")
    for run in (normalize_scores, normalize_scores_per_entry,
                lambda ranking: fuse(RankedList([("d", 1.0)]), ranking, 0.5, 3)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(huge)


def assert_fused_alike(list_a, list_b, alpha, k):
    """fuse of the raw lists, fuse of their normalize_scores and the
    dict-and-sort fusion of their per-entry normalization give the same
    list, or raise the same error."""
    want = outcome(fuse, list_a, list_b, alpha, k)
    assert outcome(lambda: fuse(normalize_scores(list_a), normalize_scores(list_b),
                                alpha, k)) == want
    assert outcome(lambda: fuse_dict_sort(normalize_scores_per_entry(list_a),
                                          normalize_scores_per_entry(list_b),
                                          alpha, k)) == want


alphas = (st.floats(0, 1) | st.sampled_from([0, 1, 0.0, 1.0, 0.5, 0.3, 0.7])
          | st.sampled_from([False, True]))
tied_lists = st.lists(st.tuples(ids, tied_scores), max_size=12,
                      unique_by=lambda p: p[0]).map(RankedList)


@PROPERTY
@given(lists | tied_lists, lists | tied_lists, alphas, st.integers(1, 30))
def test_fuse_equals_the_dict_and_sort_fusion(list_a, list_b, alpha, k):
    """fuse normalizes each list itself. An empty list, and a list of huge
    scores whose span overflows, are refused alike."""
    assert_fused_alike(list_a, list_b, alpha, k)


def test_fuse_refuses_an_empty_list_as_normalize_scores_does():
    some = RankedList([("a", 2.0), ("b", -1.0)])
    for x, y in ((RankedList(), some), (some, RankedList())):
        with pytest.raises(ValueError, match="^cannot normalize an empty ranking$"):
            fuse(x, y, 0.5, 3)


@pytest.mark.parametrize("alpha", [0, 1, 0.0, 1.0, 0.4])
def test_fuse_disjoint_identical_and_short_lists(alpha):
    rng = random.Random(3)
    a = RankedList([(f"a{i}", rng.choice([1.0, 2.0, 3.0])) for i in range(8)])
    b = RankedList([(f"b{i}", rng.choice([-1.0, 2.0])) for i in range(8)])
    for x, y in ((a, b), (a, a), (b, a)):
        for k in (1, 3, 8, 16, 40):  # cuts among ties, and k above the union
            assert_fused_alike(x, y, alpha, k)
    assert len(fuse(a, b, alpha, 40)) == 16


def raw_list(rng, names, kind: str) -> RankedList:
    """A raw list over `names`. "grid": negative and positive scores on a
    coarse grid, with a tenth of its entries at its shared minimum and a
    few -0.0 and 0.0; "zero floor": a minimum of 0 that 0.0 and -0.0 share
    in random order; "constant": every score 2.5; "one": its first entry."""
    n = len(names)
    if kind == "one":
        return RankedList([(names[0], -3.25)])
    if kind == "constant":
        return RankedList(zip(names, [2.5] * n))
    if kind == "zero floor":
        raw = rng.integers(0, 12, size=n) / 4
        raw[rng.choice(n, size=n // 5, replace=False)] = 0.0
        raw[(raw == 0) & (rng.random(n) < 0.5)] = -0.0
    else:
        raw = rng.integers(-8, 40, size=n) / 4
        raw[rng.choice(n, size=n // 10, replace=False)] = raw.min()
        raw[rng.choice(n, size=n // 20, replace=False)] = 0.0
        raw[rng.choice(n, size=n // 20, replace=False)] = -0.0
    return RankedList(zip(names, raw.tolist()))


@pytest.mark.parametrize("shared", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("alpha", [0, 0.4, 1])
def test_fuse_of_200_entry_lists_equals_the_dict_and_sort_fusion(shared, alpha):
    rng = np.random.default_rng(int(10 * shared + 100 * alpha))
    names = [f"d{i:04d}" for i in rng.permutation(1000)]
    ids_a = names[:200]
    common = int(shared * 200)
    ids_b = ids_a[:common] + names[200:400 - common]
    rng.shuffle(ids_b)
    a, b = raw_list(rng, ids_a, "zero floor"), raw_list(rng, ids_b, "zero floor")
    for x, y in ((a, b), (b, a)):
        for k in (1, 50, 100, 200, 399, 400, 450):
            assert_fused_alike(x, y, alpha, k)


@pytest.mark.parametrize("kind", ["grid", "zero floor", "constant", "one"])
@pytest.mark.parametrize("alpha", [0, 0.4, 1])
def test_fuse_of_pool_scale_raw_lists_equals_both_normalized_fusions(kind, alpha):
    """A 400-entry zero-floor list, as an ensemble fuses at k = 100, and a
    list of each kind sharing half its ids; cuts at 1, inside a run of tied
    fused scores, at the union's size and past it."""
    rng = np.random.default_rng(["grid", "zero floor", "constant", "one"].index(kind))
    names = [f"d{i:04d}" for i in rng.permutation(2000)]
    ids_b = names[:200] + names[400:600]
    rng.shuffle(ids_b)
    a, b = raw_list(rng, names[:400], "zero floor"), raw_list(rng, ids_b, kind)
    assert np.signbit([s for _, s in a if s == 0]).any()
    for x, y in ((a, b), (b, a)):
        fused = fuse(x, y, alpha, 1000)
        tie = next(i for i in range(1, len(fused)) if fused[i - 1][1] == fused[i][1])
        for k in sorted({1, tie, tie + 1, 200, len(fused), len(fused) + 5}):
            assert_fused_alike(x, y, alpha, k)
