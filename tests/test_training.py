import json
import pickle
import random
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from regir._npz import write_npz
from regir.corpus import Corpus, Document, Qrels
from regir.dense import WordVectors
from regir.ranking import RankedList, Run
from regir.rerank import features, pacrr, train
from regir.rerank.features import (TypeEmbeddings, dedup_terms, drmm_features,
                                   pacrr_features, softmax)
from regir.rerank.pacrr import PacrrConfig, PacrrModel
from regir.rerank.train import (CHECKPOINT_FORMAT, Adam, FeatureStore,
                                Hyperparams, Reranker, TrainTriple,
                                TrainingDiverged, _check_finite, _dev_recall,
                                hinge_loss, init_model, load_checkpoint,
                                rel_score, rerank_run, sample_triples,
                                save_checkpoint, train_model, write_training_log)
from regir.text import build_pipeline

from conftest import FixedIdf, exit_spy, keyed, make_doc
from oracles import (drmm_features_per_row, drmm_score_2d, hinge_step_per_pair,
                     rerank_list_per_pair, token_embeddings)


# --- loss and fusion arithmetic ---

def test_hinge_margin_exactly_met():
    assert hinge_loss(1.5, 0.5) == 0.0


def test_hinge_equal_scores():
    assert hinge_loss(0.7, 0.7) == 1.0


def test_hinge_inverted_pair():
    assert hinge_loss(0.2, 0.9) == pytest.approx(1.7)


def test_hinge_nonnegative_and_zero_iff_margin(rng):
    for _ in range(300):
        pos, neg = rng.uniform(-5, 5), rng.uniform(-5, 5)
        loss = hinge_loss(pos, neg)
        assert loss >= 0.0
        assert (loss == 0.0) == (pos >= neg + 1.0)


def test_rel_score_arithmetic():
    assert rel_score(0.1, 0.5, w_r=1.0, w_p=4.2) == pytest.approx(2.2)
    assert rel_score(3.0, 0.5, w_r=0.0, w_p=2.0) == 1.0
    assert rel_score(3.0, 0.5, w_r=2.0, w_p=0.0) == 6.0


# --- triple sampling ---

def run_of(lists):
    return Run({q: RankedList([(d, float(len(ids) - i))
                               for i, d in enumerate(ids)])
                for q, ids in lists.items()})


def test_sample_triples_counts_and_invariants():
    qrels = Qrels({"q1": {"p1", "p2", "missing"}})
    run = run_of({"q1": ["n1", "p1", "n2", "p2", "n3"]})
    rng = random.Random(0)
    triples, skipped = sample_triples(["q1"], qrels, run, negatives=2, rng=rng)
    assert skipped == 1  # "missing" never pre-fetched
    assert len(triples) == 4  # 2 positives x 2 negatives
    for t in triples:
        assert t.pos_doc_id in qrels.relevant("q1")
        assert t.neg_doc_id not in qrels.relevant("q1")
        assert t.neg_doc_id in run["q1"].doc_ids


def test_sample_triples_deterministic():
    qrels = Qrels({"q1": {"p1"}})
    run = run_of({"q1": ["p1", "n1", "n2", "n3", "n4"]})
    a, _ = sample_triples(["q1"], qrels, run, 2, random.Random(7))
    b, _ = sample_triples(["q1"], qrels, run, 2, random.Random(7))
    assert a == b


def test_sample_triples_takes_all_when_few_negatives():
    qrels = Qrels({"q1": {"p1"}})
    run = run_of({"q1": ["p1", "n1", "n2"]})
    triples, _ = sample_triples(["q1"], qrels, run, negatives=10,
                                rng=random.Random(0))
    assert {t.neg_doc_id for t in triples} == {"n1", "n2"}
    assert len(triples) == 2


def test_sample_triples_all_relevant_yields_none():
    qrels = Qrels({"q1": {"p1", "p2"}})
    run = run_of({"q1": ["p1", "p2"]})
    triples, skipped = sample_triples(["q1"], qrels, run, 2, random.Random(0))
    assert triples == [] and skipped == 0


def test_sample_triples_warns_on_query_without_positive(caplog):
    qrels = Qrels({"q1": {"missing"}})
    run = run_of({"q1": ["n1", "n2"]})
    with caplog.at_level("WARNING"):
        triples, skipped = sample_triples(["q1"], qrels, run, 2,
                                          random.Random(0))
    assert triples == [] and skipped == 1
    assert any("q1" in r.message for r in caplog.records)


# --- optimizer ---

def test_adam_moves_against_gradient():
    params = {"w": np.array([1.0, -1.0])}
    opt = Adam(params, lr=0.1)
    opt.step({"w": np.array([1.0, -1.0])})
    assert params["w"][0] < 1.0 and params["w"][1] > -1.0


def test_adam_zero_gradient_is_noop():
    params = {"w": np.array([0.5])}
    opt = Adam(params, lr=0.1)
    opt.step({"w": np.zeros(1)})
    assert params["w"][0] == 0.5


def test_check_finite_raises_with_diagnostics():
    with pytest.raises(TrainingDiverged, match="w1"):
        _check_finite(float("nan"), {"w1": np.array([1.0])}, epoch=3, step=2)
    with pytest.raises(TrainingDiverged, match="epoch 3"):
        _check_finite(1.0, {"w1": np.array([np.inf])}, epoch=3, step=2)
    _check_finite(0.5, {"w1": np.array([1.0])}, epoch=0, step=0)


# --- hyperparameters ---

def test_hyperparams_from_file(tmp_path):
    path = tmp_path / "hp.txt"
    path.write_text("# comment\nlr=0.01\nbatch=8\nkernel_sizes=2,4\nseed=3\n")
    hp = Hyperparams.from_file(path)
    assert hp.lr == 0.01 and hp.batch == 8
    assert hp.kernel_sizes == (2, 4)
    assert hp.patience == 5  # untouched default


def test_hyperparams_unknown_key_rejected(tmp_path):
    path = tmp_path / "hp.txt"
    path.write_text("momentum=0.9\n")
    with pytest.raises(ValueError, match="momentum"):
        Hyperparams.from_file(path)


@pytest.mark.parametrize("text, message", [
    ("lr=0.1\nB = abc\n", "line 2: B: expected an integer, got 'abc'"),
    ("kernel_sizes = 2,x\n", "line 1: kernel_sizes: expected an integer, got 'x'"),
    ("lr = inf\n", "line 1: lr: expected a finite number"),
    ("lr = 0.1\nbatch = 8\nlr = 0.2\n", "line 3: duplicate key 'lr'"),
])
def test_hyperparams_bad_values_name_path_and_line(tmp_path, text, message):
    path = tmp_path / "hp.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        Hyperparams.from_file(path)


# --- planted training setup ---

def planted_setup(n_train=4, n_dev=2, negatives_per_query=4):
    """Queries carry a unique signal term; the one relevant pool doc repeats
    it, negatives carry noise terms. Pre-fetch scores put the positive LAST,
    so only the matcher can promote it."""
    np_rng = np.random.default_rng(42)
    n_q = n_train + n_dev
    query_docs, pool_docs, vocab = [], [], {}
    qrels_map, lists = {}, {}
    for i in range(n_q):
        sig = f"sig{i}"
        vocab[sig] = np_rng.normal(size=8)
        query_docs.append(make_doc(f"q{i}", [sig, sig, "common"], title=sig))
        pos_id = f"pos{i}"
        pool_docs.append(make_doc(pos_id, [sig, "common", "pad"], title=sig))
        neg_ids = []
        for j in range(negatives_per_query):
            noise = f"noise{i}_{j}"
            vocab[noise] = np_rng.normal(size=8)
            neg_id = f"neg{i}_{j}"
            pool_docs.append(make_doc(neg_id, [noise, "common", "pad"],
                                      title=noise))
            neg_ids.append(neg_id)
        qrels_map[f"q{i}"] = {pos_id}
        lists[f"q{i}"] = neg_ids + [pos_id]
    for extra in ("common", "pad"):
        vocab[extra] = np_rng.normal(size=8)
    wv = keyed(WordVectors, vocab)
    pool = Corpus(pool_docs)
    queries = Corpus(query_docs)
    pipeline = build_pipeline(pool, stopwords=frozenset(), idf_filter=False)
    provider = TypeEmbeddings(wv)
    qrels = Qrels(qrels_map)
    run = run_of(lists)
    train_ids = [f"q{i}" for i in range(n_train)]
    dev_ids = [f"q{i}" for i in range(n_train, n_q)]
    return provider, pipeline, queries, pool, qrels, run, train_ids, dev_ids


def make_store(kind, hp):
    provider, pipeline, queries, pool, qrels, run, train_ids, dev_ids = \
        planted_setup()
    store = FeatureStore(kind, provider, pipeline, queries, pool, hp)
    return store, qrels, run, train_ids, dev_ids


def test_feature_store_caches_and_dedups():
    provider, pipeline, queries, pool, *_ = planted_setup()
    store = FeatureStore("drmm", provider, pipeline, queries, pool, Hyperparams(B=6))
    first = store.features("q0", "pos0")
    assert store.features("q0", "pos0") is first
    # q0 text is "sig0\nsig0 sig0 common": dedup keeps 2 distinct terms
    assert dedup_terms(pipeline(queries.get("q0").text)) == ["sig0", "common"]
    assert first[0].shape == (2, 7)


def _store_fixture():
    """A pool with out-of-vocabulary tokens, one document that denoises to
    nothing, and queries longer than a short q_len."""
    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(40)]
    pool = Corpus([make_doc(f"d{i}", [vocab[j] for j in rng.integers(40, size=n)],
                            title="Act")
                   for i, n in enumerate((0, 3, 17, 60, 200))])
    pool = Corpus([Document("blank", "2009", "")] + list(pool))
    queries = Corpus([make_doc(f"q{i}", [vocab[j] for j in rng.integers(40, size=n)],
                               title="Query")
                      for i, n in enumerate((1, 9, 30))])
    pipeline = build_pipeline(pool, stopwords=frozenset(["act"]), idf_filter=False)
    wv = keyed(WordVectors, {t: rng.normal(size=6) for t in vocab[:25]})
    token = token_embeddings({d.doc_id: rng.normal(size=(len(pipeline(d.text)), 6))
                              for c in (pool, queries) for d in c})
    return pool, queries, pipeline, {"type": TypeEmbeddings(wv), "token": token}


@pytest.mark.parametrize("provider_kind", ["type", "token"])
@pytest.mark.parametrize("kind, hp", [
    ("drmm", Hyperparams(B=7)),
    ("pacrr", Hyperparams(q_len=4, d_len=8)),
    ("pacrr", Hyperparams()),
])
def test_feature_store_equals_string_token_features(kind, hp, provider_kind):
    pool, queries, pipeline, providers = _store_fixture()
    provider = providers[provider_kind]
    store = FeatureStore(kind, provider, pipeline, queries, pool, hp)
    idf = pipeline.idf_table
    for query in queries:
        q_tokens = pipeline(query.text)
        for doc in pool:
            d_tokens = pipeline(doc.text)
            if kind == "drmm":
                terms = dedup_terms(q_tokens) if provider.dedup else q_tokens
                want = drmm_features(terms, query.doc_id, d_tokens, doc.doc_id,
                                     provider, idf, hp.B)
            else:
                want = pacrr_features(q_tokens, query.doc_id, d_tokens, doc.doc_id,
                                      provider, idf, hp.q_len, hp.d_len)
            got = store.features(query.doc_id, doc.doc_id)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype
                       for g, w in zip(got, want))
    with pytest.raises(KeyError, match="ghost"):
        store.features("q0", "ghost")


@pytest.mark.parametrize("method", ["fill", "batch"])
@pytest.mark.parametrize("provider_kind", ["type", "token"])
@pytest.mark.parametrize("kind", ["drmm", "pacrr"])
def test_the_store_refuses_unknown_ids_and_empty_queries_caching_nothing(
        kind, provider_kind, method):
    """An unknown doc_id or query id raises the KeyError `Corpus.get` raises,
    and a query that denoises to nothing raises ValueError, before anything
    is cached; the store then works as before."""
    pool, queries, pipeline, providers = _store_fixture()
    queries = Corpus(list(queries) + [make_doc("silent", [], title="Act")])
    store = FeatureStore(kind, providers[provider_kind], pipeline, queries, pool,
                         Hyperparams(B=5, q_len=4, d_len=8))
    call = getattr(store, method)
    doc_ids = [d.doc_id for d in pool]

    def refusal(fn, *args):
        with pytest.raises(KeyError) as exc:
            fn(*args)
        return exc.value.args

    assert refusal(call, "q0", doc_ids[:2] + ["ghost"]) == refusal(pool.get, "ghost")
    assert refusal(call, "nobody", doc_ids) == refusal(queries.get, "nobody")
    with pytest.raises(ValueError, match="^empty query after denoising$"):
        call("silent", doc_ids)
    assert store._feats == {}
    call("q0", doc_ids)
    assert len(store._feats) == (len(doc_ids) if method == "fill" else 0)


# --- filling a query's pairs in one call ---

def generated_fill_setup(seed):
    """A pool of ragged documents over a vocabulary in which some terms are
    out of vocabulary, one has a zero vector, some repeat another term's
    vector and some negate it; plus queries of 1 to 60 tokens."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(90)]
    base = {t: rng.normal(size=8) for t in vocab[:60]}
    vectors = dict(base)
    vectors.update({vocab[60 + i]: base[vocab[i]].copy() for i in range(10)})
    vectors.update({vocab[70 + i]: -base[vocab[i]] for i in range(10)})
    vectors[vocab[80]] = np.zeros(8)
    lengths = [0, 1, 2, 5, 40, 150, 400] + list(rng.integers(0, 120, size=33))
    pool = Corpus([make_doc(f"d{i:02d}", [vocab[j] for j in rng.integers(90, size=n)],
                            title="Act") for i, n in enumerate(lengths)])
    queries = Corpus([make_doc(f"q{i}", [vocab[j] for j in rng.integers(90, size=n)],
                               title="Act") for i, n in enumerate((1, 6, 25, 60))])
    pipeline = build_pipeline(pool, stopwords=frozenset(["act"]), idf_filter=False)
    token = token_embeddings({d.doc_id: rng.normal(size=(len(pipeline(d.text)), 8))
                              for c in (pool, queries) for d in c})
    return (pool, queries, pipeline,
            {"type": TypeEmbeddings(keyed(WordVectors, vectors)), "token": token})


def drmm_oracle_features(store, pipeline, queries, pool, query_id, doc_id):
    """The per-pair, per-row oracle's features of one pair of `store`, from
    the pair's text: the query's denoised tokens, deduplicated for a
    provider with a vector per term, and the document's."""
    q_tokens = pipeline(queries.get(query_id).text)
    if store.provider.dedup:
        q_tokens = dedup_terms(q_tokens)
    return drmm_features_per_row(q_tokens, pipeline(pool.get(doc_id).text),
                                 store.provider, pipeline.idf_table, store.hp.B,
                                 query_id, doc_id)


@pytest.mark.parametrize("budget", [features.DRMM_BATCH_ENTRIES, 300])
@pytest.mark.parametrize("provider_kind", ["type", "token"])
@pytest.mark.parametrize("seed", [3, 17])
def test_fill_equals_the_per_pair_oracle_on_every_pair(seed, provider_kind, budget,
                                                       monkeypatch):
    """One `fill` per query over the whole pool, at the module's batch bound
    and at one small enough that every batch holds a few documents, gives
    each pair the oracle's histograms bit for bit."""
    monkeypatch.setattr(features, "DRMM_BATCH_ENTRIES", budget)
    assert_fill_equals_the_per_pair_oracle(seed, provider_kind)


@pytest.mark.parametrize("provider_kind", ["type", "token"])
def test_fill_at_a_one_row_slice_equals_the_per_pair_oracle(provider_kind,
                                                            monkeypatch):
    """Binning the table one row at a time, and counting one document's
    tokens at a time, gives each pair the oracle's histograms bit for bit."""
    monkeypatch.setattr(features, "DRMM_SLICE_ENTRIES", 1)
    assert_fill_equals_the_per_pair_oracle(3, provider_kind)


def assert_fill_equals_the_per_pair_oracle(seed: int, provider_kind: str) -> None:
    """One `fill` per query over the whole pool gives each pair the
    oracle's histograms and idf bit for bit."""
    pool, queries, pipeline, providers = generated_fill_setup(seed)
    hp = Hyperparams(B=11)
    store = FeatureStore("drmm", providers[provider_kind], pipeline, queries,
                         pool, hp)
    doc_ids = [d.doc_id for d in pool]
    for query in queries:
        store.fill(query.doc_id, doc_ids)
        for doc_id in doc_ids:
            hists, idf = store.features(query.doc_id, doc_id)
            want, want_idf = drmm_oracle_features(store, pipeline, queries, pool,
                                                  query.doc_id, doc_id)
            assert np.array_equal(hists, want) and hists.dtype == np.uint8
            assert np.array_equal(idf, want_idf)


def test_fill_splits_documents_into_batches_of_the_bound(monkeypatch):
    """A small bound splits one query's documents over several batches, a
    document above it on its own; the features do not change."""
    pool, queries, pipeline, providers = generated_fill_setup(5)
    doc_ids = [d.doc_id for d in pool]
    hp = Hyperparams(B=9)

    def filled(budget):
        monkeypatch.setattr(features, "DRMM_BATCH_ENTRIES", budget)
        batches = []  # each batch's similarity count per document
        real = features._drmm_batch

        def spy(query, docs, *rest):
            batches.append([len(query[0][1]) * len(ids) for ids in docs])
            return real(query, docs, *rest)

        monkeypatch.setattr(features, "_drmm_batch", spy)
        store = FeatureStore("drmm", providers["type"], pipeline, queries, pool, hp)
        store.fill("q2", doc_ids)
        return [store.features("q2", d) for d in doc_ids], batches

    whole, [batch] = filled(10 ** 9)
    split, batches = filled(2000)
    assert len(batches) > 5 and sum(batches, []) == batch
    assert all(sum(b) <= 2000 or len(b) == 1 for b in batches)
    assert any(len(b) > 1 for b in batches) and any(sum(b) > 2000 for b in batches)
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(whole, split))


# alpha: its cosine to a copy of itself rounds above 1.0 in the store's
# products, and to its negation below -1.0
ALPHA = np.array([-0.54, -0.32, 0.41, 1.04])
AXIS, DIAG = np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0])


def planted_fill_setup(docs, query):
    pool = Corpus([make_doc(d, words, title="Act") for d, words in docs.items()])
    queries = Corpus([make_doc("q", query, title="Act")])
    return pool, queries, build_pipeline(pool, stopwords=frozenset(["act"]),
                                         idf_filter=False)


def filled_counts(store, pipeline, queries, pool):
    """Each document's histogram counts after one `fill` of query q, checked
    against the per-pair oracle."""
    doc_ids = [d.doc_id for d in pool]
    store.fill("q", doc_ids)
    counts = {}
    for doc_id in doc_ids:
        hists = store.features("q", doc_id)[0]
        want, _ = drmm_oracle_features(store, pipeline, queries, pool, "q", doc_id)
        assert np.array_equal(hists, want)
        counts[doc_id] = hists.tolist()
    return counts


def test_fill_planted_edges_clips_and_out_of_vocabulary_terms():
    """Word vectors with exact cosines, at B = 4 (bins [-1, -0.5), [-0.5, 0),
    [0, 0.5), [0.5, 1) and exact 1.0): `alpha2` copies `alpha` without being
    an identity match, `minus` negates it, `axis` . `diag` is 0.5, a bin
    edge, `zero` has a zero vector and `ghost` none."""
    vectors = {"alpha": ALPHA, "alpha2": ALPHA.copy(), "minus": -ALPHA,
               "axis": AXIS, "diag": DIAG, "zero": np.zeros(4)}
    provider = TypeEmbeddings(keyed(WordVectors, vectors))
    pool, queries, pipeline = planted_fill_setup(
        {"same": ["alpha2", "alpha2", "alpha"], "opposite": ["minus"],
         "edges": ["diag", "axis"], "unknown": ["ghost", "zero"], "empty": [],
         "mixed": ["alpha", "ghost", "diag"]},
        ["alpha", "ghost", "axis"])
    store = FeatureStore("drmm", provider, pipeline, queries, pool, Hyperparams(B=4))
    q_units = provider.units(provider.row_ids(["alpha", "ghost", "axis"]))
    assert (q_units @ provider.units(provider.row_ids(["alpha2"])).T)[0, 0] > 1.0
    assert (q_units @ provider.units(provider.row_ids(["minus"])).T)[0, 0] < -1.0
    assert (q_units @ provider.units(provider.row_ids(["diag"])).T)[2, 0] == 0.5
    # rows: alpha, ghost (zero histogram), axis; alpha . axis is -0.42,
    # alpha . diag 0.23
    nothing = [[0] * 5] * 3
    assert filled_counts(store, pipeline, queries, pool) == {
        "same": [[0, 0, 0, 0, 3], [0] * 5, [0, 3, 0, 0, 0]],
        "opposite": [[1, 0, 0, 0, 0], [0] * 5, [0, 0, 1, 0, 0]],
        "edges": [[0, 1, 1, 0, 0], [0] * 5, [0, 0, 0, 1, 1]],
        "unknown": nothing,
        "empty": nothing,
        "mixed": [[0, 0, 1, 0, 1], [0] * 5, [0, 1, 0, 1, 0]],
    }


def test_fill_with_token_vectors_pins_no_identity_match():
    """Positional vectors have no identity keys: the same term at two
    positions with different vectors is no exact match, and only a copied
    vector reaches the exact-match bin, through the clip."""
    pool, queries, pipeline = planted_fill_setup(
        {"other": ["alpha", "axis"], "copy": ["alpha", "diag"], "empty": []},
        ["alpha", "axis"])
    provider = token_embeddings({"q": np.stack([ALPHA, AXIS]),
                                 "other": np.stack([DIAG, -ALPHA]),
                                 "copy": np.stack([ALPHA, DIAG]),
                                 "empty": np.zeros((0, 4))})
    store = FeatureStore("drmm", provider, pipeline, queries, pool, Hyperparams(B=4))
    q_units = provider.units(provider.ids("q", "xx"))
    assert (q_units @ provider.units(provider.ids("copy", "xx")).T)[0, 0] > 1.0
    # alpha . -alpha is -1.0, axis . -alpha 0.42
    assert filled_counts(store, pipeline, queries, pool) == {
        "other": [[1, 0, 1, 0, 0], [0, 0, 1, 1, 0]],
        "copy": [[0, 0, 1, 0, 1], [0, 1, 0, 1, 0]],
        "empty": [[0] * 5] * 2,
    }


@pytest.mark.parametrize("bins, docs, fires", [
    (4, {"ortho": ["across", "axis"], "other": ["diag"]}, True),
    (5, {"ortho": ["across", "axis"], "other": ["diag"]}, False),
    (5, {"copy": ["alpha2", "diag"], "other": ["diag", "across"]}, True),
    (5, {"same": ["alpha", "axis"], "other": ["diag", "across"]}, False),
])
def test_drmm_bin_edge_guard_fires_on_planted_edges(bins, docs, fires, monkeypatch):
    """`axis` . `across` is exactly 0.0, a bin edge at even B: the guard
    sends the batch to the per-document exit, and at odd B it does not.
    `alpha2` copies `alpha` without being an identity match, so their
    cosine rounds above 1.0, next to the top bin; `alpha` itself is pinned
    by its key and needs no exit. Every pair equals the per-row oracle."""
    vectors = {"axis": AXIS, "across": np.array([0.0, 1.0, 0.0, 0.0]),
               "alpha": ALPHA, "alpha2": ALPHA.copy(), "diag": DIAG}
    provider = TypeEmbeddings(keyed(WordVectors, vectors))
    idf = FixedIdf({})
    q_terms = ["axis", "alpha", "ghost"]
    units = provider.units(provider.row_ids(q_terms))
    sims = units @ provider.units(provider.row_ids(["across", "alpha2"])).T
    assert sims[0, 0] == 0.0 and sims[1, 1] > 1.0
    exits = exit_spy(monkeypatch)
    query = features.drmm_query(provider.row_ids(q_terms), provider, idf.idfs(q_terms))
    feats = features.drmm_batch(query, [provider.row_ids(t) for t in docs.values()],
                                provider, bins)
    assert exits == ([len(docs)] if fires else [])
    for (hists, _), terms in zip(feats, docs.values()):
        want, _ = drmm_features_per_row(q_terms, terms, provider, idf, bins)
        assert np.array_equal(hists, want)


def test_fill_takes_duplicate_ids_and_refuses_unknown_ones_caching_nothing():
    pool, queries, pipeline, providers = generated_fill_setup(7)
    store = FeatureStore("drmm", providers["type"], pipeline, queries, pool,
                         Hyperparams(B=5))
    store.fill("q1", ["d03", "d04", "d03", "d04", "d03"])
    assert sorted(store._feats) == [("q1", "d03"), ("q1", "d04")]
    for doc_id in ("d03", "d04"):
        want, _ = drmm_oracle_features(store, pipeline, queries, pool, "q1", doc_id)
        assert np.array_equal(store.features("q1", doc_id)[0], want)
    with pytest.raises(KeyError, match="ghost"):
        store.fill("q2", ["d05", "ghost", "d06"])
    with pytest.raises(KeyError, match="ghost"):
        store.features("q2", "ghost")
    assert sorted(store._feats) == [("q1", "d03"), ("q1", "d04")]


@pytest.mark.parametrize("provider_kind", ["type", "token"])
def test_a_filled_drmm_store_holds_one_byte_per_histogram_bin(provider_kind,
                                                             monkeypatch):
    """The store keeps each pair's counts as the batch returns them: after
    one `fill` per query over the whole pool, in batches and slices of a few
    documents, the arrays behind the N cached histograms hold
    sum T * (B + 1) bytes, T the query's terms, and nothing else."""
    monkeypatch.setattr(features, "DRMM_BATCH_ENTRIES", 3000)
    monkeypatch.setattr(features, "DRMM_SLICE_ENTRIES", 500)
    pool, queries, pipeline, providers = generated_fill_setup(3)
    provider = providers[provider_kind]
    hp = Hyperparams(B=11)
    store = FeatureStore("drmm", provider, pipeline, queries, pool, hp)
    doc_ids = [d.doc_id for d in pool]
    want = 0
    for query in queries:
        store.fill(query.doc_id, doc_ids)
        q_tokens = pipeline(query.text)
        want += len(doc_ids) * len(dedup_terms(q_tokens) if provider.dedup
                                   else q_tokens) * (hp.B + 1)
    hists = [h for h, _ in store._feats.values()]
    bases = {id(h.base): h.base for h in hists}
    assert len(hists) == len(queries) * len(doc_ids) and len(bases) > len(queries)
    assert all(h.dtype == np.uint8 for h in hists)
    assert all(b.base is None for b in bases.values())
    assert sum(b.nbytes for b in bases.values()) == sum(h.nbytes for h in hists) == want


def test_a_bin_of_300_tokens_widens_its_batch_and_scores_as_the_float_oracle():
    """A document whose `alpha` tokens all fall in one query term's top bin
    counts 300 there, which uint8 cannot hold: its batch comes as uint16,
    another query's batch without it as uint8. Each pair's counts equal the
    per-row oracle's, and its s_r, alone, in its batch or next to a uint8
    pair, equals the oracle's float log-count score bit for bit."""
    vectors = {"alpha": ALPHA, "axis": AXIS, "diag": DIAG}
    provider = TypeEmbeddings(keyed(WordVectors, vectors))
    pool = Corpus([make_doc("long", ["alpha"] * 300 + ["diag", "axis"], title="Act"),
                   make_doc("short", ["axis", "diag", "diag"], title="Act")])
    queries = Corpus([make_doc("q1", ["alpha", "axis"], title="Act"),
                      make_doc("q2", ["axis", "ghost"], title="Act")])
    pipeline = build_pipeline(pool, stopwords=frozenset(["act"]), idf_filter=False)
    hp = Hyperparams(B=6, hidden=3)
    store = FeatureStore("drmm", provider, pipeline, queries, pool, hp)
    store.fill("q1", ["long", "short"])
    store.fill("q2", ["short"])
    wide = [store.features("q1", d) for d in ("long", "short")]
    narrow = store.features("q2", "short")
    assert [h.dtype for h, _ in wide] == [np.uint16, np.uint16]
    assert narrow[0].dtype == np.uint8 and wide[0][0][0, hp.B] == 300
    want = [drmm_oracle_features(store, pipeline, queries, pool, q, d)
            for q, d in (("q1", "long"), ("q1", "short"), ("q2", "short"))]
    for (hists, idf), (w_hists, w_idf) in zip(wide + [narrow], want):
        assert np.array_equal(hists, w_hists) and np.array_equal(idf, w_idf)
    model = init_model("drmm", hp, np.random.default_rng(8))
    model.params["b1"] = np.random.default_rng(9).normal(size=3)
    oracle = [drmm_score_2d(model, f) for f in want]
    assert model.score_batch(wide).tolist() == oracle[:2]
    assert [model.score(f)[0] for f in wide + [narrow]] == oracle
    mixed = [store.features("q2", "short"), (wide[1][0], narrow[1])]
    assert model.score_batch(mixed).tolist() == [oracle[2], drmm_score_2d(
        model, (want[1][0], narrow[1]))]


@pytest.mark.parametrize("kind", ["drmm", "pacrr"])
def test_each_pair_is_computed_once_through_fill_or_features(kind, monkeypatch):
    pool, queries, pipeline, providers = generated_fill_setup(11)
    computed = []
    real = FeatureStore._compute

    def compute(store, query_id, doc_ids):
        computed.extend(doc_ids)
        return real(store, query_id, doc_ids)

    monkeypatch.setattr(FeatureStore, "_compute", compute)
    store = FeatureStore(kind, providers["type"], pipeline, queries, pool,
                         Hyperparams(B=5, q_len=6, d_len=9))
    doc_ids = [d.doc_id for d in pool]
    first = store.features("q0", doc_ids[3])
    store.fill("q0", doc_ids[:10])
    store.fill("q0", doc_ids)
    assert all(store.features("q0", d) is store.features("q0", d) for d in doc_ids)
    assert store.features("q0", doc_ids[3]) is first
    assert computed == [doc_ids[3]] + doc_ids[:3] + doc_ids[4:10] + doc_ids[10:]
    store.features("q1", doc_ids[0])
    assert computed[-1] == doc_ids[0] and len(computed) == len(doc_ids) + 1


def test_zero_learning_rate_changes_nothing():
    hp = Hyperparams(lr=0.0, max_epochs=3, patience=10, negatives=2, B=6,
                     hidden=3, batch=4, seed=5)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
    fresh = init_model("drmm", hp, np.random.default_rng(hp.seed))
    for name, arr in result.model.params.items():
        assert np.array_equal(arr, fresh.params[name]), name
    assert result.w_r == 1.0 and result.w_p == 1.0
    losses = [row[1] for row in result.log_rows]
    # shuffling reorders the loss sum, so equality only up to rounding
    assert losses == pytest.approx([losses[0]] * len(losses), rel=1e-12)


def test_fixed_seed_bit_identical_loss_curve():
    hp = Hyperparams(lr=0.01, max_epochs=4, patience=10, negatives=2, B=6,
                     hidden=3, batch=4, seed=9)
    curves = []
    for _ in range(2):
        store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
        result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
        curves.append(result.log_rows)
    assert curves[0] == curves[1]


def test_different_seeds_differ():
    rows = []
    for seed in (1, 2):
        hp = Hyperparams(lr=0.01, max_epochs=2, patience=10, negatives=2, B=6,
                         hidden=3, batch=4, seed=seed)
        store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
        rows.append(train_model("drmm", train_ids, dev_ids, qrels, run,
                                store, hp).log_rows)
    assert rows[0] != rows[1]


def test_early_stopping_on_saturated_dev():
    # the dev metric at R@20 is 1.0 from the start (lists are short), so no
    # epoch improves on the epoch-0 baseline and patience cuts training off
    hp = Hyperparams(lr=0.001, max_epochs=50, patience=2, negatives=2, B=6,
                     hidden=3, batch=4, seed=0)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
    assert len(result.log_rows) == 2
    assert result.best_epoch == 0
    assert result.best_dev_r20 == 1.0


def test_planted_signal_learned_drmm(monkeypatch):
    monkeypatch.setattr(train, "DEV_K", 1)
    hp = Hyperparams(lr=0.05, max_epochs=40, patience=40, negatives=4, B=6,
                     hidden=4, batch=8, seed=0)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
    assert result.best_dev_r20 == 1.0
    # positive sits last in every pre-fetched list, so the initial dev R@1 is
    # 0; reaching 1.0 proves the matcher, not the pre-fetcher, ranks now
    first_losses = [row[1] for row in result.log_rows[:3]]
    last_losses = [row[1] for row in result.log_rows[-3:]]
    assert min(last_losses) < min(first_losses)
    [reranked] = rerank_run(run, [result.reranker(store)])
    for query_id in dev_ids:
        assert reranked[query_id].doc_ids[0] == f"pos{query_id[1:]}" \
            or reranked[query_id].doc_ids[0].startswith("pos")


def test_planted_signal_learned_pacrr(monkeypatch):
    monkeypatch.setattr(train, "DEV_K", 1)
    hp = Hyperparams(lr=0.05, max_epochs=40, patience=40, negatives=4,
                     kernel_sizes=(2,), filters=2, kmax=2, q_len=8, d_len=8,
                     batch=8, seed=1)
    store, qrels, run, train_ids, dev_ids = make_store("pacrr", hp)
    result = train_model("pacrr", train_ids, dev_ids, qrels, run, store, hp)
    assert result.best_dev_r20 == 1.0


def test_returned_checkpoint_reproduces_best_dev(monkeypatch):
    monkeypatch.setattr(train, "DEV_K", 1)
    hp = Hyperparams(lr=0.05, max_epochs=10, patience=10, negatives=2, B=6,
                     hidden=3, batch=4, seed=3)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
    fusion = {"w_r": np.array([result.w_r]), "w_p": np.array([result.w_p])}
    replay = _dev_recall(fusion, result.model, store, dev_ids, qrels, run, k=1)
    assert replay == pytest.approx(result.best_dev_r20)


def test_dev_recall_counts_a_dev_query_with_an_empty_list_as_a_miss():
    """A judged dev query the pre-fetch found nothing for is in the mean, at
    R@k 0, as a query of an empty list is in every other mean R@k; a
    judged dev query the run has no list for is an error, not skipped."""
    hp = Hyperparams(B=6, hidden=3, seed=3)
    store, qrels, run, _, dev_ids = make_store("drmm", hp)
    model = init_model("drmm", hp, np.random.default_rng(hp.seed))
    fusion = {"w_r": np.array([1.0]), "w_p": np.array([1.0])}
    emptied = Run({**run, dev_ids[0]: RankedList()})
    assert _dev_recall(fusion, model, store, dev_ids[1:], qrels, run, k=20) == 1.0
    assert (_dev_recall(fusion, model, store, dev_ids, qrels, emptied, k=20)
            == (len(dev_ids) - 1) / len(dev_ids))
    with pytest.raises(KeyError):
        _dev_recall(fusion, model, store, dev_ids, qrels,
                    Run({q: run[q] for q in dev_ids[1:]}), k=20)


def test_no_triples_raises():
    hp = Hyperparams(negatives=2)
    store, _, run, train_ids, dev_ids = make_store("drmm", hp)
    empty_qrels = Qrels({q: {"nowhere"} for q in train_ids + dev_ids})
    with pytest.raises(ValueError, match="triples"):
        train_model("drmm", train_ids, dev_ids, empty_qrels, run, store, hp)


@pytest.mark.parametrize("kind, store_kind", [("pacrr", "drmm"), ("drmm", "pacrr")])
def test_train_model_refuses_a_store_of_another_kind(kind, store_kind):
    """A DRMM histogram has the shape a PACRR similarity matrix may have, so
    nothing downstream would catch the mix-up."""
    hp = Hyperparams(max_epochs=2)
    store, qrels, run, train_ids, dev_ids = make_store(store_kind, hp)
    with pytest.raises(ValueError, match=f"cannot train a {kind} model on the "
                                         f"feature store of a {store_kind} model"):
        train_model(kind, train_ids, dev_ids, qrels, run, store, hp)


# --- reranking ---

class StubModel:
    """Scores the exact-match histogram bin: positive docs contain a query
    term, negatives do not."""

    kind = "drmm"

    def __init__(self, weight):
        self.weight = weight
        self.params = {}

    def score(self, feats):
        hists, _ = feats
        return self.weight * float(hists[:, -1].sum()), {}

    def score_batch(self, feats_list):
        return np.array([self.score(feats)[0] for feats in feats_list])


def test_rerank_with_wr_zero_preserves_prefetch_order():
    hp = Hyperparams(B=6)
    store, _, run, _, _ = make_store("drmm", hp)
    reranker = Reranker(StubModel(10.0), w_r=0.0, w_p=1.0, store=store)
    for query_id in run:
        assert reranker.rerank_list(query_id, run[query_id]).doc_ids == \
            run[query_id].doc_ids


def test_rerank_hand_set_model_puts_positives_first():
    hp = Hyperparams(B=6)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    reranker = Reranker(StubModel(10.0), w_r=1.0, w_p=1.0, store=store)
    for query_id in train_ids + dev_ids:
        top = reranker.rerank_list(query_id, run[query_id]).doc_ids[0]
        assert top in qrels.relevant(query_id)


class CallCounter:
    """A matcher that counts its calls and passes them on, and records the
    pair count of each call that fills backward caches."""

    def __init__(self, model):
        self.model = model
        self.calls = {"score": 0, "score_batch": 0}
        self.cached_batches: list[int] = []

    def score(self, feats):
        self.calls["score"] += 1
        return self.model.score(feats)

    def score_batch(self, feats_list, caches=None):
        self.calls["score_batch"] += 1
        if caches is not None:
            self.cached_batches.append(len(feats_list))
        return self.model.score_batch(feats_list, caches)

    def __getattr__(self, name):
        return getattr(self.model, name)


@pytest.mark.parametrize("provider_kind", ["type", "token"])
@pytest.mark.parametrize("kind, hp", [
    ("drmm", Hyperparams(B=7, hidden=3)),
    ("pacrr", Hyperparams(q_len=4, d_len=8, filters=3, kmax=3)),
])
def test_rerank_list_equals_per_pair_oracle(kind, hp, provider_kind):
    """Every pool document of the store fixture (ragged, one empty, with
    out-of-vocabulary tokens) is a candidate of every query: one model call
    per query gives lists equal, scores and all, to one call per pair."""
    pool, queries, pipeline, providers = _store_fixture()
    store = FeatureStore(kind, providers[provider_kind], pipeline, queries,
                         pool, hp)
    model = CallCounter(init_model(kind, hp, np.random.default_rng(3)))
    reranker = Reranker(model, w_r=0.7, w_p=0.3, store=store)
    doc_ids = [d.doc_id for d in pool]
    rng = random.Random(4)
    for query in queries:
        ranking = RankedList([(d, rng.random()) for d in doc_ids])
        got = reranker.rerank_list(query.doc_id, ranking)
        assert model.calls == {"score": 0, "score_batch": 1}
        assert got == rerank_list_per_pair(reranker, query.doc_id, ranking)
        model.calls = {"score": 0, "score_batch": 0}


@pytest.mark.parametrize("kind, hp", [
    ("drmm", Hyperparams(lr=0.05, max_epochs=4, patience=10, negatives=2, B=6,
                         hidden=3, batch=4, seed=9)),
    ("pacrr", Hyperparams(lr=0.05, max_epochs=4, patience=10, negatives=2,
                          kernel_sizes=(2,), filters=2, q_len=8, d_len=8,
                          batch=4, seed=9)),
])
def test_training_log_equals_per_pair_oracle(kind, hp, monkeypatch):
    """Dev recall re-ranks through the batch path; the log rows and the
    trained parameters equal those of a run re-ranking one pair at a time."""
    store, qrels, run, train_ids, dev_ids = make_store(kind, hp)
    batched = train_model(kind, train_ids, dev_ids, qrels, run, store, hp)
    monkeypatch.setattr(Reranker, "rerank_list", rerank_list_per_pair)
    per_pair = train_model(kind, train_ids, dev_ids, qrels, run, store, hp)
    assert batched.log_rows == per_pair.log_rows
    assert all(np.array_equal(batched.model.params[k], per_pair.model.params[k])
               for k in batched.model.params)


TRAIN_HPS = [
    ("drmm", Hyperparams(lr=0.1, max_epochs=3, patience=10, negatives=2, B=6,
                         hidden=3, batch=5, seed=4)),
    ("pacrr", Hyperparams(lr=0.1, max_epochs=3, patience=10, negatives=2,
                          filters=2, q_len=8, d_len=8, batch=5, seed=4)),
]


def spy_batches(monkeypatch) -> list:
    """The mini-batches train_model hands its step, recorded in order."""
    batches = []
    real_step = train._hinge_step

    def step(model, store, batch, *rest):
        batches.append(list(batch))
        return real_step(model, store, batch, *rest)

    monkeypatch.setattr(train, "_hinge_step", step)
    return batches


@pytest.mark.parametrize("kind, hp", TRAIN_HPS)
def test_training_equals_per_pair_step_oracle(kind, hp, monkeypatch):
    """Scoring a mini-batch with one batched call per query trains to the
    bits of scoring and back-propagating one pair at a time, over several
    epochs of batches smaller than the triple set, in which a positive
    repeats. Dev R@1 starts at 0 (every positive is pre-fetched last), so
    the returned checkpoint is a trained one."""
    store, qrels, run, train_ids, dev_ids = make_store(kind, hp)
    batches = spy_batches(monkeypatch)
    monkeypatch.setattr(train, "DEV_K", 1)
    batched = train_model(kind, train_ids, dev_ids, qrels, run, store, hp)
    assert len(batched.log_rows) == hp.max_epochs and batched.best_epoch > 0
    assert len(batches) > hp.max_epochs
    assert any(len({(t.query_id, t.pos_doc_id) for t in batch}) < len(batch)
               for batch in batches)
    monkeypatch.setattr(train, "_hinge_step", hinge_step_per_pair)
    per_pair = train_model(kind, train_ids, dev_ids, qrels, run, store, hp)
    assert batched.log_rows == per_pair.log_rows
    assert (batched.w_r, batched.w_p) == (per_pair.w_r, per_pair.w_p)
    assert batched.model.params.keys() == per_pair.model.params.keys()
    assert all(np.array_equal(batched.model.params[k], per_pair.model.params[k])
               for k in batched.model.params)


def test_pacrr_hinge_step_equals_per_pair_oracle_across_query_lengths(monkeypatch):
    """A PACRR mini-batch over queries of two lengths T, with pairs in two
    triples each and a zero-loss triple, adds the losses and gradients of a
    step that scores and back-propagates one pair at a time, byte for byte.
    It makes one `_row_kmax` call per scored pair and one LSTM backward pass
    per query length among the back-propagated pairs."""
    rng = np.random.default_rng(12)
    model = PacrrModel.init(rng, PacrrConfig(q_len=9, d_len=16, kernel_sizes=(2, 3),
                                             filters=4, kmax=2))
    for n in (2, 3):
        model.params[f"c{n}"] = rng.normal(0, 0.05, size=4)
    model.params["lstm_b"] = rng.normal(0, 0.1, size=4)
    feats = {}
    for query_id, t in (("qa", 5), ("qb", 9), ("qc", 5)):
        idf_col = softmax(rng.uniform(0, 2, size=t))
        for doc_id, d in (("p", 7), ("n1", 0), ("n2", 16), ("n3", 1)):
            feats[query_id, doc_id] = (rng.uniform(-1, 1, size=(t, d)), idf_col)
    store = SimpleNamespace(features=lambda query_id, doc_id: feats[query_id, doc_id])
    batch = [TrainTriple("qa", "p", "n1"), TrainTriple("qb", "p", "n2"),
             TrainTriple("qc", "p", "n3"), TrainTriple("qa", "p", "n2"),
             TrainTriple("qb", "p", "n1")]
    # w_p * (sp_pos - sp_neg) decides each loss: qc's triple is met by the
    # full margin, every other one is not
    norm_sp = {q: {"p": 0.0, "n1": 1.0, "n2": 0.5, "n3": 0.0} for q in ("qa", "qb")}
    norm_sp["qc"] = {"p": 1.0, "n3": 0.0}
    w_r, w_p = 0.5, 3.0
    names = [*model.params, "w_r", "w_p"]
    grads = {name: np.zeros(model.params[name].shape if name in model.params else 1)
             for name in names}
    want = {name: g.copy() for name, g in grads.items()}
    kmax_calls, backward_lengths = [], []
    real_kmax, real_backward = pacrr._row_kmax, PacrrModel._lstm_backward

    def kmax(M, k):
        kmax_calls.append(M.shape)
        return real_kmax(M, k)

    def lstm_backward(self, caches, d_score):
        backward_lengths.append(sorted(len(cache["x"]) for cache in caches))
        return real_backward(self, caches, d_score)

    monkeypatch.setattr(pacrr, "_row_kmax", kmax)
    monkeypatch.setattr(PacrrModel, "_lstm_backward", lstm_backward)
    losses = train._hinge_step(model, store, batch, norm_sp, w_r, w_p, grads)
    monkeypatch.undo()
    assert losses[2] == 0.0 and min(losses[:2] + losses[3:]) > 0.0
    assert len(kmax_calls) == 8  # qa and qb three documents each, qc two
    assert sorted(backward_lengths) == [[5, 5, 5], [9, 9, 9]]
    assert hinge_step_per_pair(model, store, batch, norm_sp, w_r, w_p, want) == losses
    for name in names:
        assert grads[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("kind, hp", TRAIN_HPS)
def test_training_scores_each_query_of_a_batch_in_one_call(kind, hp, monkeypatch):
    """Each mini-batch makes one batched forward per query over its distinct
    documents, and no per-pair `score` call."""
    store, qrels, run, train_ids, dev_ids = make_store(kind, hp)
    batches = spy_batches(monkeypatch)
    counters = []

    def counting_init(*args):
        counters.append(CallCounter(init_model(*args)))
        return counters[-1]

    monkeypatch.setattr(train, "init_model", counting_init)
    train_model(kind, train_ids, dev_ids, qrels, run, store, hp)
    want = []
    for batch in batches:
        docs: dict[str, set] = {}
        for t in batch:
            docs.setdefault(t.query_id, set()).update((t.pos_doc_id, t.neg_doc_id))
        want += [len(d) for d in docs.values()]
    [counter] = counters
    assert counter.cached_batches == want
    assert counter.calls["score"] == 0


# --- what the store keeps ---

@pytest.mark.parametrize("kind, hp", [
    ("drmm", Hyperparams(B=7, hidden=3)),
    ("pacrr", Hyperparams(q_len=4, d_len=8, filters=3, kmax=3)),
])
def test_rerank_run_keeps_none_of_the_features_it_computes(kind, hp):
    """Lists the store never filled are scored from features computed for
    the call and then dropped, and a cached pair is read from the cache: the
    store holds afterwards what it held before, and the lists equal those of
    one model call per pair."""
    pool, queries, pipeline, providers = _store_fixture()
    store = FeatureStore(kind, providers["type"], pipeline, queries, pool, hp)
    doc_ids = [d.doc_id for d in pool]
    store.fill("q0", doc_ids[:3])
    feats = dict(store._feats)
    rng = random.Random(5)
    run = Run({q.doc_id: RankedList([(d, rng.random()) for d in doc_ids])
               for q in queries})
    reranker = Reranker(init_model(kind, hp, np.random.default_rng(3)), w_r=0.7,
                        w_p=0.3, store=store)
    [got] = rerank_run(run, [reranker])
    assert store._feats.keys() == feats.keys()
    assert all(store._feats[key] is value for key, value in feats.items())
    with pytest.raises(KeyError, match="ghost"):
        store.batch("q1", [doc_ids[0], "ghost"])
    assert got == Run({q: rerank_list_per_pair(reranker, q, ranking)
                       for q, ranking in run.items()})


@pytest.mark.parametrize("provider_kind", ["type", "token"])
def test_a_filled_pacrr_pair_keeps_its_bytes_while_its_block_is_read(provider_kind):
    """`fill` caches a list's pairs as views of one similarity block. Reading
    and scoring the block's other pairs, and a `batch` of a list partly
    cached, leave each cached pair the same object with the same bytes, and
    that `batch` equals a fresh store's, pair by pair."""
    pool, queries, pipeline, providers = _store_fixture()
    hp = Hyperparams(q_len=6, d_len=16, filters=3, kmax=3)
    store, fresh = (FeatureStore("pacrr", providers[provider_kind], pipeline, queries,
                                 pool, hp) for _ in range(2))
    doc_ids = [d.doc_id for d in pool]
    store.fill("q1", doc_ids[1:4])
    cached = {d: store.features("q1", d) for d in doc_ids[1:4]}
    before = {d: S.tobytes() for d, (S, _) in cached.items()}
    model = init_model("pacrr", hp, np.random.default_rng(4))
    model.score_batch([store.features("q1", d) for d in doc_ids[2:4]])
    got = store.batch("q1", doc_ids)
    model.score_batch(got)
    want = fresh.batch("q1", doc_ids)
    assert [(S.shape, S.tobytes()) for S, _ in got] == [(S.shape, S.tobytes())
                                                        for S, _ in want]
    assert all(got[1 + i] is cached[d] for i, d in enumerate(doc_ids[1:4]))
    assert store._feats.keys() == {("q1", d) for d in doc_ids[1:4]}
    assert {d: S.tobytes() for d, (S, _) in cached.items()} == before


def test_rerank_run_holds_one_list_s_features_at_a_time():
    """Memory stays bounded while re-ranking: over 20 PACRR lists of 30
    candidates, the memory traced during `rerank_run` peaks below three
    times one list's features. A store that kept every list would hold 20."""
    rng = np.random.default_rng(12)
    vocab = [f"w{i}" for i in range(50)]
    pool = Corpus([make_doc(f"d{i:02d}", [vocab[j] for j in rng.integers(50, size=200)],
                            title="Act") for i in range(30)])
    queries = Corpus([make_doc(f"q{i:02d}", [vocab[j] for j in rng.integers(50, size=40)],
                               title="Act") for i in range(20)])
    pipeline = build_pipeline(pool, stopwords=frozenset(["act"]), idf_filter=False)
    provider = TypeEmbeddings(keyed(WordVectors, {t: rng.normal(size=8) for t in vocab}))
    hp = Hyperparams(q_len=16, d_len=128, filters=2, kernel_sizes=(2,))
    store = FeatureStore("pacrr", provider, pipeline, queries, pool, hp)
    run = Run({q.doc_id: RankedList([(d, float(i)) for i, d in enumerate(pool.ids)])
               for q in queries})
    probe = FeatureStore("pacrr", provider, pipeline, queries, pool, hp)
    list_bytes = sum(probe.features("q00", d)[0].nbytes for d in pool.ids)
    assert list_bytes == 30 * 16 * 128 * 8
    reranker = Reranker(init_model("pacrr", hp, np.random.default_rng(0)), w_r=0.5,
                        w_p=0.5, store=store)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rerank_run(run, [reranker])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * list_bytes


def batch_bound_list(kind: str, rng, n_docs: int, doc_len: int):
    """A provider, the row ids of a 40-term query (30 terms in vocabulary)
    and n_docs documents of doc_len tokens, a fifth of them out of
    vocabulary.
    Every in-vocabulary token is a distinct term, or has a vector of its
    own, so a batch's table has a row per in-vocabulary token."""
    tokens = n_docs * doc_len
    if kind == "type":
        provider = TypeEmbeddings(keyed(WordVectors, {f"w{i}": rng.normal(size=50)
                                                      for i in range(tokens)}))
        q_terms = [f"w{i}" for i in rng.choice(tokens, 30, replace=False)]
        q_ids = provider.row_ids(q_terms + [f"ghost{i}" for i in range(10)])
        ids = rng.permutation(tokens)
        ids[rng.random(tokens) < 0.2] = -1
        docs = [ids[k * doc_len:(k + 1) * doc_len] for k in range(n_docs)]
    else:
        seqs = {f"d{k}": rng.normal(size=(doc_len, 50)) for k in range(n_docs)}
        for seq in seqs.values():
            seq[rng.random(doc_len) < 0.2] = 0.0
        seqs["q"] = np.concatenate([rng.normal(size=(30, 50)), np.zeros((10, 50))])
        provider = token_embeddings(seqs)
        q_ids = provider.ids("q", seqs["q"])
        docs = [provider.ids(f"d{k}", seqs[f"d{k}"]) for k in range(n_docs)]
    return provider, q_ids, docs


def test_a_drmm_list_at_the_batch_bound_stays_under_the_stated_memory(monkeypatch):
    """A 50-document list of a 40-term query as long as DRMM_BATCH_ENTRIES
    allows is one batch, and the memory traced while it is computed stays
    under the figure the constant's comment states: the histograms, 8
    bytes per histogram bin, 16 per entry, 64 per token and 1 MiB of
    slices. Word vectors and
    token vectors alike fill the table's every row (`batch_bound_list`)."""
    n_terms, n_docs = 40, 50
    doc_len = features.DRMM_BATCH_ENTRIES // (n_terms * n_docs)
    tokens = n_docs * doc_len
    batches = []
    real = features._drmm_batch

    def spy(query, docs, *rest):
        batches.append(len(docs))
        return real(query, docs, *rest)

    monkeypatch.setattr(features, "_drmm_batch", spy)
    for kind in ("type", "token"):
        provider, q_ids, docs = batch_bound_list(kind, np.random.default_rng(31),
                                                 n_docs, doc_len)
        query = features.drmm_query(q_ids, provider, np.ones(40))
        batches.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            feats = features.drmm_batch(query, docs, provider, 30)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        entries = n_terms * tokens
        assert batches == [n_docs] and entries > 0.99 * features.DRMM_BATCH_ENTRIES
        hist_bytes = sum(hists.nbytes for hists, _ in feats)
        hist_bins = sum(hists.size for hists, _ in feats)
        assert peak < hist_bytes + 8 * hist_bins + 16 * entries + 64 * tokens + 2 ** 20


@pytest.mark.parametrize("n_docs, doc_len", [(50, 128), (200, 2)])
@pytest.mark.parametrize("kind", ["type", "token"])
def test_a_pacrr_list_stays_under_the_stated_memory(kind, n_docs, doc_len):
    """The memory traced while `pacrr_batch` computes a list, a 40-term
    query against n_docs documents (one of them empty), stays under the
    figure its docstring states: the S block, 8 bytes per entry, plus 1
    byte per entry, 24 per column, 384 per document, one document's
    gathered units and 256 KiB. The lists are the benchmark's shape, 50
    candidates cut at d_len 128, and many short documents."""
    provider, q_ids, docs = batch_bound_list(kind, np.random.default_rng(32),
                                             n_docs, doc_len)
    docs[0] = docs[0][:0]
    query = features.pacrr_query(q_ids, provider, np.ones(40), 40)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        feats = features.pacrr_batch(query, docs, provider, 128)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    block = feats[0][0].base
    assert all(S.base is block for S, _ in feats)
    t, columns = block.shape
    assert (t, columns) == (40, (n_docs - 1) * doc_len)
    dim = provider.units(q_ids).shape[1]
    assert peak < (block.nbytes + block.size + 24 * columns + 384 * n_docs
                   + 8 * dim * doc_len + 2 ** 18)


# --- persistence ---

def test_checkpoint_roundtrip(tmp_path):
    hp = Hyperparams(lr=0.05, max_epochs=3, patience=10, negatives=2, B=6,
                     hidden=3, batch=4, seed=2)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
    path = tmp_path / "model.bin"
    save_checkpoint(result, path)
    back = load_checkpoint(path)
    assert back.hp == hp
    assert back.w_r == result.w_r and back.w_p == result.w_p
    for name, arr in result.model.params.items():
        assert np.array_equal(back.model.params[name], arr)
    [before] = rerank_run(run, [result.reranker(store)])
    [after] = rerank_run(run, [back.reranker(store)])
    for query_id in run:
        assert before[query_id] == after[query_id]


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    hp = Hyperparams(lr=0.05, max_epochs=2, patience=10, negatives=2, B=6,
                     hidden=3, batch=4, seed=2)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp)
    path = tmp_path_factory.mktemp("ck") / "model.bin"
    save_checkpoint(result, path)
    return result, path


def test_checkpoint_is_deterministic_npz_read_without_pickle(checkpoint_file,
                                                             tmp_path, monkeypatch):
    result, path = checkpoint_file

    def no_pickle(*args, **kwargs):
        raise AssertionError("a checkpoint must not be unpickled")

    monkeypatch.setattr(pickle, "load", no_pickle)
    monkeypatch.setattr(pickle, "loads", no_pickle)
    back = load_checkpoint(path)
    assert repr(back.w_r) == repr(result.w_r) and repr(back.w_p) == repr(result.w_p)
    save_checkpoint(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_truncated_files(checkpoint_file, tmp_path):
    _, path = checkpoint_file
    data = path.read_bytes()
    for cut in (0, 3, 40, len(data) // 3, len(data) // 2, len(data) - 22,
                len(data) - 1):
        bad = tmp_path / f"cut{cut}.bin"
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=str(bad)):
            load_checkpoint(bad)


def test_checkpoint_rejects_flipped_bytes(checkpoint_file, tmp_path):
    """A flip the zip CRC does not cover (a timestamp) may load, but then
    as the same checkpoint; every other one fails naming the file."""
    result, path = checkpoint_file
    data = path.read_bytes()
    bad = tmp_path / "flipped.bin"
    for offset in range(0, len(data), 3):
        flipped = bytearray(data)
        flipped[offset] ^= 0x55
        bad.write_bytes(bytes(flipped))
        try:
            back = load_checkpoint(bad)
        except ValueError as exc:
            assert str(bad) in str(exc)
            continue
        assert (back.w_r, back.w_p, back.hp) == (result.w_r, result.w_p, result.hp)
        for name, arr in result.model.params.items():
            assert np.array_equal(back.model.params[name], arr), offset
    for offset in (len(data) // 3, len(data) // 2):
        flipped = bytearray(data)
        flipped[offset] ^= 0x01
        bad.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match=str(bad)):
            load_checkpoint(bad)


def test_checkpoint_rejects_wrong_version_and_shapes(checkpoint_file, tmp_path):
    result, path = checkpoint_file
    header = {"format": CHECKPOINT_FORMAT, "version": 3}
    bad = tmp_path / "v3.bin"
    write_npz(bad, header, result.model.params)
    with pytest.raises(ValueError, match=f"{bad}: unsupported .* version 3"):
        load_checkpoint(bad)
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(npz["header"].tobytes())
    params = dict(result.model.params, W1=np.zeros((2, 2)))
    bad = tmp_path / "shape.bin"
    write_npz(bad, header, params)
    with pytest.raises(ValueError, match=f"{bad}: parameter shapes"):
        load_checkpoint(bad)
    params = dict(result.model.params, b2=np.array([np.nan]))
    write_npz(bad, header, params)
    with pytest.raises(ValueError, match=f"{bad}: non-finite"):
        load_checkpoint(bad)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("w_r"), "header lacks 'w_r'"),
    (lambda h: h.update(best_epoch="x"), r"bad checkpoint header \(.*'x'"),
], ids=["no-w_r", "text-best-epoch"])
def test_checkpoint_rejects_a_bad_header(checkpoint_file, tmp_path, edit, message):
    result, path = checkpoint_file
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(npz["header"].tobytes())
    edit(header)
    bad = tmp_path / "header.bin"
    write_npz(bad, header, result.model.params)
    with pytest.raises(ValueError, match=f"^{bad}: {message}"):
        load_checkpoint(bad)


def test_checkpoint_rejects_a_parameter_that_is_not_float64(checkpoint_file,
                                                            tmp_path):
    result, path = checkpoint_file
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(npz["header"].tobytes())
    name = next(iter(result.model.params))
    params = dict(result.model.params)
    params[name] = params[name].astype(np.float32)
    bad = tmp_path / "float32.bin"
    write_npz(bad, header, params)
    with pytest.raises(ValueError, match=f"^{bad}: arrays must be float64"):
        load_checkpoint(bad)


def test_checkpoint_rejects_v1_pickle_without_unpickling(tmp_path, monkeypatch):
    path = tmp_path / "old.bin"
    path.write_bytes(pickle.dumps({"format": CHECKPOINT_FORMAT, "version": 1},
                                  protocol=4))

    def no_pickle(*args, **kwargs):
        raise AssertionError("a v1 checkpoint must not be unpickled")

    monkeypatch.setattr(pickle, "load", no_pickle)
    monkeypatch.setattr(pickle, "loads", no_pickle)
    with pytest.raises(ValueError, match=f"{path}: .*version-1 pickle"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    import pickle
    path = tmp_path / "junk.bin"
    path.write_bytes(pickle.dumps({"format": "other"}))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_training_log_csv(tmp_path):
    path = tmp_path / "log.csv"
    write_training_log([(1, 0.5, 0.25, 1.0, 1.0), (2, 0.4, 0.5, 1.1, 0.9)],
                       path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,dev_r20,w_r,w_p"
    assert lines[1] == "1,0.5,0.25,1.0,1.0"
    assert len(lines) == 3


def test_seeded_runs_three_seeds():
    hp = Hyperparams(lr=0.01, max_epochs=2, patience=10, negatives=2, B=6,
                     hidden=3, batch=4)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    results = [train_model("drmm", train_ids, dev_ids, qrels, run, store,
                           replace(hp, seed=s)) for s in (1, 2, 3)]
    assert len(results) == 3
    assert results[0].hp.seed == 1 and results[2].hp.seed == 3
    w1 = results[0].model.params["W1"]
    assert not np.array_equal(w1, results[1].model.params["W1"])
