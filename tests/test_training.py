import json
import pickle
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from regir._npz import write_npz
from regir.corpus import Corpus, Document, Qrels
from regir.dense import WordVectors
from regir.ranking import RankedList, Run
from regir.rerank import features, train
from regir.rerank.features import (TokenEmbeddings, TypeEmbeddings, dedup_terms,
                                   drmm_features, pacrr_features)
from regir.rerank.train import (CHECKPOINT_FORMAT, Adam, FeatureStore,
                                Hyperparams, Reranker,
                                TrainingDiverged, _check_finite, _dev_recall,
                                hinge_loss, init_model, load_checkpoint,
                                rel_score, sample_triples, save_checkpoint,
                                train_model, write_training_log)
from regir.text import build_pipeline

from conftest import keyed, make_doc
from oracles import drmm_features_per_row, hinge_step_per_pair, rerank_list_per_pair


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
    hp = Hyperparams(B=6)
    store, _, _, _, _ = make_store("drmm", hp)
    first = store.features("q0", "pos0")
    assert store.features("q0", "pos0") is first
    # q0 text is "sig0\nsig0 sig0 common": dedup keeps 2 distinct terms
    assert store.query_tokens("q0") == ["sig0", "common"]
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
    token = TokenEmbeddings({d.doc_id: rng.normal(size=(len(pipeline(d.text)), 6))
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
    token = TokenEmbeddings({d.doc_id: rng.normal(size=(len(pipeline(d.text)), 8))
                             for c in (pool, queries) for d in c})
    return (pool, queries, pipeline,
            {"type": TypeEmbeddings(keyed(WordVectors, vectors)), "token": token})


def drmm_oracle_features(store, query_id, doc_id, pool):
    """The per-pair, per-row oracle's features of one pair of `store`."""
    return drmm_features_per_row(store.query_tokens(query_id),
                                 store.pipeline(pool.get(doc_id).text),
                                 store.provider, store.pipeline.idf_table,
                                 store.hp.B, query_id, doc_id)


@pytest.mark.parametrize("budget", [features.DRMM_BATCH_ENTRIES, 300])
@pytest.mark.parametrize("provider_kind", ["type", "token"])
@pytest.mark.parametrize("seed", [3, 17])
def test_fill_equals_the_per_pair_oracle_on_every_pair(seed, provider_kind, budget,
                                                       monkeypatch):
    """One `fill` per query over the whole pool, at the module's batch bound
    and at one small enough that every batch holds a few documents, gives
    each pair the oracle's histograms bit for bit."""
    monkeypatch.setattr(features, "DRMM_BATCH_ENTRIES", budget)
    pool, queries, pipeline, providers = generated_fill_setup(seed)
    hp = Hyperparams(B=11)
    store = FeatureStore("drmm", providers[provider_kind], pipeline, queries,
                         pool, hp)
    doc_ids = [d.doc_id for d in pool]
    for query in queries:
        store.fill(query.doc_id, doc_ids)
        for doc_id in doc_ids:
            hists, idf = store.features(query.doc_id, doc_id)
            want, want_idf = drmm_oracle_features(store, query.doc_id, doc_id, pool)
            assert np.array_equal(hists, want) and hists.dtype == want.dtype
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
            batches.append([len(query[0][1]) * len(t) for _, t in docs])
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


def filled_counts(store, pool):
    """Each document's histogram counts after one `fill` of query q, checked
    against the per-pair oracle."""
    doc_ids = [d.doc_id for d in pool]
    store.fill("q", doc_ids)
    counts = {}
    for doc_id in doc_ids:
        hists = store.features("q", doc_id)[0]
        want, _ = drmm_oracle_features(store, "q", doc_id, pool)
        assert np.array_equal(hists, want)
        counts[doc_id] = np.expm1(hists).round().astype(int).tolist()
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
    q_units = provider.rows("", ["alpha", "ghost", "axis"])[0]
    assert (q_units @ provider.rows("", ["alpha2", "alpha2", "alpha"])[0].T)[0, 0] > 1.0
    assert (q_units @ provider.rows("", ["minus"])[0].T)[0, 0] < -1.0
    assert (q_units @ provider.rows("", ["diag", "axis"])[0].T)[2, 0] == 0.5
    # rows: alpha, ghost (zero histogram), axis; alpha . axis is -0.42,
    # alpha . diag 0.23
    nothing = [[0] * 5] * 3
    assert filled_counts(store, pool) == {
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
    provider = TokenEmbeddings({"q": np.stack([ALPHA, AXIS]),
                                "other": np.stack([DIAG, -ALPHA]),
                                "copy": np.stack([ALPHA, DIAG]),
                                "empty": np.zeros((0, 4))})
    store = FeatureStore("drmm", provider, pipeline, queries, pool, Hyperparams(B=4))
    q_units = provider.rows("q", "xx")[0]
    assert (q_units @ provider.rows("copy", "xx")[0].T)[0, 0] > 1.0
    # alpha . -alpha is -1.0, axis . -alpha 0.42
    assert filled_counts(store, pool) == {
        "other": [[1, 0, 1, 0, 0], [0, 0, 1, 1, 0]],
        "copy": [[0, 0, 1, 0, 1], [0, 1, 0, 1, 0]],
        "empty": [[0] * 5] * 2,
    }


def test_fill_takes_duplicate_ids_and_refuses_unknown_ones_caching_nothing():
    pool, queries, pipeline, providers = generated_fill_setup(7)
    store = FeatureStore("drmm", providers["type"], pipeline, queries, pool,
                         Hyperparams(B=5))
    store.fill("q1", ["d03", "d04", "d03", "d04", "d03"])
    assert sorted(store._feats) == [("q1", "d03"), ("q1", "d04")]
    for doc_id in ("d03", "d04"):
        want, _ = drmm_oracle_features(store, "q1", doc_id, pool)
        assert np.array_equal(store.features("q1", doc_id)[0], want)
    with pytest.raises(KeyError, match="ghost"):
        store.fill("q2", ["d05", "ghost", "d06"])
    with pytest.raises(KeyError, match="ghost"):
        store.features("q2", "ghost")
    assert sorted(store._feats) == [("q1", "d03"), ("q1", "d04")]
    assert list(store._queries) == ["q1"]


@pytest.mark.parametrize("kind", ["drmm", "pacrr"])
def test_each_pair_is_computed_once_through_fill_or_features(kind, monkeypatch):
    pool, queries, pipeline, providers = generated_fill_setup(11)
    computed = []
    real_batch, real_pair = train.drmm_batch, train.pacrr_pair

    def batch(query, docs, *rest):
        computed.extend(doc_id for doc_id, _ in docs)
        return real_batch(query, docs, *rest)

    def pair(query, tokens, doc_id, *rest):
        computed.append(doc_id)
        return real_pair(query, tokens, doc_id, *rest)

    monkeypatch.setattr(train, "drmm_batch", batch)
    monkeypatch.setattr(train, "pacrr_pair", pair)
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
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp,
                         dev_k=20)
    assert len(result.log_rows) == 2
    assert result.best_epoch == 0
    assert result.best_dev_r20 == 1.0


def test_planted_signal_learned_drmm():
    hp = Hyperparams(lr=0.05, max_epochs=40, patience=40, negatives=4, B=6,
                     hidden=4, batch=8, seed=0)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp,
                         dev_k=1)
    assert result.best_dev_r20 == 1.0
    # positive sits last in every pre-fetched list, so the initial dev R@1 is
    # 0; reaching 1.0 proves the matcher, not the pre-fetcher, ranks now
    first_losses = [row[1] for row in result.log_rows[:3]]
    last_losses = [row[1] for row in result.log_rows[-3:]]
    assert min(last_losses) < min(first_losses)
    reranked = result.reranker(store).rerank_run(run)
    for query_id in dev_ids:
        assert reranked[query_id].doc_ids[0] == f"pos{query_id[1:]}" \
            or reranked[query_id].doc_ids[0].startswith("pos")


def test_planted_signal_learned_pacrr():
    hp = Hyperparams(lr=0.05, max_epochs=40, patience=40, negatives=4,
                     kernel_sizes=(2,), filters=2, kmax=2, q_len=8, d_len=8,
                     batch=8, seed=1)
    store, qrels, run, train_ids, dev_ids = make_store("pacrr", hp)
    result = train_model("pacrr", train_ids, dev_ids, qrels, run, store, hp,
                         dev_k=1)
    assert result.best_dev_r20 == 1.0


def test_returned_checkpoint_reproduces_best_dev():
    hp = Hyperparams(lr=0.05, max_epochs=10, patience=10, negatives=2, B=6,
                     hidden=3, batch=4, seed=3)
    store, qrels, run, train_ids, dev_ids = make_store("drmm", hp)
    result = train_model("drmm", train_ids, dev_ids, qrels, run, store, hp,
                         dev_k=1)
    fusion = {"w_r": np.array([result.w_r]), "w_p": np.array([result.w_p])}
    replay = _dev_recall(fusion, result.model, store, dev_ids, qrels, run, k=1)
    assert replay == pytest.approx(result.best_dev_r20)


def test_dev_recall_skips_a_dev_query_missing_from_the_run():
    """A dev query the pre-fetch returned no list for counts neither as a
    miss nor in the mean."""
    hp = Hyperparams(B=6, hidden=3, seed=3)
    store, qrels, run, _, dev_ids = make_store("drmm", hp)
    model = init_model("drmm", hp, np.random.default_rng(hp.seed))
    fusion = {"w_r": np.array([1.0]), "w_p": np.array([1.0])}
    partial = Run({q: run[q] for q in dev_ids[1:]})
    assert (_dev_recall(fusion, model, store, dev_ids, qrels, partial, k=1)
            == _dev_recall(fusion, model, store, dev_ids[1:], qrels, run, k=1))
    with pytest.raises(ValueError, match="no dev query"):
        _dev_recall(fusion, model, store, dev_ids, qrels, Run(), k=1)


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
    batched = train_model(kind, train_ids, dev_ids, qrels, run, store, hp, dev_k=1)
    assert len(batched.log_rows) == hp.max_epochs and batched.best_epoch > 0
    assert len(batches) > hp.max_epochs
    assert any(len({(t.query_id, t.pos_doc_id) for t in batch}) < len(batch)
               for batch in batches)
    monkeypatch.setattr(train, "_hinge_step", hinge_step_per_pair)
    per_pair = train_model(kind, train_ids, dev_ids, qrels, run, store, hp, dev_k=1)
    assert batched.log_rows == per_pair.log_rows
    assert (batched.w_r, batched.w_p) == (per_pair.w_r, per_pair.w_p)
    assert batched.model.params.keys() == per_pair.model.params.keys()
    assert all(np.array_equal(batched.model.params[k], per_pair.model.params[k])
               for k in batched.model.params)


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
    before = result.reranker(store).rerank_run(run)
    after = back.reranker(store).rerank_run(run)
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
