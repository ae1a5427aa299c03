"""Acceptance gate: one check per shipped guarantee, each reporting a single
PASS/FAIL line in the terminal summary. The checks re-derive expectations
with independent oracles (pure-python scorers, finite differences) instead of
trusting the library's own arithmetic."""

import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from conftest import build_dataset, criterion, keyed, make_doc, run_python

from regir.bm25 import Bm25Params, build_index
from regir.corpus import Corpus
from regir.datefilter import DateWindow, apply_filter, filter_run
from regir.dense import DocVectorStore, WordVectors, centroid, knn_search
from regir.experiment import load_config, run_experiment
from regir.fusion import fuse
from regir.metrics import ndcg_at_k, r_precision, recall_at_k
from regir.ranking import RankedList, Run
from regir.rerank.drmm import DrmmModel
from regir.rerank.features import softmax
from regir.rerank.pacrr import PacrrConfig, PacrrModel
from regir.rerank.train import (FeatureStore, Hyperparams, Reranker,
                                hinge_loss, train_model)
from regir.text import build_pipeline

from oracles import idf_from_token_lists, score_of
from test_rerank_models import assert_grads_close, finite_diff
from test_training import planted_setup


# --- 1: first-stage scorer against a naive full scan ---

def naive_bm25_rank(doc_tokens, query, k1, b):
    n_docs = len(doc_tokens)
    df = Counter()
    for tokens in doc_tokens.values():
        df.update(set(tokens))
    avg_len = sum(len(t) for t in doc_tokens.values()) / n_docs
    scores = {}
    for doc_id, tokens in doc_tokens.items():
        bag = Counter(tokens)
        norm = 1 - b + b * len(tokens) / avg_len
        total = 0.0
        for term in query:
            tf = bag[term]
            if tf == 0:
                continue
            idf = math.log((n_docs - df[term] + 0.5) / (df[term] + 0.5) + 1)
            total += idf * tf * (k1 + 1) / (tf + k1 * norm)
        scores[doc_id] = total
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def test_criterion_1_bm25_oracle_equivalence():
    with criterion(1, "BM25 ranking matches a naive full-scan scorer "
                      "(30 corpora, 120 doc-queries, scores to 1e-9 rel)"):
        rng = random.Random(20260814)
        queries_checked = 0
        for _ in range(30):
            vocab = [f"w{j:03d}" for j in range(rng.randint(20, 500))]
            n_docs = rng.randint(10, 200)
            docs = []
            for i in range(n_docs):
                words = [rng.choice(vocab)
                         for _ in range(rng.randint(5, 80))]
                docs.append(make_doc(f"d{i:04d}", words, title=words[0]))
            corpus = Corpus(docs)
            pipeline = build_pipeline(corpus, stopwords=frozenset(),
                                      idf_filter=False)
            index = build_index(corpus, pipeline)
            doc_tokens = {d.doc_id: pipeline(d.text) for d in docs}
            params = Bm25Params(k1=rng.uniform(0.5, 8.0), b=rng.uniform(0, 1))
            for _ in range(4):
                query = doc_tokens[rng.choice(list(doc_tokens))]
                got = index.bm25_search(query, params, n_docs)
                want = naive_bm25_rank(doc_tokens, query, params.k1, params.b)
                assert got.doc_ids == [d for d, _ in want]
                for (doc_id, expected) in want:
                    actual = score_of(got, doc_id)
                    assert abs(actual - expected) <= \
                        1e-9 * max(1.0, abs(expected), abs(actual))
                queries_checked += 1
        assert queries_checked >= 100


# --- 2: centroid construction and exact nearest-neighbour search ---

def test_criterion_2_centroid_and_knn_against_brute_force():
    with criterion(2, "centroid hand cases exact; kNN ordering equals brute "
                      "force on 50 random 64-dim stores"):
        wv = WordVectors(["a", "b"], np.array([[2.0, 0.0], [0.0, 4.0]]))
        idf = idf_from_token_lists([["a"], ["b"], ["a", "b"]])
        assert centroid(["a"], wv, idf).tolist() == [2.0, 0.0]
        assert centroid(["a", "b"], wv, idf).tolist() == \
            centroid(["b", "a"], wv, idf).tolist()

        np_rng = np.random.default_rng(20260814)
        for _ in range(50):
            n = int(np_rng.integers(5, 60))
            store = DocVectorStore([f"d{i:03d}" for i in range(n)],
                                   np_rng.normal(size=(n, 64)))
            query = np_rng.normal(size=64)
            got = knn_search(query, store, n).doc_ids
            qn = math.sqrt(sum(x * x for x in query))
            cosines = {}
            for doc_id in store:
                vec = store.get(doc_id)
                dot = sum(float(x) * float(y) for x, y in zip(query, vec))
                vn = math.sqrt(sum(float(x) ** 2 for x in vec))
                cosines[doc_id] = dot / (qn * vn)
            want = [d for d, _ in sorted(cosines.items(),
                                         key=lambda kv: (-kv[1], kv[0]))]
            assert got == want


# --- 3: evaluation metrics ---

def test_criterion_3_metric_hand_checks():
    with criterion(3, "nDCG hand values to 1e-4; R-precision equals recall@R "
                      "on 1000 random lists"):
        single = RankedList([("x", 2.0), ("hit", 1.0)])
        assert ndcg_at_k(single, {"hit"}, 20) == pytest.approx(0.6309, abs=1e-4)
        pair = RankedList([("hit1", 3.0), ("x", 2.0), ("hit2", 1.0)])
        assert ndcg_at_k(pair, {"hit1", "hit2"}, 3) == \
            pytest.approx(0.9197, abs=1e-4)

        rng = random.Random(99)
        pool = [f"d{i}" for i in range(30)]
        for _ in range(1000):
            ranked = RankedList([(d, float(-i)) for i, d in
                                 enumerate(rng.sample(pool, rng.randint(1, 30)))],
                                presorted=True)
            relevant = set(rng.sample(pool, rng.randint(1, 10)))
            assert r_precision(ranked, relevant) == \
                recall_at_k(ranked, relevant, len(relevant))


# --- 4: analytic gradients ---

def drmm_case(rng):
    model = DrmmModel.init(rng, bins=5, hidden=3)
    model.params["w_g"] = rng.normal(size=1)
    feats = lambda rows: (rng.uniform(0, 2, size=(rows, 6)),
                          rng.uniform(0.2, 3, size=rows))
    return model, feats(4), feats(3)


def pacrr_case(rng):
    config = PacrrConfig(q_len=8, d_len=16, kernel_sizes=(2, 3), filters=2,
                         kmax=2)
    model = PacrrModel.init(rng, config)
    feats = lambda q, d: (rng.uniform(-0.9, 0.9, size=(q, d)),
                          softmax(rng.uniform(0, 2, size=q)))
    return model, feats(4, 7), feats(5, 9)


def check_loss_gradients(make_case, seed_base):
    checked = 0
    seed = seed_base
    while checked < 5:
        seed += 1
        rng = np.random.default_rng(seed)
        model, feats_pos, feats_neg = make_case(rng)
        sp_pos, sp_neg = rng.uniform(0, 1, size=2)
        fusion = {"w_r": rng.uniform(0.5, 1.5, size=1),
                  "w_p": rng.uniform(0.5, 1.5, size=1)}

        def loss():
            sr_pos = model.score(feats_pos)[0]
            sr_neg = model.score(feats_neg)[0]
            rel_pos = fusion["w_r"][0] * sr_pos + fusion["w_p"][0] * sp_pos
            rel_neg = fusion["w_r"][0] * sr_neg + fusion["w_p"][0] * sp_neg
            return max(0.0, 1.0 - rel_pos + rel_neg)

        if loss() < 0.05:  # keep clear of the hinge kink
            continue
        every = {**model.params, **fusion}
        numeric = finite_diff(loss, every, h=1e-5)
        refined = finite_diff(loss, every, h=1e-6)
        agreement = max(
            float((np.abs(numeric[p] - refined[p])
                   / np.maximum(np.abs(refined[p]), 1e-6)).max())
            for p in numeric)
        if agreement > 1e-4:
            # a k-max or filter-argmax tie sits inside the step size, so the
            # numeric oracle itself is invalid at this point; draw another model
            continue
        sr_pos, cache_pos = model.score(feats_pos)
        sr_neg, cache_neg = model.score(feats_neg)
        w_r = fusion["w_r"][0]
        g_pos = model.backward(cache_pos, -w_r)
        g_neg = model.backward(cache_neg, w_r)
        analytic = {name: g_pos[name] + g_neg[name] for name in g_pos}
        analytic["w_r"] = np.array([sr_neg - sr_pos])
        analytic["w_p"] = np.array([sp_neg - sp_pos])
        assert_grads_close(analytic, numeric, rtol=1e-4)
        checked += 1


def test_criterion_4_gradient_checks():
    with criterion(4, "DRMM and PACRR hinge-loss gradients (incl. w_r, w_p) "
                      "match finite differences to 1e-4 on 5 models each"):
        check_loss_gradients(drmm_case, 1000)
        check_loss_gradients(pacrr_case, 2000)


# --- 5: loss and fusion identities ---

def test_criterion_5_hinge_and_fusion_identities():
    with criterion(5, "hinge zero iff margin met; w_r=0 re-ranking preserves "
                      "pre-fetch order; fuse(a,b,alpha)=fuse(b,a,1-alpha)"):
        rng = random.Random(5)
        for _ in range(500):
            pos, neg = rng.uniform(-4, 4), rng.uniform(-4, 4)
            assert (hinge_loss(pos, neg) == 0.0) == (pos >= neg + 1.0)

        hp = Hyperparams(B=6)
        provider, pipeline, queries, pool, _, run, _, _ = planted_setup()
        store = FeatureStore("drmm", provider, pipeline, queries, pool, hp)
        model = DrmmModel.init(np.random.default_rng(0), bins=6, hidden=4)
        reranker = Reranker(model, w_r=0.0, w_p=1.0, store=store)
        for query_id in run:
            assert reranker.rerank_list(query_id, run[query_id]).doc_ids == \
                run[query_id].doc_ids

        for trial in range(50):
            docs = [f"d{i}" for i in range(10)]
            norm = lambda: [0.0, 1.0] + [rng.random() for _ in range(8)]
            a = RankedList(list(zip(docs, norm())))
            b_list = RankedList(list(zip(rng.sample(docs, 10), norm())))
            alpha = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) \
                if trial % 2 else rng.random()
            lhs = fuse(a, b_list, alpha, 10)
            rhs = fuse(b_list, a, 1.0 - alpha, 10)
            for doc_id in docs:
                assert score_of(lhs, doc_id) == \
                    pytest.approx(score_of(rhs, doc_id), abs=1e-12)


# --- 6: the re-ranker can learn a planted signal ---

def test_criterion_6_planted_signal_learnability():
    with criterion(6, "DRMM reaches dev R@1 = 1.0 on a 500-doc planted-signal "
                      "corpus within 50 epochs (< 2 min)"):
        rng = random.Random(6)
        np_rng = np.random.default_rng(6)
        vectors = {}

        def vec(term):
            if term not in vectors:
                vectors[term] = np_rng.normal(size=8)
            return vectors[term]

        common = [f"c{i}" for i in range(40)]
        for term in common:
            vec(term)
        n_queries, per_list = 26, 20
        pool_docs, query_docs, lists, qrels_map = [], [], {}, {}
        for i in range(n_queries):
            rare = f"rare{i}"
            vec(rare)
            query_docs.append(make_doc(
                f"q{i}", [rare] + rng.sample(common, 6), title=rare))
            pool_docs.append(make_doc(
                f"pos{i}", [rare] + rng.sample(common, 10), title=rare))
            qrels_map[f"q{i}"] = {f"pos{i}"}
        while len(pool_docs) < 500:
            i = len(pool_docs)
            pool_docs.append(make_doc(
                f"neg{i}", rng.sample(common, 12), title=f"neg{i}"))
        distractors = [d.doc_id for d in pool_docs
                       if d.doc_id.startswith("neg")]
        for i in range(n_queries):
            # the relevant doc enters the candidate list at the very bottom
            ids = rng.sample(distractors, per_list - 1) + [f"pos{i}"]
            lists[f"q{i}"] = RankedList(
                [(d, float(per_list - r)) for r, d in enumerate(ids)])
        run = Run(lists)
        pool = Corpus(pool_docs)
        queries = Corpus(query_docs)
        pipeline = build_pipeline(pool, stopwords=frozenset(), idf_filter=False)
        wv = keyed(WordVectors, vectors)
        from regir.rerank.features import TypeEmbeddings
        from regir.corpus import Qrels
        hp = Hyperparams(lr=0.05, max_epochs=50, patience=50, negatives=4,
                         B=8, hidden=5, batch=16, seed=0)
        store = FeatureStore("drmm", TypeEmbeddings(wv), pipeline, queries,
                             pool, hp)
        train_ids = [f"q{i}" for i in range(20)]
        dev_ids = [f"q{i}" for i in range(20, 26)]
        started = time.perf_counter()
        result = train_model("drmm", train_ids, dev_ids, Qrels(qrels_map),
                             run, store, hp, dev_k=1)
        elapsed = time.perf_counter() - started
        assert result.best_dev_r20 == 1.0
        assert elapsed < 120.0


# --- 7: date-filter identities ---

def test_criterion_7_date_filter_identities():
    with criterion(7, "date filter idempotent; pre-filter + identity rerank "
                      "equals post-filter; 2006 +/- 5 keeps exactly in-window "
                      "docs"):
        years = {"d1": 2008, "d2": 2012, "d3": 2015, "d4": 2002, "d5": 2011}
        docs = [make_doc(d, ["tax"], year=y) for d, y in years.items()]
        pool = Corpus(docs)
        query = make_doc("q1", ["tax"], year=2006)
        ranked = RankedList([(d, float(10 - i))
                             for i, d in enumerate(sorted(years))])
        window = DateWindow(5, "post")
        once = apply_filter(query, ranked, window, pool)
        assert set(once.doc_ids) == {"d1", "d4", "d5"}
        assert apply_filter(query, once, window, pool).doc_ids == once.doc_ids

        from dataclasses import replace as doc_with
        rng = random.Random(7)
        provider, pipeline, queries0, pool0, _, run, _, _ = planted_setup()
        queries = Corpus([doc_with(d, year=rng.randint(2000, 2010))
                          for d in queries0])
        pool2 = Corpus([doc_with(d, year=rng.randint(2000, 2010))
                        for d in pool0])
        hp = Hyperparams(B=6)
        store = FeatureStore("drmm", provider, pipeline, queries, pool2, hp)
        model = DrmmModel.init(np.random.default_rng(1), bins=6, hidden=4)
        identity = Reranker(model, w_r=0.0, w_p=1.0, store=store)
        win = DateWindow(3, "pre")
        pre = identity.rerank_run(filter_run(run, win, queries, pool2))
        post = filter_run(identity.rerank_run(run), DateWindow(3, "post"),
                          queries, pool2)
        for query_id in run:
            assert pre[query_id].doc_ids == post[query_id].doc_ids


# --- 8: determinism of a whole run ---

def toy_run_config(tmp_path):
    """The toy dataset and the config of criterion 8's run: a fused bm25 +
    w2v-cent pre-fetch, DRMM re-ranking and a post date filter."""
    dataset = build_dataset(tmp_path, random.Random(20260814))
    (dataset / "hp.txt").write_text(
        "lr=0.01\nmax_epochs=2\nbatch=4\nnegatives=2\nB=6\nhidden=3\n")
    (dataset / "cfg.txt").write_text(
        "task = EU2UK\n"
        "seed = 11\n"
        "data.pool = pool.jsonl\n"
        "data.queries = queries.jsonl\n"
        "data.qrels = qrels.tsv\n"
        "data.splits = splits.json\n"
        "dense.word_vectors = wv.txt\n"
        "prefetch.mode = ensemble\n"
        "prefetch.k = 10\n"
        "fusion.components = bm25,w2v-cent\n"
        "fusion.alpha = 0.7\n"
        "rerank.model = drmm\n"
        "rerank.hyperparams = hp.txt\n"
        "datefilter.years = 8\n"
        "datefilter.mode = post\n"
        "eval.k = 5\n")
    return dataset / "cfg.txt"


def test_criterion_8_fixed_seed_byte_identical(tmp_path):
    with criterion(8, "fixed-seed toy pipeline run twice gives byte-identical "
                      "eval CSVs"):
        cfg = load_config(toy_run_config(tmp_path))
        first = run_experiment(cfg, tmp_path / "out1")
        second = run_experiment(cfg, tmp_path / "out2")
        assert [p.name for p in first.eval_paths] == \
            [p.name for p in second.eval_paths]
        for p1, p2 in zip(first.eval_paths, second.eval_paths):
            assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "out1" / "reranked_test_seed11.tsv").read_bytes() \
            == (tmp_path / "out2" / "reranked_test_seed11.tsv").read_bytes()


RUN_CONFIG = """
import sys
from regir.experiment import load_config, run_experiment
run_experiment(load_config(sys.argv[1]), sys.argv[2])
"""


def test_toy_run_is_byte_identical_across_processes(tmp_path):
    """Criterion 8's run in two interpreters with different hash seeds:
    every artifact is byte-identical, the manifest's stage timings apart."""
    cfg = toy_run_config(tmp_path)
    outdirs = [tmp_path / f"out{seed}" for seed in (1, 2)]
    for seed, outdir in zip((1, 2), outdirs):
        run_python(RUN_CONFIG, cfg, outdir, hash_seed=seed)
    names = [sorted(p.name for p in outdir.iterdir()) for outdir in outdirs]
    assert names[0] == names[1]
    assert "manifest.json" in names[0] and "reranked_test_seed11.tsv" in names[0]
    for name in names[0]:
        first, second = ((outdir / name).read_bytes() for outdir in outdirs)
        if name == "manifest.json":
            first, second = (_without_timings(m) for m in (first, second))
        assert first == second, name


def _without_timings(manifest: bytes) -> dict:
    data = json.loads(manifest)
    data["timings"] = sorted(data["timings"])
    return data
