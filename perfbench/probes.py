"""Per-call timings on a fixed sample, for the traced run.

The pipeline pass shows which stage a query spends its time in, but not the
split inside a stage (BM25 scoring versus top-k, features versus forward
versus backward). The probes call each layer's public functions directly on
a fixed sample of the pass's test queries and candidate pairs. They also
time layers a workload's own pipeline bypasses, on that same sample, so every
per-layer metric has a measured value on every workload.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from regir.bm25 import tune_bm25
from regir.corpus import Corpus
from regir.datefilter import DateWindow, filter_run
from regir.dense import (CentroidError, build_centroid_store, centroid,
                         knn_search, load_doc_vectors, load_word_vectors,
                         save_doc_vectors)
from regir.fusion import default_alpha_grid, fuse, normalize_scores, tune_alpha
from regir.ranking import Run, read_run, top_k_from_arrays
from regir.rerank.drmm import DrmmModel
from regir.rerank.features import (TypeEmbeddings, dedup_terms, drmm_features,
                                   pacrr_features)
from regir.rerank.pacrr import PacrrModel
from regir.rerank.train import (FeatureStore, Hyperparams, load_checkpoint,
                                save_checkpoint, train_model)

QUERIES = 20         # probe queries, the first test queries by id
PAIRS_PER_QUERY = 3  # candidate pairs per query, for the first 8 of them
STORE_DOCS = 400     # pool sample for a centroid store the pass did not build
TRAIN_CANDIDATES = 10
# matcher settings for workloads whose config trains no matcher
PROBE_HP = Hyperparams(q_len=48, d_len=192, max_epochs=1, patience=1)


def _ms_p50(fn, items) -> float:
    times = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_probes(su, res, datadir: Path, workdir: Path) -> dict[str, float]:
    cfg, queries, pool, pipeline = su.cfg, su.queries, su.pool, su.pipeline
    deep = 2 * cfg.k
    qids = sorted(res.candidates["test"])[:QUERIES]
    text = {q: queries.get(q).text for q in qids}
    tokens = {q: pipeline(text[q]) for q in qids}
    out: dict[str, float] = {}

    # text, bm25, ranking
    out["text.query_ms_p50"] = _ms_p50(lambda q: pipeline(text[q]), qids)
    index, params = su.index, res.params
    scores = {q: index.score_all(tokens[q], params) for q in qids}
    out["bm25.score_ms_p50"] = _ms_p50(lambda q: index.score_all(tokens[q], params), qids)
    doc_ids = np.array(sorted(pool.ids), dtype=object)
    out["ranking.topk_ms_p50"] = _ms_p50(
        lambda q: top_k_from_arrays(doc_ids, scores[q], deep), qids)
    _, secs = _timed(tune_bm25, index, tokens, su.qrels, [params.k1], [params.b], cfg.k)
    out["bm25.tune_cell_query_ms"] = 1e3 * secs / len(qids)
    _, out["ranking.read_run_s"] = _timed(read_run, res.final_path)

    # dense: the pass's own store, or one over a fixed pool sample
    wv, secs = ((su.word_vectors, None) if su.word_vectors is not None
                else _timed(load_word_vectors, datadir / "vectors.txt"))
    if secs is not None:
        out["dense.word_vectors_load_s"] = secs
    store = su.cent_store
    if store is None:
        sample = Corpus([pool.get(d) for d in sorted(pool.ids)[:STORE_DOCS]])
        store, out["dense.centroid_store_s"] = _timed(build_centroid_store, sample,
                                                      pipeline, wv)
        out["dense.docs_skipped"] = len(sample) - len(store)
        path = workdir / "probe_centroids.vec"
        start = time.perf_counter()
        save_doc_vectors(store, path)
        load_doc_vectors(path)
        out["dense.store_roundtrip_s"] = time.perf_counter() - start
    qvecs = {}
    for q in qids:
        try:
            qvecs[q] = centroid(tokens[q], wv, pipeline.idf_table)
        except CentroidError:
            pass
    out["dense.centroid_ms_p50"] = _ms_p50(
        lambda q: centroid(tokens[q], wv, pipeline.idf_table), list(qvecs))
    out["dense.knn_ms_p50"] = _ms_p50(lambda q: knn_search(qvecs[q], store, deep), list(qvecs))

    # fusion of the BM25 and centroid lists of the probe queries
    run_a = Run({q: index.bm25_search(tokens[q], params, 2 * deep) for q in qvecs})
    run_b = Run({q: knn_search(qvecs[q], store, 2 * deep) for q in qvecs})
    out["fusion.fuse_ms_p50"] = _ms_p50(
        lambda q: fuse(normalize_scores(run_a[q]), normalize_scores(run_b[q]), 0.5, deep),
        list(qvecs))
    _, out["fusion.tune_alpha_s"] = _timed(tune_alpha, run_a, run_b, su.qrels,
                                           default_alpha_grid(), cfg.k)

    # date filter on the deep lists, with the workload's window or 5 years
    window = res.window or DateWindow(5, "pre")
    out["datefilter.filter_ms_p50"] = _ms_p50(
        lambda q: filter_run(Run({q: res.prefetch["test"][q]}), window, queries,
                             pool, k=cfg.k), qids)

    # matcher features, forward and backward on fixed candidate pairs
    hp = (Hyperparams.from_file(cfg.rerank_hyperparams_path)
          if cfg.rerank_hyperparams_path else PROBE_HP)
    provider = TypeEmbeddings(wv)
    pairs = [(q, d) for q in qids[:8]
             for d in res.candidates["test"][q].doc_ids[:PAIRS_PER_QUERY]]
    doc_tok = {d: pipeline(pool.get(d).text) for _, d in pairs}
    rng = np.random.default_rng(0)
    models = {"drmm": DrmmModel.init(rng, bins=hp.B, hidden=hp.hidden),
              "pacrr": PacrrModel.init(rng, hp.pacrr_config())}

    def feats(kind, q, d):
        if kind == "drmm":
            terms = dedup_terms(tokens[q])
            return drmm_features(terms, q, doc_tok[d], d, provider,
                                 pipeline.idf_table, hp.B)
        return pacrr_features(tokens[q], q, doc_tok[d], d, provider,
                              pipeline.idf_table, hp.q_len, hp.d_len)

    for kind, model in models.items():
        out[f"features.{kind}_ms_p50"] = _ms_p50(lambda p: feats(kind, *p), pairs)
        fs = [feats(kind, *p) for p in pairs]
        caches = [model.score(f)[1] for f in fs]
        out[f"{kind}.forward_ms_p50"] = _ms_p50(model.score, fs)
        out[f"{kind}.backward_ms_p50"] = _ms_p50(lambda c: model.backward(c, 1.0), caches)

    # training loop on a pre-warmed store, when the pass trained nothing
    if res.train is None:
        kind = "drmm"
        store = FeatureStore(kind, provider, pipeline, queries, pool, hp)
        cands = Run({q: res.candidates["test"][q].truncated(TRAIN_CANDIDATES)
                     for q in qids})
        for q, ranking in cands.items():
            for d in ranking.doc_ids:
                store.features(q, d)
        result, out["train.loop_s"] = _timed(
            train_model, kind, qids[:12], qids[12:], su.qrels, cands, store,
            replace(hp, max_epochs=1, patience=1, seed=0))
        checkpoint = workdir / "probe_checkpoint.bin"
        _, out["train.checkpoint_save_s"] = _timed(save_checkpoint, result, checkpoint)
    else:
        checkpoint = res.checkpoint_path
    _, out["train.checkpoint_load_s"] = _timed(load_checkpoint, checkpoint)
    out["train.checkpoint_bytes"] = checkpoint.stat().st_size
    return out
