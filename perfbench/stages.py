"""One pass through the `regir run` pipeline, stage by stage, through the same
public functions `experiment.run_experiment` calls and in the same order:

    ingest -> text pipeline -> index / centroids -> tune -> pre-fetch
    -> date filter -> train -> re-rank -> evaluate

Each call into a layer sits inside a tracer span, and each per-query
operation is timed and guarded: an exception counts the operation as failed
and the pass goes on without that query. The final test run file and eval
CSV are written under the same names and with the same comment tag as
`regir run`, so for an equal config they are byte-identical (see
test_benchmark.py).
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from regir import __version__
from regir.bm25 import (Bm25Params, build_index, load_index, save_index,
                        tune_bm25, write_grid_csv)
from regir.corpus import SplitManifest, ingest_collection, load_qrels
from regir.datefilter import (DateWindow, filter_run, write_year_hist_csv,
                              year_diff_histogram)
from regir.dense import (CentroidError, build_centroid_store, centroid,
                         knn_search, load_doc_vectors, load_word_vectors,
                         save_doc_vectors)
from regir.experiment import (emit_rk_curve, hash_file, load_config,
                              write_rk_curve_csv)
from regir.fusion import fuse, normalize_scores, tune_alpha, write_alpha_grid_csv
from regir.metrics import evaluate_run, write_eval_csv
from regir.ranking import RankedList, Run, read_run, write_run
from regir.rerank.features import TypeEmbeddings
from regir.rerank.train import (FeatureStore, Hyperparams, save_checkpoint,
                                train_model, write_training_log)
from regir.text import build_pipeline, load_stopwords


@dataclass
class Setup:
    cfg: object
    tag: str
    pool: object
    queries: object
    qrels: object
    splits: object
    pipeline: object
    index: object = None
    word_vectors: object = None
    cent_store: object = None
    index_bytes: int = 0


def setup(config_path: Path, workdir: Path, tr, tick=lambda: None) -> Setup:
    """Everything `regir run` does before its first query; tick() runs
    between its steps."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = load_config(config_path)
    if cfg.prefetch_mode == "doc-vectors" or cfg.datefilter_tune:
        raise ValueError("the benchmark supports bm25, w2v-cent and "
                         "their ensemble, with a fixed date window")
    with tr.span("corpus.manifest"):
        resources = {str(p): hash_file(p) for p in sorted(cfg.input_paths())}
        basis = json.dumps({"config": cfg.raw, "resources": resources,
                            "version": __version__}, sort_keys=True)
        tag = f"manifest {hashlib.sha256(basis.encode()).hexdigest()}"
    tick()
    with tr.span("corpus.ingest"):
        pool = ingest_collection(cfg.pool_path, tag="pool")
        queries = ingest_collection(cfg.queries_path, tag=cfg.task)
        qrels = load_qrels(cfg.qrels_path, query_corpus=queries, pool_corpus=pool)
        splits = SplitManifest.from_json(cfg.splits_path)
        splits.validate(query_corpus=queries, pool_corpus=pool, qrels=qrels)
    tick()
    with tr.span("text.pipeline_build"):
        stopwords = load_stopwords(cfg.stopwords_path) if cfg.stopwords_path else None
        pipeline = build_pipeline(pool, stopwords=stopwords,
                                  idf_filter=cfg.idf_filter)
    tick()
    su = Setup(cfg, tag, pool, queries, qrels, splits, pipeline)
    if cfg.word_vectors_path:
        with tr.span("dense.word_vectors_load"):
            su.word_vectors = load_word_vectors(cfg.word_vectors_path)
    tick()
    if cfg.needs_bm25:
        index_path = workdir / "index.bin"
        with tr.span("bm25.build"):
            index = build_index(pool, pipeline)
        with tr.span("bm25.save"):
            save_index(index, index_path)
        del index
        with tr.span("bm25.load"):
            su.index = load_index(index_path)
        su.index_bytes = index_path.stat().st_size
    tick()
    if "w2v-cent" in components(cfg):
        cent_path = workdir / "centroids.vec"
        with tr.span("dense.centroid_store"):
            store = build_centroid_store(pool, pipeline, su.word_vectors)
        with tr.span("dense.store_roundtrip"):
            save_doc_vectors(store, cent_path)
            su.cent_store = load_doc_vectors(cent_path)
    return su


def components(cfg) -> tuple[str, ...]:
    if cfg.prefetch_mode == "ensemble":
        return tuple(cfg.fusion_components)
    return (cfg.prefetch_mode,)


OP_TICK_GAP = 0.05  # seconds between calibration runs inside a stream of queries


class Ops:
    """Per-query operations attempted and failed, with the (start, end) of
    each one that succeeded. With a SpeedClock, the calibration kernel runs
    at each stage boundary, and before an operation when OP_TICK_GAP has
    passed since it last ran."""

    def __init__(self, clock=None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.clock = clock

    def tick(self, min_gap: float = 0.0) -> None:
        if self.clock is not None:
            self.clock.tick(min_gap)

    def run(self, intervals: list | None, fn, *args):
        """fn(*args), its interval appended to intervals; None if it raised."""
        self.attempted += 1
        self.tick(OP_TICK_GAP)
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception:  # a failed query must not end the run
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return None
        if intervals is not None:
            intervals.append((start, time.perf_counter()))
        return value


class CountingStore:
    """Feature-store wrapper for the traced pass: a span around each feature
    computation (first request of a pair), a count for each cache hit."""

    def __init__(self, store, tr):
        self._store = store
        self._tr = tr
        self._seen: set = set()
        self.bytes = 0

    def features(self, query_id, doc_id):
        key = (query_id, doc_id)
        if key in self._seen:
            self._tr.count("features.hits")
            return self._store.features(query_id, doc_id)
        with self._tr.span("rerank.features", key):
            feats = self._store.features(query_id, doc_id)
        self._seen.add(key)
        self.bytes += sum(part.nbytes for part in feats)
        return feats

    @property
    def pairs(self) -> int:
        return len(self._seen)

    def __getattr__(self, name):
        return getattr(self._store, name)


@dataclass
class PassResult:
    prefetch: dict = field(default_factory=dict)       # split -> deep Run
    candidates: dict = field(default_factory=dict)     # split -> Run
    parts: dict = field(default_factory=dict)          # qid -> {component: list}
    reranked: Run | None = None                        # before a post filter
    final: Run | None = None
    final_path: Path | None = None
    eval_path: Path | None = None
    window: DateWindow | None = None
    alpha: float | None = None
    params: Bm25Params | None = None
    train: object = None
    checkpoint_path: Path | None = None
    prefetch_s: dict = field(default_factory=dict)     # qid -> [(start, end)]
    rerank_s: list = field(default_factory=list)       # [(start, end)]
    stages: dict = field(default_factory=dict)         # name -> [(start, end)]
    feature_pairs: int = 0
    feature_bytes: int = 0


def component(su: Setup, res: "PassResult", tr, name: str, qid: str,
              depth: int) -> RankedList:
    """One pre-fetcher's list for one query, as experiment.bm25_run and
    experiment.centroid_run compute it."""
    with tr.span("text.query", qid):
        tokens = su.pipeline(su.queries.get(qid).text)
    if name == "bm25":
        with tr.span("bm25.search", qid):
            return su.index.bm25_search(tokens, res.params, depth)
    with tr.span("dense.knn", qid):
        try:
            qvec = centroid(tokens, su.word_vectors, su.pipeline.idf_table)
        except CentroidError:
            return RankedList(presorted=True)
        return knn_search(qvec, su.cent_store, depth)


def prefetch_one(su: Setup, res: "PassResult", tr, qid: str):
    """The deep pre-fetch list of one query and its top-k candidates, with a
    pre-mode date filter applied as part of the query."""
    cfg = su.cfg
    deep = 2 * cfg.k
    comps = components(cfg)
    if cfg.prefetch_mode == "ensemble":
        a, b = (component(su, res, tr, name, qid, 2 * deep) for name in comps)
        res.parts[qid] = {comps[0]: a, comps[1]: b}
        with tr.span("fusion.fuse", qid):
            deep_list = fuse(normalize_scores(a), normalize_scores(b), res.alpha, deep)
    else:
        deep_list = component(su, res, tr, cfg.prefetch_mode, qid, deep)
        res.parts[qid] = {cfg.prefetch_mode: deep_list}
    if res.window is not None and res.window.mode == "pre":
        with tr.span("datefilter.filter", qid):
            cands = filter_run(Run({qid: deep_list}), res.window, su.queries,
                               su.pool, k=cfg.k)[qid]
    else:
        cands = deep_list.truncated(cfg.k)
    return deep_list, cands


@contextmanager
def _stage(res: PassResult, ops: Ops, name: str):
    ops.tick()
    start = time.perf_counter()
    try:
        yield
    finally:
        res.stages.setdefault(name, []).append((start, time.perf_counter()))


def run_pass(su: Setup, outdir: Path, tr, ops: Ops) -> PassResult:
    cfg, queries, qrels, splits = su.cfg, su.queries, su.qrels, su.splits
    outdir.mkdir(parents=True, exist_ok=True)
    res = PassResult()
    deep = 2 * cfg.k
    res.params = cfg.bm25_params or Bm25Params()
    if cfg.datefilter_years is not None:
        res.window = DateWindow(cfg.datefilter_years, cfg.datefilter_mode)

    with _stage(res, ops, "tune"), tr.span("stage.tune"):
        _tune(su, res, tr, ops, outdir)

    # --- pre-fetch, with a pre-mode date filter as part of each query
    need_train = cfg.rerank_model != "none"
    split_ids = {"test": splits.test_ids}
    if need_train:
        split_ids.update(train=splits.train_ids, dev=splits.dev_ids)
    elif cfg.fusion_tune:
        split_ids["dev"] = splits.dev_ids

    with _stage(res, ops, "prefetch"), tr.span("stage.prefetch"):
        for split, ids in split_ids.items():
            res.prefetch[split], res.candidates[split] = Run(), Run()
            for qid in ids:
                out = ops.run(res.prefetch_s.setdefault(qid, []), prefetch_one,
                              su, res, tr, qid)
                if out is not None:
                    res.prefetch[split][qid], res.candidates[split][qid] = out
        for split, run in res.prefetch.items():
            with tr.span("ranking.write_run"):
                write_run(run, outdir / f"prefetch_{split}.tsv", comment=su.tag)

    test_qrels = qrels.restrict(splits.test_ids)
    with _stage(res, ops, "evaluate"), tr.span("metrics.curves"):
        write_year_hist_csv(year_diff_histogram(
            qrels.restrict(splits.dev_ids if "dev" in split_ids else splits.test_ids),
            queries, su.pool), outdir / "year_hist.csv", comment=su.tag)
        write_rk_curve_csv(emit_rk_curve(res.prefetch["test"], test_qrels, deep),
                           outdir / "rk_curve.csv", comment=su.tag)

    if need_train:
        _train_and_rerank(su, outdir, tr, ops, res)
    else:
        final = res.candidates["test"]
        if res.window is not None and res.window.mode == "post":
            with tr.span("datefilter.filter"):
                final = filter_run(final, res.window, queries, su.pool)
        res.final = final
        res.final_path = outdir / "final_test.tsv"
        res.eval_path = outdir / "eval_test.csv"
        with _stage(res, ops, "evaluate"):
            with tr.span("ranking.write_run"):
                write_run(final, res.final_path, comment=su.tag)
            with tr.span("metrics.evaluate"):
                write_eval_csv(evaluate_run(final, test_qrels, k=cfg.eval_k),
                               res.eval_path, comment=su.tag)
    return res


def _tune(su: Setup, res: PassResult, tr, ops: Ops, outdir: Path) -> None:
    """BM25 (k1, b) on dev, then the fusion weight on dev lists."""
    cfg, queries, qrels, splits = su.cfg, su.queries, su.qrels, su.splits
    if cfg.bm25_tune:
        with tr.span("bm25.tune"):
            dev_tokens = {q: su.pipeline(queries.get(q).text) for q in splits.dev_ids}
            best, cells = tune_bm25(su.index, dev_tokens, qrels, cfg.bm25_grid_k1,
                                    cfg.bm25_grid_b, cfg.k)
            write_grid_csv(cells, outdir / "bm25_grid.csv", comment=su.tag)
        res.params = Bm25Params(best.k1, best.b)
    res.alpha = cfg.fusion_alpha
    if cfg.prefetch_mode == "ensemble" and cfg.fusion_tune:
        comps = components(cfg)
        dev = {name: Run() for name in comps}

        def dev_lists(qid: str) -> list[RankedList]:
            lists = [component(su, res, tr, n, qid, 2 * cfg.k) for n in comps]
            empty = [n for n, ranking in zip(comps, lists) if not ranking]
            if empty:  # tune_alpha cannot normalize it: the query fails
                raise ValueError(f"{qid}: empty {' and '.join(empty)} list")
            return lists

        for qid in splits.dev_ids:
            lists = ops.run(None, dev_lists, qid)
            if lists is not None:
                for name, ranking in zip(comps, lists):
                    dev[name][qid] = ranking
        with tr.span("fusion.tune_alpha"):
            res.alpha, grid = tune_alpha(dev[comps[0]], dev[comps[1]], qrels,
                                         cfg.fusion_grid, cfg.k)
            write_alpha_grid_csv(grid, outdir / "alpha_grid.csv", comment=su.tag)


def _train_and_rerank(su: Setup, outdir: Path, tr, ops: Ops, res: PassResult) -> None:
    cfg, queries, qrels, splits = su.cfg, su.queries, su.qrels, su.splits
    seed = cfg.rerank_seeds[0]
    if len(cfg.rerank_seeds) != 1:
        raise ValueError("the benchmark trains one seed")
    with _stage(res, ops, "train"), tr.span("rerank.train"):
        hp = (Hyperparams.from_file(cfg.rerank_hyperparams_path)
              if cfg.rerank_hyperparams_path else Hyperparams())
        store = FeatureStore(cfg.rerank_model, TypeEmbeddings(su.word_vectors),
                             su.pipeline, queries, su.pool, hp)
        if tr.enabled:
            store = CountingStore(store, tr)
        cands = {**res.candidates["train"], **res.candidates["dev"]}
        with tr.span("rerank.train_model"):
            result = train_model(cfg.rerank_model,
                                 [q for q in splits.train_ids if q in cands],
                                 [q for q in splits.dev_ids if q in cands], qrels,
                                 cands, store, replace(hp, seed=seed))
        res.checkpoint_path = outdir / f"checkpoint_seed{seed}.bin"
        with tr.span("rerank.checkpoint_save"):
            save_checkpoint(result, res.checkpoint_path)
        write_training_log(result.log_rows, outdir / f"training_log_seed{seed}.csv",
                           comment=su.tag)
    res.train = result

    reranker = result.reranker(store)
    post = res.window is not None and res.window.mode == "post"

    def rerank_one(qid: str):
        with tr.span("rerank.list", qid):
            ranking = reranker.rerank_list(qid, res.candidates["test"][qid])
        if not post:
            return ranking, ranking
        with tr.span("datefilter.filter", qid):
            return ranking, filter_run(Run({qid: ranking}), res.window, queries,
                                       su.pool)[qid]

    res.reranked, res.final = Run(), Run()
    with _stage(res, ops, "rerank"), tr.span("stage.rerank"):
        for qid in res.candidates["test"]:
            out = ops.run(res.rerank_s, rerank_one, qid)
            if out is not None:
                res.reranked[qid], res.final[qid] = out
    if tr.enabled:
        res.feature_pairs, res.feature_bytes = store.pairs, store.bytes

    res.final_path = outdir / f"reranked_test_seed{seed}.tsv"
    res.eval_path = outdir / f"eval_test_seed{seed}.csv"
    test_qrels = qrels.restrict(splits.test_ids)
    with _stage(res, ops, "evaluate"):
        with tr.span("ranking.write_run"):
            write_run(res.final, res.final_path, comment=su.tag)
        with tr.span("metrics.evaluate"):
            write_eval_csv(evaluate_run(res.final, test_qrels, k=cfg.eval_k),
                           res.eval_path, comment=su.tag)
        with tr.span("ranking.read_run"):
            reread = read_run(res.final_path)
        with tr.span("metrics.evaluate"):
            evaluate_run(reread, test_qrels, k=cfg.eval_k)
