"""Checks against the released regulatory datasets (run with ``--full``).

Point REGIR_DATA_DIR at a directory laid out as::

    $REGIR_DATA_DIR/
        eu2uk/pool.jsonl
        eu2uk/queries.jsonl
        eu2uk/qrels.tsv
        eu2uk/splits.json
        uk2eu/...                     (same four files)
        word_vectors.txt              (re-ranker training check)
        <task>/doc_vectors_pool.vec   (optional, vector-ingestion check)
        <task>/doc_vectors_queries.vec

``regir convert`` maps the released JSON archives onto this layout. The whole
module takes on the order of an hour on a workstation.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import criterion
from oracles import mean_relevant

from regir.bm25 import build_index, default_grid, tune_bm25, write_grid_csv
from regir.corpus import SplitManifest, ingest_collection, load_qrels
from regir.dense import load_doc_vectors, load_word_vectors
from regir.experiment import Prefetcher
from regir.metrics import evaluate_run
from regir.ranking import Run
from regir.rerank.features import TypeEmbeddings
from regir.rerank.train import FeatureStore, Hyperparams, train_model
from regir.text import build_pipeline

pytestmark = pytest.mark.full

TABLE_STATS = {
    "eu2uk": {"pool": 52515, "queries": (1400, 300, 300),
              "mean_relevant": (1.79, 2.09, 1.74)},
    "uk2eu": {"pool": 3930, "queries": (1500, 300, 300),
              "mean_relevant": (1.90, 1.46, 1.29)},
}
RECALL_TARGETS = {"eu2uk": (57.5, 3.0), "uk2eu": (93.7, 2.0)}
TEXTBOOK_BOX = {"k1": (0.5, 2.0), "b": (0.3, 0.9)}


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    root = os.environ.get("REGIR_DATA_DIR")
    if not root:
        pytest.skip("REGIR_DATA_DIR is not set")
    root = Path(root)
    for task in TABLE_STATS:
        for name in ("pool.jsonl", "queries.jsonl", "qrels.tsv", "splits.json"):
            if not (root / task / name).exists():
                pytest.skip(f"missing {task}/{name} under REGIR_DATA_DIR")
    return SimpleNamespace(root=root, work=tmp_path_factory.mktemp("fulldata"),
                           cache={})


def task_data(ctx, task):
    if ("data", task) not in ctx.cache:
        base = ctx.root / task
        pool = ingest_collection(base / "pool.jsonl", tag="pool")
        queries = ingest_collection(base / "queries.jsonl", tag=task)
        qrels = load_qrels(base / "qrels.tsv", query_corpus=queries,
                           pool_corpus=pool)
        splits = SplitManifest.from_json(base / "splits.json")
        splits.validate(query_corpus=queries, pool_corpus=pool, qrels=qrels)
        ctx.cache[("data", task)] = SimpleNamespace(
            pool=pool, queries=queries, qrels=qrels, splits=splits)
    return ctx.cache[("data", task)]


def fetch_run(prefetcher, query_ids, depth):
    """The one-component pre-fetcher's run over `query_ids`, `depth` deep."""
    return Run((q, prefetcher.fetch(q, depth)[0]) for q in query_ids)


def tuned_bm25(ctx, task):
    """Index the pool, sweep the full (k1, b) grid on dev at R@100, and score
    the test split with the winning cell."""
    if ("bm25", task) not in ctx.cache:
        data = task_data(ctx, task)
        pipeline = build_pipeline(data.pool)
        index = build_index(data.pool, pipeline)
        dev_tokens = {q: pipeline(data.queries.get(q).text)
                      for q in data.splits.dev_ids}
        k1_grid, b_grid = default_grid()
        best, cells = tune_bm25(index, dev_tokens, data.qrels, k1_grid,
                                b_grid, 100)
        grid_path = ctx.work / f"{task}_bm25_grid.csv"
        write_grid_csv(cells, grid_path)
        prefetcher = Prefetcher(("bm25",), 100, data.queries, pipeline,
                                index, best)
        test_run = fetch_run(prefetcher, data.splits.test_ids, 100)
        report = evaluate_run(test_run, data.qrels.restrict(data.splits.test_ids),
                              k=100)
        ctx.cache[("bm25", task)] = SimpleNamespace(
            best=best, grid_path=grid_path, pipeline=pipeline,
            prefetcher=prefetcher, test_run=test_run, report=report)
    return ctx.cache[("bm25", task)]


@pytest.mark.parametrize("task", sorted(TABLE_STATS))
def test_criterion_9_tuned_bm25_recall_at_100(ctx, task):
    target, tolerance = RECALL_TARGETS[task]
    with criterion(9, f"{task}: tuned BM25 test R@100 within "
                               f"{target} +/- {tolerance}"):
        got = tuned_bm25(ctx, task).report.macro["r_at_100"] * 100.0
        assert abs(got - target) <= tolerance, f"R@100 = {got:.1f}"


def test_criterion_10_tuned_params_leave_textbook_box(ctx):
    with criterion(10, "tuned (k1, b) fall outside k1 in [0.5, 2.0], "
                                "b in [0.3, 0.9] on at least one task"):
        outside = []
        for task in sorted(TABLE_STATS):
            k1, b = read_grid_argmax(tuned_bm25(ctx, task).grid_path)
            lo1, hi1 = TEXTBOOK_BOX["k1"]
            lo2, hi2 = TEXTBOOK_BOX["b"]
            outside.append(not (lo1 <= k1 <= hi1 and lo2 <= b <= hi2))
        assert any(outside)


def read_grid_argmax(path):
    best = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("k1,"):
                continue
            k1, b, recall = line.split(",")
            row = (float(recall), float(k1), float(b))
            if best is None or row[0] > best[0]:
                best = row
    return best[1], best[2]


@pytest.mark.parametrize("task", sorted(TABLE_STATS))
def test_criterion_11_dataset_statistics(ctx, task):
    expected = TABLE_STATS[task]
    with criterion(11, f"{task}: pool size, query counts and mean "
                                f"relevant match the expected statistics"):
        data = task_data(ctx, task)
        assert len(data.pool) == expected["pool"]
        split_ids = (data.splits.train_ids, data.splits.dev_ids,
                     data.splits.test_ids)
        assert tuple(len(ids) for ids in split_ids) == expected["queries"]
        for ids, want in zip(split_ids, expected["mean_relevant"]):
            got = mean_relevant(data.qrels.restrict(ids))
            assert abs(got - want) <= 0.01, f"mean relevant {got:.3f} != {want}"


def test_criterion_12_doc_vector_ingestion(ctx):
    with criterion(12, "user-supplied doc vectors produce a valid "
                                "R@100 report"):
        found = None
        for task in sorted(TABLE_STATS):
            if (ctx.root / task / "doc_vectors_pool.vec").exists():
                found = task
                break
        if found is None:
            pytest.skip("no doc_vectors_*.vec files under REGIR_DATA_DIR")
        data = task_data(ctx, found)
        pool_path = ctx.root / found / "doc_vectors_pool.vec"
        pool_store = load_doc_vectors(pool_path)
        pool_store.validate_against(data.pool, pool_path, "the pool collection")
        query_store = load_doc_vectors(
            ctx.root / found / "doc_vectors_queries.vec")
        prefetcher = Prefetcher(("doc-vectors",), 100, data.queries,
                                pool_store=pool_store, query_store=query_store)
        run = fetch_run(prefetcher, data.splits.test_ids, 100)
        report = evaluate_run(run, data.qrels.restrict(data.splits.test_ids),
                              k=100)
        assert 0.0 <= report.macro["r_at_100"] <= 1.0
        judged = [q for q in data.splits.test_ids
                  if data.qrels.relevant(q)]
        assert sorted(report.per_query) == sorted(judged)


def test_criterion_12_trained_reranker_prefers_prefetch_score(ctx):
    with criterion(12, "trained re-ranker learns w_p > w_r on real "
                                "data"):
        wv_path = ctx.root / "word_vectors.txt"
        if not wv_path.exists():
            pytest.skip("word_vectors.txt missing under REGIR_DATA_DIR")
        task = "uk2eu"  # smaller pool keeps the feature pass tractable
        data = task_data(ctx, task)
        bm25 = tuned_bm25(ctx, task)
        ids = data.splits.train_ids + data.splits.dev_ids
        run = fetch_run(bm25.prefetcher, ids, 100)
        hp = Hyperparams()
        provider = TypeEmbeddings(load_word_vectors(wv_path))
        store = FeatureStore("drmm", provider, bm25.pipeline, data.queries,
                             data.pool, hp)
        result = train_model("drmm", data.splits.train_ids,
                             data.splits.dev_ids, data.qrels, run, store, hp)
        assert result.w_p > result.w_r, \
            f"w_p={result.w_p:.4f} w_r={result.w_r:.4f}"


class conftest_criterion:
    """Same PASS/FAIL bookkeeping as the desk-scale acceptance tests."""

    def __init__(self, num, summary):
        self.line = f"criterion {num}: {summary}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            conftest.ACCEPTANCE_LINES.append(f"PASS {self.line}")
        elif not issubclass(exc_type, Exception) and \
                exc_type.__name__ == "Skipped":
            conftest.ACCEPTANCE_LINES.append(f"SKIP {self.line}")
        else:
            conftest.ACCEPTANCE_LINES.append(f"FAIL {self.line}")
        return False
