"""Pairwise sweep of the config space on the toy corpus: every combination
either runs to completion or is refused by `load_config` naming its key, a
finished run reruns nothing, and every artifact of a finished run matches
its sha256 in `config_space_digests.json`.

The digests are taken as `test_pinned_artifacts.py` takes them, `# manifest`
lines stripped and `manifest.json` left out. Other BLAS cores, CPU features
or numpy builds may give other bits, so the file is keyed by the
`environment` record `manifest.json` writes; a row run under a signature the
file has no entry for skips its pin check, naming the signature.
"""

import json
import os
import random
import re
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from regir import experiment
from regir.corpus import ingest_collection
from regir.experiment import ConfigError, load_config, run_experiment
from regir.ranking import read_run
from regir.rerank.train import Hyperparams
from regir.text import build_pipeline

from conftest import build_dataset
from test_pinned_artifacts import _digest

FACTORS = {
    "mode": ["bm25", "w2v-cent", "doc-vectors", "ensemble:bm25,w2v-cent",
             "ensemble:bm25,doc-vectors", "ensemble:w2v-cent,doc-vectors"],
    "bm25_tune": [False, True],
    "fusion": ["alpha", "tune", "neither"],
    "datefilter": ["none", "pre", "pre-tune", "post", "post-tune"],
    "model": ["none", "drmm", "pacrr"],
    "embeddings": ["word", "token"],
}
K = 6
WINDOW = 5


def _pairs(row):
    return {((a, row[a]), (b, row[b])) for a, b in combinations(FACTORS, 2)}


def pairwise_rows():
    """Greedy covering array: each row adds the most still-uncovered value
    pairs; ties go to the first row in product order, so the set is fixed."""
    uncovered = set().union(*(_pairs(dict(zip(FACTORS, values)))
                              for values in product(*FACTORS.values())))
    rows = []
    candidates = [dict(zip(FACTORS, values)) for values in product(*FACTORS.values())]
    while uncovered:
        best = max(candidates, key=lambda row: len(_pairs(row) & uncovered))
        rows.append(best)
        uncovered -= _pairs(best)
    return rows


ROWS = pairwise_rows()


def row_id(row) -> str:
    return "|".join(f"{value}" for value in row.values())


DIGESTS = json.loads((Path(__file__).parent / "config_space_digests.json").read_text())


def signature(outdir) -> dict:
    """The numpy build, CPU features and BLAS core a run's artifacts were
    built under, from its manifest's `environment` record: one run built
    every stage, so every stage's record is the same."""
    records = json.loads((outdir / "manifest.json").read_text())["environment"]
    env = next(iter(records.values()))
    return {"numpy": env["numpy"], "cpu_features": env["cpu_features"],
            "blas_core": env["blas"]["core"]}


def assert_artifacts_match_their_pins(row, outdir):
    digests = {p.name: _digest(p.read_bytes()) for p in sorted(outdir.iterdir())
               if p.name != "manifest.json"}
    env = signature(outdir)
    pinned = [entry["digests"] for entry in DIGESTS if entry["environment"] == env]
    if not pinned:
        pytest.skip(f"no digests pinned for environment {env}")
    assert digests == pinned[0][row_id(row)]


def config_text(row) -> str:
    mode, _, components = row["mode"].partition(":")
    lines = ["task = UK2EU", "seed = 1", "data.pool = pool.jsonl",
             "data.queries = queries.jsonl", "data.qrels = qrels.tsv",
             "data.splits = splits.json", "dense.word_vectors = wv.txt",
             "dense.pool_vectors = pool.vec", "dense.query_vectors = queries.vec",
             "rerank.token_vectors = tokens.txt", "rerank.hyperparams = hp.txt",
             f"prefetch.mode = {mode}", f"prefetch.k = {K}", "eval.k = 4",
             f"bm25.tune = {str(row['bm25_tune']).lower()}",
             "bm25.grid_k1 = 0.9,1.5", "bm25.grid_b = 0.5,0.9",
             f"rerank.model = {row['model']}",
             f"rerank.embeddings = {row['embeddings']}"]
    if components:
        lines.append(f"fusion.components = {components}")
    if row["fusion"] == "alpha":
        lines.append("fusion.alpha = 0.5")
    elif row["fusion"] == "tune":
        lines += ["fusion.tune = true", "fusion.grid = 0:1:0.5"]
    if row["datefilter"] != "none":
        filter_mode, _, tune = row["datefilter"].partition("-")
        lines.append(f"datefilter.mode = {filter_mode}")
        lines.append("datefilter.tune = true" if tune
                     else f"datefilter.years = {WINDOW}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def space(tmp_path_factory):
    """The toy dataset plus doc vectors, token vectors matching the run's
    denoised sequences, and hyperparameters small enough for one quick epoch."""
    root = build_dataset(tmp_path_factory.mktemp("space"), random.Random(11))
    rng = np.random.default_rng(11)
    pool = ingest_collection(root / "pool.jsonl")
    queries = ingest_collection(root / "queries.jsonl")

    def vector(theme=None):
        # a document's theme (its index mod 4 decides its words and
        # judgments) plus noise, so that doc-vector retrieval finds
        # relevant documents
        values = rng.normal(size=4) * (1.0 if theme is None else 0.1)
        if theme is not None:
            values[theme] += 1.0
        return " ".join(map(repr, values.tolist()))

    for name, corpus in (("pool.vec", pool), ("queries.vec", queries)):
        (root / name).write_text("#dim 4\n" + "".join(
            f"{d.doc_id} {vector(int(d.doc_id[2:]) % 4)}\n" for d in corpus))
    pipeline = build_pipeline(pool, stopwords=None, idf_filter=True)
    with open(root / "tokens.txt", "w") as fh:
        for doc in [*pool, *queries]:
            for i, _ in enumerate(pipeline(doc.text)):
                fh.write(f"{doc.doc_id} {i} {vector()}\n")
    (root / "hp.txt").write_text(
        "max_epochs=1\nbatch=8\nnegatives=1\nB=4\nhidden=2\nfilters=2\n"
        "kernel_sizes=2\nq_len=12\nd_len=24\n")
    return root


def test_pairwise_rows_cover_every_value_pair():
    covered = set().union(*map(_pairs, ROWS))
    assert all(((a, x), (b, y)) in covered
               for a, b in combinations(FACTORS, 2)
               for x in FACTORS[a] for y in FACTORS[b])


# what a run reads or makes from its inputs and artifacts
LOADERS = ("ingest_collection", "load_qrels", "build_pipeline",
           "load_word_vectors", "load_token_vectors", "load_index",
           "load_doc_vectors", "read_run", "load_checkpoint")


def assert_rerun_rewrites_nothing(config_path, outdir, monkeypatch):
    """With every artifact's mtime set to 0, a rerun into the same directory
    skips every stage, tunes no date window, calls none of the loaders and
    builders and rewrites no file but manifest.json."""
    artifacts = sorted(outdir.iterdir())
    for path in artifacts:
        os.utime(path, (0, 0))

    def refuse(*args):
        raise AssertionError("choose_window ran again")

    monkeypatch.setattr(experiment, "choose_window", refuse)
    calls = Counter()
    for name in LOADERS:
        def counting(*args, _name=name, _real=getattr(experiment, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counting)
    run_experiment(load_config(config_path), outdir)
    assert calls == Counter()
    timings = json.loads((outdir / "manifest.json").read_text())["timings"]
    assert timings and set(timings.values()) == {0.0}
    assert sorted(outdir.iterdir()) == artifacts
    assert [p.name for p in artifacts if p.stat().st_mtime != 0] == ["manifest.json"]


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_config_runs_or_is_refused_naming_the_key(space, tmp_path, row, monkeypatch):
    path = space / f"cfg{ROWS.index(row)}.txt"
    path.write_text(config_text(row))
    if row["mode"].startswith("ensemble") and row["fusion"] == "neither":
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*"
                                              r"fusion\.alpha or fusion\.tune"):
            load_config(path)
        return
    outdir = tmp_path / "out"
    result = run_experiment(load_config(path), outdir)
    assert all(p.exists() for p in result.eval_paths) and result.eval_paths
    finals = (["final_test.tsv"] if row["model"] == "none"
              else ["reranked_test_seed1.tsv"])
    years = WINDOW
    if row["datefilter"].endswith("tune"):
        years = json.loads((outdir / "datefilter_years.json").read_text())["years"]
    pool = ingest_collection(space / "pool.jsonl")
    queries = ingest_collection(space / "queries.jsonl")
    for name in finals:
        for query_id, ranking in read_run(outdir / name).items():
            assert len(ranking) <= K
            if row["datefilter"] != "none":
                year = queries.get(query_id).year
                assert all(abs(pool.get(d).year - year) <= years
                           for d in ranking.doc_ids)
    assert_rerun_rewrites_nothing(path, outdir, monkeypatch)
    assert_artifacts_match_their_pins(row, outdir)


def test_a_two_seed_run_reruns_nothing(space, tmp_path, monkeypatch):
    """eval_summary.csv, written for more than one seed, is an output of the
    final stage like the seeds' files."""
    row = dict(ROWS[0], mode="ensemble:bm25,w2v-cent", fusion="tune",
               datefilter="pre-tune", model="drmm", embeddings="word")
    path = space / "two_seeds.txt"
    path.write_text(config_text(row) + "rerank.seeds = 1,2\n")
    outdir = tmp_path / "out"
    result = run_experiment(load_config(path), outdir)
    assert result.summary_path == outdir / "eval_summary.csv"
    assert {"tune-datefilter", "rerank-test"} <= set(
        json.loads((outdir / "manifest.json").read_text())["timings"])
    assert_rerun_rewrites_nothing(path, outdir, monkeypatch)


@pytest.mark.parametrize("line, key", [
    ("datefilter.years = 2.5", "datefilter.years"),
    ("datefilter.years = -1", "datefilter.years"),
    ("datefilter.grid = -1,2", "datefilter.grid"),
    ("datefilter.grid = 0:2:0.5", "datefilter.grid"),
])
def test_bad_date_window_is_refused_naming_the_key(space, line, key):
    row = dict(ROWS[0], datefilter="none")
    path = space / "bad_window.txt"
    path.write_text(config_text(row) + line + "\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}: {key}: ')}"
                                          "max_distance_years must be"):
        load_config(path)


INPUT_FILES = ["pool.jsonl", "queries.jsonl", "qrels.tsv", "splits.json", "stop.txt",
               "wv.txt", "pool.vec", "queries.vec", "tokens.txt"]


@pytest.mark.parametrize("name", INPUT_FILES)
def test_a_fresh_run_refuses_a_bad_input_before_writing_any_output(space, tmp_path,
                                                                  name):
    """A run that reads every input file (stopwords, both vector
    pre-fetchers and a re-ranker on token embeddings) refuses each one that
    is not UTF-8 with the loader's error naming it, not as a failed stage,
    and writes nothing but manifest.json."""
    for other in [*INPUT_FILES, "hp.txt"]:
        if other != "stop.txt":
            (tmp_path / other).write_bytes((space / other).read_bytes())
    (tmp_path / "stop.txt").write_text("the\nof\n")
    (tmp_path / name).write_bytes(b"\xff\xfe\n")
    row = dict(ROWS[0], mode="ensemble:w2v-cent,doc-vectors", fusion="alpha",
               datefilter="none", model="drmm", embeddings="token")
    (tmp_path / "cfg.txt").write_text(config_text(row) + "text.stopwords = stop.txt\n")
    outdir = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / name))}: "):
        run_experiment(load_config(tmp_path / "cfg.txt"), outdir)
    assert [p.name for p in outdir.iterdir()] == ["manifest.json"]


def copy_with_blank_document(space, tmp_path):
    """The space dataset in tmp_path, its pool plus one document of
    stopwords only."""
    blank = {"doc_id": "blank", "title": "The", "body": "of the and", "year": 2000}
    (tmp_path / "pool.jsonl").write_text(
        (space / "pool.jsonl").read_text() + json.dumps(blank) + "\n")
    for name in ("queries.jsonl", "qrels.tsv", "splits.json", "wv.txt",
                 "pool.vec", "queries.vec", "tokens.txt", "hp.txt"):
        (tmp_path / name).write_text((space / name).read_text())


@pytest.mark.parametrize("model", ["drmm", "pacrr"])
def test_rerank_scores_a_document_that_denoises_to_nothing(space, tmp_path, model):
    """BM25 ranks zero-score documents, so with k past the matching ones a
    stopword-only document becomes a candidate; the matchers score it from
    all-zero features instead of aborting the run."""
    copy_with_blank_document(space, tmp_path)
    row = dict(ROWS[0], mode="bm25", bm25_tune=False, fusion="alpha",
               datefilter="none", model=model, embeddings="word")
    # no idf filter: the pool's only stopwords, in one document, would set
    # its threshold above every term's idf
    text = config_text(row).replace(f"prefetch.k = {K}", "prefetch.k = 50")
    (tmp_path / "cfg.txt").write_text(text + "text.idf_filter = false\n")
    pool = ingest_collection(tmp_path / "pool.jsonl")
    assert build_pipeline(pool, idf_filter=False)(pool.get("blank").text) == []
    outdir = tmp_path / "out"
    run_experiment(load_config(tmp_path / "cfg.txt"), outdir)
    reranked = read_run(outdir / "reranked_test_seed1.tsv")
    assert reranked and all("blank" in ranking.doc_ids
                            for ranking in reranked.values())


@pytest.mark.parametrize("line, message", [
    ("batch = 0", "batch must be >= 1, got 0"),
    ("batch = -3", "batch must be >= 1, got -3"),
    ("hidden = 0", "hidden must be >= 1, got 0"),
    ("negatives = 0", "negatives must be >= 1, got 0"),
    ("B = 0", "B must be >= 1, got 0"),
    ("max_epochs = 0", "max_epochs must be >= 1, got 0"),
    ("patience = -1", "patience must be >= 0, got -1"),
    ("lr = -1", "lr must be finite and >= 0, got -1.0"),
    ("q_len = 0", "q_len and d_len must be >= 1"),
    ("kernel_sizes = 1", "kernel sizes must be >= 2"),
    ("kernel_sizes = 2,2", "kernel sizes must be distinct, got (2, 2)"),
])
def test_bad_hyperparams_are_refused_naming_the_file(space, tmp_path, line, message):
    """By the reader, and so by load_config, before any stage runs."""
    hp = tmp_path / "hp.txt"
    hp.write_text(line + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{hp}: {message}')}"):
        Hyperparams.from_file(hp)
    path = tmp_path / "cfg.txt"
    path.write_text(config_text(ROWS[0]).replace("rerank.hyperparams = hp.txt",
                                                 f"rerank.hyperparams = {hp}"))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                                          rf"rerank\.hyperparams: "
                                          rf"{re.escape(f'{hp}: {message}')}"):
        load_config(path)


@pytest.mark.parametrize("mode", ["bm25", "w2v-cent"])
def test_a_pool_that_denoising_empties_is_refused(space, tmp_path, mode):
    """The pool's only stopwords, in one added document, set an idf threshold
    above every term's idf: the pipeline is refused before any stage, with
    the advice to turn the idf filter off."""
    copy_with_blank_document(space, tmp_path)
    row = dict(ROWS[0], mode=mode, bm25_tune=False, fusion="alpha",
               datefilter="none", model="none")
    (tmp_path / "cfg.txt").write_text(config_text(row))
    outdir = tmp_path / "out"
    with pytest.raises(ValueError, match=r"every document is empty after "
                                         r"denoising: no term's idf reaches the "
                                         r"threshold .*turn the idf filter off"):
        run_experiment(load_config(tmp_path / "cfg.txt"), outdir)
    assert not (outdir / "final_test.tsv").exists()
