import hashlib
import json
import random
import re
import time
from collections import Counter

import numpy as np
import pytest

import regir.text
from regir._npz import write_npz
from regir.bm25 import INDEX_FORMAT, load_index
from regir.corpus import Qrels, ingest_collection
from regir.experiment import (ConfigError, Prefetcher, _parse_range,
                              emit_rk_curve, hash_file, load_config,
                              run_experiment)
from regir.metrics import read_eval_csv
from regir.ranking import RankedList, Run, read_run

from conftest import build_dataset, date_window_dataset
from oracles import rk_curve_per_k

BASE_CFG = """
task = EU2UK
data.pool = pool.jsonl
data.queries = queries.jsonl
data.qrels = qrels.tsv
data.splits = splits.json
prefetch.mode = bm25
prefetch.k = 10
eval.k = 5
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return build_dataset(tmp_path_factory.mktemp("expwork"),
                         random.Random(20260814))


def cfg_from(dataset, text):
    path = dataset / "cfg.txt"
    path.write_text(text)
    return load_config(path)


# --- config parsing ---

def test_parse_range_inclusive_grid():
    assert _parse_range("0:1:0.25", "x") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_range("0.5,2,8", "x") == [0.5, 2.0, 8.0]


def test_parse_range_rejects_bad_step():
    with pytest.raises(ConfigError, match="step"):
        _parse_range("0:1:0", "x")
    with pytest.raises(ConfigError, match="start:stop:step"):
        _parse_range("0:1", "x")


def test_parse_range_accepts_up_to_the_bound():
    assert len(_parse_range("0:9999:1", "x")) == 10_000
    assert len(_parse_range(",".join(["1"] * 10_000), "x")) == 10_000


@pytest.mark.parametrize("line, key", [
    ("bm25.grid_k1 = 0:1e9:1e-9", "bm25.grid_k1"),
    ("bm25.grid_b = 0:10000:1", "bm25.grid_b"),
    ("fusion.grid = -1e308:1e308:1e-308", "fusion.grid"),
    ("datefilter.grid = " + ",".join(["1"] * 10_001), "datefilter.grid"),
])
def test_config_rejects_oversized_grid_quickly(dataset, line, key):
    path = dataset / "cfg.txt"
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}: {key}: ')}"
                                          "more than 10000 grid values"):
        cfg_from(dataset, BASE_CFG + line + "\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("line, key", [
    ("fusion.grid = 0:0.0003:0.00005", "fusion.grid"),  # 0.0001 three times
    ("bm25.grid_b = 0:0.01:0.00009", "bm25.grid_b"),
    ("bm25.grid_k1 = 4.80245:4.8100:0.0001", "bm25.grid_k1"),  # halfway starts
])
def test_config_refuses_a_grid_that_repeats_values_once_rounded(dataset, line, key):
    path = dataset / "cfg.txt"
    with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}: {key}: ')}"
                                          ".* repeats values"):
        cfg_from(dataset, BASE_CFG + line + "\n")


def test_parse_range_accepts_a_step_of_one_rounding_unit():
    assert _parse_range("0.0001:0.0004:0.0001", "x") == [0.0001, 0.0002, 0.0003,
                                                          0.0004]


def test_config_happy_path(dataset):
    cfg = cfg_from(dataset, BASE_CFG)
    assert cfg.task == "EU2UK" and cfg.k == 10 and cfg.eval_k == 5
    assert cfg.prefetch_mode == "bm25" and not cfg.bm25_tune
    assert cfg.pool_path == dataset / "pool.jsonl"


def test_config_unknown_key(dataset):
    with pytest.raises(ConfigError, match="retrieval.engine"):
        cfg_from(dataset, BASE_CFG + "retrieval.engine = lucene\n")


def test_config_duplicate_key(dataset):
    with pytest.raises(ConfigError, match="duplicate"):
        cfg_from(dataset, BASE_CFG + "eval.k = 7\n")


def test_config_bad_task(dataset):
    with pytest.raises(ConfigError, match="task"):
        cfg_from(dataset, BASE_CFG.replace("EU2UK", "US2UK"))


def test_config_missing_required(dataset):
    text = "\n".join(line for line in BASE_CFG.splitlines()
                     if not line.startswith("data.qrels"))
    with pytest.raises(ConfigError, match="data.qrels"):
        cfg_from(dataset, text)


def test_config_missing_file(dataset):
    with pytest.raises(ConfigError, match="does not exist"):
        cfg_from(dataset, BASE_CFG.replace("pool.jsonl", "nope.jsonl"))


@pytest.mark.parametrize("line, key", [
    ("rerank.hyperparams =", "rerank.hyperparams"),
    ("text.stopwords = .", "text.stopwords"),
])
def test_config_refuses_a_directory_for_a_file(dataset, line, key):
    path = dataset / "cfg.txt"
    with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}: {key}: ')}"
                                          ".* is a directory"):
        cfg_from(dataset, BASE_CFG + line + "\n")


def test_config_ensemble_requires_components(dataset):
    with pytest.raises(ConfigError, match="fusion.components"):
        cfg_from(dataset, BASE_CFG.replace("bm25", "ensemble"))


@pytest.mark.parametrize("components", ["bm25,bm25", "w2v-cent, w2v-cent"])
def test_config_refuses_a_component_named_twice(dataset, components):
    """Fusing a pre-fetcher with itself would tune alpha over one run."""
    text = BASE_CFG.replace("prefetch.mode = bm25",
                            "prefetch.mode = ensemble\n"
                            f"fusion.components = {components}\n"
                            "fusion.tune = true")
    with pytest.raises(ConfigError, match=r"fusion\.components names .* twice"):
        cfg_from(dataset, text)


def test_config_ensemble_requires_alpha_or_tune(dataset):
    text = BASE_CFG.replace("prefetch.mode = bm25",
                            "prefetch.mode = ensemble\n"
                            "fusion.components = bm25,w2v-cent\n"
                            "dense.word_vectors = wv.txt")
    with pytest.raises(ConfigError, match="fusion.alpha or fusion.tune"):
        cfg_from(dataset, text)


def test_config_alpha_range(dataset):
    with pytest.raises(ConfigError, match="alpha"):
        cfg_from(dataset, BASE_CFG + "fusion.alpha = 1.5\n")


def test_config_tune_conflicts_with_fixed_params(dataset):
    with pytest.raises(ConfigError, match="bm25.tune"):
        cfg_from(dataset, BASE_CFG + "bm25.k1 = 1.2\nbm25.b = 0.75\n"
                 "bm25.tune = true\n")


def test_config_rerank_needs_embedding_source(dataset):
    with pytest.raises(ConfigError, match="word"):
        cfg_from(dataset, BASE_CFG + "rerank.model = drmm\n")


@pytest.mark.parametrize("mode, lines, message", [
    ("bm25", "rerank.model = drmm\ndense.word_vectors = wv.txt\nrerank.seeds =\n",
     "a trained re-ranker needs at least one seed"),
    ("w2v-cent", "", "w2v-cent requires dense.word_vectors"),
    ("doc-vectors", "dense.pool_vectors = wv.txt\n",
     "doc-vectors requires dense.pool_vectors and dense.query_vectors"),
    ("bm25", "rerank.model = pacrr\nrerank.embeddings = token\n",
     "re-ranking with token embeddings requires rerank.token_vectors"),
])
def test_config_refuses_a_run_without_what_it_needs(dataset, mode, lines, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg_from(dataset, BASE_CFG.replace("prefetch.mode = bm25",
                                           f"prefetch.mode = {mode}") + lines)


def test_stray_fusion_keys_do_not_widen_a_single_prefetcher(dataset, tmp_path):
    """fusion.* keys count only in ensemble mode: no BM25 index for a
    centroid run, and no dev fetch for an untuned one."""
    cfg = cfg_from(dataset, BASE_CFG.replace("prefetch.mode = bm25",
                                             "prefetch.mode = w2v-cent")
                   + "dense.word_vectors = wv.txt\n"
                   "fusion.components = bm25,w2v-cent\nfusion.tune = true\n")
    assert cfg.components == ("w2v-cent",) and not cfg.needs_bm25
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    assert (outdir / "centroids.vec").exists()
    assert not (outdir / "index.bin").exists()
    assert not (outdir / "prefetch_dev.tsv").exists()


def test_stray_fusion_component_needs_no_resources(dataset):
    cfg = cfg_from(dataset, BASE_CFG + "fusion.components = bm25,doc-vectors\n")
    assert cfg.components == ("bm25",) and cfg.needs_bm25


def test_config_bad_bool(dataset):
    with pytest.raises(ConfigError, match="boolean"):
        cfg_from(dataset, BASE_CFG + "bm25.tune = maybe\n")


@pytest.mark.parametrize("line, key", [
    ("prefetch.k = abc", "prefetch.k"),
    ("fusion.alpha = x", "fusion.alpha"),
    ("bm25.grid_k1 = 0:a:1", "bm25.grid_k1"),
    ("rerank.seeds = 1,x", "rerank.seeds"),
    ("bm25.k1 = nan\nbm25.b = 0.5", "bm25.k1"),
    ("datefilter.years = inf", "datefilter.years"),
])
def test_config_bad_value_names_file_and_key(dataset, line, key):
    path = dataset / "cfg.txt"
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(f'{path}: {key}: ')}"
                             r"expected an? (integer|finite number)"):
        cfg_from(dataset, BASE_CFG.replace("prefetch.k = 10", "") + line + "\n")


def test_config_syntax_errors_name_file_and_line(dataset):
    path = dataset / "cfg.txt"
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line 10: "
                                          "expected key = value"):
        cfg_from(dataset, BASE_CFG + "no equals sign\n")


# --- helpers ---

def test_hash_file_is_sha256(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert hash_file(path) == hashlib.sha256(b"abc").hexdigest()


def test_rk_curve_monotone_and_validated():
    run = Run({"q1": RankedList([("a", 3.0), ("b", 2.0), ("c", 1.0)])})
    qrels = Qrels({"q1": {"b", "c"}})
    rows = emit_rk_curve(run, qrels, 3)
    assert rows == [(1, 0.0), (2, 0.5), (3, 1.0)]
    with pytest.raises(ValueError, match="k_max"):
        emit_rk_curve(run, qrels, 0)
    with pytest.raises(ValueError, match="relevant"):
        emit_rk_curve(run, Qrels({"other": {"zz"}}), 2)


@pytest.mark.parametrize("seed", range(5))
def test_rk_curve_equals_per_k_recall_oracle(seed):
    rng = random.Random(seed)
    pool = [f"d{i:03d}" for i in range(60)]
    run, rel = Run(), {}
    for q in range(rng.randint(1, 12)):
        docs = rng.sample(pool, rng.randint(0, 40))
        run[f"q{q}"] = RankedList([(d, float(-i)) for i, d in enumerate(docs)])
        rel[f"q{q}"] = set(rng.sample(pool, rng.randint(0 if q else 1, 7)))
    run["short"] = RankedList([("d001", 1.0)])  # shorter than k_max, one hit
    rel["short"] = {"d001", "d002"}
    qrels = Qrels({q: docs for q, docs in rel.items() if docs})
    k_max = rng.randint(2, 50)
    assert emit_rk_curve(run, qrels, k_max) == rk_curve_per_k(run, qrels, k_max)


# --- whole runs ---

FULL_CFG = """
task = UK2EU
seed = 3
data.pool = pool.jsonl
data.queries = queries.jsonl
data.qrels = qrels.tsv
data.splits = splits.json
dense.word_vectors = wv.txt
prefetch.mode = ensemble
prefetch.k = 10
fusion.components = bm25,w2v-cent
fusion.tune = true
fusion.grid = 0:1:0.25
rerank.model = drmm
rerank.seeds = 3,4
rerank.hyperparams = hp.txt
datefilter.years = 6
datefilter.mode = post
eval.k = 5
"""

HP = "lr=0.01\nmax_epochs=2\nbatch=4\nnegatives=2\nB=6\nhidden=3\n"


def test_run_experiment_bm25_deterministic_across_outdirs(dataset, tmp_path):
    cfg = cfg_from(dataset, BASE_CFG + "bm25.tune = true\n"
                   "bm25.grid_k1 = 0.5,1.0\nbm25.grid_b = 0.0,0.5\n")
    res1 = run_experiment(cfg, tmp_path / "out1")
    res2 = run_experiment(cfg, tmp_path / "out2")
    assert res1.manifest_hash == res2.manifest_hash
    for name in ("eval_test.csv", "bm25_grid.csv", "rk_curve.csv",
                 "final_test.tsv", "year_hist.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == \
            (tmp_path / "out2" / name).read_bytes(), name


def test_run_experiment_skips_finished_stages(dataset, tmp_path, caplog):
    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    before = (outdir / "eval_test.csv").read_bytes()
    with caplog.at_level("INFO", logger="regir.experiment"):
        run_experiment(cfg, outdir)
    skipped = [r for r in caplog.records if "skipped" in r.message]
    assert len(skipped) >= 4  # index, prefetch, year-hist, rk-curve, evaluate
    assert (outdir / "eval_test.csv").read_bytes() == before


def test_run_experiment_recomputes_when_inputs_change(dataset, tmp_path, caplog):
    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    hash1 = run_experiment(cfg, outdir).manifest_hash
    cfg2 = cfg_from(dataset, BASE_CFG.replace("eval.k = 5", "eval.k = 7"))
    with caplog.at_level("INFO", logger="regir.experiment"):
        hash2 = run_experiment(cfg2, outdir).manifest_hash
    assert hash1 != hash2
    assert not any("skipped" in r.message for r in caplog.records)


def test_run_experiment_full_stack(dataset, tmp_path):
    (dataset / "hp.txt").write_text(HP)
    cfg = cfg_from(dataset, FULL_CFG)
    result = run_experiment(cfg, tmp_path / "out")
    outdir = result.outdir
    for name in ("manifest.json", "alpha_grid.csv", "fusion_alpha.json",
                 "checkpoint_seed3.bin", "checkpoint_seed4.bin",
                 "training_log_seed3.csv", "reranked_test_seed3.tsv",
                 "eval_test_seed3.csv", "eval_test_seed4.csv",
                 "eval_summary.csv", "year_hist.csv", "rk_curve.csv"):
        assert (outdir / name).exists(), name
    assert [p.name for p in result.eval_paths] == \
        ["eval_test_seed3.csv", "eval_test_seed4.csv"]
    assert result.summary_path.name == "eval_summary.csv"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["manifest_hash"] == result.manifest_hash
    assert 0.0 <= manifest["fusion_alpha"] <= 1.0
    assert set(manifest["config"]) == {
        line.split("=")[0].strip() for line in FULL_CFG.splitlines() if line}


def test_fusion_tune_fetches_each_dev_query_once(dataset, tmp_path, monkeypatch):
    """Tuning alpha and the dev split's lists share one fetch of each dev
    query, which returns both components' lists."""
    fetched = []
    real = Prefetcher.fetch

    def counting(self, query_id, depth):
        lists = real(self, query_id, depth)
        fetched.append((query_id, len(lists)))
        return lists

    monkeypatch.setattr(Prefetcher, "fetch", counting)
    cfg = cfg_from(dataset, BASE_CFG.replace("prefetch.mode = bm25", "")
                   + "prefetch.mode = ensemble\n"
                   "fusion.components = bm25,w2v-cent\nfusion.tune = true\n"
                   "dense.word_vectors = wv.txt\n")
    run_experiment(cfg, tmp_path / "out")
    dev = json.loads((dataset / "splits.json").read_text())["dev"]
    assert sorted(f for f in fetched if f[0] in dev) == [(q, 2) for q in sorted(dev)]


@pytest.mark.parametrize("fusion", ["fusion.alpha = 0.5", "fusion.tune = true"])
def test_an_ensemble_run_tokenizes_each_fetched_query_once(dataset, tmp_path,
                                                           monkeypatch, fusion):
    """One fetch serves both components, and the dev lists share the fetch
    that tunes alpha: each fetched query's text is tokenized once."""
    calls = Counter()
    real = regir.text.tokenize

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(regir.text, "tokenize", counting)
    cfg = cfg_from(dataset, BASE_CFG.replace("prefetch.mode = bm25", "")
                   + "prefetch.mode = ensemble\n"
                   f"fusion.components = bm25,w2v-cent\n{fusion}\n"
                   "dense.word_vectors = wv.txt\n")
    run_experiment(cfg, tmp_path / "out")
    splits = json.loads((dataset / "splits.json").read_text())
    fetched = splits["test"] + (splits["dev"] if cfg.fusion_tune else [])
    queries = ingest_collection(dataset / "queries.jsonl")
    pool_texts = {doc.text for doc in ingest_collection(dataset / "pool.jsonl")}
    assert not pool_texts & {query.text for query in queries}
    assert {q.doc_id: calls[q.text] for q in queries} == \
        {q.doc_id: int(q.doc_id in fetched) for q in queries}


def edit_timings(outdir, edit):
    """Rewrite the manifest's timings with edit(timings)."""
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["timings"])
    path.write_text(json.dumps(manifest))


def test_stale_v1_index_in_a_reused_outdir_is_rebuilt(dataset, tmp_path):
    """A directory last run before the index format changed holds a pickled
    index under the stage name "index"; the versioned stage rebuilds it."""
    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    before = (outdir / "eval_test.csv").read_bytes()
    edit_timings(outdir, lambda t: t.update(index=t.pop("index-v3")))
    (outdir / "index.bin").write_bytes(b"\x80\x04 a version-1 pickle")
    run_experiment(cfg, outdir)
    assert (outdir / "index.bin").read_bytes()[:4] == b"PK\x03\x04"
    assert (outdir / "eval_test.csv").read_bytes() == before


def test_stale_v2_index_in_a_reused_outdir_is_rebuilt(dataset, tmp_path):
    """A directory last run with version-2 indexes holds one under the stage
    name "index-v2", which this build's loader refuses; the stage
    "index-v3" rebuilds it instead of skipping."""
    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    before = (outdir / "eval_test.csv").read_bytes()
    index_path = outdir / "index.bin"
    fresh = index_path.read_bytes()
    index = load_index(index_path)
    write_npz(index_path, {"format": INDEX_FORMAT, "version": 2,
                           "ids": index.doc_ids.tolist(), "terms": index.terms},
              {"offsets": np.array(index.offsets, dtype=np.int64)})
    with pytest.raises(ValueError, match="unsupported .* version 2"):
        load_index(index_path)
    edit_timings(outdir, lambda t: t.update({"index-v2": t.pop("index-v3")}))
    run_experiment(cfg, outdir)
    assert index_path.read_bytes() == fresh
    assert (outdir / "eval_test.csv").read_bytes() == before
    timings = json.loads((outdir / "manifest.json").read_text())["timings"]
    assert timings["index-v3"] > 0


def test_a_stage_the_run_does_not_run_leaves_the_manifest(dataset, tmp_path):
    """The manifest lists the stages of the run that wrote it, so a stage
    name from an older format does not outlive a rerun."""
    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    stages = set(json.loads((outdir / "manifest.json").read_text())["timings"])
    edit_timings(outdir, lambda t: t.update({"index-v2": 1.0}))
    run_experiment(cfg, outdir)
    timings = json.loads((outdir / "manifest.json").read_text())["timings"]
    assert timings == dict.fromkeys(stages, 0.0)
    assert [p.name for p in outdir.iterdir() if p.name.startswith(".")] == []


def test_a_crashed_run_leaves_a_manifest_naming_its_finished_stages(
        dataset, tmp_path, monkeypatch):
    import regir.experiment as experiment

    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    real = experiment.emit_rk_curve

    def crash(*args):
        raise RuntimeError("no curve")

    monkeypatch.setattr(experiment, "emit_rk_curve", crash)
    with pytest.raises(experiment.StageFailed, match="'rk-curve' failed"):
        run_experiment(cfg, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["timings"]) == {"index-v3", "prefetch", "year-hist"}
    monkeypatch.setattr(experiment, "emit_rk_curve", real)
    result = run_experiment(cfg, outdir)
    assert result.manifest_hash == manifest["manifest_hash"]
    timings = json.loads((outdir / "manifest.json").read_text())["timings"]
    assert {name for name, t in timings.items() if t == 0.0} == \
        {"index-v3", "prefetch", "year-hist"}
    assert set(timings) == {"index-v3", "prefetch", "year-hist", "rk-curve",
                            "evaluate"}


def _bad_manifests(manifest: dict) -> dict:
    timings = manifest["timings"]
    return {"not-json": b"{", "not-utf8": b"\xff\xfe",
            "not-an-object": b"[]",
            "no-timings": json.dumps({key: value for key, value in manifest.items()
                                      if key != "timings"}).encode(),
            "timings-not-an-object": json.dumps(
                dict(manifest, timings=list(timings))).encode()}


@pytest.mark.parametrize("case", ["not-json", "not-utf8", "not-an-object",
                                  "no-timings", "timings-not-an-object"])
def test_malformed_manifest_counts_as_no_stage_done(dataset, tmp_path, case):
    """A manifest with this run's hash whose timings are not an object, or a
    file that is not a JSON object, is bookkeeping lost, not an error: every
    stage runs."""
    cfg = cfg_from(dataset, BASE_CFG)
    fresh = run_experiment(cfg, tmp_path / "fresh")
    manifest = json.loads((fresh.outdir / "manifest.json").read_text())
    outdir = tmp_path / "out"
    outdir.mkdir()
    for path in fresh.outdir.iterdir():
        (outdir / path.name).write_bytes(path.read_bytes())
    (outdir / "manifest.json").write_bytes(_bad_manifests(manifest)[case])
    run_experiment(cfg, outdir)
    again = json.loads((outdir / "manifest.json").read_text())
    assert set(again["timings"]) == set(manifest["timings"])
    assert all(t > 0 for t in again["timings"].values())
    assert ((outdir / "eval_test.csv").read_bytes()
            == (fresh.outdir / "eval_test.csv").read_bytes())


def test_run_experiment_keeps_what_it_builds(dataset, tmp_path, monkeypatch):
    """A fresh run reads back none of the index and centroid files it
    writes; a fully skipped rerun reads each once and writes the same
    artifacts."""
    import regir.experiment as experiment

    loads = Counter()
    for name in ("load_index", "load_doc_vectors"):
        def counting(path, _name=name, _real=getattr(experiment, name)):
            loads[_name] += 1
            return _real(path)
        monkeypatch.setattr(experiment, name, counting)
    (dataset / "hp.txt").write_text(HP)
    cfg = cfg_from(dataset, FULL_CFG + "bm25.tune = true\n"
                   "bm25.grid_k1 = 0.5,1.0\nbm25.grid_b = 0.0,0.5\n")
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    assert loads == Counter()
    fresh = {p.name: p.read_bytes() for p in outdir.iterdir()
             if p.name != "manifest.json"}
    run_experiment(cfg, outdir)
    assert loads == {"load_index": 1, "load_doc_vectors": 1}
    assert {name: (outdir / name).read_bytes() for name in fresh} == fresh
    timings = json.loads((outdir / "manifest.json").read_text())["timings"]
    assert set(timings.values()) == {0.0}


def test_rerun_through_another_relative_path_skips_every_stage(
        dataset, tmp_path, monkeypatch):
    cfg = cfg_from(dataset, BASE_CFG)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    run_experiment(cfg, "out")
    monkeypatch.chdir(tmp_path / "b")
    run_experiment(cfg, "../a/out")
    timings = json.loads((tmp_path / "a/out/manifest.json").read_text())["timings"]
    assert len(timings) >= 5 and set(timings.values()) == {0.0}


def read_summary(path) -> dict[str, float]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == ["metric", "mean", "sd"]
    return {metric: float(mean) for metric, mean, _ in rows[1:]}


def test_eval_summary_counts_a_list_the_window_emptied(tmp_path):
    root = date_window_dataset(tmp_path, random.Random(20260814))
    (root / "hp.txt").write_text(HP)
    cfg = cfg_from(root, FULL_CFG.replace("datefilter.years = 6",
                                          "datefilter.years = 0"))
    result = run_experiment(cfg, tmp_path / "out")
    test_ids = json.loads((root / "splits.json").read_text())["test"]
    reranked = read_run(result.outdir / "reranked_test_seed3.tsv")
    assert sorted(reranked) == sorted(test_ids[:-1])
    reports = [read_eval_csv(path) for path in result.eval_paths]
    assert all(sorted(report.per_query) == sorted(test_ids) for report in reports)
    means = [report.macro for report in reports]
    assert any(mean["r_at_5"] > 0 for mean in means)
    expected = {m: sum(mean[m] for mean in means) / len(means) for m in means[0]}
    assert read_summary(result.summary_path) == expected
    # a resumed run reads the per-seed reports back instead of the run files
    before = result.summary_path.read_bytes()
    run_experiment(cfg, tmp_path / "out")
    assert result.summary_path.read_bytes() == before


def test_a_pre_window_that_empties_a_test_query_leaves_it_unranked(tmp_path):
    """The pool spans 1995-2014, so a pre window of 10 years keeps every
    query's candidates but those of the test query dated 1900: the re-ranker
    gets an empty list, the re-ranked run has no line for that query, and
    the eval CSV scores it 0."""
    root = date_window_dataset(tmp_path, random.Random(20260814))
    (root / "hp.txt").write_text(HP)
    cfg = cfg_from(root, FULL_CFG.replace("datefilter.years = 6",
                                          "datefilter.years = 10")
                   .replace("datefilter.mode = post", "datefilter.mode = pre")
                   .replace("rerank.seeds = 3,4", "rerank.seeds = 3"))
    result = run_experiment(cfg, tmp_path / "out")
    test_ids = json.loads((root / "splits.json").read_text())["test"]
    assert read_run(result.outdir / "prefetch_test.tsv")[test_ids[-1]]
    assert sorted(read_run(result.outdir / "reranked_test_seed3.tsv")) \
        == sorted(test_ids[:-1])
    report = read_eval_csv(result.outdir / "eval_test_seed3.csv")
    assert sorted(report.per_query) == sorted(test_ids)
    assert set(report.per_query[test_ids[-1]].values()) == {0.0}
    assert report.macro["r_at_5"] > 0
