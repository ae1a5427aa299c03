import hashlib
import importlib
import json
import math
import pkgutil
import platform
import random
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import regir
import regir.text
from regir._npz import write_npz
from regir.bm25 import INDEX_FORMAT, INDEX_VERSION, load_index
from regir.corpus import Qrels, ingest_collection
from regir.experiment import (ConfigError, Prefetcher, _parse_range,
                              emit_rk_curve, hash_file, load_config,
                              run_experiment)
from regir.metrics import read_eval_csv
from regir.ranking import RankedList, Run, read_run
from regir.rerank import train

from conftest import build_dataset, date_window_dataset, run_python, write_jsonl
from test_pinned_artifacts import _digest
from oracles import (left_to_right_sum, neumaier_sum, rk_curve_accumulate,
                     rk_curve_per_k)

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


# each range's rounding to 4 decimals moves a value outside [start, stop]
RANGES_ROUNDED_OUTSIDE = [
    ("0:0.00005:0.00005", "0.0001"),       # was [0.0, 0.0001]
    ("0.00004:0.00004:1", "0.0"),          # was [0.0]
    ("0.00015:0.0003:0.00015", "0.0001"),  # was [0.0001, 0.0003]
]


@pytest.mark.parametrize("raw, value", RANGES_ROUNDED_OUTSIDE)
def test_config_refuses_a_grid_whose_rounding_leaves_the_range(dataset, raw, value):
    path = dataset / "cfg.txt"
    start, stop, _ = raw.split(":")
    with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}: bm25.grid_k1: ')}"
                                          rf"'{re.escape(raw)}' gives {value} once "
                                          rf"rounded to 4 decimals, outside "
                                          rf"\[{start}, {stop}\]"):
        cfg_from(dataset, BASE_CFG + f"bm25.grid_k1 = {raw}\n")


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
    """A tuned setting with a fixed value is refused naming both keys, also
    where the mode would not read them."""
    for lines, message in (
            ("bm25.k1 = 1.2\nbm25.b = 0.75\nbm25.tune = true\n",
             "bm25.tune conflicts with explicit bm25.k1/b"),
            ("fusion.alpha = 0.5\nfusion.tune = true\n",
             "fusion.tune conflicts with explicit fusion.alpha"),
            ("datefilter.years = 5\ndatefilter.tune = true\n",
             "datefilter.tune conflicts with explicit datefilter.years")):
        for base in (BASE_CFG, ENSEMBLE_CFG):
            with pytest.raises(ConfigError, match=f": {re.escape(message)}$"):
                cfg_from(dataset, base + lines)


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



def test_a_single_prefetcher_records_no_fusion_weight(dataset, tmp_path):
    """fusion.alpha is checked, but only an ensemble fuses: outside ensemble
    mode the config clears it, and the manifest records no weight. Its hash
    covers the raw config, key included."""
    cfg = cfg_from(dataset, BASE_CFG + "fusion.alpha = 0.3\n")
    assert cfg.fusion_alpha is None and cfg.raw["fusion.alpha"] == "0.3"
    result = run_experiment(cfg, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["fusion_alpha"] is None
    assert result.manifest_hash != run_experiment(cfg_from(dataset, BASE_CFG),
                                                  tmp_path / "plain").manifest_hash

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


@pytest.mark.parametrize("seeds, seed", [("3,3", 3), ("1,2,1", 1), ("4,04", 4)])
def test_config_refuses_a_repeated_rerank_seed(dataset, seeds, seed):
    """A seed given twice would train and write the same model twice, and
    the summary would average that run with itself as if two seeds ran."""
    path = dataset / "cfg.txt"
    message = (f"{path}: rerank.seeds names seed {seed} twice: each seed "
               f"trains and writes its own model")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cfg_from(dataset, BASE_CFG + "rerank.model = drmm\ndense.word_vectors = wv.txt\n"
                 f"rerank.seeds = {seeds}\n")


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


@pytest.mark.parametrize("seed", range(20))
def test_rk_curve_equals_the_accumulate_oracle(seed):
    """By repr: empty lists, lists shorter than k_max, tied scores, the
    scores -0.0, 5e-324 and 1e308, non-ASCII ids, queries without judgments
    and relevant documents no list holds."""
    rng = random.Random(seed)
    pool = ["d1", "dé", "文書", "ü2", "Ω", *(f"d{i:02d}" for i in range(30))]
    scores = [1e308, 2.0, 2.0, 1.0, 5e-324, 0.0, -0.0, -1.0]
    run, rel = Run(), {}
    for q in ["q1", "qé", "問", *(f"q{i}" for i in range(rng.randint(0, 9)))]:
        docs = rng.sample(pool, rng.choice([0, 1, 3, rng.randint(0, len(pool))]))
        run[q] = RankedList([(d, rng.choice(scores)) for d in docs])
        rel[q] = set(rng.sample(pool + ["unpooled"], rng.randint(0, 6)))
    rel["q1"] |= {"d1"}
    qrels = Qrels({q: docs for q, docs in rel.items() if docs})
    for k_max in (1, 2, 7, rng.randint(1, 60)):
        assert repr(emit_rk_curve(run, qrels, k_max)) == repr(
            rk_curve_accumulate(run, qrels, k_max))


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
    assert manifest["datefilter_years"] == 6
    assert set(manifest["config"]) == {
        line.split("=")[0].strip() for line in FULL_CFG.splitlines() if line}


SUM_CFGS = {
    "ensemble-drmm": FULL_CFG.replace("datefilter.years = 6", "datefilter.tune = true")
    .replace("eval.k = 5", "eval.k = 8") + "bm25.tune = true\n"
    "bm25.grid_k1 = 0.5,1.2\nbm25.grid_b = 0.0,0.75\n",
    "bm25-pre": BASE_CFG.replace("eval.k = 5", "eval.k = 8") + "bm25.tune = true\n"
    "bm25.grid_k1 = 0.5,1.2\nbm25.grid_b = 0.0,0.75\n"
    "datefilter.tune = true\ndatefilter.mode = pre\n",
}


@pytest.mark.parametrize("name", sorted(SUM_CFGS))
def test_run_artifacts_do_not_depend_on_how_sum_adds_floats(tmp_path, monkeypatch, name):
    """Builtin `sum` compensates float rounding from Python 3.12 on. With
    `sum` bound in every regir module to the addition before 3.12 and to the
    one since, a run tuning BM25, fusion and the date window and training
    two seeds writes the same bytes: no float that reaches an artifact is
    added by `sum`. Every query has 7 relevant documents and eval.k is 8, so
    each ideal DCG is one the two additions round differently."""
    (tmp_path / "data").mkdir()
    root = build_dataset(tmp_path / "data", random.Random(5))
    queries = [json.loads(line)["doc_id"]
               for line in (root / "queries.jsonl").read_text().splitlines()]
    (root / "qrels.tsv").write_text("".join(
        f"{q}\tuk{j:03d}\n" for i, q in enumerate(queries) for j in range(40)
        if j % 4 == i % 4 and j < 28))
    (root / "hp.txt").write_text(HP)
    ideal = [1.0 / math.log2(i + 1) for i in range(1, 8)]
    assert neumaier_sum(ideal) != left_to_right_sum(ideal)
    modules = [importlib.import_module(m.name)
               for m in pkgutil.walk_packages(regir.__path__, "regir.")]
    for binding in (left_to_right_sum, neumaier_sum):
        with monkeypatch.context() as patch:
            for module in modules:
                patch.setattr(module, "sum", binding, raising=False)
            run_experiment(cfg_from(root, SUM_CFGS[name]), tmp_path / binding.__name__)
    files = {p.name: p.read_bytes() for p in (tmp_path / "left_to_right_sum").iterdir()}
    again = {p.name: p.read_bytes() for p in (tmp_path / "neumaier_sum").iterdir()}
    del files["manifest.json"], again["manifest.json"]
    assert {"rk_curve.csv", "bm25_grid.csv", "datefilter_years.json"} <= set(files)
    if name == "ensemble-drmm":
        assert {"alpha_grid.csv", "eval_test_seed3.csv", "eval_test_seed4.csv",
                "eval_summary.csv"} <= set(files)
    else:
        assert "eval_test.csv" in files
    assert files == again

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


ENSEMBLE_CFG = (BASE_CFG.replace("prefetch.mode = bm25", "")
                + "prefetch.mode = ensemble\nfusion.components = bm25,w2v-cent\n"
                "dense.word_vectors = wv.txt\n")
BM25_TUNE = "bm25.tune = true\nbm25.grid_k1 = 0.5,1.0\nbm25.grid_b = 0.0,0.5\n"


@pytest.mark.parametrize("text", [
    BASE_CFG + BM25_TUNE,
    ENSEMBLE_CFG + "fusion.alpha = 0.5\n",
    ENSEMBLE_CFG + "fusion.tune = true\n",
    FULL_CFG + BM25_TUNE,
], ids=["bm25-tune", "ensemble-alpha", "ensemble-tune", "ensemble-tune-drmm"])
def test_a_run_tokenizes_each_document_once(dataset, tmp_path, monkeypatch, text):
    """The pipeline encodes the pool and the query collection once each, and
    the BM25 tuning, every pre-fetch and the feature store read those bags:
    each document's text is tokenized once, a query's also when no stage
    fetches it, since its collection is encoded whole."""
    calls = Counter()
    real = regir.text._words

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(regir.text, "_words", counting)
    (dataset / "hp.txt").write_text(HP)
    run_experiment(cfg_from(dataset, text), tmp_path / "out")
    docs = [*ingest_collection(dataset / "queries.jsonl"),
            *ingest_collection(dataset / "pool.jsonl")]
    assert calls == Counter(doc.text for doc in docs)


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
    writes; a fully skipped rerun reads neither, since no stage builds, and
    writes the same artifacts."""
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
    assert loads == Counter()
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


def test_a_config_loaded_through_another_relative_path_has_one_hash(
        tmp_path, monkeypatch):
    """The manifest hash covers the config's files by their resolved paths:
    `data/cfg.txt` loaded from data's parent and `cfg.txt` loaded from inside
    data hash alike, and the second run builds no stage."""
    (tmp_path / "data").mkdir()
    root = build_dataset(tmp_path / "data", random.Random(20260814))
    (root / "cfg.txt").write_text(BASE_CFG)
    outdir = tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    first = run_experiment(load_config("data/cfg.txt"), outdir)
    monkeypatch.chdir(root)
    second = run_experiment(load_config("cfg.txt"), outdir)
    assert second.manifest_hash == first.manifest_hash
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["timings"]) >= 5
    assert set(manifest["timings"].values()) == {0.0}
    assert manifest["resources"] and all(
        Path(path).is_absolute() for path in manifest["resources"])


def test_deleting_one_output_rebuilds_only_its_stage(dataset, tmp_path,
                                                     monkeypatch):
    """With rk_curve.csv, then year_hist.csv, gone from a finished ensemble
    + DRMM run, a rerun builds that stage alone and writes the same bytes.
    It builds no pipeline and reads no vectors, index or checkpoint; the
    curve reads back the test lists, the histogram no run file."""
    import regir.experiment as experiment

    (dataset / "hp.txt").write_text(HP)
    cfg = cfg_from(dataset, FULL_CFG)
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    calls = Counter()
    read = []
    for name in ("build_pipeline", "load_word_vectors", "load_token_vectors",
                 "load_index", "load_doc_vectors", "load_checkpoint", "read_run"):
        def counting(path, *args, _name=name, _real=getattr(experiment, name), **kwargs):
            calls[_name] += 1
            read.append(Path(path).name if _name == "read_run" else _name)
            return _real(path, *args, **kwargs)
        monkeypatch.setattr(experiment, name, counting)
    for stage, output, reads in (("rk-curve", "rk_curve.csv", ["prefetch_test.tsv"]),
                                 ("year-hist", "year_hist.csv", [])):
        path = outdir / output
        clean = path.read_bytes()
        path.unlink()
        calls.clear()
        read.clear()
        run_experiment(cfg, outdir)
        assert path.read_bytes() == clean
        timings = json.loads((outdir / "manifest.json").read_text())["timings"]
        assert {name for name, t in timings.items() if t} == {stage}
        assert read == reads
        assert set(calls) == ({"read_run"} if reads else set())


# each `Inputs` value a run with word embeddings reads, by the call that
# makes it
MADE_BY = {"pool": ("ingest_collection", "pool.jsonl"),
           "queries": ("ingest_collection", "queries.jsonl"),
           "qrels": ("load_qrels", "qrels.tsv"),
           "splits": ("SplitManifest.from_json", "splits.json"),
           "pipeline": ("build_pipeline", None),
           "word_vectors": ("load_word_vectors", "wv.txt"),
           "provider": ("TypeEmbeddings", None)}
# the judgments are checked against both collections, so whatever reads
# them makes those too; a stage that scores or cuts lists reads all four
JUDGED = ("pool", "queries", "qrels", "splits")
TEXT = (*JUDGED, "pipeline", "word_vectors", "provider")
CKPT = f"v{train.CHECKPOINT_VERSION}"


# each stage of SUM_CFGS["ensemble-drmm"] (one training seed standing for
# both): its outputs, the inputs a rebuild of it alone makes, and the other
# stages' artifacts it reads
REBUILDS = {
    f"index-v{INDEX_VERSION}": (["index.bin"], ("pool", "pipeline"), []),
    "tune-bm25": (["bm25_grid.csv", "bm25_params.json"], (*JUDGED, "pipeline"),
                  ["index.bin"]),
    "centroids": (["centroids.vec"], ("pool", "pipeline", "word_vectors"), []),
    "prefetch": ([f"prefetch_{s}.tsv" for s in ("train", "dev", "test")]
                 + ["fusion_alpha.json", "alpha_grid.csv"],
                 (*JUDGED, "pipeline", "word_vectors"),
                 ["index.bin", "centroids.vec"]),
    "tune-datefilter": (["datefilter_years.json"], JUDGED, ["prefetch_dev.tsv"]),
    "year-hist": (["year_hist.csv"], JUDGED, []),
    "rk-curve": (["rk_curve.csv"], JUDGED, ["prefetch_test.tsv"]),
    f"train-{CKPT}-seed4": (["checkpoint_seed4.bin", "training_log_seed4.csv"],
                            TEXT, ["prefetch_train.tsv", "prefetch_dev.tsv"]),
    "rerank-test": ([f"{name}_seed{seed}.{ext}" for seed in (3, 4) for name, ext
                     in (("reranked_test", "tsv"), ("eval_test", "csv"))]
                    + ["eval_summary.csv"], TEXT,
                    ["prefetch_test.tsv", "checkpoint_seed3.bin",
                     "checkpoint_seed4.bin"]),
}


def test_a_rebuilt_stage_makes_only_the_inputs_it_reads(dataset, tmp_path, monkeypatch):
    """With one stage's outputs gone from a finished full-stack run, a rerun
    builds that stage alone, makes each input the stage reads once and no
    other, reads back only the artifacts it builds on, and writes the same
    bytes."""
    import regir.experiment as experiment

    (dataset / "hp.txt").write_text(HP)
    cfg = cfg_from(dataset, SUM_CFGS["ensemble-drmm"])
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    fresh = {p.name: p.read_bytes() for p in outdir.iterdir()
             if p.name != "manifest.json"}
    assert set(REBUILDS) == set(json.loads((outdir / "manifest.json").read_text())
                              ["timings"]) - {f"train-{CKPT}-seed3"}
    assert sorted(n for outputs, _, _ in REBUILDS.values() for n in outputs) == \
        sorted(set(fresh) - {"checkpoint_seed3.bin", "training_log_seed3.csv"})

    calls = []

    def spy(name, real):
        def call(first, *args, **kwargs):
            path = Path(first).name if isinstance(first, (str, Path)) else None
            calls.append((name, path))
            return real(first, *args, **kwargs)
        return call

    for name in ("ingest_collection", "load_qrels", "build_pipeline",
                 "load_word_vectors", "TypeEmbeddings", "load_stopwords",
                 "load_token_vectors", "load_index", "load_doc_vectors",
                 "read_run", "load_checkpoint"):
        monkeypatch.setattr(experiment, name, spy(name, getattr(experiment, name)))
    real_splits = experiment.SplitManifest.from_json
    monkeypatch.setattr(experiment.SplitManifest, "from_json",
                        staticmethod(spy("SplitManifest.from_json", real_splits)))
    for stage, (outputs, made, artifacts) in REBUILDS.items():
        for name in outputs:
            (outdir / name).unlink()
        calls.clear()
        run_experiment(cfg, outdir)
        timings = json.loads((outdir / "manifest.json").read_text())["timings"]
        assert {name for name, t in timings.items() if t} == {stage}
        artifact_loaders = ("load_index", "load_doc_vectors", "read_run",
                            "load_checkpoint")
        assert sorted(c for c in calls if c[0] not in artifact_loaders) == \
            sorted(MADE_BY[name] for name in made), stage
        assert sorted(path for loader, path in calls if loader in artifact_loaders) == \
            sorted(artifacts), stage
        assert {p.name: p.read_bytes() for p in outdir.iterdir()
                if p.name != "manifest.json"} == fresh, stage


def test_unread_word_vectors_are_hashed_but_not_parsed(dataset, tmp_path):
    """A bm25 run reads no word vectors: one whose `dense.word_vectors` file
    is corrupt finishes, writes what the run without that key writes (but
    for the manifest lines), and its manifest hash covers the file."""
    bad = tmp_path / "bad_wv.txt"
    bad.write_text("tax 0.1 nan\n")
    with_bad = BASE_CFG + f"dense.word_vectors = {bad}\n"
    without = run_experiment(cfg_from(dataset, BASE_CFG), tmp_path / "without")
    result = run_experiment(cfg_from(dataset, with_bad), tmp_path / "with")
    names = sorted(p.name for p in without.outdir.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in result.outdir.iterdir()
                           if p.name != "manifest.json")
    for name in names:
        assert _digest((result.outdir / name).read_bytes()) == \
            _digest((without.outdir / name).read_bytes()), name
    manifest = json.loads((result.outdir / "manifest.json").read_text())
    assert manifest["resources"][str(bad.resolve())] == hash_file(bad)
    bad.write_text("tax 0.1 inf\n")
    changed = run_experiment(cfg_from(dataset, with_bad), tmp_path / "with")
    assert len({without.manifest_hash, result.manifest_hash, changed.manifest_hash}) == 3
    timings = json.loads((changed.outdir / "manifest.json").read_text())["timings"]
    assert all(t > 0 for t in timings.values())


@pytest.mark.parametrize("split", ["train", "dev"])
def test_a_rebuilt_training_reads_a_missing_line_as_an_empty_list(tmp_path, split):
    """A train or dev query with no indexed term has an empty pre-fetch list,
    which prefetch_<split>.tsv holds no line for. With the checkpoint gone, a
    rerun trains from the lists it reads back, that query's list empty as
    in the first run, and writes the same checkpoint and log."""
    root = build_dataset(tmp_path, random.Random(20260814))
    query_id = json.loads((root / "splits.json").read_text())[split][0]
    queries = [json.loads(line)
               for line in (root / "queries.jsonl").read_text().splitlines()]
    for query in queries:
        if query["doc_id"] == query_id:
            query.update(title="qqq", body="www")
    write_jsonl(root / "queries.jsonl", queries)
    (root / "hp.txt").write_text(HP)
    cfg = cfg_from(root, BASE_CFG + "dense.word_vectors = wv.txt\n"
                   "rerank.model = drmm\nrerank.hyperparams = hp.txt\n")
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    assert query_id not in read_run(outdir / f"prefetch_{split}.tsv")
    trained = {name: (outdir / name).read_bytes()
               for name in ("checkpoint_seed0.bin", "training_log_seed0.csv")}
    (outdir / "checkpoint_seed0.bin").unlink()
    run_experiment(cfg, outdir)
    timings = json.loads((outdir / "manifest.json").read_text())["timings"]
    assert {name for name, t in timings.items() if t} == {"train-v2-seed0"}
    assert {name: (outdir / name).read_bytes() for name in trained} == trained


def test_manifest_records_each_stage_s_environment_outside_the_hash(
        dataset, tmp_path):
    """manifest.json names, per stage, the Python, numpy and BLAS builds its
    artifacts were made under. A manifest written under other builds still
    lets a rerun skip every stage, and the skipped stages keep its record;
    a stage rebuilt records this run's builds."""
    cfg = cfg_from(dataset, BASE_CFG)
    outdir = tmp_path / "out"
    result = run_experiment(cfg, outdir)
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # the OpenBLAS core is checked against a forced one below
    core = next(iter(manifest["environment"].values()))["blas"]["core"]
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_features": sorted(f for f, on in __cpu_features__.items() if on),
            "blas": {"name": blas["name"], "version": blas["version"],
                     "core": core}}
    assert blas["name"] and blas["version"]
    assert manifest["environment"] == dict.fromkeys(manifest["timings"], here)
    other = {"python": "3.10.0", "numpy": "1.26.0",
             "blas": {"name": "other", "version": "0"}}
    manifest["environment"] = dict.fromkeys(manifest["timings"], other)
    path.write_text(json.dumps(manifest))
    assert run_experiment(cfg, outdir).manifest_hash == result.manifest_hash
    again = json.loads(path.read_text())
    assert again["timings"] == dict.fromkeys(manifest["timings"], 0.0)
    assert again["environment"] == manifest["environment"]
    # one stage's output gone: that stage alone is rebuilt under this run's
    (outdir / "index.bin").unlink()
    run_experiment(cfg, outdir)
    third = json.loads(path.read_text())
    rebuilt = {name for name, t in third["timings"].items() if t}
    assert rebuilt == {name for name in third["timings"]
                       if name.startswith("index-v")}
    assert third["environment"] == {
        name: here if name in rebuilt else other for name in third["timings"]}


RUN_AND_RECORD = """
import json, sys
from regir.experiment import _environment, load_config, run_experiment
run_experiment(load_config(sys.argv[1]), sys.argv[2])
print(json.dumps(_environment()))
"""


def test_manifest_records_the_cpu_dispatch_and_a_rerun_under_another_skips(
        dataset, tmp_path):
    """`environment` names numpy's enabled CPU features and the OpenBLAS
    core. Under another dispatch (numpy's last enabled dispatch target
    switched off, OpenBLAS forced to its Nehalem core, which every CPU this
    numpy runs on supports) both read what that process runs, and a rerun
    there still skips every stage, keeping the first run's record."""
    cfg_path = dataset / "dispatch.txt"
    cfg_path.write_text(BASE_CFG)
    outdir = tmp_path / "out"
    run_experiment(load_config(cfg_path), outdir)
    path = outdir / "manifest.json"
    first = json.loads(path.read_text())
    records = list(first["environment"].values())
    assert records and all(r == records[0] for r in records)
    enabled = sorted(f for f, on in __cpu_features__.items() if on)
    assert records[0]["cpu_features"] == enabled
    core = records[0]["blas"]["core"]
    assert core is None or (isinstance(core, str) and core)
    switched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)][-1:]
    there = json.loads(run_python(
        RUN_AND_RECORD, cfg_path, outdir, hash_seed=0,
        OPENBLAS_CORETYPE="Nehalem", NPY_DISABLE_CPU_FEATURES=" ".join(switched)
    ).splitlines()[-1])
    assert there["cpu_features"] == [f for f in enabled if f not in switched]
    assert there["blas"]["core"] == (None if core is None else "Nehalem")
    again = json.loads(path.read_text())
    assert again["timings"] == dict.fromkeys(first["timings"], 0.0)
    assert again["environment"] == first["environment"]


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


def pair_counter(monkeypatch) -> Counter:
    """Counts each (query, document) pair whose features are computed, by
    wrapping `FeatureStore._compute`, the one place the store computes
    them."""
    counts = Counter()
    real = train.FeatureStore._compute

    def compute(store, query_id, doc_ids):
        counts.update((query_id, doc_id) for doc_id in doc_ids)
        return real(store, query_id, doc_ids)

    monkeypatch.setattr(train.FeatureStore, "_compute", compute)
    return counts


RERANK_CFG = BASE_CFG + """rerank.hyperparams = {hp}
dense.word_vectors = wv.txt
rerank.model = {model}
"""

SMALL_PACRR = "q_len=6\nd_len=16\nfilters=2\nkernel_sizes=2\n"


@pytest.mark.parametrize("model", ["drmm", "pacrr"])
def test_a_run_computes_each_pair_s_features_once(dataset, tmp_path, monkeypatch,
                                                  model):
    """Two seeds train three epochs each. Training's pairs and the dev lists
    are cached across steps, epochs and seeds; each test list is computed
    once, for both seeds' models."""
    counts = pair_counter(monkeypatch)
    (dataset / "hp_3_epochs.txt").write_text(
        HP.replace("max_epochs=2", "max_epochs=3") + "patience=5\n" + SMALL_PACRR)
    cfg = cfg_from(dataset, RERANK_CFG.format(hp="hp_3_epochs.txt", model=model)
                   + "rerank.seeds = 1,2\n")
    outdir = tmp_path / "out"
    run_experiment(cfg, outdir)
    for seed in (1, 2):
        log_lines = (outdir / f"training_log_seed{seed}.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in log_lines[2:]] == ["1", "2", "3"]
    assert set(counts.values()) == {1}
    splits = json.loads((dataset / "splits.json").read_text())
    assert {q for q, _ in counts} == {*splits["train"], *splits["dev"],
                                      *splits["test"]}
    for split in ("dev", "test"):
        lists = read_run(outdir / f"prefetch_{split}.tsv").truncated(cfg.k)
        assert {(q, d) for q, ranking in lists.items()
                for d in ranking.doc_ids} <= counts.keys()


@pytest.mark.parametrize("model", ["drmm", "pacrr"])
def test_training_that_keeps_the_initial_model_warns_once_per_seed(
        dataset, tmp_path, caplog, model):
    """At lr = 0 no epoch can beat the initial model's dev recall: each
    seed's training logs one warning that says so, and its checkpoint
    records best epoch 0. A rerun skips training and warns no more."""
    (dataset / "hp_still.txt").write_text(HP.replace("lr=0.01", "lr=0") + SMALL_PACRR)
    cfg = cfg_from(dataset, RERANK_CFG.format(hp="hp_still.txt", model=model)
                   + "rerank.seeds = 1,2\n")
    outdir = tmp_path / "out"
    with caplog.at_level("WARNING"):
        run_experiment(cfg, outdir)
        run_experiment(cfg, outdir)
    warned = [r.getMessage() for r in caplog.records if "no epoch beat" in r.getMessage()]
    assert [m.split(":")[0] for m in warned] == ["seed 1", "seed 2"]
    assert all(m.endswith("the checkpoint keeps its weights") for m in warned)
    for seed in (1, 2):
        result = train.load_checkpoint(outdir / f"checkpoint_seed{seed}.bin")
        assert result.best_epoch == 0 and f"{result.best_dev_r20!r}" in warned[seed - 1]


def test_token_re_ranking_reads_a_pool_document_that_denoises_to_nothing(tmp_path):
    """A pool document whose text denoises to nothing has no positions, so
    a token file cannot list it. Doc-vector pre-fetching still fetches it,
    and the re-ranker reads it as a text with no tokens, as it does with
    word vectors."""
    root = build_dataset(tmp_path, random.Random(5))
    lines = (root / "pool.jsonl").read_text().splitlines()
    write_jsonl(root / "pool.jsonl", [*map(json.loads, lines),
                                      {"doc_id": "uk999", "title": "1999", "body": ""}])
    splits = json.loads((root / "splits.json").read_text())
    splits["pool"].append("uk999")
    (root / "splits.json").write_text(json.dumps(splits))
    pool, queries = (ingest_collection(root / f"{name}.jsonl") for name in ("pool", "queries"))
    pipeline = regir.text.build_pipeline(pool, stopwords=None, idf_filter=True)
    assert pipeline(pool.get("uk999").text) == []
    rng = np.random.default_rng(5)
    vectors = {doc.doc_id: rng.normal(size=3) for doc in [*pool, *queries]}
    victim = splits["test"][0]
    vectors["uk999"] = vectors[victim]  # the first candidate of a test query
    for name, corpus in (("pool.vec", pool), ("queries.vec", queries)):
        (root / name).write_text("#dim 3\n" + "".join(
            f"{d.doc_id} {' '.join(map(repr, vectors[d.doc_id].tolist()))}\n"
            for d in corpus))
    (root / "tokens.txt").write_text("".join(
        f"{doc.doc_id} {i} {' '.join(map(repr, rng.normal(size=3).tolist()))}\n"
        for doc in [*pool, *queries] for i, _ in enumerate(pipeline(doc.text))))
    (root / "hp.txt").write_text(HP)
    cfg = cfg_from(root, BASE_CFG.replace("prefetch.mode = bm25", "prefetch.mode = doc-vectors")
                   + "dense.pool_vectors = pool.vec\ndense.query_vectors = queries.vec\n"
                   "rerank.model = drmm\nrerank.embeddings = token\n"
                   "rerank.token_vectors = tokens.txt\nrerank.hyperparams = hp.txt\n")
    run_experiment(cfg, tmp_path / "out")
    assert read_run(tmp_path / "out" / "prefetch_test.tsv")[victim].doc_ids[0] == "uk999"
    assert "uk999" in read_run(tmp_path / "out" / "reranked_test_seed0.tsv")[victim].doc_ids


def with_query_texts(root, texts: dict[str, str]) -> None:
    """Gives each query of `texts` that title and an empty body."""
    queries = [json.loads(line)
               for line in (root / "queries.jsonl").read_text().splitlines()]
    for query in queries:
        if query["doc_id"] in texts:
            query.update(title=texts[query["doc_id"]], body="")
    write_jsonl(root / "queries.jsonl", queries)


@pytest.mark.parametrize("model", ["drmm", "pacrr"])
def test_a_query_with_no_indexed_term_leaves_the_run_whole(tmp_path, caplog, model):
    """A test query `the` and a train query `of and 2009` keep no token the
    index holds. BM25 gives each an empty list and a warning, as the dense
    pre-fetchers do for a query without a vector: the train query is skipped
    for want of a relevant document, and the test query is left unranked and
    scores 0, so re-ranking never meets a query that denoises to nothing."""
    root = build_dataset(tmp_path, random.Random(20260814))
    splits = json.loads((root / "splits.json").read_text())
    test_id, train_id = splits["test"][-1], splits["train"][0]
    with_query_texts(root, {test_id: "the", train_id: "of and 2009"})
    (root / "hp.txt").write_text(HP + SMALL_PACRR)
    cfg = cfg_from(root, RERANK_CFG.format(hp="hp.txt", model=model) + "seed = 3\n")
    with caplog.at_level("WARNING"):
        result = run_experiment(cfg, tmp_path / "out")
    messages = [record.getMessage() for record in caplog.records]
    for query_id in (test_id, train_id):
        assert f"query {query_id}: no indexed term; empty list" in messages
    assert (f"query {train_id}: no relevant document in the pre-fetched top-0; "
            "skipped") in messages
    assert sorted(read_run(result.outdir / "reranked_test_seed3.tsv")) == \
        sorted(splits["test"][:-1])
    report = read_eval_csv(result.outdir / "eval_test_seed3.csv")
    assert sorted(report.per_query) == sorted(splits["test"])
    assert set(report.per_query[test_id].values()) == {0.0}
    assert report.macro["r_at_5"] > 0
