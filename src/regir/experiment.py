"""End-to-end experiment runs driven by a flat key=value config.

A run covers ingest -> index/vectors -> tune -> prefetch -> (train) ->
rerank -> date filter -> evaluate and drops every artifact (run files, grid
CSVs, checkpoints, eval reports, recall curve, year-difference histogram)
into one output directory together with a manifest. The manifest hash covers
the config snapshot, the content hashes of every input file, and the tool
version - not timings - so rerunning an unchanged experiment reproduces
byte-identical CSVs, and finished stages are skipped outright.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import __version__
from .bm25 import (INDEX_VERSION, Bm25Params, PostingsIndex, build_index,
                   default_grid, load_index, read_params, save_index,
                   tune_bm25, write_grid_csv, write_params)
from .corpus import Corpus, SplitManifest, ingest_collection, load_qrels
from .datefilter import (MODES, DateWindow, candidates, choose_window,
                         finalize, write_year_hist_csv, year_diff_histogram)
from .dense import (CentroidError, DocVectorStore, WordVectors,
                    build_centroid_store, centroid, knn_search,
                    load_doc_vectors, load_word_vectors, save_doc_vectors)
from .fusion import (default_alpha_grid, fuse, normalize_scores, read_alpha,
                     tune_alpha, write_alpha, write_alpha_grid_csv)
from .metrics import (aggregate_runs, evaluate_run, read_eval_csv,
                      write_eval_csv, write_summary_csv)
from .ranking import RankedList, Run, read_run, write_run
from .rerank.features import TypeEmbeddings, load_token_vectors
from .rerank.train import (CHECKPOINT_VERSION, FeatureStore, Hyperparams,
                           save_checkpoint, train_model, write_training_log)
from .text import TextPipeline, build_pipeline, load_stopwords
from ._textio import parse_number, read_key_values, write_table

log = logging.getLogger(__name__)

TASKS = ("EU2UK", "UK2EU")
COMPONENTS = ("bm25", "w2v-cent", "doc-vectors")
PREFETCH_MODES = (*COMPONENTS, "ensemble")


class ConfigError(ValueError):
    pass


MAX_GRID_VALUES = 10_000


def _parse_range(raw: str, key: str) -> list[float]:
    """'start:stop:step' inclusive grid, or a comma-separated list, of at
    most MAX_GRID_VALUES values; a range's count is checked before any value
    is built. A range's values are rounded to 4 decimals; a range that
    repeats a value once rounded (a step below 1e-4, or a start between two
    4-decimal values) is refused."""
    too_many = ConfigError(f"{key}: more than {MAX_GRID_VALUES} grid values")
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: expected start:stop:step, got {raw!r}")
        start, stop, step = (parse_number(p, float, key) for p in parts)
        if step <= 0:
            raise ConfigError(f"{key}: step must be positive")
        # the grid holds floor(span) + 1 values, give or take the rounding
        # below (hence one spare index); span is inf if the bounds overflow
        span = (stop - start + 1e-9) / step
        if span >= MAX_GRID_VALUES:
            raise too_many
        grid = (round(start + i * step, 10) for i in range(max(int(span), 0) + 2))
        values = [round(v, 4) for v in grid if v <= stop + 1e-9]
        if len(set(values)) < len(values):
            raise ConfigError(f"{key}: {raw.strip()!r} repeats values once they are "
                              "rounded to 4 decimals (use a start of at most 4 "
                              "decimals and a step of at least 0.0001)")
        return values
    if raw.count(",") >= MAX_GRID_VALUES:
        raise too_many
    return [parse_number(p, float, key) for p in raw.split(",") if p]


def _path(text: str, key: str, base: Path) -> Path:
    """The file `text` names, relative to `base`; it must exist."""
    path = base / text  # an absolute `text` stays as it is
    if not path.exists():
        raise ConfigError(f"{key}: {path} does not exist")
    if path.is_dir():
        raise ConfigError(f"{key}: {path} is a directory")
    return path


def _hyperparams(text: str, key: str, base: Path) -> Hyperparams:
    path = _path(text, key, base)
    try:
        return Hyperparams.from_file(path)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _number(kind, check=None, rule=""):
    """A parser of one `kind` number, which `check` must accept: else an
    error "<key> <rule>"."""
    def parse(text, key, base):
        value = parse_number(text, kind, key)
        if check is not None and not check(value):
            raise ConfigError(f"{key} {rule}")
        return value
    return parse


_count = _number(int, lambda n: n >= 1, "must be >= 1")


def _flag(text: str, key: str, base) -> bool:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    return text.lower() in ("true", "1", "yes")


def _choice(*allowed: str):
    def parse(text, key, base):
        if text not in allowed:
            raise ConfigError(f"{key}: expected one of {allowed}, got {text!r}")
        return text
    return parse


def _grid(text: str, key: str, base) -> list[float]:
    return _parse_range(text, key)


def _windows(years, key: str):
    """`years`, each one a date window size DateWindow takes."""
    for value in years:
        try:
            DateWindow(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return years


def _window(text: str, key: str, base) -> float:
    return _windows([parse_number(text, float, key)], key)[0]


def _window_grid(text: str, key: str, base) -> list[float]:
    return _windows(_parse_range(text, key), key)


def _seeds(text: str, key: str, base) -> list[int]:
    return [parse_number(s, int, key) for s in text.split(",") if s]


def parse_components(text: str, key: str, base=None) -> tuple[str, str]:
    """The two pre-fetchers an ensemble fuses, as `a,b`; the parser of
    `fusion.components` and of `regir prefetch --components`."""
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != 2 or any(p not in COMPONENTS for p in parts):
        raise ConfigError(f"{key} must name two of bm25, w2v-cent, doc-vectors")
    if parts[0] == parts[1]:
        raise ConfigError(f"{key} names {parts[0]} twice: an ensemble fuses "
                          f"two different pre-fetchers")
    return parts


def _key(key: str, parse, default=None, required: bool = False):
    """A config field that `key` sets: `parse(text, key, base)` of its value,
    or `default` when the config leaves the key out."""
    return field(metadata={"key": key, "parse": parse, "default": default,
                           "required": required})


def _key_fields():
    return [f for f in fields(ExperimentConfig) if "key" in f.metadata]


def load_config(path) -> "ExperimentConfig":
    """`key = value` lines; paths are relative to the file, errors name it."""
    path = Path(path)
    known = {f.metadata["key"] for f in _key_fields()}
    raw = {key: value for _, key, value in read_key_values(path, known,
                                                           ConfigError)}
    try:
        return ExperimentConfig.from_raw(raw, path.parent)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class ExperimentConfig:
    """A run's settings. Each field a config key sets declares the key, the
    parser of its value and its default, and keys are parsed in field order;
    `__post_init__` holds the rules across keys."""

    raw: dict[str, str]
    task: str = _key("task", _choice(*TASKS), required=True)
    prefetch_mode: str = _key("prefetch.mode", _choice(*PREFETCH_MODES), "bm25")
    k: int = _key("prefetch.k", _count, 100)
    eval_k: int = _key("eval.k", _count, 20)
    bm25_k1: float | None = _key("bm25.k1", _number(float))
    bm25_b: float | None = _key("bm25.b", _number(float))
    bm25_tune: bool = _key("bm25.tune", _flag, False)
    bm25_grid_k1: list[float] = _key("bm25.grid_k1", _grid, default_grid()[0])
    bm25_grid_b: list[float] = _key("bm25.grid_b", _grid, default_grid()[1])
    fusion_components: tuple[str, str] | None = _key("fusion.components",
                                                     parse_components)
    fusion_alpha: float | None = _key(
        "fusion.alpha", _number(float, lambda a: 0 <= a <= 1, "must be in [0, 1]"))
    fusion_tune: bool = _key("fusion.tune", _flag, False)
    fusion_grid: list[float] = _key("fusion.grid", _grid, default_alpha_grid())
    rerank_model: str = _key("rerank.model", _choice("none", "drmm", "pacrr"),
                             "none")
    seed: int = _key("seed", _number(int), 0)
    rerank_seeds: list[int] | None = _key("rerank.seeds", _seeds)  # else [seed]
    datefilter_years: float | None = _key("datefilter.years", _window)
    # read before the data paths, so a bad file is refused naming itself
    rerank_hyperparams_path: Path | None = _key("rerank.hyperparams", _path)
    rerank_hyperparams: Hyperparams = _key("rerank.hyperparams", _hyperparams,
                                           Hyperparams())
    pool_path: Path = _key("data.pool", _path, required=True)
    queries_path: Path = _key("data.queries", _path, required=True)
    qrels_path: Path = _key("data.qrels", _path, required=True)
    splits_path: Path = _key("data.splits", _path, required=True)
    stopwords_path: Path | None = _key("text.stopwords", _path)
    idf_filter: bool = _key("text.idf_filter", _flag, True)
    word_vectors_path: Path | None = _key("dense.word_vectors", _path)
    pool_vectors_path: Path | None = _key("dense.pool_vectors", _path)
    query_vectors_path: Path | None = _key("dense.query_vectors", _path)
    rerank_embeddings: str = _key("rerank.embeddings", _choice("word", "token"),
                                  "word")
    token_vectors_path: Path | None = _key("rerank.token_vectors", _path)
    datefilter_mode: str = _key("datefilter.mode", _choice(*MODES), "post")
    datefilter_tune: bool = _key("datefilter.tune", _flag, False)
    datefilter_grid: list[float] = _key("datefilter.grid", _window_grid,
                                        [1, 2, 5, 10, 15])
    bm25_params: Bm25Params | None = field(init=False, default=None)

    @classmethod
    def from_raw(cls, raw: dict[str, str], base: Path) -> "ExperimentConfig":
        values = {}
        for f in _key_fields():
            key = f.metadata["key"]
            if key in raw:
                values[f.name] = f.metadata["parse"](raw[key], key, base)
            elif f.metadata["required"]:
                raise ConfigError(f"missing required key {key!r}")
            else:
                values[f.name] = f.metadata["default"]
        return cls(raw=dict(sorted(raw.items())), **values)

    def __post_init__(self) -> None:
        if self.bm25_k1 is not None or self.bm25_b is not None:
            if self.bm25_k1 is None or self.bm25_b is None:
                raise ConfigError("bm25.k1 and bm25.b must be given together")
            self.bm25_params = Bm25Params(self.bm25_k1, self.bm25_b)
        if self.bm25_tune and self.bm25_params is not None:
            raise ConfigError("bm25.tune conflicts with explicit bm25.k1/b")
        ensemble = self.prefetch_mode == "ensemble"
        if ensemble and self.fusion_components is None:
            raise ConfigError("ensemble mode requires fusion.components")
        if ensemble and self.fusion_alpha is None and not self.fusion_tune:
            raise ConfigError("ensemble mode needs fusion.alpha or fusion.tune")
        if not ensemble:  # checked, but only an ensemble fuses
            self.fusion_components, self.fusion_tune = None, False
        if self.rerank_seeds is None:
            self.rerank_seeds = [self.seed]
        if self.rerank_model != "none" and not self.rerank_seeds:
            raise ConfigError("a trained re-ranker needs at least one seed")
        if "w2v-cent" in self.components and self.word_vectors_path is None:
            raise ConfigError("w2v-cent requires dense.word_vectors")
        if "doc-vectors" in self.components and (self.pool_vectors_path is None
                                                 or self.query_vectors_path is None):
            raise ConfigError("doc-vectors requires dense.pool_vectors and "
                              "dense.query_vectors")
        if self.rerank_model != "none":
            if self.rerank_embeddings == "word" and self.word_vectors_path is None:
                raise ConfigError("re-ranking with word embeddings requires "
                                  "dense.word_vectors")
            if self.rerank_embeddings == "token" and self.token_vectors_path is None:
                raise ConfigError("re-ranking with token embeddings requires "
                                  "rerank.token_vectors")

    @property
    def components(self) -> tuple[str, ...]:
        """The pre-fetchers the mode runs: the fused pair in ensemble mode,
        else the mode itself."""
        return self.fusion_components or (self.prefetch_mode,)

    @property
    def needs_bm25(self) -> bool:
        return "bm25" in self.components

    def input_paths(self) -> list[Path]:
        """Every file the config names, the hyperparameters' too."""
        return [path for f in _key_fields() if f.metadata["parse"] is _path
                and (path := getattr(self, f.name)) is not None]


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def emit_rk_curve(run: Run, qrels, k_max: int) -> list[tuple[int, float]]:
    """`(k, mean R@k)` rows for k = 1..k_max over queries with relevant
    documents; the run must be fetched at depth >= k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    query_ids = [q for q in sorted(run) if qrels.relevant(q)]
    if not query_ids:
        raise ValueError("no queries with relevant documents")
    short = [q for q in query_ids
             if len(run[q]) < min(k_max, len(qrels.relevant(q)))]
    # per query, R@k for every k from its hit prefix counts: the floats
    # recall_at_k returns, summed over queries in the same order
    curves = []
    for q in query_ids:
        relevant = qrels.relevant(q)
        hits = list(accumulate(int(d in relevant) for d in run[q].doc_ids[:k_max]))
        hits += [hits[-1] if hits else 0] * (k_max - len(hits))
        curves.append([h / len(relevant) for h in hits])
    rows = []
    for k in range(1, k_max + 1):
        total = sum(curve[k - 1] for curve in curves)
        rows.append((k, total / len(query_ids)))
    if short:
        log.warning("rk curve: %d list(s) shorter than k_max", len(short))
    return rows


def write_rk_curve_csv(rows, path, comment: str = "") -> None:
    write_table(path, "k,recall", (f"{k},{recall!r}" for k, recall in rows),
                comment)


@dataclass
class Prefetcher:
    """First-stage retrieval by its components: a single pre-fetcher, or
    the fusion of two. Holds what the pre-fetchers read; what the components
    do not use stays None. Shared by `regir run` and `regir prefetch`, which
    fetch one query at a time.

    Every query gets a deep list of 2k entries, so that a date window
    applied before re-ranking can refill to k. Fusion components are fetched
    twice as deep again, so the fused top 2k can draw on documents below
    either component's own top 2k.
    """

    components: tuple[str, ...]
    k: int
    queries: Corpus
    pipeline: TextPipeline | None = None
    index: PostingsIndex | None = None
    bm25_params: Bm25Params = field(default_factory=Bm25Params)
    word_vectors: WordVectors | None = None
    cent_store: DocVectorStore | None = None
    pool_store: DocVectorStore | None = None
    query_store: DocVectorStore | None = None

    @property
    def deep(self) -> int:
        return 2 * self.k

    def fetch(self, query_id: str, depth: int) -> tuple[RankedList, ...]:
        """Each component's list for the query, `depth` long; its text is
        tokenized once for all of them. A query with no centroid or a zero
        doc vector gets an empty list and a warning; one missing from the
        query store raises KeyError."""
        tokens = None
        if {"bm25", "w2v-cent"} & set(self.components):
            tokens = self.pipeline(self.queries.get(query_id).text)
        return tuple(self._search(name, query_id, tokens, depth)
                     for name in self.components)

    def _search(self, name: str, query_id: str, tokens, depth: int) -> RankedList:
        if name == "bm25":
            return self.index.bm25_search(tokens, self.bm25_params, depth)
        if name == "w2v-cent":
            try:
                qvec = centroid(tokens, self.word_vectors, self.pipeline.idf_table)
            except CentroidError as exc:
                log.warning("query %s: no centroid (%s); empty list", query_id, exc)
                return RankedList(presorted=True)
            return knn_search(qvec, self.cent_store, depth)
        if query_id not in self.query_store:
            raise KeyError(f"no vector for query {query_id!r}")
        qvec = self.query_store.get(query_id)
        if np.linalg.norm(qvec) == 0:
            log.warning("query %s: zero doc vector; empty list", query_id)
            return RankedList(presorted=True)
        return knn_search(qvec, self.pool_store, depth)

    def deep_list(self, query_id: str, alpha: float | None = None,
                  parts: tuple[Run, Run] | None = None) -> RankedList:
        """The query's deep list: its one component's, or the fusion of both
        components' lists, read from `parts` when given, else fetched."""
        if len(self.components) == 1:
            return self.fetch(query_id, self.deep)[0]
        a, b = ((part[query_id] for part in parts) if parts
                else self.fetch(query_id, 2 * self.deep))
        return fuse(normalize_scores(a), normalize_scores(b), alpha, self.deep)

    def fusion_parts(self, query_ids) -> tuple[Run, Run]:
        """Both components' runs, each 2 * deep long."""
        run_a, run_b = Run(), Run()
        for query_id in query_ids:
            run_a[query_id], run_b[query_id] = self.fetch(query_id, 2 * self.deep)
        return run_a, run_b

    def deep_run(self, query_ids, alpha: float | None = None,
                 parts: tuple[Run, Run] | None = None) -> Run:
        """Every query's deep list, one query at a time."""
        return Run((q, self.deep_list(q, alpha, parts)) for q in query_ids)


class StageFailed(RuntimeError):
    """A stage of `run_experiment` raised; the cause is chained."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")


class _Stages:
    """Skip-if-done bookkeeping in `manifest.json`, which is rewritten after
    every stage, so a crashed run leaves one naming the stages it finished.
    A stage is done, and its artifacts are read back instead of recomputed,
    when the previous manifest has this run's hash, its timings list the
    stage, and the stage's outputs exist. A manifest that is not JSON, or not
    an object with a timings object, counts as no stage done."""

    def __init__(self, outdir: Path, manifest: dict):
        self.path = outdir / "manifest.json"
        self.manifest = manifest
        self.timings: dict[str, float] = {}
        manifest["timings"] = self.timings
        self.done: set[str] = set()
        try:
            previous = json.loads(self.path.read_text())
        except (OSError, ValueError):
            previous = None
        if (isinstance(previous, dict) and isinstance(previous.get("timings"), dict)
                and previous.get("manifest_hash") == manifest["manifest_hash"]):
            self.done = set(previous["timings"])
        self.write()

    def write(self) -> None:
        self.path.write_text(json.dumps(self.manifest, indent=2, sort_keys=True))

    def run(self, name: str, outputs: list[Path], build, load=lambda: None):
        """build()'s value, or load()'s when the stage is done."""
        if name in self.done and all(p.exists() for p in outputs):
            log.info("stage %s: outputs up to date, skipped", name)
            self.timings[name] = 0.0
            result = load()
        else:
            start = time.perf_counter()
            try:
                result = build()
            except Exception as exc:
                raise StageFailed(name, exc) from exc
            self.timings[name] = round(time.perf_counter() - start, 6)
        self.write()
        return result


@dataclass
class ExperimentResult:
    outdir: Path
    manifest_hash: str
    eval_paths: list[Path] = field(default_factory=list)
    summary_path: Path | None = None


def run_experiment(config: ExperimentConfig, outdir) -> ExperimentResult:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    resources = {str(p): hash_file(p) for p in sorted(config.input_paths())}
    hash_basis = json.dumps({"config": config.raw, "resources": resources,
                             "version": __version__}, sort_keys=True)
    manifest_hash = hashlib.sha256(hash_basis.encode()).hexdigest()
    tag = f"manifest {manifest_hash}"
    stages = _Stages(outdir, {"config": config.raw, "resources": resources,
                              "version": __version__,
                              "manifest_hash": manifest_hash})

    pool = ingest_collection(config.pool_path)
    queries = ingest_collection(config.queries_path)
    qrels = load_qrels(config.qrels_path, query_corpus=queries, pool_corpus=pool)
    splits = SplitManifest.from_json(config.splits_path)
    splits.validate(query_corpus=queries, pool_corpus=pool, qrels=qrels)

    stopwords = (load_stopwords(config.stopwords_path)
                 if config.stopwords_path else None)
    pipeline = build_pipeline(pool, stopwords=stopwords,
                              idf_filter=config.idf_filter)

    word_vectors = (load_word_vectors(config.word_vectors_path)
                    if config.word_vectors_path else None)

    index = None
    bm25_params = config.bm25_params or Bm25Params()
    if config.needs_bm25:
        index_path = outdir / "index.bin"

        def index_stage():
            built = build_index(pool, pipeline)
            save_index(built, index_path)
            return built

        # the format version is part of the stage name (the checkpoints'
        # too), so a file of an older format in a reused output directory
        # is rebuilt instead of skipped
        index = stages.run(f"index-v{INDEX_VERSION}", [index_path], index_stage,
                           lambda: load_index(index_path))
        if config.bm25_tune:
            grid_path = outdir / "bm25_grid.csv"
            params_path = outdir / "bm25_params.json"

            def tune_stage():
                dev_tokens = {q: pipeline(queries.get(q).text)
                              for q in splits.dev_ids}
                best, cells = tune_bm25(index, dev_tokens, qrels,
                                        config.bm25_grid_k1, config.bm25_grid_b,
                                        config.k)
                write_grid_csv(cells, grid_path, comment=tag)
                write_params(best, params_path)
                return best

            bm25_params = stages.run("tune-bm25", [grid_path, params_path],
                                     tune_stage, lambda: read_params(params_path))

    cent_store = None
    if "w2v-cent" in config.components:
        cent_path = outdir / "centroids.vec"

        def centroid_stage():
            built = build_centroid_store(pool, pipeline, word_vectors)
            save_doc_vectors(built, cent_path)
            return built

        cent_store = stages.run("centroids", [cent_path], centroid_stage,
                                lambda: load_doc_vectors(cent_path))

    pool_store = query_store = None
    if "doc-vectors" in config.components:
        pool_store = load_doc_vectors(config.pool_vectors_path)
        pool_store.validate_against(pool)
        query_store = load_doc_vectors(config.query_vectors_path)

    prefetcher = Prefetcher(config.components, config.k, queries, pipeline,
                            index, bm25_params, word_vectors, cent_store,
                            pool_store, query_store)

    need_train = config.rerank_model != "none"
    split_ids = {"test": splits.test_ids}
    if need_train:
        split_ids["train"] = splits.train_ids
        split_ids["dev"] = splits.dev_ids
    elif config.fusion_tune or config.datefilter_tune:
        split_ids["dev"] = splits.dev_ids

    alpha_path = outdir / "fusion_alpha.json"

    def prefetch_stage():
        alpha, dev_parts = config.fusion_alpha, None
        if config.fusion_tune:
            # tune on the dev components the dev split fetches anyway: each
            # list is a prefix of one total order, so the top `deep` of a
            # deeper fetch is exactly what a `deep` fetch returns
            dev_parts = prefetcher.fusion_parts(splits.dev_ids)
            alpha, grid = tune_alpha(
                *(run.truncated(prefetcher.deep) for run in dev_parts),
                qrels, config.fusion_grid, config.k)
            write_alpha_grid_csv(grid, outdir / "alpha_grid.csv", comment=tag)
            write_alpha(alpha, alpha_path)
        runs = {split: prefetcher.deep_run(ids, alpha,
                                           dev_parts if split == "dev" else None)
                for split, ids in split_ids.items()}
        for split, run in runs.items():
            write_run(run, outdir / f"prefetch_{split}.tsv", comment=tag)
        return alpha, runs

    def read_prefetch():
        alpha = read_alpha(alpha_path) if config.fusion_tune else config.fusion_alpha
        return alpha, {split: read_run(outdir / f"prefetch_{split}.tsv")
                       for split in split_ids}

    prefetch_outputs = [outdir / f"prefetch_{s}.tsv" for s in split_ids]
    if config.fusion_tune:
        prefetch_outputs.append(alpha_path)
    alpha, prefetch = stages.run("prefetch", prefetch_outputs, prefetch_stage,
                                 read_prefetch)

    window = None
    if config.datefilter_years is not None or config.datefilter_tune:
        years = config.datefilter_years
        if config.datefilter_tune:
            years = choose_window(prefetch["dev"], qrels, queries, pool,
                                  config.datefilter_grid, config.datefilter_mode,
                                  config.k, config.eval_k)
            (outdir / "datefilter_years.json").write_text(json.dumps({"years": years}))
        window = DateWindow(years, config.datefilter_mode)

    hist_path = outdir / "year_hist.csv"
    stages.run("year-hist", [hist_path],
               lambda: write_year_hist_csv(
                   year_diff_histogram(qrels.restrict(splits.dev_ids
                                                      if "dev" in split_ids
                                                      else splits.test_ids),
                                       queries, pool),
                   hist_path, comment=tag))

    rk_path = outdir / "rk_curve.csv"
    stages.run("rk-curve", [rk_path],
               lambda: write_rk_curve_csv(
                   emit_rk_curve(prefetch["test"], qrels.restrict(splits.test_ids),
                                 prefetcher.deep),
                   rk_path, comment=tag))

    eval_paths: list[Path] = []
    summary_path = None
    if need_train:
        hp = config.rerank_hyperparams
        if config.rerank_embeddings == "word":
            provider = TypeEmbeddings(word_vectors)
        else:
            provider = load_token_vectors(config.token_vectors_path)
        store = FeatureStore(config.rerank_model, provider, pipeline,
                             queries, pool, hp)
        train_cands, dev_cands, test_cands = (
            candidates(prefetch[split], config.k, window, queries, pool)
            for split in ("train", "dev", "test"))
        reports = []
        for seed in config.rerank_seeds:
            ck_path = outdir / f"checkpoint_seed{seed}.bin"
            log_path = outdir / f"training_log_seed{seed}.csv"
            rr_path = outdir / f"reranked_test_seed{seed}.tsv"
            ev_path = outdir / f"eval_test_seed{seed}.csv"

            def train_stage(seed=seed, ck=ck_path, lg=log_path, rr=rr_path,
                            ev=ev_path):
                result = train_model(config.rerank_model, splits.train_ids,
                                     splits.dev_ids, qrels,
                                     {**train_cands, **dev_cands},
                                     store, replace(hp, seed=seed))
                save_checkpoint(result, ck)
                write_training_log(result.log_rows, lg, comment=tag)
                reranked = finalize(result.reranker(store).rerank_run(test_cands),
                                    window, queries, pool)
                write_run(reranked, rr, comment=tag)
                report = evaluate_run(reranked, qrels.restrict(splits.test_ids),
                                      k=config.eval_k)
                write_eval_csv(report, ev, comment=tag)
                return report

            # the eval CSV, not the run file, holds a list the window emptied
            reports.append(stages.run(
                f"train-v{CHECKPOINT_VERSION}-seed{seed}",
                [ck_path, log_path, rr_path, ev_path], train_stage,
                lambda: read_eval_csv(ev_path)))
            eval_paths.append(ev_path)
        if len(reports) > 1:
            summary_path = outdir / "eval_summary.csv"
            write_summary_csv(aggregate_runs(reports), summary_path, comment=tag)
    else:
        final = finalize(candidates(prefetch["test"], config.k, window, queries,
                                    pool), window, queries, pool)
        ev_path = outdir / "eval_test.csv"

        def eval_stage():
            write_run(final, outdir / "final_test.tsv", comment=tag)
            write_eval_csv(evaluate_run(final, qrels.restrict(splits.test_ids),
                                        k=config.eval_k), ev_path, comment=tag)

        stages.run("evaluate", [ev_path, outdir / "final_test.tsv"], eval_stage)
        eval_paths.append(ev_path)

    stages.manifest["bm25_params"] = ({"k1": bm25_params.k1, "b": bm25_params.b}
                                      if config.needs_bm25 else None)
    stages.manifest["fusion_alpha"] = alpha
    stages.write()
    return ExperimentResult(outdir, manifest_hash, eval_paths, summary_path)
