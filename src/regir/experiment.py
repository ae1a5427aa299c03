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

import ctypes
import hashlib
import json
import logging
import platform
import time
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .bm25 import (INDEX_VERSION, Bm25Params, PostingsIndex, build_index,
                   default_grid, load_index, read_params, save_index,
                   tune_bm25, write_grid_csv, write_params)
from .corpus import Corpus, SplitManifest, ingest_collection, load_qrels
from .datefilter import (DEFAULT_MODE, MODES, DateWindow, candidates, choose_window,
                         finalize, read_years, write_year_hist_csv, write_years,
                         year_diff_histogram)
from .dense import (CentroidError, DocVectorStore, WordVectors,
                    build_centroid_store, centroid, knn_search,
                    load_doc_vectors, load_word_vectors, save_doc_vectors)
from .fusion import (default_alpha_grid, fuse, fuse_runs, read_alpha, tune_alpha,
                     write_alpha, write_alpha_grid_csv)
from .metrics import (aggregate_runs, emit_rk_curve, evaluate_run, write_eval_csv,
                      write_rk_curve_csv, write_summary_csv)
from .ranking import RankedList, Run, lists_for, per_query, read_run, write_run
from .rerank.features import TypeEmbeddings, load_token_vectors
from .rerank.train import (CHECKPOINT_VERSION, DEV_K, FeatureStore,
                           Hyperparams, load_checkpoint, rerank_run,
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


def _parse_range(raw: str, key: str, base=None) -> list[float]:
    """'start:stop:step' inclusive grid, or a comma-separated list, of at
    most MAX_GRID_VALUES values; a range's count is checked before any value
    is built. A range's values are rounded to 4 decimals; a range that
    repeats a value once rounded (a step below 1e-4, or a start between two
    4-decimal values), or whose rounding moves a value outside
    [start, stop], is refused."""
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
        outside = [v for v in values if not start - 1e-9 <= v <= stop + 1e-9]
        if outside:
            raise ConfigError(f"{key}: {raw.strip()!r} gives {outside[0]} once "
                              f"rounded to 4 decimals, outside [{parts[0].strip()}, "
                              f"{parts[1].strip()}] "
                              "(use bounds and a step of at most 4 decimals)")
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
    seeds = [parse_number(s, int, key) for s in text.split(",") if s]
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"{key} names seed {seed} twice: each seed trains "
                              f"and writes its own model")
    return seeds


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
    bm25_grid_k1: list[float] = _key("bm25.grid_k1", _parse_range, default_grid()[0])
    bm25_grid_b: list[float] = _key("bm25.grid_b", _parse_range, default_grid()[1])
    fusion_components: tuple[str, str] | None = _key("fusion.components",
                                                     parse_components)
    fusion_alpha: float | None = _key(
        "fusion.alpha", _number(float, lambda a: 0 <= a <= 1, "must be in [0, 1]"))
    fusion_tune: bool = _key("fusion.tune", _flag, False)
    fusion_grid: list[float] = _key("fusion.grid", _parse_range, default_alpha_grid())
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
    datefilter_mode: str = _key("datefilter.mode", _choice(*MODES), DEFAULT_MODE)
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
        for name, key, value in (("bm25", "bm25.k1/b", self.bm25_params),
                                 ("fusion", "fusion.alpha", self.fusion_alpha),
                                 ("datefilter", "datefilter.years", self.datefilter_years)):
            if getattr(self, f"{name}_tune") and value is not None:
                raise ConfigError(f"{name}.tune conflicts with explicit {key}")
        ensemble = self.prefetch_mode == "ensemble"
        if ensemble and self.fusion_components is None:
            raise ConfigError("ensemble mode requires fusion.components")
        if ensemble and self.fusion_alpha is None and not self.fusion_tune:
            raise ConfigError("ensemble mode needs fusion.alpha or fusion.tune")
        if not ensemble:  # checked, but only an ensemble fuses
            self.fusion_components, self.fusion_alpha = None, None
            self.fusion_tune = False
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
        """Every file the config names, the hyperparameters' too, resolved:
        the manifest hash does not depend on how the config's path is spelled."""
        return [path.resolve() for f in _key_fields() if f.metadata["parse"] is _path
                and (path := getattr(self, f.name)) is not None]


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _from_path(path_field: str, read):
    """An `Inputs` value: `read(inputs, path)` of the path in `path_field`,
    None when no path is given."""
    return cached_property(lambda inputs: None if getattr(inputs, path_field) is None
                           else read(inputs, getattr(inputs, path_field)))


def _pool_vectors(inputs: "Inputs", path) -> DocVectorStore:
    """The doc vectors in `path`, checked against the pool when one is given."""
    store = load_doc_vectors(path)
    if inputs.pool is not None:
        store.validate_against(inputs.pool, path, inputs.pool_path)
    return store


@dataclass
class Inputs:
    """The input files of `regir run` or a CLI stage command, by path (None
    where none is given), and the values read from them: each made on first
    use, from only the values it needs, and kept; None without its path. The
    judgments are checked against whichever collections are given, the split
    manifest against those and the judgments, and the index, the centroids
    and the pool's doc vectors against the pool. The text pipeline is the
    index's, given one, else built from the pool. The re-rankers' embeddings
    (`provider`) are the token vectors, given those, else the word vectors';
    `features` makes their feature store."""

    pool_path: Path | None = None
    queries_path: Path | None = None
    qrels_path: Path | None = None
    splits_path: Path | None = None
    index_path: Path | None = None
    stopwords_path: Path | None = None
    idf_filter: bool = True
    word_vectors_path: Path | None = None
    centroids_path: Path | None = None
    pool_vectors_path: Path | None = None
    query_vectors_path: Path | None = None
    token_vectors_path: Path | None = None

    # each loader is looked up when its value is made
    pool = _from_path("pool_path", lambda s, path: ingest_collection(path))
    queries = _from_path("queries_path", lambda s, path: ingest_collection(path))
    qrels = _from_path("qrels_path", lambda s, path: load_qrels(
        path, query_corpus=s.queries, pool_corpus=s.pool))

    @cached_property
    def splits(self) -> SplitManifest | None:
        if self.splits_path is None:
            return None
        splits = SplitManifest.from_json(self.splits_path)
        splits.validate(query_corpus=self.queries, pool_corpus=self.pool,
                        qrels=self.qrels,
                        files={"splits": self.splits_path, "queries": self.queries_path,
                               "pool": self.pool_path, "qrels": self.qrels_path})
        return splits

    @cached_property
    def index(self) -> PostingsIndex | None:
        if self.index_path is None:
            return None
        index = load_index(self.index_path)
        if self.pool is not None and (ids := index.doc_ids.tolist()) != self.pool.ids:
            differ = min(set(ids) ^ set(self.pool.ids))
            raise ValueError(f"{self.index_path}: an index of another pool than "
                             f"{self.pool_path}: {differ!r} is in one of them only")
        return index

    @cached_property
    def pipeline(self) -> TextPipeline:
        if self.index_path is not None:
            return self.index.pipeline
        stopwords = load_stopwords(self.stopwords_path) if self.stopwords_path else None
        return build_pipeline(self.pool, stopwords=stopwords, idf_filter=self.idf_filter)

    word_vectors = _from_path("word_vectors_path",
                              lambda s, path: load_word_vectors(path))
    cent_store = _from_path("centroids_path", _pool_vectors)
    pool_store = _from_path("pool_vectors_path", _pool_vectors)
    query_store = _from_path("query_vectors_path", lambda s, path: load_doc_vectors(path))

    @cached_property
    def provider(self):
        if self.token_vectors_path is not None:
            return load_token_vectors(self.token_vectors_path)
        return TypeEmbeddings(self.word_vectors)

    def features(self, kind: str, hp: Hyperparams) -> FeatureStore:
        return FeatureStore(kind, self.provider, self.pipeline, self.queries,
                            self.pool, hp)

    def read(self, names) -> dict:
        """The named values, made in the order this class defines them."""
        order = list(vars(Inputs))
        return {name: getattr(self, name) for name in sorted(set(names), key=order.index)}

    def query_ids(self, split: str | None) -> list[str]:
        """The ids of the split's queries, or of every query for None."""
        return getattr(self.splits, f"{split}_ids") if split else self.queries.ids


def make_index(pool: Corpus, pipeline: TextPipeline, path) -> PostingsIndex:
    """The index of the pipeline's bags of the pool, saved to `path`."""
    index = build_index(pool, pipeline)
    save_index(index, path)
    return index


def make_centroids(pool: Corpus, pipeline: TextPipeline, word_vectors, path,
                   on_empty: str = "skip-document") -> DocVectorStore:
    """The pool's centroid store (see `build_centroid_store`), saved to `path`."""
    store = build_centroid_store(pool, pipeline, word_vectors, on_empty=on_empty)
    save_doc_vectors(store, path)
    return store


def run_bm25_tuning(index, pipeline: TextPipeline, queries: Corpus, query_ids, qrels,
                    k1_grid, b_grid, k: int, grid_path, params_path=None, comment=""):
    """Tune (k1, b) on the queries' bags (see `tune_bm25`), write the grid
    CSV and, given a path, the winner's JSON; the winner and the cells."""
    bags = pipeline.bags(queries)
    best, cells = tune_bm25(index, {q: bags.counts(queries.row[q]) for q in query_ids},
                            qrels, k1_grid, b_grid, k)
    write_grid_csv(cells, grid_path, comment=comment)
    if params_path is not None:
        write_params(best, params_path)
    return best, cells


def run_alpha_tuning(run_a: Run, run_b: Run, qrels, grid, k: int, grid_path=None,
                     alpha_path=None, comment=""):
    """Tune the fusion weight of `run_a` (see `tune_alpha`) and, given
    paths, write the grid CSV and the winner's JSON; the winner and the cells."""
    alpha, cells = tune_alpha(run_a, run_b, qrels, grid, k)
    if grid_path is not None:
        write_alpha_grid_csv(cells, grid_path, comment=comment)
    if alpha_path is not None:
        write_alpha(alpha, alpha_path)
    return alpha, cells


def run_training(kind: str, splits: SplitManifest, qrels, run: Run, store, hp,
                 checkpoint_path, log_path=None, comment: str = ""):
    """`train_model` on the split's queries' lists in `run`; saves the
    checkpoint and, given a path, the training log. Warns when no epoch beat
    the initial model, whose weights the checkpoint then holds."""
    result = train_model(kind, splits.train_ids, splits.dev_ids, qrels, run, store, hp)
    if result.best_epoch == 0:
        log.warning("seed %d: no epoch beat the initial model's dev R@%d of %r; "
                    "the checkpoint keeps its weights", hp.seed, DEV_K,
                    result.best_dev_r20)
    save_checkpoint(result, checkpoint_path)
    if log_path is not None:
        write_training_log(result.log_rows, log_path, comment=comment)
    return result


def final_lists(deep: Run, k: int | None, window: DateWindow | None, queries: Corpus,
                pool: Corpus, rerankers=()) -> list[Run]:
    """The `candidates` of the deep lists, or each re-ranker's re-ranking of
    them, after the window's `finalize`: one run per re-ranker, else one."""
    cands = candidates(deep, k, window, queries, pool)
    runs = rerank_run(cands, rerankers) if rerankers else [cands]
    return [finalize(run, window, queries, pool) for run in runs]


def score_run(run: Run, qrels, k: int, path=None, comment: str = ""):
    """`evaluate_run` at depth k and, given a path, its eval CSV."""
    report = evaluate_run(run, qrels, k=k)
    if path is not None:
        write_eval_csv(report, path, comment=comment)
    return report


def make_rk_curve(run: Run, qrels, k_max: int, path, comment: str = ""):
    """`emit_rk_curve`'s rows, written to `path`."""
    rows = emit_rk_curve(run, qrels, k_max)
    write_rk_curve_csv(rows, path, comment=comment)
    return rows


def make_year_hist(qrels, queries: Corpus, pool: Corpus, path, comment: str = ""):
    """`year_diff_histogram` of the judged pairs, written to `path`."""
    hist = year_diff_histogram(qrels, queries, pool)
    write_year_hist_csv(hist, path, comment=comment)
    return hist


@dataclass
class Prefetcher:
    """First-stage retrieval by its components: a single pre-fetcher, or
    the fusion of two. Holds what the pre-fetchers read; what the components
    do not use stays None. Shared by `regir run` and `regir prefetch`, which
    fetch one query at a time. bm25 and w2v-cent read a query's term counts
    from the pipeline's bags of the query collection, as the feature store
    does, so a run tokenizes each query once.

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

    @staticmethod
    def reads(components) -> list[str]:
        """The fields that pre-fetching by `components` reads, but for
        `bm25_params`: each the `Inputs` value of the same name."""
        text = not {"bm25", "w2v-cent"}.isdisjoint(components)
        return ["queries", *["pipeline", "index"] * text,
                *["word_vectors", "cent_store"] * ("w2v-cent" in components),
                *["pool_store", "query_store"] * ("doc-vectors" in components)]

    @property
    def deep(self) -> int:
        return 2 * self.k

    def fetch(self, query_id: str, depth: int) -> tuple[RankedList, ...]:
        """Each component's list for the query, `depth` long. A query with no
        indexed term, no centroid or a zero doc vector gets an empty list and
        a warning; one missing from the query collection or the query store
        raises KeyError."""
        tokens = None
        if {"bm25", "w2v-cent"} & set(self.components):
            tokens = self.pipeline.bags(self.queries).counts(self.queries.row[query_id])
        return tuple(self._search(name, query_id, tokens, depth)
                     for name in self.components)

    def _search(self, name: str, query_id: str, tokens, depth: int) -> RankedList:
        if name == "bm25":
            ranking = self.index.bm25_search(tokens, self.bm25_params, depth)
            if not ranking:
                log.warning("query %s: no indexed term; empty list", query_id)
            return ranking
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

    def deep_list(self, query_id: str, alpha: float | None = None) -> RankedList:
        """The query's deep list: its one component's, or the fusion of both
        components' lists, each 2 * deep long."""
        if len(self.components) == 1:
            return self.fetch(query_id, self.deep)[0]
        return fuse(*self.fetch(query_id, 2 * self.deep), alpha, self.deep)

    def fusion_parts(self, query_ids) -> tuple[Run, Run]:
        """Both components' runs, each 2 * deep long."""
        run_a, run_b = Run(), Run()
        for query_id in query_ids:
            run_a[query_id], run_b[query_id] = self.fetch(query_id, 2 * self.deep)
        return run_a, run_b

    def deep_run(self, query_ids, alpha: float | None = None) -> Run:
        """Every query's deep list, one query at a time (see `per_query`)."""
        return Run(per_query(lambda q: self.deep_list(q, alpha), query_ids))


def error_message(exc: Exception) -> str:
    """The exception's message; a KeyError's too, whose str() is the repr of
    its message."""
    return str(exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1
               else exc)


class StageFailed(RuntimeError):
    """A stage of `run_experiment` raised; the cause is chained."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {error_message(cause)}")


def _environment() -> dict:
    """The Python, numpy and BLAS builds a run's bits rest on, and the
    dispatch they took on this CPU: numpy's enabled CPU features and the
    OpenBLAS core. Recorded outside the manifest hash, so another build or
    host still skips finished stages."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_features": _cpu_features(),
            "blas": {"name": blas["name"], "version": blas["version"],
                     "core": _openblas_core()}}


def _cpu_features() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, enabled in __cpu_features__.items() if enabled)


def _openblas_core() -> str | None:
    """The core the OpenBLAS that numpy's wheels bundle dispatched to, None
    where that library or its core query is not found."""
    here = Path(np.__file__).parent
    for lib in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                       *here.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


class _Stages:
    """A run's stage table, which `add` declares and `run` runs, and its
    skip-if-done bookkeeping in `manifest.json`, rewritten after every stage,
    so a crashed run leaves one naming the stages it finished. A stage is
    done, and skipped, its value read back only on demand, when the previous
    manifest has this run's hash, its timings list the stage, and the
    stage's outputs exist. A manifest that is not JSON, or not an object with
    a timings object, counts as no stage done. Before the first build, `run`
    makes the inputs the building stages read, and no other: a bad one is
    refused before any output is written, outside `StageFailed`. Its
    `environment` names, per stage, the builds that stage's artifacts were
    made under: this run's for a built stage, the previous manifest's record
    (None when it has none) for a skipped one."""

    def __init__(self, outdir: Path, manifest: dict):
        self.path = outdir / "manifest.json"
        self.manifest = manifest
        self.table: list[tuple] = []
        self.values: dict = {}
        self.timings: dict[str, float] = {}
        manifest["timings"] = self.timings
        self.environment = _environment()
        self.built_under: dict[str, dict | None] = {}
        manifest["environment"] = self.built_under
        self.previous_under: dict = {}
        self.done: set[str] = set()
        try:
            previous = json.loads(self.path.read_text())
        except (OSError, ValueError):
            previous = None
        if (isinstance(previous, dict) and isinstance(previous.get("timings"), dict)
                and previous.get("manifest_hash") == manifest["manifest_hash"]):
            self.done = set(previous["timings"])
            if isinstance(previous.get("environment"), dict):
                self.previous_under = previous["environment"]
        self.write()

    def write(self) -> None:
        self.path.write_text(json.dumps(self.manifest, indent=2, sort_keys=True))

    def add(self, name: str, outputs: list[Path], reads: tuple[str, ...], build,
            load=lambda: None):
        """Declares a stage: its name, its output files, the `Inputs` values
        it reads, its build, which writes the outputs and gives its value,
        and its load, which reads that value back when the stage is skipped.
        Returns a callable giving the value once `run` ran the stage."""
        self.table.append((name, outputs, reads, build, load))
        return lambda: self.values[name]()

    def run(self, inputs: Inputs) -> None:
        building = {name for name, outputs, *_ in self.table if name not in self.done
                    or not all(p.exists() for p in outputs)}
        inputs.read(value for name, _, reads, *_ in self.table if name in building
                    for value in reads)
        for name, _, _, build, load in self.table:
            if name in building:
                start = time.perf_counter()
                try:
                    built = build()
                except Exception as exc:
                    raise StageFailed(name, exc) from exc
                self.timings[name] = round(time.perf_counter() - start, 6)
                self.built_under[name] = self.environment
                load = lambda built=built: built
            else:
                log.info("stage %s: outputs up to date, skipped", name)
                self.timings[name] = 0.0
                self.built_under[name] = self.previous_under.get(name)
            self.values[name] = cache(load)
            self.write()


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
    need_train = config.rerank_model != "none"
    inputs = Inputs(config.pool_path, config.queries_path, config.qrels_path,
                    config.splits_path, stopwords_path=config.stopwords_path,
                    idf_filter=config.idf_filter,
                    word_vectors_path=config.word_vectors_path,
                    pool_vectors_path=config.pool_vectors_path,
                    query_vectors_path=config.query_vectors_path,
                    token_vectors_path=(config.token_vectors_path
                                        if config.rerank_embeddings == "token" else None))
    # what a stage reads that scores lists or restricts them to a split
    judged = ("pool", "queries", "qrels", "splits")
    features = ("pipeline", "provider") if need_train else ()
    stages = _Stages(outdir, {"config": config.raw, "resources": resources,
                              "version": __version__, "manifest_hash": manifest_hash})

    index = cent_store = lambda: None
    bm25_params = lambda: config.bm25_params or Bm25Params()
    if config.needs_bm25:
        index_path = outdir / "index.bin"
        # the format version is part of the stage name (the checkpoints'
        # too), so a file of an older format in a reused output directory
        # is rebuilt instead of skipped
        index = stages.add(f"index-v{INDEX_VERSION}", [index_path], ("pool", "pipeline"),
                           lambda: make_index(inputs.pool, inputs.pipeline, index_path),
                           lambda: load_index(index_path))
        if config.bm25_tune:
            grid_path = outdir / "bm25_grid.csv"
            params_path = outdir / "bm25_params.json"
            bm25_params = stages.add(
                "tune-bm25", [grid_path, params_path], (*judged, "pipeline"),
                lambda: run_bm25_tuning(index(), inputs.pipeline, inputs.queries,
                                        inputs.splits.dev_ids, inputs.qrels,
                                        config.bm25_grid_k1, config.bm25_grid_b,
                                        config.k, grid_path, params_path, tag)[0],
                lambda: read_params(params_path))

    if "w2v-cent" in config.components:
        cent_path = outdir / "centroids.vec"
        cent_store = stages.add("centroids", [cent_path],
                                ("pool", "pipeline", "word_vectors"),
                                lambda: make_centroids(inputs.pool, inputs.pipeline,
                                                       inputs.word_vectors, cent_path),
                                lambda: load_doc_vectors(cent_path))

    fetched = ["test"]
    if need_train:
        fetched += ["train", "dev"]
    elif config.fusion_tune or config.datefilter_tune:
        fetched.append("dev")
    alpha_path, alpha_grid_path = outdir / "fusion_alpha.json", outdir / "alpha_grid.csv"
    # the index and the centroids are this run's own stages'
    fetch_reads = [name for name in Prefetcher.reads(config.components)
                   if name not in ("index", "cent_store")]

    def prefetch_stage():
        prefetcher = Prefetcher(config.components, config.k, index=index(),
                                bm25_params=bm25_params(), cent_store=cent_store(),
                                **inputs.read(fetch_reads))
        alpha, dev_parts = config.fusion_alpha, None
        if config.fusion_tune:
            # tune on the dev components the dev split fetches anyway (each
            # list is a prefix of one total order, so the top `deep` of a
            # deeper fetch is a `deep` fetch), then fuse them as `regir fuse` does
            dev_parts = prefetcher.fusion_parts(inputs.splits.dev_ids)
            alpha = run_alpha_tuning(
                *(run.truncated(prefetcher.deep) for run in dev_parts), inputs.qrels,
                config.fusion_grid, config.k, alpha_grid_path, alpha_path, tag)[0]
        runs = {split: fuse_runs(*dev_parts, alpha, prefetcher.deep)
                if split == "dev" and dev_parts
                else prefetcher.deep_run(inputs.query_ids(split), alpha)
                for split in fetched}
        for split, run in runs.items():
            write_run(run, outdir / f"prefetch_{split}.tsv", comment=tag)
        return runs

    prefetch_outputs = [outdir / f"prefetch_{split}.tsv" for split in fetched]
    if config.fusion_tune:
        prefetch_outputs += [alpha_path, alpha_grid_path]
    prefetched = stages.add("prefetch", prefetch_outputs,
                            ("splits", *fetch_reads, *["qrels"] * config.fusion_tune),
                            prefetch_stage, dict)

    @cache
    def prefetch(split: str) -> Run:
        """The split's deep lists: built, or, when the stage was skipped and
        loaded nothing, read back on first demand, with an empty list for a
        query the file has no line for."""
        runs = prefetched()
        if split in runs:
            return runs[split]
        return lists_for(read_run(outdir / f"prefetch_{split}.tsv"),
                         inputs.query_ids(split))

    years = lambda: config.datefilter_years
    if config.datefilter_tune:
        years_path = outdir / "datefilter_years.json"

        def tune_window():
            chosen = choose_window(prefetch("dev"), inputs.qrels, inputs.queries,
                                   inputs.pool, config.datefilter_grid,
                                   config.datefilter_mode, config.k, config.eval_k)
            write_years(chosen, years_path)
            return chosen

        years = stages.add("tune-datefilter", [years_path], judged, tune_window,
                           lambda: read_years(years_path, config.datefilter_grid))

    def window() -> DateWindow | None:
        return None if years() is None else DateWindow(years(), config.datefilter_mode)

    @cache
    def cands(split: str) -> Run:
        """The split's candidate lists, cut once for every seed's training."""
        return candidates(prefetch(split), config.k, window(), inputs.queries,
                          inputs.pool)

    # the re-rankers' features, shared by every seed's training and the
    # re-ranking of the test lists
    store = cache(lambda: inputs.features(config.rerank_model,
                                          config.rerank_hyperparams))

    hist_path = outdir / "year_hist.csv"
    stages.add("year-hist", [hist_path], judged,
               lambda: make_year_hist(inputs.qrels.restrict(
                   inputs.query_ids("dev" if "dev" in fetched else "test")),
                   inputs.queries, inputs.pool, hist_path, tag))

    rk_path = outdir / "rk_curve.csv"
    stages.add("rk-curve", [rk_path], ("qrels", "splits"),
               lambda: make_rk_curve(prefetch("test"),
                                     inputs.qrels.restrict(inputs.splits.test_ids),
                                     2 * config.k, rk_path, tag))

    trained = []
    if need_train:
        for seed in config.rerank_seeds:
            ck = outdir / f"checkpoint_seed{seed}.bin"
            lg = outdir / f"training_log_seed{seed}.csv"
            trained.append(stages.add(
                f"train-v{CHECKPOINT_VERSION}-seed{seed}", [ck, lg], (*judged, *features),
                lambda seed=seed, ck=ck, lg=lg: run_training(
                    config.rerank_model, inputs.splits, inputs.qrels,
                    {**cands("train"), **cands("dev")}, store(),
                    replace(config.rerank_hyperparams, seed=seed), ck, lg, tag),
                lambda ck=ck: load_checkpoint(ck)))
        run_paths = [outdir / f"reranked_test_seed{s}.tsv" for s in config.rerank_seeds]
        eval_paths = [outdir / f"eval_test_seed{s}.csv" for s in config.rerank_seeds]
    else:
        run_paths, eval_paths = [outdir / "final_test.tsv"], [outdir / "eval_test.csv"]
    summary_path = outdir / "eval_summary.csv" if len(eval_paths) > 1 else None

    def final_stage():
        """Writes and scores each final run: the test candidates, or each
        seed's re-ranking of them."""
        finals = final_lists(prefetch("test"), config.k, window(), inputs.queries,
                             inputs.pool,
                             [result().reranker(store()) for result in trained])
        test_qrels = inputs.qrels.restrict(inputs.splits.test_ids)
        reports = []
        for final, run_path, eval_path in zip(finals, run_paths, eval_paths):
            write_run(final, run_path, comment=tag)
            reports.append(score_run(final, test_qrels, config.eval_k, eval_path, tag))
        if summary_path:
            write_summary_csv(aggregate_runs(reports), summary_path, comment=tag)

    # the eval CSVs, not the run files, hold a list the window emptied
    stages.add("rerank-test" if need_train else "evaluate",
               run_paths + eval_paths + ([summary_path] if summary_path else []),
               (*judged, *features), final_stage)

    stages.run(inputs)
    stages.manifest["bm25_params"] = ({"k1": bm25_params().k1, "b": bm25_params().b}
                                      if config.needs_bm25 else None)
    stages.manifest["fusion_alpha"] = (read_alpha(alpha_path) if config.fusion_tune
                                       else config.fusion_alpha)
    stages.manifest["datefilter_years"] = years()
    stages.write()
    return ExperimentResult(outdir, manifest_hash, eval_paths, summary_path)
