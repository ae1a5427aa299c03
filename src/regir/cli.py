"""Command-line front end.

Every stage of an experiment is its own subcommand operating on files
(collections, run TSVs, grids, checkpoints), and `run` drives the whole
pipeline from one config file.
"""

from __future__ import annotations

import json
import logging
import statistics
from pathlib import Path

import click

from . import __version__
from .bm25 import (Bm25Params, build_index, default_grid, load_index,
                   read_params, save_index, tune_bm25, write_grid_csv,
                   write_params)
from .corpus import (convert_collection, corpus_stats, ingest_collection,
                     load_qrels, write_collection, SplitManifest)
from .datefilter import (DateWindow, candidates, finalize, write_year_hist_csv,
                         year_diff_histogram)
from .dense import (build_centroid_store, load_doc_vectors, load_word_vectors,
                    save_doc_vectors)
from .experiment import (Prefetcher, StageFailed, emit_rk_curve, load_config,
                         parse_components, run_experiment, write_rk_curve_csv,
                         _parse_range)
from .fusion import (default_alpha_grid, fuse_runs, tune_alpha,
                     write_alpha_grid_csv)
from .metrics import (aggregate_runs, evaluate_run, read_eval_csv,
                      write_eval_csv, write_summary_csv)
from .ranking import RankedList, Run, read_run, write_run
from .rerank.features import TypeEmbeddings, load_token_vectors
from .rerank.train import (FeatureStore, Hyperparams, TrainingDiverged,
                           load_checkpoint, save_checkpoint, train_model,
                           write_training_log)
from .text import build_pipeline, load_stopwords

log = logging.getLogger(__name__)


_REPORTED = (ValueError, KeyError, OSError, TrainingDiverged)


class _Main(click.Group):
    """The error boundary of every command: what the library raises about
    bad input or a diverged training run becomes a one-line error, also when
    a stage of `regir run` raised it."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _REPORTED as exc:
            raise click.ClickException(str(exc)) from exc
        except StageFailed as exc:
            if not isinstance(exc.__cause__, _REPORTED):
                raise
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__)
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
def main(verbose):
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


_in = click.Path(exists=True, dir_okay=False, path_type=Path)
_out = click.Path(dir_okay=False, path_type=Path, writable=True)
_positive = click.IntRange(min=1)


def _query_ids(query_corpus, splits_path: Path | None, split: str | None):
    """The split's query ids (default test); every query without a split
    manifest."""
    if splits_path is None:
        return sorted(query_corpus.ids)
    manifest = SplitManifest.from_json(splits_path)
    split = split or "test"
    try:
        return {"train": manifest.train_ids, "dev": manifest.dev_ids,
                "test": manifest.test_ids}[split]
    except KeyError:
        raise click.ClickException(f"unknown split {split!r}") from None


@main.command()
@click.option("--collection", type=_in, required=True, help="JSONL collection.")
@click.option("--out", type=_out, help="Write the validated canonical JSONL here.")
@click.option("--stats-out", type=_out, help="Write summary statistics JSON here.")
def ingest(collection, out, stats_out):
    """Validate a collection and report summary statistics."""
    corpus = ingest_collection(collection)
    stats = corpus_stats(corpus)
    click.echo(f"{stats.doc_count} documents")
    click.echo(f"mean tokens {stats.mean_tokens:.1f}, median {stats.median_tokens:.1f}")
    known_years = {y: c for y, c in stats.year_histogram.items() if y}
    if known_years:
        click.echo(f"years {min(known_years)}..{max(known_years)}; "
                   f"{stats.year_histogram.get(0, 0)} without a year")
    if stats.empty_body_count:
        click.echo(f"{stats.empty_body_count} empty bodies")
    if out:
        write_collection(corpus, out)
    if stats_out:
        stats_out.write_text(json.dumps(stats.as_dict(), indent=2))


@main.command()
@click.option("--in", "src", type=_in, required=True,
              help="Third-party archive (JSON array or JSONL).")
@click.option("--out", type=_out, required=True)
@click.option("--map", "mapping", multiple=True, metavar="CANON=SRC",
              help="Field mapping, e.g. --map doc_id=id (repeatable).")
def convert(src, out, mapping):
    """Convert a foreign archive to the canonical JSONL layout."""
    field_map = {}
    for item in mapping:
        if "=" not in item:
            raise click.ClickException(f"--map expects CANON=SRC, got {item!r}")
        canon, _, source = item.partition("=")
        if canon not in ("doc_id", "title", "body", "year"):
            raise click.ClickException(f"unknown canonical field {canon!r}")
        field_map[canon] = source
    corpus = convert_collection(src, out, field_map)
    click.echo(f"wrote {len(corpus)} documents to {out}")


@main.command()
@click.option("--collection", type=_in, required=True)
@click.option("--out", type=_out, required=True, help="Index file.")
@click.option("--stopwords", type=_in, help="Custom stopword list.")
@click.option("--no-idf-filter", is_flag=True,
              help="Skip the idf-threshold denoising stage.")
def index(collection, out, stopwords, no_idf_filter):
    """Build the inverted index over a pool collection."""
    corpus = ingest_collection(collection)
    words = load_stopwords(stopwords) if stopwords else None
    pipeline = build_pipeline(corpus, stopwords=words,
                              idf_filter=not no_idf_filter)
    idx = build_index(corpus, pipeline)
    save_index(idx, out)
    click.echo(f"indexed {idx.doc_count} documents, {len(idx.terms)} terms, "
               f"avg length {idx.avg_len:.1f}")


@main.command(name="tune-bm25")
@click.option("--index", "index_path", type=_in, required=True)
@click.option("--queries", type=_in, required=True, help="Query collection JSONL.")
@click.option("--qrels", type=_in, required=True)
@click.option("--splits", type=_in, help="Split manifest JSON.")
@click.option("--split", default="dev", show_default=True)
@click.option("--k", type=_positive, default=100, show_default=True)
@click.option("--out", type=_out, required=True, help="Grid CSV.")
@click.option("--params-out", type=_out, help="Write the winning k1/b JSON here.")
@click.option("--grid-k1", help="start:stop:step or comma list.")
@click.option("--grid-b", help="start:stop:step or comma list.")
def tune_bm25_cmd(index_path, queries, qrels, splits, split, k, out, params_out,
                  grid_k1, grid_b):
    """Sweep (k1, b) maximizing R@k and export the recall grid."""
    idx = load_index(index_path)
    query_corpus = ingest_collection(queries)
    judgments = load_qrels(qrels)
    ids = _query_ids(query_corpus, splits, split)
    tokens = {q: idx.pipeline(query_corpus.get(q).text) for q in ids}
    k1_grid, b_grid = default_grid()
    if grid_k1:
        k1_grid = _parse_range(grid_k1, "--grid-k1")
    if grid_b:
        b_grid = _parse_range(grid_b, "--grid-b")
    best, cells = tune_bm25(idx, tokens, judgments, k1_grid, b_grid, k)
    write_grid_csv(cells, out)
    best_cell = max(c.recall_at_k for c in cells)
    click.echo(f"best k1={best.k1} b={best.b} with R@{k}={best_cell:.4f} "
               f"({len(cells)} cells)")
    if params_out:
        write_params(best, params_out)


@main.command()
@click.option("--collection", type=_in, required=True, help="Pool collection.")
@click.option("--word-vectors", type=_in, required=True)
@click.option("--out", type=_out, required=True, help="Centroid store file.")
@click.option("--index", "index_path", type=_in, required=True,
              help="Index whose text pipeline denoises the pool.")
@click.option("--on-empty", type=click.Choice(["skip-document", "error"]),
              default="skip-document", show_default=True)
def vectors(collection, word_vectors, out, index_path, on_empty):
    """Precompute tf-idf weighted centroid vectors for every pool document."""
    corpus = ingest_collection(collection)
    pipeline = load_index(index_path).pipeline
    wv = load_word_vectors(word_vectors)
    store = build_centroid_store(corpus, pipeline, wv, on_empty=on_empty)
    save_doc_vectors(store, out)
    click.echo(f"wrote {len(store)} centroids of dim {store.dim}")


@main.command()
@click.option("--mode", type=click.Choice(["bm25", "w2v-cent", "doc-vectors",
                                           "ensemble"]), required=True)
@click.option("--k", type=_positive, default=100, show_default=True)
@click.option("--queries", type=_in, required=True)
@click.option("--out", type=_out, required=True, help="Run TSV.")
@click.option("--splits", type=_in)
@click.option("--split", default=None, help="Restrict queries to this split.")
@click.option("--index", "index_path", type=_in,
              help="BM25 index; its text pipeline serves bm25 and w2v-cent.")
@click.option("--params", type=_in, help="k1/b JSON from tune-bm25.")
@click.option("--collection", type=_in,
              help="Pool collection: publication years for --date-filter.")
@click.option("--word-vectors", type=_in)
@click.option("--centroids", type=_in, help="Precomputed pool centroid store.")
@click.option("--pool-vectors", type=_in)
@click.option("--query-vectors", type=_in)
@click.option("--components", help="Two of bm25,w2v-cent,doc-vectors.")
@click.option("--alpha", type=float, help="Ensemble weight on the first component.")
@click.option("--date-filter", "date_filter", type=float,
              help="Maximum |year(doc) - year(query)| to keep.")
@click.option("--filter-mode", type=click.Choice(["pre", "post"]), default="pre",
              show_default=True)
def prefetch(mode, k, queries, out, splits, split, index_path, params,
             collection, word_vectors, centroids, pool_vectors, query_vectors,
             components, alpha, date_filter, filter_mode):
    """First-stage retrieval into a run file: the candidate lists `regir run`
    takes on for the same settings."""
    if mode == "ensemble":
        if not components or alpha is None:
            raise click.ClickException("ensemble needs --components and --alpha")
        names = parse_components(components, "--components")
    else:
        names = (mode,)
    if "bm25" in names and index_path is None:
        raise click.ClickException("bm25 needs --index")
    if "w2v-cent" in names and None in (index_path, word_vectors, centroids):
        raise click.ClickException("w2v-cent needs --index, --word-vectors "
                                   "and --centroids")
    if "doc-vectors" in names and (pool_vectors is None or query_vectors is None):
        raise click.ClickException("doc-vectors needs --pool-vectors "
                                   "and --query-vectors")
    if date_filter is not None and collection is None:
        raise click.ClickException("--date-filter needs --collection for "
                                   "publication years")
    window = DateWindow(date_filter, filter_mode) if date_filter is not None else None

    query_corpus = ingest_collection(queries)
    ids = _query_ids(query_corpus, splits, split)
    bm25_params = read_params(params) if params else Bm25Params()
    pool_corpus = ingest_collection(collection) if collection else None
    index = (load_index(index_path) if {"bm25", "w2v-cent"} & set(names)
             else None)
    cent, dense = "w2v-cent" in names, "doc-vectors" in names
    stage = Prefetcher(names, k, query_corpus, getattr(index, "pipeline", None),
                       index, bm25_params,
                       load_word_vectors(word_vectors) if cent else None,
                       load_doc_vectors(centroids) if cent else None,
                       load_doc_vectors(pool_vectors) if dense else None,
                       load_doc_vectors(query_vectors) if dense else None)
    run = finalize(candidates(stage.deep_run(ids, alpha), k, window, query_corpus,
                              pool_corpus), window, query_corpus, pool_corpus)
    write_run(run, out)
    click.echo(f"wrote {len(run)} ranked lists to {out}")


@main.command(name="fuse")
@click.option("--run-a", type=_in, required=True)
@click.option("--run-b", type=_in, required=True)
@click.option("--k", type=_positive, default=100, show_default=True)
@click.option("--alpha", type=float, help="Weight on run-a.")
@click.option("--tune-alpha", "do_tune", is_flag=True)
@click.option("--qrels", type=_in, help="Judgments for --tune-alpha.")
@click.option("--grid", help="Alpha grid, start:stop:step or a comma list "
              "[default: 0:1:0.05].")
@click.option("--grid-out", type=_out, help="Alpha grid CSV.")
@click.option("--out", type=_out, required=True)
def fuse_cmd(run_a, run_b, k, alpha, do_tune, qrels, grid, grid_out, out):
    """Combine two run files with a convex score combination."""
    a, b = read_run(run_a), read_run(run_b)
    if do_tune:
        if qrels is None:
            raise click.ClickException("--tune-alpha needs --qrels")
        judgments = load_qrels(qrels)
        alpha_grid = _parse_range(grid, "--grid") if grid else default_alpha_grid()
        alpha, cells = tune_alpha(a, b, judgments, alpha_grid, k)
        click.echo(f"tuned alpha={alpha}")
        if grid_out:
            write_alpha_grid_csv(cells, grid_out)
    elif alpha is None:
        raise click.ClickException("give --alpha or --tune-alpha")
    fused = fuse_runs(a, b, alpha, k)
    write_run(fused, out)
    click.echo(f"wrote {len(fused)} fused lists to {out}")


def _provider(word_vectors, token_vectors):
    if (word_vectors is None) == (token_vectors is None):
        raise click.ClickException("give exactly one of --word-vectors / "
                                   "--token-vectors")
    if word_vectors is not None:
        return TypeEmbeddings(load_word_vectors(word_vectors))
    return load_token_vectors(token_vectors)


@main.command()
@click.option("--model", type=click.Choice(["drmm", "pacrr"]), required=True)
@click.option("--run", "run_path", type=_in, required=True,
              help="Pre-fetched lists covering train and dev queries.")
@click.option("--queries", type=_in, required=True)
@click.option("--collection", type=_in, required=True, help="Pool collection.")
@click.option("--qrels", type=_in, required=True)
@click.option("--splits", type=_in, required=True)
@click.option("--index", "index_path", type=_in, required=True,
              help="Index whose text pipeline denoises the text.")
@click.option("--word-vectors", type=_in)
@click.option("--token-vectors", type=_in)
@click.option("--hyperparams", type=_in, help="Flat key=value file.")
@click.option("--seed", type=int, help="Overrides the hyperparameter seed.")
@click.option("--out", type=_out, required=True, help="Checkpoint file.")
@click.option("--log", "log_path", type=_out, help="Training log CSV.")
def train(model, run_path, queries, collection, qrels, splits, index_path,
          word_vectors, token_vectors, hyperparams, seed, out, log_path):
    """Train a neural re-ranker with pairwise hinge loss."""
    from dataclasses import replace

    query_corpus = ingest_collection(queries)
    pool_corpus = ingest_collection(collection)
    pipeline = load_index(index_path).pipeline
    judgments = load_qrels(qrels, query_corpus=query_corpus,
                           pool_corpus=pool_corpus)
    manifest = SplitManifest.from_json(splits)
    run = read_run(run_path)
    hp = Hyperparams.from_file(hyperparams) if hyperparams else Hyperparams()
    if seed is not None:
        hp = replace(hp, seed=seed)
    provider = _provider(word_vectors, token_vectors)
    store = FeatureStore(model, provider, pipeline, query_corpus, pool_corpus, hp)
    result = train_model(model, manifest.train_ids, manifest.dev_ids, judgments,
                         run, store, hp)
    save_checkpoint(result, out)
    if log_path:
        write_training_log(result.log_rows, log_path)
    click.echo(f"best dev R@20 {result.best_dev_r20:.4f} at epoch "
               f"{result.best_epoch}; w_r={result.w_r:.4f} w_p={result.w_p:.4f}; "
               f"{result.skipped_positives} relevant doc(s) outside the "
               f"pre-fetched lists")


@main.command()
@click.option("--checkpoint", type=_in, required=True)
@click.option("--run", "run_path", type=_in, required=True)
@click.option("--queries", type=_in, required=True)
@click.option("--collection", type=_in, required=True)
@click.option("--index", "index_path", type=_in, required=True,
              help="Index whose text pipeline denoises the text.")
@click.option("--word-vectors", type=_in)
@click.option("--token-vectors", type=_in)
@click.option("--k", type=_positive,
              help="Re-rank the top k; a pre filter refills to k.")
@click.option("--date-filter", "date_filter", type=float)
@click.option("--filter-mode", type=click.Choice(["pre", "post"]), default="post",
              show_default=True)
@click.option("--out", type=_out, required=True)
def rerank(checkpoint, run_path, queries, collection, index_path, word_vectors,
           token_vectors, k, date_filter, filter_mode, out):
    """Re-rank pre-fetched lists with a trained checkpoint."""
    query_corpus = ingest_collection(queries)
    pool_corpus = ingest_collection(collection)
    pipeline = load_index(index_path).pipeline
    result = load_checkpoint(checkpoint)
    provider = _provider(word_vectors, token_vectors)
    store = FeatureStore(result.model.kind, provider, pipeline, query_corpus,
                         pool_corpus, result.hp)
    window = DateWindow(date_filter, filter_mode) if date_filter is not None else None
    run = candidates(read_run(run_path), k, window, query_corpus, pool_corpus)
    reranked = finalize(result.reranker(store).rerank_run(run), window,
                        query_corpus, pool_corpus)
    write_run(reranked, out)
    click.echo(f"re-ranked {len(reranked)} lists with w_r={result.w_r:.4f} "
               f"w_p={result.w_p:.4f}")


@main.command(name="date-filter")
@click.option("--run", "run_path", type=_in, required=True)
@click.option("--queries", type=_in, required=True)
@click.option("--collection", type=_in, required=True)
@click.option("--years", type=float, required=True)
@click.option("--mode", type=click.Choice(["pre", "post"]), default="post",
              show_default=True)
@click.option("--k", type=_positive,
              help="Keep each list's top k, refilled to k in pre mode.")
@click.option("--out", type=_out, required=True)
def date_filter_cmd(run_path, queries, collection, years, mode, k, out):
    """Drop candidates published too far from the query year."""
    query_corpus = ingest_collection(queries)
    pool_corpus = ingest_collection(collection)
    run = read_run(run_path)
    window = DateWindow(years, mode)
    filtered = finalize(candidates(run, k, window, query_corpus, pool_corpus),
                        window, query_corpus, pool_corpus)
    write_run(filtered, out)
    kept = sum(len(r) for r in filtered.values())
    total = sum(len(r) for r in run.values())
    click.echo(f"kept {kept}/{total} entries across {len(filtered)} lists")


@main.command()
@click.option("--run", "run_path", type=_in, required=True)
@click.option("--qrels", type=_in, required=True)
@click.option("--k", type=_positive, default=20, show_default=True)
@click.option("--splits", type=_in)
@click.option("--split", default=None)
@click.option("--out", type=_out, help="Per-query metrics CSV.")
def evaluate(run_path, qrels, k, splits, split, out):
    """Score a run file against judgments. With --splits, every query of the
    split is scored, and one absent from the run file (a list the date window
    emptied is written as no lines) counts as an empty list."""
    run = read_run(run_path)
    judgments = load_qrels(qrels)
    if splits:
        run = Run({q: run.get(q, RankedList())
                   for q in _query_ids(None, splits, split)})
    report = evaluate_run(run, judgments, k=k)
    for metric, value in report.macro.items():
        click.echo(f"{metric} {value:.4f}")
    if report.excluded_query_ids:
        click.echo(f"excluded {len(report.excluded_query_ids)} queries without "
                   f"relevant documents")
    if out:
        write_eval_csv(report, out)


@main.group()
def report():
    """Summaries over finished runs."""


@report.command()
@click.option("--eval", "eval_paths", type=_in, multiple=True, required=True,
              help="Per-seed eval CSVs (repeatable).")
@click.option("--out", type=_out, required=True)
def aggregate(eval_paths, out):
    """Mean and standard deviation across seeded runs."""
    summary = aggregate_runs([read_eval_csv(path) for path in eval_paths])
    write_summary_csv(summary, out)
    for metric, (mean, sd) in summary.items():
        click.echo(f"{metric} {mean:.4f} (+/- {sd:.4f})")


@report.command(name="rk-curve")
@click.option("--run", "run_path", type=_in, required=True)
@click.option("--qrels", type=_in, required=True)
@click.option("--k-max", type=_positive, required=True)
@click.option("--out", type=_out, required=True)
def rk_curve(run_path, qrels, k_max, out):
    """R@k for k = 1..k_max from a deep run file."""
    rows = emit_rk_curve(read_run(run_path), load_qrels(qrels), k_max)
    write_rk_curve_csv(rows, out)
    click.echo(f"R@{k_max} = {rows[-1][1]:.4f}")


@report.command(name="year-hist")
@click.option("--qrels", type=_in, required=True)
@click.option("--queries", type=_in, required=True)
@click.option("--collection", type=_in, required=True)
@click.option("--out", type=_out, required=True)
def year_hist(qrels, queries, collection, out):
    """Histogram of year(relevant) - year(query) over judged pairs."""
    hist = year_diff_histogram(load_qrels(qrels), ingest_collection(queries),
                               ingest_collection(collection))
    write_year_hist_csv(hist, out)
    if hist:
        mode_diff = max(hist, key=lambda d: (hist[d], -abs(d)))
        click.echo(f"{sum(hist.values())} pairs, mode at {mode_diff:+d} years, "
                   f"mean {statistics.fmean([d for d in hist.elements()]):+.2f}")
    else:
        click.echo("no judged pairs with known years on both sides")


@main.command(name="run")
@click.option("--config", type=_in, required=True, help="Flat key=value config.")
@click.option("--out", "outdir", type=click.Path(file_okay=False, path_type=Path),
              required=True)
def run_cmd(config, outdir):
    """Run a whole experiment from a config file."""
    cfg = load_config(config)
    result = run_experiment(cfg, outdir)
    click.echo(f"manifest {result.manifest_hash}")
    for path in result.eval_paths:
        macro = read_eval_csv(path).macro
        metrics = " ".join(f"{m}={v:.4f}" for m, v in macro.items())
        click.echo(f"{path.name}: {metrics}")
    if result.summary_path:
        click.echo(f"summary: {result.summary_path}")


if __name__ == "__main__":
    main()
