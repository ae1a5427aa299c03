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
from click.core import ParameterSource

from . import __version__
from .bm25 import Bm25Params, default_grid, read_params
from .corpus import (convert_collection, corpus_stats, ingest_collection,
                     write_collection)
from .datefilter import DEFAULT_MODE, MODES, DateWindow
from .experiment import (PREFETCH_MODES, Inputs, Prefetcher, StageFailed, error_message,
                         final_lists, load_config, make_centroids, make_index,
                         make_rk_curve, make_year_hist, parse_components,
                         run_alpha_tuning, run_bm25_tuning, run_experiment,
                         run_training, score_run, _parse_range)
from .fusion import default_alpha_grid, fuse_runs
from .metrics import aggregate_runs, read_eval_csv, write_summary_csv
from .ranking import lists_for, read_run, write_run
from .rerank.train import Hyperparams, TrainingDiverged, load_checkpoint

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
            raise click.ClickException(error_message(exc)) from exc
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
_window_mode = dict(type=click.Choice(MODES), default=DEFAULT_MODE, show_default=True)


def _split(splits_path: Path | None, split: str | None, default: str = "test"):
    """The split of --splits to use (`default` when --split is not given),
    or None, meaning every query, without --splits. Reads no file: call it
    before reading any input, so that a --split without --splits, or an
    unknown split, is refused first."""
    if splits_path is None and split is not None:
        raise click.ClickException("--split needs --splits")
    if split not in (None, "train", "dev", "test"):
        raise click.ClickException(f"unknown split {split!r}")
    return None if splits_path is None else split or default


def _window(date_filter: float | None, filter_mode: str) -> DateWindow | None:
    """The date window of --date-filter and --filter-mode, None without
    --date-filter, which a given --filter-mode needs. Reads no file."""
    if date_filter is not None:
        return DateWindow(date_filter, filter_mode)
    source = click.get_current_context().get_parameter_source("filter_mode")
    if source is not ParameterSource.DEFAULT:
        raise click.ClickException("--filter-mode needs --date-filter")
    return None


def _check_alpha(alpha: float | None) -> None:
    """Refuses an --alpha outside [0, 1] before any file is read."""
    if alpha is not None and not 0 <= alpha <= 1:
        raise click.ClickException(f"--alpha must be in [0, 1], got {alpha}")


def _scored_run(run_path, qrels_path, splits_path, split):
    """The run file's lists and the judgments a score of it reads: without
    --splits every list of the file, with it each query of the split (test
    by default), a query the file has no line for as an empty list."""
    split = _split(splits_path, split)
    run = read_run(run_path)
    s = Inputs(qrels_path=qrels_path, splits_path=splits_path)
    if split:
        run = lists_for(run, s.query_ids(split))
    return run, s.qrels


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
    s = Inputs(collection, stopwords_path=stopwords, idf_filter=not no_idf_filter)
    idx = make_index(s.pool, s.pipeline, out)
    click.echo(f"indexed {idx.doc_count} documents, {len(idx.terms)} terms, "
               f"avg length {idx.avg_len:.1f}")


@main.command(name="tune-bm25")
@click.option("--index", "index_path", type=_in, required=True)
@click.option("--queries", type=_in, required=True, help="Query collection JSONL.")
@click.option("--qrels", type=_in, required=True)
@click.option("--splits", type=_in, help="Split manifest JSON.")
@click.option("--split", help="Tune on this split [default: dev with --splits, "
              "every query without].")
@click.option("--k", type=_positive, default=100, show_default=True)
@click.option("--out", type=_out, required=True, help="Grid CSV.")
@click.option("--params-out", type=_out, help="Write the winning k1/b JSON here.")
@click.option("--grid-k1", help="start:stop:step or comma list.")
@click.option("--grid-b", help="start:stop:step or comma list.")
def tune_bm25_cmd(index_path, queries, qrels, splits, split, k, out, params_out,
                  grid_k1, grid_b):
    """Sweep (k1, b) maximizing R@k and export the recall grid."""
    split = _split(splits, split, "dev")
    k1_grid = _parse_range(grid_k1, "--grid-k1") if grid_k1 else default_grid()[0]
    b_grid = _parse_range(grid_b, "--grid-b") if grid_b else default_grid()[1]
    s = Inputs(queries_path=queries, qrels_path=qrels, splits_path=splits,
               index_path=index_path)
    ids = s.query_ids(split)
    best, cells = run_bm25_tuning(s.index, s.pipeline, s.queries, ids, s.qrels,
                                  k1_grid, b_grid, k, out, params_out)
    best_cell = max(c.recall_at_k for c in cells)
    click.echo(f"best k1={best.k1} b={best.b} with R@{k}={best_cell:.4f} "
               f"({len(cells)} cells)")


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
    s = Inputs(collection, index_path=index_path, word_vectors_path=word_vectors)
    store = make_centroids(s.pool, s.pipeline, s.word_vectors, out, on_empty)
    click.echo(f"wrote {len(store)} centroids of dim {store.dim}")


@main.command()
@click.option("--mode", type=click.Choice(PREFETCH_MODES), required=True)
@click.option("--k", type=_positive, default=100, show_default=True)
@click.option("--queries", type=_in, required=True)
@click.option("--out", type=_out, required=True, help="Run TSV.")
@click.option("--splits", type=_in)
@click.option("--split", help="Restrict queries to this split of --splits "
              "[default: test].")
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
@click.option("--filter-mode", **_window_mode)
def prefetch(mode, k, queries, out, splits, split, index_path, params,
             collection, word_vectors, centroids, pool_vectors, query_vectors,
             components, alpha, date_filter, filter_mode):
    """First-stage retrieval into a run file: the candidate lists `regir run`
    takes on for the same settings."""
    if mode == "ensemble":
        if not components or alpha is None:
            raise click.ClickException("ensemble needs --components and --alpha")
        names = parse_components(components, "--components")
        _check_alpha(alpha)
    else:
        for option, value in (("--components", components), ("--alpha", alpha)):
            if value is not None:
                raise click.ClickException(f"{option} needs --mode ensemble")
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
    window = _window(date_filter, filter_mode)

    split = _split(splits, split)
    s = Inputs(collection, queries, splits_path=splits, index_path=index_path,
               word_vectors_path=word_vectors, centroids_path=centroids,
               pool_vectors_path=pool_vectors, query_vectors_path=query_vectors)
    ids = s.query_ids(split)
    bm25_params = read_params(params) if params else Bm25Params()
    stage = Prefetcher(names, k, bm25_params=bm25_params,
                       **s.read(Prefetcher.reads(names)))
    [run] = final_lists(stage.deep_run(ids, alpha), k, window, s.queries, s.pool)
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
    if do_tune and alpha is not None:
        raise click.ClickException("--tune-alpha conflicts with explicit --alpha")
    for option, value in (("--grid", grid), ("--grid-out", grid_out)):
        if value is not None and not do_tune:
            raise click.ClickException(f"{option} needs --tune-alpha")
    if do_tune and qrels is None:
        raise click.ClickException("--tune-alpha needs --qrels")
    if not do_tune and alpha is None:
        raise click.ClickException("give --alpha or --tune-alpha")
    _check_alpha(alpha)
    alpha_grid = _parse_range(grid, "--grid") if grid else default_alpha_grid()
    a, b = read_run(run_a), read_run(run_b)
    if do_tune:
        alpha, _ = run_alpha_tuning(a, b, Inputs(qrels_path=qrels).qrels, alpha_grid,
                                    k, grid_out)
        click.echo(f"tuned alpha={alpha}")
    fused = fuse_runs(a, b, alpha, k)
    write_run(fused, out)
    click.echo(f"wrote {len(fused)} fused lists to {out}")


def _text_inputs(collection, queries, index_path, word_vectors, token_vectors,
                 **paths) -> Inputs:
    """The inputs a re-ranker reads, its embeddings from exactly one of
    --word-vectors and --token-vectors."""
    if (word_vectors is None) == (token_vectors is None):
        raise click.ClickException("give exactly one of --word-vectors / "
                                   "--token-vectors")
    return Inputs(collection, queries, index_path=index_path,
                  word_vectors_path=word_vectors, token_vectors_path=token_vectors,
                  **paths)


@main.command()
@click.option("--model", type=click.Choice(["drmm", "pacrr"]), required=True)
@click.option("--run", "run_path", type=_in, required=True,
              help="Pre-fetched lists of the train and dev queries; a query "
              "with no line has an empty list.")
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

    s = _text_inputs(collection, queries, index_path, word_vectors, token_vectors,
                     qrels_path=qrels, splits_path=splits)
    run = lists_for(read_run(run_path), [*s.splits.train_ids, *s.splits.dev_ids])
    hp = Hyperparams.from_file(hyperparams) if hyperparams else Hyperparams()
    if seed is not None:
        hp = replace(hp, seed=seed)
    result = run_training(model, s.splits, s.qrels, run, s.features(model, hp), hp,
                          out, log_path)
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
@click.option("--filter-mode", **_window_mode)
@click.option("--out", type=_out, required=True)
def rerank(checkpoint, run_path, queries, collection, index_path, word_vectors,
           token_vectors, k, date_filter, filter_mode, out):
    """Re-rank pre-fetched lists with a trained checkpoint."""
    window = _window(date_filter, filter_mode)
    s = _text_inputs(collection, queries, index_path, word_vectors, token_vectors)
    result = load_checkpoint(checkpoint)
    reranker = result.reranker(s.features(result.model.kind, result.hp))
    run = read_run(run_path)
    try:
        [reranked] = final_lists(run, k, window, s.queries, s.pool, [reranker])
    except ValueError as exc:
        raise ValueError(f"{run_path}: {exc}") from None
    write_run(reranked, out)
    click.echo(f"re-ranked {len(reranked)} lists with w_r={result.w_r:.4f} "
               f"w_p={result.w_p:.4f}")


@main.command(name="date-filter")
@click.option("--run", "run_path", type=_in, required=True)
@click.option("--queries", type=_in, required=True)
@click.option("--collection", type=_in, required=True)
@click.option("--years", type=float, required=True)
@click.option("--mode", **_window_mode)
@click.option("--k", type=_positive,
              help="Keep each list's top k, refilled to k in pre mode.")
@click.option("--out", type=_out, required=True)
def date_filter_cmd(run_path, queries, collection, years, mode, k, out):
    """Drop candidates published too far from the query year."""
    window = DateWindow(years, mode)
    s = Inputs(collection, queries)
    run = read_run(run_path)
    [filtered] = final_lists(run, k, window, s.queries, s.pool)
    write_run(filtered, out)
    kept = sum(len(r) for r in filtered.values())
    total = sum(len(r) for r in run.values())
    click.echo(f"kept {kept}/{total} entries across {len(filtered)} lists")


@main.command()
@click.option("--run", "run_path", type=_in, required=True)
@click.option("--qrels", type=_in, required=True)
@click.option("--k", type=_positive, default=20, show_default=True)
@click.option("--splits", type=_in)
@click.option("--split", help="Score this split of --splits [default: test].")
@click.option("--out", type=_out, help="Per-query metrics CSV.")
def evaluate(run_path, qrels, k, splits, split, out):
    """Score a run file against judgments. With --splits, every query of the
    split is scored, and one absent from the run file (a list the date window
    emptied is written as no lines) counts as an empty list."""
    run, qrels = _scored_run(run_path, qrels, splits, split)
    report = score_run(run, qrels, k, out)
    for metric, value in report.macro.items():
        click.echo(f"{metric} {value:.4f}")
    if report.excluded_query_ids:
        click.echo(f"excluded {len(report.excluded_query_ids)} queries without "
                   f"relevant documents")


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
@click.option("--splits", type=_in)
@click.option("--split", help="Average this split of --splits [default: test].")
@click.option("--out", type=_out, required=True)
def rk_curve(run_path, qrels, k_max, splits, split, out):
    """R@k for k = 1..k_max from a deep run file. With --splits, every query
    of the split is averaged, and one absent from the run file (an empty
    list is written as no lines) counts at R@k 0, as in `regir run`'s
    rk_curve.csv."""
    rows = make_rk_curve(*_scored_run(run_path, qrels, splits, split), k_max, out)
    click.echo(f"R@{k_max} = {rows[-1][1]:.4f}")


@report.command(name="year-hist")
@click.option("--qrels", type=_in, required=True)
@click.option("--queries", type=_in, required=True)
@click.option("--collection", type=_in, required=True)
@click.option("--out", type=_out, required=True)
def year_hist(qrels, queries, collection, out):
    """Histogram of year(relevant) - year(query) over judged pairs."""
    s = Inputs(collection, queries, qrels)
    hist = make_year_hist(s.qrels, s.queries, s.pool, out)
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
