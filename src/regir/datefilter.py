"""Publication-year distance filtering of candidate lists.

A transposing act is usually enacted within a few years of what it
transposes, so dropping candidates far from the query's year removes
near-duplicate amendments that outrank the truly related acts. A pre
window filters the deep pre-fetch list and refills k candidates from it
(`candidates`); a post window filters the final list (`finalize`).
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from ._textio import read_json_number, write_table
from .metrics import float_sum, recall_at_k
from .ranking import RankedList, Run

log = logging.getLogger(__name__)

MODES = ("pre", "post")
# the mode of a window given without one, in a run's config and the CLI alike
DEFAULT_MODE = "post"


@dataclass(frozen=True)
class DateWindow:
    """Keep candidates within max_distance_years of the query year.
    math.inf disables the cut."""

    max_distance_years: float
    mode: str = DEFAULT_MODE

    def __post_init__(self):
        y = self.max_distance_years
        # `not y >= 0` is also true of NaN, which int() would refuse
        if y != math.inf and (not y >= 0 or int(y) != y):
            raise ValueError(f"max_distance_years must be a non-negative integer "
                             f"or inf, got {y}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def apply_filter(query_doc, ranking: RankedList, window: DateWindow, corpus) -> RankedList:
    """Pure order-preserving filter: drop entries whose year lies outside the
    window. Documents with unknown year (0) always pass; a query with unknown
    year disables the filter for that query with a warning."""
    if query_doc.year == 0:
        log.warning("query %s has no publication year; date filter skipped",
                    query_doc.doc_id)
        return ranking
    years = corpus.years(map(itemgetter(0), ranking))
    # int64 differences of years are exact, and so is comparing them with
    # the integer-valued or infinite float window
    keep = (years == 0) | (np.abs(years - query_doc.year) <= window.max_distance_years)
    return RankedList._distinct(compress(ranking, keep))


def filter_run(run: Run, window: DateWindow, query_corpus, pool_corpus,
               k: int | None = None) -> Run:
    """Apply the window to every query of a run; k triggers refill semantics
    (pre mode)."""
    out = Run()
    for query_id, ranking in run.items():
        query_doc = query_corpus.get(query_id)
        filtered = apply_filter(query_doc, ranking, window, pool_corpus)
        out[query_id] = filtered.truncated(k) if k is not None else filtered
    return out


def candidates(deep: Run, k: int | None, window: DateWindow | None,
               query_corpus, pool_corpus) -> Run:
    """The lists a re-ranker scores: a pre window filters the deep lists and
    refills them to k; otherwise their top k. k=None cuts nothing."""
    if window is not None and window.mode == "pre":
        return filter_run(deep, window, query_corpus, pool_corpus, k)
    return deep.truncated(k) if k is not None else deep


def finalize(run: Run, window: DateWindow | None, query_corpus,
             pool_corpus) -> Run:
    """The final lists: a post window filters the re-ranked (or candidate)
    lists; any other window leaves them as they are."""
    if window is not None and window.mode == "post":
        return filter_run(run, window, query_corpus, pool_corpus)
    return run


def choose_window(deep: Run, qrels, query_corpus, pool_corpus,
                  grid: list[float], mode: str, k: int, eval_k: int) -> float:
    """argmax of mean R@eval_k over candidate windows on dev data, scoring
    the lists a run without re-ranking returns from these deep lists at
    candidate depth k. Ties go to the larger (less destructive) window."""
    if not grid:
        raise ValueError("window grid is empty")
    query_ids = qrels.judged(sorted(deep))
    deep = Run({q: deep[q] for q in query_ids})
    best_y, best_recall = None, -1.0
    for y in grid:
        window = DateWindow(y, mode)
        final = finalize(candidates(deep, k, window, query_corpus, pool_corpus),
                         window, query_corpus, pool_corpus)
        recall = float_sum(recall_at_k(final[q], qrels.relevant(q), eval_k)
                           for q in query_ids) / len(query_ids)
        if recall > best_recall or (recall == best_recall and best_y is not None
                                    and y > best_y):
            best_y, best_recall = y, recall
    return best_y


def write_years(years: float, path) -> None:
    """The JSON object `{"years": ...}` that read_years reads."""
    Path(path).write_text(json.dumps({"years": years}))


def read_years(path, grid) -> float:
    """Inverse of write_years, for a window that `grid` (the run's
    datefilter.grid) holds. Raises ValueError naming the file on any fault."""
    return read_json_number(path, "years", lambda y: y in grid,
                            "a value of datefilter.grid")


def year_diff_histogram(qrels, query_corpus, pool_corpus) -> Counter:
    """Histogram of year(relevant) - year(query) over all judged pairs with
    known years on both sides. On real data the mass sits near 0 with tails
    on both sides."""
    hist: Counter = Counter()
    for query_id in sorted(qrels.entries):
        q_year = query_corpus.get(query_id).year
        if q_year == 0:
            continue
        for doc_id in sorted(qrels.relevant(query_id)):
            d_year = pool_corpus.get(doc_id).year
            if d_year == 0:
                continue
            hist[d_year - q_year] += 1
    return hist


def write_year_hist_csv(hist: Counter, path, comment: str = "") -> None:
    write_table(path, "year_diff,count",
                (f"{diff},{hist[diff]}" for diff in sorted(hist)), comment)
