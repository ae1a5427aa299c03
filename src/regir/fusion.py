"""Score fusion of two pre-fetchers: per-list min-max normalization followed
by a convex combination ens = alpha * a + (1 - alpha) * b.

Normalization is per query, never global: whole-document queries make raw
BM25 magnitudes vary by orders of magnitude between queries. A document a
component never fetched takes that component's score as 0, the floor of the
normalized range.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from ._textio import read_json_number, write_table
from .metrics import float_sum, recall_at_k
from .ranking import RankedList, Run, per_query, top_k_from_arrays


def _min_max(ranking: RankedList) -> tuple[tuple, np.ndarray]:
    """The ranking's doc_ids, and its scores min-max normalized in one
    float64 array, all 1.0 if they are equal. An empty ranking is refused,
    and so is a span of scores that overflows, which would give NaN."""
    if not ranking:
        raise ValueError("cannot normalize an empty ranking")
    doc_ids, values = zip(*ranking)
    scores = np.fromiter(values, dtype=np.float64, count=len(values))
    # the first lowest and highest entries, as min() and max() take them:
    # scores.min() may return the other signed zero
    lo, hi = scores[[scores.argmin(), scores.argmax()]].tolist()
    if hi == lo:
        return doc_ids, np.ones(len(scores))
    if not np.isfinite(hi - lo):
        raise ValueError(f"cannot normalize scores from {lo!r} to {hi!r}: "
                         f"their span is not finite")
    return doc_ids, (scores - lo) / (hi - lo)


def normalize_scores(ranking: RankedList) -> RankedList:
    """Min-max over the list's own scores, as `fuse` normalizes each of its
    lists; a constant list maps to all 1.0. Ordering is preserved."""
    doc_ids, scores = _min_max(ranking)
    return RankedList._distinct(zip(doc_ids, scores.tolist()))


def _union(list_a: RankedList, list_b: RankedList) -> tuple[np.ndarray, ...]:
    """The union of two lists' doc_ids, list_a's then the list_b ids it
    lacks, and each list's min-max normalized scores over it, 0.0 where the
    list lacks the doc."""
    ids_a, scores_a = _min_max(list_a)
    ids_b, scores_b = _min_max(list_b)
    # each list_b id's row in the union is its row in list_a, or the next
    # row after list_a's
    row_in_a = dict(zip(ids_a, range(len(ids_a))))
    rows = np.fromiter(map(row_in_a.get, ids_b, repeat(-1)), dtype=np.intp,
                       count=len(ids_b))
    only_b = rows < 0
    rows[only_b] = np.arange(len(ids_a), len(ids_a) + np.count_nonzero(only_b))
    doc_ids = np.array([*ids_a, *compress(ids_b, only_b)], dtype=object)
    a, b = np.zeros(len(doc_ids)), np.zeros(len(doc_ids))
    a[:len(ids_a)], b[rows] = scores_a, scores_b
    return doc_ids, a, b


def _fused(doc_ids: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float,
           k: int) -> RankedList:
    """The top k of a union under `alpha * a + (1 - alpha) * b`."""
    fused = alpha * a + (1 - alpha) * b
    return RankedList._distinct(top_k_from_arrays(doc_ids, fused, k))


def fuse(list_a: RankedList, list_b: RankedList, alpha: float, k: int) -> RankedList:
    """Top-k of the union under the convex combination of the two lists'
    min-max normalized scores; ties break by ascending doc_id.

    A document one list lacks takes 0.0 there. Each fused score is the
    float64 `alpha * a + (1 - alpha) * b`, whose every operation numpy
    rounds as Python's floats do. A normalized list normalizes to itself,
    so normalizing the inputs first changes nothing."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _fused(*_union(list_a, list_b), alpha, k)


def _check_same_queries(run_a: Run, run_b: Run) -> None:
    if set(run_a) != set(run_b):
        only_a = sorted(set(run_a) - set(run_b))[:3]
        only_b = sorted(set(run_b) - set(run_a))[:3]
        raise ValueError(f"query sets differ between runs (only in a: {only_a}, "
                         f"only in b: {only_b})")


def fuse_runs(run_a: Run, run_b: Run, alpha: float, k: int) -> Run:
    """Per-query fusion; the two runs must cover the same queries. A list
    `fuse` refuses is refused naming its query."""
    _check_same_queries(run_a, run_b)
    return Run(per_query(lambda q: fuse(run_a[q], run_b[q], alpha, k), run_a))


def default_alpha_grid() -> list[float]:
    return [round(0.05 * i, 2) for i in range(21)]


def tune_alpha(run_a: Run, run_b: Run, qrels, alpha_grid: list[float], k: int
               ) -> tuple[float, list[tuple[float, float]]]:
    """Sweep alpha maximizing mean R@k on the given (dev) runs, which must
    cover the same queries; an error `fuse` raises names its query.

    Ties break toward smaller alpha. Returns the winner and the full
    (alpha, recall) grid for export.
    """
    if not alpha_grid:
        raise ValueError("alpha grid is empty")
    bad = [a for a in alpha_grid if not 0 <= a <= 1]
    if bad:
        raise ValueError(f"alpha grid values outside [0, 1]: {bad}")
    _check_same_queries(run_a, run_b)
    query_ids = qrels.judged(sorted(run_a))
    if k < 1:
        raise ValueError("k must be >= 1")
    # each query's union is normalized once and fused in every cell
    unions = per_query(lambda q: (_union(run_a[q], run_b[q]), qrels.relevant(q)),
                       query_ids).values()
    grid = [(alpha, float_sum(recall_at_k(_fused(*union, alpha, k), relevant, k)
                              for union, relevant in unions) / len(query_ids))
            for alpha in alpha_grid]
    best_alpha, _ = max(grid, key=lambda cell: (cell[1], -cell[0]))
    return best_alpha, grid


def write_alpha_grid_csv(grid: list[tuple[float, float]], path, comment: str = "") -> None:
    write_table(path, "alpha,recall_at_k",
                (f"{alpha!r},{recall!r}" for alpha, recall in grid), comment)


def write_alpha(alpha: float, path) -> None:
    """The JSON object `{"alpha": ...}` that read_alpha reads."""
    Path(path).write_text(json.dumps({"alpha": alpha}))


def read_alpha(path) -> float:
    """Inverse of write_alpha. Raises ValueError naming the file on any fault."""
    return read_json_number(path, "alpha", lambda a: 0 <= a <= 1,
                            "a finite number in [0, 1]")
