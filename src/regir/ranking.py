"""Ranked result lists and the TSV run-file interchange format.

Every retrieval stage produces a Run: query_id -> descending-score list of
(doc_id, score). Ties always break by ascending doc_id so independent
implementations and reruns produce identical files.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter

import numpy as np

from ._textio import read_lines, write_table


def sort_scored(pairs: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Descending score, ascending doc_id on ties: by doc_id, then by score
    in a stable sort, which keeps the doc_id order within equal scores."""
    ordered = sorted(pairs, key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    return ordered


def ranked_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """The rows of every score >= the k-th largest, ties at the cut included,
    by descending score, then ascending row: the top k rows first. A NaN
    score is never ranked: the k-th largest is taken over the other scores,
    so fewer than k rows come back when fewer than k are numbers."""
    k = min(max(k, 0), len(scores))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    # the k-th smallest of -scores: numpy selects it fast even among many
    # tied zeros, where selecting the (n - k)-th of scores stalls. NaN sorts
    # last, so it is a number unless fewer than k scores are, and then fmax
    # makes it -inf, which keeps every number
    kth = np.fmax(-np.partition(-scores, k - 1)[k - 1], -np.inf)
    candidates = np.flatnonzero(scores >= kth)
    # stable, so ascending rows order equal scores
    return candidates[np.argsort(-scores[candidates], kind="stable")]


def top_k_from_arrays(doc_ids: np.ndarray, scores: np.ndarray, k: int
                      ) -> list[tuple[str, float]]:
    """Vectorized top-k with the canonical tie-break: `ranked_rows`, then,
    within each run of equal scores, a sort by doc_id. NaN scores are never
    ranked. (Over ids that ascend with the rows, as an index's and a vector
    store's do, the first k of `ranked_rows` are already in that order.)"""
    top = ranked_rows(scores, k)
    ranked = scores[top]
    same = ranked[1:] == ranked[:-1]
    if same.any():
        # the entries that tie with a neighbour, re-sorted by (run, doc_id):
        # ids are compared only inside runs of equal scores
        starts = np.concatenate(([True], ~same, [True]))
        tied = np.flatnonzero(~(starts[:-1] & starts[1:]))
        run = np.cumsum(starts[:-1])[tied]
        top[tied] = top[tied][np.lexsort((doc_ids[top[tied]], run))]
    top = top[:k]
    return list(zip(doc_ids[top].tolist(),
                    scores[top].astype(np.float64, copy=False).tolist()))


class RankedList(list):
    """Scored ranking for one query; items are (doc_id, score) tuples."""

    def __init__(self, items=(), *, presorted: bool = False):
        items = list(items) if presorted else sort_scored(items)
        if len(set(map(itemgetter(0), items))) != len(items):
            seen: set[str] = set()
            for doc_id, _ in items:  # name the first repeat
                if doc_id in seen:
                    raise ValueError(f"duplicate doc_id in ranking: {doc_id!r}")
                seen.add(doc_id)
        super().__init__(items)

    @classmethod
    def _distinct(cls, items) -> "RankedList":
        """A ranking of items already in rank order whose doc_ids are
        distinct by construction (a top-k over an index's or a store's ids,
        a fused union, a cut or a filtered copy of a RankedList), so no
        duplicate check runs."""
        ranking = cls.__new__(cls)
        list.__init__(ranking, items)
        return ranking

    @property
    def doc_ids(self) -> list[str]:
        return list(map(itemgetter(0), self))

    def truncated(self, k: int) -> "RankedList":
        return RankedList._distinct(self[:k])


class Run(dict):
    """query_id -> RankedList."""

    def truncated(self, k: int) -> "Run":
        out = Run()
        for q, ranking in self.items():
            out[q] = ranking.truncated(k)
        return out


def write_run(run: Run, path, comment: str = "") -> None:
    """TSV: query_id, rank (1-based), doc_id, score. Queries in sorted order,
    scores with repr-round-trip precision; an empty list writes no line.
    Each query's lines are joined into one string from its doc_id and score
    columns, and written at once."""
    longest = max(map(len, run.values()), default=0)
    ranks = list(map(str, range(1, longest + 1)))

    def blocks():
        for query_id in sorted(run):
            ranking = run[query_id]
            if ranking:
                doc_ids, scores = zip(*ranking)
                yield "\n".join(map("\t".join, zip(repeat(query_id), ranks, doc_ids,
                                                   map(repr, scores))))

    write_table(path, None, blocks(), comment)


def per_query(fn, query_ids) -> dict:
    """fn(query_id) of each id, in order; a ValueError it raises names its query."""
    out = {}
    for query_id in query_ids:
        try:
            out[query_id] = fn(query_id)
        except ValueError as exc:
            raise ValueError(f"query {query_id}: {exc}") from None
    return out


def lists_for(run: Run, query_ids) -> Run:
    """The run's list of each query id, in the given order, and an empty
    list for an id it has none of: a run file holds no line for an empty
    list, so a query missing from one has an empty list."""
    return Run((q, run.get(q, RankedList())) for q in query_ids)


def read_run(path) -> Run:
    """Inverse of write_run. Enforces non-empty ids, contiguous 1-based ranks
    per query, no repeated doc_id within a query and finite, non-increasing
    scores."""
    run = Run()
    seen: dict[str, set[str]] = {}
    for line_no, line in read_lines(path, strip=False):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}: line {line_no}: expected 4 columns, got {len(parts)}")
        query_id, rank_s, doc_id, score_s = parts
        if not query_id or not doc_id:
            raise ValueError(f"{path}: line {line_no}: empty "
                             f"{'query' if not query_id else 'doc'} id")
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: non-numeric rank "
                             f"{rank_s!r} or score {score_s!r}") from None
        if not math.isfinite(score):
            raise ValueError(f"{path}: line {line_no}: score {score_s!r} "
                             f"is not finite")
        ranking = run.get(query_id)
        if ranking is None:  # a list only when a query starts
            ranking = run[query_id] = RankedList(presorted=True)
            seen[query_id] = set()
        if rank != len(ranking) + 1:
            raise ValueError(f"{path}: line {line_no}: rank {rank} for query "
                             f"{query_id!r}, expected {len(ranking) + 1}")
        if ranking and score > ranking[-1][1] + 1e-12:
            raise ValueError(f"{path}: line {line_no}: scores increase within "
                             f"query {query_id!r}")
        ids = seen[query_id]
        if doc_id in ids:
            raise ValueError(f"{path}: line {line_no}: duplicate doc_id "
                             f"{doc_id!r} within query {query_id!r}")
        ids.add(doc_id)
        ranking.append((doc_id, score))
    return run
