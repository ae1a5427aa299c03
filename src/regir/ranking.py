"""Ranked result lists and the TSV run-file interchange format.

Every retrieval stage produces a Run: query_id -> descending-score list of
(doc_id, score). Ties always break by ascending doc_id so independent
implementations and reruns produce identical files.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from ._textio import read_lines, write_table


def sort_scored(pairs: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Descending score, ascending doc_id on ties: by doc_id, then by score
    in a stable sort, which keeps the doc_id order within equal scores."""
    ordered = sorted(pairs, key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    return ordered


def top_k_from_arrays(doc_ids: np.ndarray, scores: np.ndarray, k: int, *,
                      sorted_ids: bool = False) -> list[tuple[str, float]]:
    """Vectorized top-k with the canonical tie-break.

    Keeps every score >= the k-th largest, ties at the cut included, and
    sorts only those: lexsort's last key is primary, so by -score, then
    doc_id ascending. With `sorted_ids` the caller vouches that doc_ids
    ascend, as an index's and a vector store's do: ascending rows then
    order tied ids, and no id is compared.
    """
    n = len(scores)
    k = min(max(k, 0), n)
    if k == 0:
        return []
    candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    ties = candidates if sorted_ids else doc_ids[candidates]
    top = candidates[np.lexsort((ties, -scores[candidates]))[:k]]
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

    @property
    def doc_ids(self) -> list[str]:
        return list(map(itemgetter(0), self))

    def truncated(self, k: int) -> "RankedList":
        return RankedList(self[:k], presorted=True)


class Run(dict):
    """query_id -> RankedList."""

    def truncated(self, k: int) -> "Run":
        out = Run()
        for q, ranking in self.items():
            out[q] = ranking.truncated(k)
        return out


def write_run(run: Run, path, comment: str = "") -> None:
    """TSV: query_id, rank (1-based), doc_id, score. Queries in sorted order,
    scores with repr-round-trip precision."""
    write_table(path, None, (f"{query_id}\t{rank}\t{doc_id}\t{score!r}"
                             for query_id in sorted(run)
                             for rank, (doc_id, score) in enumerate(run[query_id], 1)),
                comment)


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
