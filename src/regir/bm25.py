"""Inverted index and Okapi BM25 scoring with (k1, b) grid tuning.

score(q, d) = sum over query term occurrences of
    idf(t) * tf(t,d) * (k1 + 1) / (tf(t,d) + k1 * (1 - b + b * L/avg_L))

Duplicate query terms each contribute (bag semantics). Terms without a
postings list contribute zero rather than falling back to the smoothed
unseen-term idf: the sum only runs over terms that can match.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._npz import read_npz, write_npz
from ._textio import read_json, write_table
from .metrics import float_sum, recall_at_k
from .ranking import RankedList, ranked_rows
from .text import IdfTable, TextPipeline, distinct_rows

INDEX_FORMAT = "regir-postings-index"
INDEX_VERSION = 3


@dataclass(frozen=True)
class Bm25Params:
    """k1 favors repeated terms; b penalizes long documents.

    b above 1 is admitted so tuning grids can probe past the textbook range.
    """

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        for name, value in (("k1", self.k1), ("b", self.b)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


def write_params(params: Bm25Params, path) -> None:
    """The JSON object `{"k1": ..., "b": ...}` that read_params reads."""
    Path(path).write_text(json.dumps({"k1": params.k1, "b": params.b}))


def read_params(path) -> Bm25Params:
    """Inverse of write_params: a JSON object with exactly the keys k1 and
    b. Raises ValueError naming the file on any fault."""
    data = read_json(path)
    if not isinstance(data, dict) or set(data) != {"k1", "b"}:
        raise ValueError(f"{path}: expected a JSON object with exactly the "
                         f"keys k1 and b")
    try:
        return Bm25Params(data["k1"], data["b"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class PostingsIndex:
    """Immutable inverted index over a denoised pool collection, in CSR form.

    Its terms are the sorted idf-table terms the text pipeline keeps. A term
    survives the pipeline in every document or in none, so term i owns its
    df's worth of entries, offsets[i]:offsets[i+1], of `positions` (rows of
    `doc_ids`, ascending) and `tf` (each >= 1). A document's length
    is the sum of its tf, and `idf[i]` is term i's idf, read once from the
    table. The arrays have the types scoring reads (intp offsets and
    positions, float tf), so gathering a query's postings converts nothing;
    the file holds them as int32. `doc_ids` are a pool corpus's `ids`, which
    ascend, so top-k breaks ties by row.
    """

    def __init__(self, pipeline: TextPipeline, doc_ids: list[str],
                 positions: np.ndarray, tf: np.ndarray):
        if not doc_ids:
            raise ValueError("empty pool: no documents to index")
        # the pipeline that produced the postings, kept so query-time
        # denoising cannot drift from index-time denoising
        self.pipeline = pipeline
        self.idf_table = table = pipeline.idf_table
        self.terms, self._row = pipeline.kept_terms, pipeline.kept_row
        self.offsets = np.cumsum([0, *map(table.df, self.terms)], dtype=np.intp)
        self.idf = table.idfs(self.terms)
        self.positions = positions.astype(np.intp)
        self.tf = tf.astype(np.float64)
        self.doc_count = len(doc_ids)
        self.doc_len = np.bincount(self.positions, weights=self.tf,
                                   minlength=self.doc_count)
        self.avg_len = float(self.doc_len.sum()) / self.doc_count
        if self.avg_len == 0:
            raise ValueError("every document is empty after denoising")
        self.doc_ids = np.array(doc_ids, dtype=object)

    def _norm(self, length: float, params: Bm25Params) -> float:
        return 1.0 - params.b + params.b * length / self.avg_len

    def _postings(self, query_tokens: list[str]) -> tuple[np.ndarray, ...]:
        """The postings of the query's indexed terms, in the order the terms
        first occur in the query: each entry's document row, tf and
        document length, and q_tf * idf(term) * tf."""
        _, rows, q_tf = distinct_rows(query_tokens, self._row)
        lo = self.offsets[rows]
        sizes = self.offsets[rows + 1] - lo
        weights = q_tf * self.idf[rows]
        # the j-th entry of the i-th term is gathered to starts[i] + j from
        # lo[i] + j
        starts = np.cumsum(sizes) - sizes
        entries = np.repeat(lo - starts, sizes) + np.arange(sizes.sum())
        pos, tf = self.positions[entries], self.tf[entries]
        return pos, tf, self.doc_len[pos], np.repeat(weights, sizes) * tf

    def _scores(self, postings: tuple[np.ndarray, ...], params: Bm25Params) -> np.ndarray:
        """BM25 of every pool document from a query's gathered postings.
        `np.bincount` adds each document's terms from 0.0 in query-term order,
        the order of one `scores[pos] += ...` per term."""
        pos, tf, length, weight_tf = postings
        w = weight_tf * (params.k1 + 1)
        norms = params.k1 * self._norm(length, params)
        scores = np.bincount(pos, weights=w / (tf + norms), minlength=self.doc_count)
        return scores.astype(np.float64, copy=False)  # int zeros if no entries

    def _top(self, postings, params: Bm25Params, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the top k by BM25 from a query's gathered postings, in
        rank order, and their scores: over the whole pool, zero scores too,
        ties by row (so by doc_id); a query without postings ranks nothing."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not len(postings[0]):
            return np.empty(0, dtype=np.intp), np.empty(0)
        scores = self._scores(postings, params)
        top = ranked_rows(scores, k)[:k]
        return top, scores[top]

    def score_all(self, query_tokens: list[str], params: Bm25Params) -> np.ndarray:
        """BM25 scores for every pool document, aligned with `doc_ids`."""
        return self._scores(self._postings(query_tokens), params)

    def bm25_search(self, query_tokens: list[str], params: Bm25Params, k: int) -> RankedList:
        """The query's top k over the whole pool, as `_top` ranks it."""
        rows, scores = self._top(self._postings(query_tokens), params, k)
        return RankedList._distinct(zip(self.doc_ids[rows].tolist(), scores.tolist()))


def build_index(corpus, pipeline) -> PostingsIndex:
    """Index the pool from the pipeline's denoised bags of it. Deterministic:
    terms and postings are stored in sorted order, so rebuilding gives equal
    arrays and saving them equal bytes. Refuses a corpus that is not the
    collection the pipeline was built from."""
    if len(corpus) == 0:
        raise ValueError("empty pool: no documents to index")
    bags = pipeline.bags(corpus)
    n = len(corpus)
    # each bag term's row among the pipeline's kept terms, -1 for any other
    row = pipeline.kept_row
    term_row = np.array([row.get(t, -1) for t in bags.terms], dtype=np.int64)
    entry_row = term_row[bags.ids]
    kept_df = [pipeline.idf_table.df(t) for t in pipeline.kept_terms]
    if (n != pipeline.idf_table.doc_count or np.any(entry_row < 0)
            or not np.array_equal(np.bincount(entry_row, minlength=len(row)),
                                  kept_df)):
        raise ValueError("the corpus is not the collection the text pipeline "
                         "was built from: its doc count or denoised df differ "
                         "from the pipeline's idf table")
    # one key per (term, document) entry, distinct since a bag holds a term
    # once: any sort orders them alike
    entry_doc = np.repeat(np.arange(n), np.diff(bags.offsets))
    order = np.argsort(entry_row * n + entry_doc)
    return PostingsIndex(pipeline, corpus.ids, entry_doc[order], bags.tf[order])


_INDEX_ARRAYS = {"positions": np.int32, "tf": np.int32, "idf_df": np.int64}


def save_index(index: PostingsIndex, path) -> None:
    """The postings' positions and tf and the idf table's df, plus a JSON
    header holding the doc id and idf term lists and the pipeline settings
    (see `_npz`). The terms, offsets and the table's doc count derive from
    these, so the file does not hold them."""
    table = index.idf_table
    idf_terms = sorted(table.terms)
    header = {"format": INDEX_FORMAT, "version": INDEX_VERSION,
              "ids": index.doc_ids.tolist(), "idf_terms": idf_terms,
              "stopwords": sorted(index.pipeline.stopwords),
              "idf_filter": index.pipeline.idf_filter}
    arrays = {"positions": index.positions.astype(np.int32),
              "tf": index.tf.astype(np.int32),
              "idf_df": np.array([table.df(t) for t in idf_terms], dtype=np.int64)}
    write_npz(path, header, arrays)


def load_index(path) -> PostingsIndex:
    """Inverse of save_index. Checks the header fields and the CSR
    invariants; raises ValueError naming the file on any fault."""
    header, arrays = read_npz(path, INDEX_FORMAT, INDEX_VERSION, _INDEX_ARRAYS)
    try:
        return _checked_index(header, arrays)
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checked_index(header: dict, arrays: dict) -> PostingsIndex:
    ids, idf_terms, stopwords = header["ids"], header["idf_terms"], header["stopwords"]
    positions, tf, idf_df = arrays["positions"], arrays["tf"], arrays["idf_df"]
    for name, names in (("doc id", ids), ("idf term", idf_terms)):
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)
                and all(a < b for a, b in zip(names, names[1:]))):
            raise ValueError(f"{name}s are not unique strings in sorted order")
    if not (isinstance(stopwords, list) and all(isinstance(w, str) for w in stopwords)):
        raise ValueError("stopwords are not a list of strings")
    if not isinstance(header["idf_filter"], bool):
        raise ValueError("idf_filter is not a JSON boolean")
    if len(idf_df) != len(idf_terms):
        raise ValueError("idf terms and df values differ in length")
    if len(tf) != len(positions):
        raise ValueError("tf and positions differ in length")
    n = len(ids)
    if len(positions) and (positions.min() < 0 or positions.max() >= n):
        raise ValueError("document position out of range")
    if np.any(tf < 1):
        raise ValueError("tf < 1 in the postings")
    table = IdfTable(n, dict(zip(idf_terms, idf_df.tolist())))
    pipeline = TextPipeline(table, stopwords=frozenset(stopwords),
                            idf_filter=header["idf_filter"])
    # interned, the ids a search returns are the pool corpus's key objects
    index = PostingsIndex(pipeline, list(map(sys.intern, ids)), positions, tf)
    offsets = index.offsets
    if len(positions) != offsets[-1]:
        raise ValueError(f"postings length {len(positions)} differs from the "
                         f"df sum {offsets[-1]} of the terms the pipeline keeps")
    entry_term = np.repeat(np.arange(len(index.terms), dtype=np.int64),
                           np.diff(offsets))
    if np.any(np.diff(entry_term * n + positions) <= 0):
        raise ValueError("a postings list is not in ascending document order")
    return index


def default_grid() -> tuple[list[float], list[float]]:
    """k1 from 0.5 to 8.0 in steps of 0.5, b from 0.0 to 1.0 in steps of 0.1.

    Deliberately wider than the textbook k1 range [0.5, 2.0] because whole
    documents as queries push the optimum out of it.
    """
    k1_grid = [round(0.5 * i, 2) for i in range(1, 17)]
    b_grid = [round(0.1 * i, 2) for i in range(0, 11)]
    return k1_grid, b_grid


@dataclass(frozen=True)
class GridCell:
    k1: float
    b: float
    recall_at_k: float


def tune_bm25(index: PostingsIndex, queries: dict[str, list[str]], qrels,
              k1_grid: list[float], b_grid: list[float], k: int
              ) -> tuple[Bm25Params, list[GridCell]]:
    """Exhaustive (k1, b) sweep maximizing mean R@k over the given queries.

    Ties break toward smaller k1, then smaller b. Queries without relevant
    documents are excluded from the mean. Each cell ranks a query as
    `bm25_search` does: one with no indexed term scores 0.
    """
    if not k1_grid or not b_grid:
        raise ValueError("grids must be non-empty")
    scored = [(queries[q], qrels.relevant(q)) for q in qrels.judged(sorted(queries))]
    grid = [Bm25Params(k1, b) for k1 in k1_grid for b in b_grid]
    # each query's postings are gathered once and ranked in every cell,
    # whose R@k reads the ids of the top k rows
    recalls = [[] for _ in grid]
    for toks, rel in scored:
        postings = index._postings(toks)
        for cell, params in zip(recalls, grid):
            rows, _ = index._top(postings, params, k)
            cell.append(recall_at_k(index.doc_ids[rows].tolist(), rel, k))
    cells = [GridCell(p.k1, p.b, float_sum(cell) / len(scored))
             for p, cell in zip(grid, recalls)]
    best = max(cells, key=lambda c: (c.recall_at_k, -c.k1, -c.b))
    return Bm25Params(best.k1, best.b), cells


def write_grid_csv(cells: list[GridCell], path, comment: str = "") -> None:
    write_table(path, "k1,b,recall_at_k",
                (f"{c.k1!r},{c.b!r},{c.recall_at_k!r}" for c in cells), comment)
