"""Inverted index and Okapi BM25 scoring with (k1, b) grid tuning.

score(q, d) = sum over query term occurrences of
    idf(t) * tf(t,d) * (k1 + 1) / (tf(t,d) + k1 * (1 - b + b * L/avg_L))

Duplicate query terms each contribute (bag semantics). Terms without a
postings list contribute zero rather than falling back to the smoothed
unseen-term idf: the sum only runs over terms that can match.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .ranking import RankedList, top_k_from_arrays
from .text import IdfTable, TextPipeline

INDEX_FORMAT = "regir-postings-index"
INDEX_VERSION = 1


@dataclass(frozen=True)
class Bm25Params:
    """k1 favors repeated terms; b penalizes long documents.

    b above 1 is admitted so tuning grids can probe past the textbook range.
    """

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {self.k1}")
        if self.b < 0:
            raise ValueError(f"b must be non-negative, got {self.b}")


class PostingsIndex:
    """Immutable inverted index over a denoised pool collection.

    The idf table is the same pool-side table that drives denoising; a term
    either survives the pipeline in every document or in none, so postings
    length equals the table's df for every indexed term.
    """

    def __init__(self, postings: dict[str, list[tuple[str, int]]],
                 doc_len: dict[str, int], idf_table: IdfTable,
                 pipeline: TextPipeline | None = None):
        if not doc_len:
            raise ValueError("empty pool: no documents to index")
        self.postings = postings
        self.doc_len = doc_len
        # the pipeline that produced the postings, kept so query-time
        # denoising cannot drift from index-time denoising
        self.pipeline = pipeline
        self.doc_count = len(doc_len)
        self.avg_len = sum(doc_len.values()) / self.doc_count
        if self.avg_len == 0:
            raise ValueError("every document is empty after denoising")
        self.idf_table = idf_table
        self._doc_ids = np.array(sorted(doc_len), dtype=object)
        self._doc_pos = {d: i for i, d in enumerate(self._doc_ids)}
        self._len_arr = np.array([doc_len[d] for d in self._doc_ids], dtype=np.float64)
        # postings as arrays for the vectorized search path
        self._post_arr = {
            t: (np.array([self._doc_pos[d] for d, _ in plist], dtype=np.intp),
                np.array([tf for _, tf in plist], dtype=np.float64))
            for t, plist in postings.items()
        }

    def __contains__(self, term: str) -> bool:
        return term in self.postings

    def validate(self) -> None:
        """Check the structural invariants; raises on violation."""
        for term, plist in self.postings.items():
            if any(tf < 1 for _, tf in plist):
                raise AssertionError(f"tf < 1 in postings of {term!r}")
            if len(plist) != self.idf_table.df(term):
                raise AssertionError(
                    f"postings df {len(plist)} != idf-table df "
                    f"{self.idf_table.df(term)} for {term!r}")
        expect = sum(self.doc_len.values()) / len(self.doc_len)
        if abs(self.avg_len - expect) > 1e-12:
            raise AssertionError("avg_len out of sync with doc_len")

    def idf(self, term: str) -> float:
        return self.idf_table.idf(term)

    def _norm(self, length: float, params: Bm25Params) -> float:
        return 1.0 - params.b + params.b * length / self.avg_len

    def score_all(self, query_tokens: list[str], params: Bm25Params) -> np.ndarray:
        """BM25 scores for every pool document, aligned with sorted doc ids."""
        scores = np.zeros(self.doc_count)
        norms = params.k1 * self._norm(self._len_arr, params)
        for term, q_tf in Counter(query_tokens).items():
            entry = self._post_arr.get(term)
            if entry is None:
                continue
            pos, tf = entry
            w = q_tf * self.idf(term) * tf * (params.k1 + 1)
            scores[pos] += w / (tf + norms[pos])
        return scores

    def bm25_search(self, query_tokens: list[str], params: Bm25Params, k: int) -> RankedList:
        """Top-k over the whole pool (zero-score documents rank too), ties by
        ascending doc_id."""
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self.score_all(query_tokens, params)
        return RankedList(top_k_from_arrays(self._doc_ids, scores, min(k, self.doc_count)),
                          presorted=True)


def build_index(corpus, pipeline) -> PostingsIndex:
    """Index the pool through the text pipeline. Deterministic: terms and
    postings are stored in sorted order, so rebuilding is byte-identical."""
    if len(corpus) == 0:
        raise ValueError("empty pool: no documents to index")
    term_docs: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for doc in corpus:
        tokens = pipeline(doc.text)
        doc_len[doc.doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            term_docs.setdefault(term, {})[doc.doc_id] = tf
    postings = {t: sorted(term_docs[t].items()) for t in sorted(term_docs)}
    return PostingsIndex(postings, dict(sorted(doc_len.items())),
                         pipeline.idf_table, pipeline=pipeline)


def save_index(index: PostingsIndex, path) -> None:
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "postings": index.postings,
        "doc_len": index.doc_len,
        "idf_doc_count": index.idf_table.doc_count,
        "idf_df": dict(sorted((t, index.idf_table.df(t)) for t in index.idf_table.terms)),
        "stopwords": sorted(index.pipeline.stopwords) if index.pipeline else None,
        "idf_filter": index.pipeline.idf_filter if index.pipeline else None,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=4)


def load_index(path) -> PostingsIndex:
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path}: not a postings index file")
    if payload.get("version") != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {payload.get('version')!r}")
    table = IdfTable(payload["idf_doc_count"], payload["idf_df"])
    pipeline = None
    if payload.get("stopwords") is not None:
        pipeline = TextPipeline(table, stopwords=frozenset(payload["stopwords"]),
                                idf_filter=payload["idf_filter"])
    return PostingsIndex(payload["postings"], payload["doc_len"], table,
                         pipeline=pipeline)


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
    documents are excluded from the mean.
    """
    if not k1_grid or not b_grid:
        raise ValueError("grids must be non-empty")
    scored = [(qid, toks, qrels.relevant(qid)) for qid, toks in sorted(queries.items())]
    scored = [(qid, toks, rel) for qid, toks, rel in scored if rel]
    if not scored:
        raise ValueError("no queries with relevant documents")

    def cell(pair: tuple[float, float]) -> GridCell:
        k1, b = pair
        params = Bm25Params(k1, b)
        total = 0.0
        for _, toks, rel in scored:
            top = index.bm25_search(toks, params, k)
            hits = sum(1 for d in top.doc_ids if d in rel)
            total += hits / len(rel)
        return GridCell(k1, b, total / len(scored))

    cells = parallel_map(cell, [(k1, b) for k1 in k1_grid for b in b_grid])
    best = max(cells, key=lambda c: (c.recall_at_k, -c.k1, -c.b))
    return Bm25Params(best.k1, best.b), cells


def write_grid_csv(cells: list[GridCell], path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write("k1,b,recall_at_k\n")
        for c in cells:
            fh.write(f"{c.k1!r},{c.b!r},{c.recall_at_k!r}\n")
