"""Dense pre-fetching: tf-idf weighted embedding centroids and exact cosine kNN.

Centroid of a text t over its distinct in-vocabulary terms x_i:
    cent(t) = sum_i x_i * tf(x_i, t) * idf(x_i) / sum_i tf(x_i, t) * idf(x_i)

Search is an exact full scan: pools of tens of thousands of vectors at a few
hundred dims rank in milliseconds, and approximate methods would blur the
numbers this engine exists to reproduce.

Per-document vectors produced by external encoders plug in through the same
store type; this module validates and consumes them, nothing more.
"""

from __future__ import annotations

import logging
from collections import Counter

import numpy as np

from ._textio import parse_number, read_lines, read_vectors, write_table
from .ranking import RankedList, top_k_from_arrays

log = logging.getLogger(__name__)


class VectorFormatError(ValueError):
    pass


class CentroidError(ValueError):
    """No in-vocabulary token, or the tf*idf weight mass is zero."""


class WordVectors:
    """term -> vector, single fixed dimensionality. The vectors are the rows
    of one matrix; `row` maps a term to its row and `vectors` to a view of
    it."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        if dim < 1:
            raise VectorFormatError("dim must be >= 1")
        for term, vec in vectors.items():
            if vec.shape != (dim,):
                raise VectorFormatError(f"vector for {term!r} has shape {vec.shape}, "
                                        f"expected ({dim},)")
        self.dim = dim
        self.matrix = (np.stack(list(vectors.values())) if vectors
                       else np.zeros((0, dim)))
        self.row = {term: i for i, term in enumerate(vectors)}
        self.vectors = dict(zip(vectors, self.matrix))

    def __contains__(self, term: str) -> bool:
        return term in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, term: str) -> np.ndarray:
        return self.vectors[term]


class DocVectorStore:
    """doc_id -> vector with a free-form provenance tag (which encoder/layer
    produced the vectors)."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int, tag: str = ""):
        if dim < 1:
            raise VectorFormatError("dim must be >= 1")
        for doc_id, vec in vectors.items():
            if vec.shape != (dim,):
                raise VectorFormatError(f"vector for {doc_id!r} has shape {vec.shape}, "
                                        f"expected ({dim},)")
        self.dim = dim
        self.tag = tag
        self.vectors = vectors
        self._ids = np.array(sorted(vectors), dtype=object)
        self._matrix = (np.stack([vectors[d] for d in self._ids])
                        if len(vectors) else np.zeros((0, dim)))
        self._norms = np.linalg.norm(self._matrix, axis=1)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def get(self, doc_id: str) -> np.ndarray:
        return self.vectors[doc_id]

    def validate_against(self, corpus) -> None:
        missing = [d for d in self.vectors if d not in corpus]
        if missing:
            raise VectorFormatError(f"doc vectors reference ids absent from the "
                                    f"collection: {sorted(missing)[:5]}")


def _keyed_vectors(path, what: str, dim: int | None = None,
                   comments: bool = False) -> tuple[dict[str, np.ndarray], int]:
    """key -> row view of one matrix, and the dimensionality; keys unique."""
    keys, line_nos, matrix = read_vectors(path, dim=dim, comments=comments,
                                          error=VectorFormatError)
    vectors: dict[str, np.ndarray] = {}
    for (key,), line_no, vec in zip(keys, line_nos, matrix):
        if key in vectors:
            raise VectorFormatError(f"{path}: line {line_no}: duplicate "
                                    f"{what} {key!r}")
        vectors[key] = vec
    return vectors, matrix.shape[1]


def load_word_vectors(path) -> WordVectors:
    """Text format: `term v1 v2 ... vdim`, dim inferred from the first row."""
    return WordVectors(*_keyed_vectors(path, "term"))


def load_doc_vectors(path) -> DocVectorStore:
    """Same line format with doc_id keys; optional first line `#dim D #tag S`;
    other '#' lines are comments."""
    dim, tag = None, ""
    line_no, line = next(read_lines(path, comments=False,
                                    error=VectorFormatError), (0, ""))
    if line_no == 1 and line.startswith("#dim"):
        fields = line.split()
        dim = parse_number(fields[1] if len(fields) > 1 else "", int,
                           f"{path}: line 1: #dim", VectorFormatError)
        if dim < 1:
            raise VectorFormatError(f"{path}: line 1: dim must be >= 1")
        if "#tag" in fields:
            tag = " ".join(fields[fields.index("#tag") + 1:])
    return DocVectorStore(*_keyed_vectors(path, "doc_id", dim=dim, comments=True),
                          tag)


def save_doc_vectors(store: DocVectorStore, path) -> None:
    header = f"#dim {store.dim}" + (f" #tag {store.tag}" if store.tag else "")
    write_table(path, header, (
        " ".join([doc_id, *map(repr, np.asarray(store.vectors[doc_id],
                                                dtype=np.float64).tolist())])
        for doc_id in sorted(store.vectors)))


def _centroid(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i / sum_i w_i over the rows in order, each sum a running
    one from zero: the bits of `acc += w * x` in a loop."""
    zero = np.zeros((1, vectors.shape[1]))
    acc = np.cumsum(np.concatenate((zero, weights[:, None] * vectors)), axis=0)[-1]
    mass = np.cumsum(np.concatenate(([0.0], weights)))[-1]
    if mass == 0.0:
        raise CentroidError("no in-vocabulary token with positive tf*idf weight")
    return acc / mass


def centroid(tokens: list[str], word_vectors: WordVectors, idf_table) -> np.ndarray:
    """tf-idf weighted centroid over distinct in-vocabulary terms, taken in
    first-occurrence order.

    Raises CentroidError when nothing is in vocabulary or all weights cancel;
    callers decide whether that aborts or skips the document.
    """
    rows, weights = [], []
    for term, tf in Counter(tokens).items():
        row = word_vectors.row.get(term)
        if row is not None:
            rows.append(row)
            weights.append(tf * idf_table.idf(term))
    return _centroid(word_vectors.matrix[rows], np.array(weights, dtype=np.float64))


def build_centroid_store(corpus, pipeline, word_vectors: WordVectors,
                         on_empty: str = "skip-document") -> DocVectorStore:
    """Precompute the centroid of every document (identical to computing them
    per query, cached once) from the pipeline's denoised bags of the corpus.

    on_empty: 'skip-document' drops fully out-of-vocabulary docs with a
    warning; 'error' aborts.
    """
    if on_empty not in ("skip-document", "error"):
        raise ValueError(f"unknown zero-vector policy {on_empty!r}")
    bags = pipeline.bags(corpus)
    term_rows = np.array([word_vectors.row.get(t, -1) for t in bags.terms],
                         dtype=np.int64)
    term_idf = np.array([pipeline.idf_table.idf(t) for t in bags.terms])
    in_vocab = bags.select(term_rows >= 0)
    rows = term_rows[in_vocab.ids]
    weights = in_vocab.tf * term_idf[in_vocab.ids]
    bounds = in_vocab.offsets.tolist()
    vectors: dict[str, np.ndarray] = {}
    skipped = []
    for doc_id, lo, hi in zip(bags.doc_ids, bounds, bounds[1:]):
        try:
            vectors[doc_id] = _centroid(word_vectors.matrix[rows[lo:hi]],
                                        weights[lo:hi])
        except CentroidError as exc:
            if on_empty == "error":
                raise CentroidError(f"document {doc_id!r}: {exc}") from None
            skipped.append(doc_id)
    if skipped:
        log.warning("centroid store: skipped %d document(s) with no usable "
                    "tokens, e.g. %s", len(skipped), skipped[:3])
    return DocVectorStore(vectors, word_vectors.dim, tag="w2v-cent")


def knn_search(query_vec: np.ndarray, store: DocVectorStore, k: int) -> RankedList:
    """Exact cosine top-k. Zero-norm stored vectors get similarity -1 so they
    sink below every real match; ties break by ascending doc_id."""
    query_vec = np.asarray(query_vec, dtype=np.float64)
    if query_vec.shape != (store.dim,):
        raise ValueError(f"query vector has shape {query_vec.shape}, "
                         f"store dim is {store.dim}")
    qnorm = np.linalg.norm(query_vec)
    if qnorm == 0:
        raise ValueError("zero query vector")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(store) == 0:
        return RankedList(presorted=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (store._matrix @ query_vec) / (store._norms * qnorm)
    sims = np.where(store._norms == 0, -1.0, sims)
    return RankedList(top_k_from_arrays(store._ids, sims, min(k, len(store))),
                      presorted=True)

