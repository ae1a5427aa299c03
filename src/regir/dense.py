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
from collections.abc import Mapping
from itertools import compress, repeat

import numpy as np

from ._textio import parse_number, read_lines, read_vectors, write_table
from .ranking import RankedList, ranked_rows
from .text import distinct_rows, kept_offsets

log = logging.getLogger(__name__)


class VectorFormatError(ValueError):
    pass


class CentroidError(ValueError):
    """No in-vocabulary token, or the tf*idf weight mass or the weighted sum
    of the vectors is zero."""


class _KeyedMatrix(Mapping):
    """key -> vector, one fixed dimensionality, stored once: the vectors are
    the rows of one C-contiguous float64 matrix (the caller's own when it
    already is one), `row` maps a key to its row, and `store[key]` is a view
    of that row. `where(i)` names row i in the error for a duplicate key."""

    def __init__(self, keys, matrix, where=lambda i: f"row {i}"):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 1 or len(matrix) != len(keys):
            raise VectorFormatError(f"{len(keys)} keys for a matrix of shape "
                                    f"{matrix.shape}")
        self.row: dict[str, int] = {}
        for i, key in enumerate(keys):
            if self.row.setdefault(key, i) != i:
                raise VectorFormatError(f"{where(i)}: duplicate {self.key_name} "
                                        f"{key!r}")
        self.matrix = matrix
        self.dim = matrix.shape[1]

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self.row[key]]

    def __iter__(self):
        return iter(self.row)

    def __len__(self) -> int:
        return len(self.row)

    @property
    def vectors(self) -> _KeyedMatrix:
        """The store itself, read as its key -> vector mapping."""
        return self


class WordVectors(_KeyedMatrix):
    """term -> vector, rows in the order given."""

    key_name = "term"


# Entries squared at a time for a store's row norms: the squares take one
# block, not a second copy of the matrix.
NORM_BLOCK_ENTRIES = 2 ** 16


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(matrix, axis=1)`, a block of rows at a time; each
    row's norm is a reduction over that row alone, so the bits are those of
    the whole-matrix call."""
    norms = np.empty(len(matrix))
    step = max(1, NORM_BLOCK_ENTRIES // matrix.shape[1])
    for lo in range(0, len(matrix), step):
        norms[lo:lo + step] = np.linalg.norm(matrix[lo:lo + step], axis=1)
    return norms


class DocVectorStore(_KeyedMatrix):
    """doc_id -> vector with a free-form provenance tag (which encoder/layer
    produced the vectors). Rows are kept in doc_id order, reordered once if
    they do not come in it."""

    key_name = "doc_id"

    def __init__(self, keys, matrix, tag: str = "", **kwargs):
        super().__init__(keys, matrix, **kwargs)
        ids = sorted(self.row)
        if ids != list(self.row):
            self.matrix = self.matrix[[self.row[d] for d in ids]]
            self.row = dict(zip(ids, range(len(ids))))
        self.tag = tag
        self._ids = np.array(ids, dtype=object)
        self._norms = _row_norms(self.matrix)

    def validate_against(self, corpus, path, corpus_path) -> None:
        """Refuses a vector of an id the corpus lacks, naming both files."""
        missing = [d for d in self.row if d not in corpus]
        if missing:
            raise VectorFormatError(f"{path}: doc vectors reference ids absent from "
                                    f"{corpus_path}: {sorted(missing)[:5]}")


def _load(cls, path, dim: int | None = None, comments: bool = False, **kwargs):
    """A `cls` over the parsed matrix of a vector file."""
    keys, line_nos, matrix = read_vectors(path, dim=dim, comments=comments,
                                          error=VectorFormatError)
    return cls([key for key, in keys], matrix,
               where=lambda i: f"{path}: line {line_nos[i]}", **kwargs)


def load_word_vectors(path) -> WordVectors:
    """Text format: `term v1 v2 ... vdim`, dim inferred from the first row."""
    return _load(WordVectors, path)


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
    return _load(DocVectorStore, path, dim=dim, comments=True, tag=tag)


def save_doc_vectors(store: DocVectorStore, path) -> None:
    header = f"#dim {store.dim}" + (f" #tag {store.tag}" if store.tag else "")
    write_table(path, header, (" ".join([doc_id, *map(repr, vec.tolist())])
                               for doc_id, vec in zip(store, store.matrix)))


_NO_WEIGHT = "no in-vocabulary token with positive tf*idf weight"
_ZERO_SUM = "the tf*idf weighted sum of the word vectors is zero"


def _centroid(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i / sum_i w_i over the rows in order, each sum a running
    one from zero: the bits of `acc += w * x` in a loop. A zero sum has no
    direction, so it raises like a zero mass."""
    zero = np.zeros((1, vectors.shape[1]))
    acc = np.cumsum(np.concatenate((zero, weights[:, None] * vectors)), axis=0)[-1]
    mass = np.cumsum(np.concatenate(([0.0], weights)))[-1]
    if mass == 0.0:
        raise CentroidError(_NO_WEIGHT)
    if not acc.any():
        raise CentroidError(_ZERO_SUM)
    return acc / mass


def centroid(tokens: list[str], word_vectors: WordVectors, idf_table) -> np.ndarray:
    """tf-idf weighted centroid over distinct in-vocabulary terms, taken in
    first-occurrence order.

    Raises CentroidError when nothing is in vocabulary or the weights or the
    weighted vectors sum to zero; callers decide whether that aborts or skips
    the document.
    """
    terms, rows, tf = distinct_rows(tokens, word_vectors.row)
    return _centroid(word_vectors.matrix[rows], tf * idf_table.idfs(terms))


# Entries of a block of centroids summed together: its running sums, and
# each position's weighted vectors, hold at most this many values.
CENTROID_BLOCK_ENTRIES = 2 ** 15


def build_centroid_store(corpus, pipeline, word_vectors: WordVectors,
                         on_empty: str = "skip-document") -> DocVectorStore:
    """Precompute the centroid of every document (identical to computing them
    per query, cached once) from the pipeline's denoised bags of the corpus.

    The documents are summed together, a block at a time, position by
    position of their bags: `acc[:active] += w * x` adds each one's next
    term, in the order `centroid` adds it. Taken longest first, the
    documents a position still adds to are a prefix of their block.

    on_empty: 'skip-document' drops fully out-of-vocabulary docs with a
    warning; 'error' aborts.
    """
    if on_empty not in ("skip-document", "error"):
        raise ValueError(f"unknown zero-vector policy {on_empty!r}")
    bags = pipeline.bags(corpus)
    term_rows = np.fromiter(map(word_vectors.row.get, bags.terms, repeat(-1)),
                            dtype=np.int64, count=len(bags.terms))
    term_idf = pipeline.idf_table.idfs(bags.terms)
    # the bag entries of in-vocabulary terms; centroids never read the
    # term sequences, so only the bags are filtered
    in_vocab = term_rows[bags.ids] >= 0
    ids, offsets = bags.ids[in_vocab], kept_offsets(in_vocab, bags.offsets)
    rows = term_rows[ids]
    weights = bags.tf[in_vocab] * term_idf[ids]
    starts, lengths = offsets[:-1], np.diff(offsets)
    # each centroid goes into its row, in the corpus's doc_id order
    matrix = np.empty((len(corpus), word_vectors.dim))
    mass = np.empty(len(corpus))
    nonzero = np.empty(len(corpus), dtype=bool)
    order = np.argsort(-lengths)
    step = max(1, CENTROID_BLOCK_ENTRIES // word_vectors.dim)
    for lo in range(0, len(order), step):
        docs = order[lo:lo + step]
        first, count = starts[docs], lengths[docs]
        acc, block_mass = np.zeros((len(docs), word_vectors.dim)), np.zeros(len(docs))
        # the documents longer than position p, for every p
        active = np.searchsorted(-count, -np.arange(count[0]), "left")
        for p, n in enumerate(active.tolist()):
            entries = first[:n] + p
            w, terms = weights[entries], word_vectors.matrix[rows[entries]]
            terms *= w[:, None]
            acc[:n] += terms
            block_mass[:n] += w
        mass[docs], nonzero[docs] = block_mass, acc.any(axis=1)
        with np.errstate(invalid="ignore"):  # 0 / 0 where nothing was summed
            matrix[docs] = acc / block_mass[:, None]
    usable = (mass != 0.0) & nonzero
    if usable.all():
        return DocVectorStore(corpus.ids, matrix, tag="w2v-cent")
    bad = np.flatnonzero(~usable)
    if on_empty == "error":
        reason = _NO_WEIGHT if mass[bad[0]] == 0.0 else _ZERO_SUM
        raise CentroidError(f"document {corpus.ids[bad[0]]!r}: {reason}")
    skipped = [corpus.ids[i] for i in bad[:3].tolist()]
    log.warning("centroid store: skipped %d document(s) with no usable "
                "tokens or a zero sum, e.g. %s", len(bad), skipped)
    # the kept rows move up in place, a block at a time: kept[i] >= i, so
    # no row is overwritten before it is read
    kept = np.flatnonzero(usable)
    for lo in range(0, len(kept), step):
        block = kept[lo:lo + step]
        matrix[lo:lo + len(block)] = matrix[block]
    return DocVectorStore(list(compress(corpus.ids, usable.tolist())),
                          matrix[:len(kept)], tag="w2v-cent")


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
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (store.matrix @ query_vec) / (store._norms * qnorm)
    sims = np.where(store._norms == 0, -1.0, sims)
    # the ids ascend with the rows, so ascending rows order tied ids
    top = ranked_rows(sims, k)[:k]
    return RankedList._distinct(zip(store._ids[top].tolist(), sims[top].tolist()))

