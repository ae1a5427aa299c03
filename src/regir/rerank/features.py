"""Term-similarity features shared by the neural matchers.

Both matchers consume cosine similarities between query and document terms.
Vectors come from one of two providers
    TypeEmbeddings   one vector per term type (static word vectors)
    TokenEmbeddings  one vector per token position (frozen contextual
                     vectors produced by an external encoder, keyed
                     doc_id + token index over the denoised sequence)
and the similarity matrix pins identical in-vocabulary terms to exactly 1.0
while pairs with an out-of-vocabulary side score 0.
"""

from __future__ import annotations

import logging

import numpy as np

from .._textio import parse_number, read_vectors

log = logging.getLogger(__name__)


class TypeEmbeddings:
    """Unit-normalized static word vectors: one matrix in the word vectors'
    row numbering plus a spare zero row, which row id -1 (out-of-vocabulary)
    reads. Zero-norm vectors count as out-of-vocabulary: cosine is undefined
    for them."""

    dedup = True

    def __init__(self, word_vectors):
        m = word_vectors.matrix
        # one dot product per row: the bits of np.linalg.norm(vec), which
        # np.linalg.norm(m, axis=1) does not keep
        norms = np.sqrt(np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0])
        usable = norms > 0
        self._units = np.zeros((len(m) + 1, m.shape[1]))
        np.divide(m, norms[:, None], out=self._units[:-1], where=usable[:, None])
        self._row = word_vectors.row
        # word-vector row (-1 if none) -> row id
        self._ids = np.append(np.where(usable, np.arange(len(m)), -1), -1)
        if not usable.all():
            log.warning("word vectors: %d zero-norm vector(s) treated as "
                        "out-of-vocabulary", len(m) - usable.sum())

    def row_ids(self, terms) -> np.ndarray:
        """Each term's row id, -1 for out-of-vocabulary terms."""
        return self._ids[np.fromiter((self._row.get(t, -1) for t in terms),
                                     dtype=np.intp, count=len(terms))]

    def rows(self, doc_id: str, tokens, limit: int | None = None):
        """(units, in-vocab mask, identity keys) aligned with the first
        `limit` tokens (all without a limit); the keys are term row ids, -1
        for out-of-vocabulary tokens. The tokens are strings, or an int
        array of their row ids (see `row_ids`)."""
        tokens = tokens[:limit]
        ids = tokens if isinstance(tokens, np.ndarray) else self.row_ids(tokens)
        return self._units[ids], ids >= 0, ids


class TokenEmbeddings:
    """Per-position contextual vectors, unit-normalized once. The positions
    index the engine's own denoised token sequence, so the sequence length
    must match; identity keys are positional, so no pair gets the hard
    exact-match 1.0."""

    dedup = False

    def __init__(self, sequences: dict[str, np.ndarray]):
        self._seq = {}  # doc_id -> (units, mask of nonzero rows)
        for doc_id, seq in sequences.items():
            norms = np.linalg.norm(seq, axis=1)
            mask = norms > 0
            units = np.zeros_like(seq)
            units[mask] = seq[mask] / norms[mask, None]
            self._seq[doc_id] = units, mask

    def row_ids(self, terms) -> np.ndarray:
        """Rows are positional, so no term has a row of its own: all -1."""
        return np.full(len(terms), -1, dtype=np.intp)

    def rows(self, doc_id: str, tokens, limit: int | None = None):
        """Rows of the first `limit` positions; the whole sequence must still
        match the denoised text's length. Only the number of tokens is read,
        so they may be strings or any array with one entry per token."""
        if doc_id not in self._seq:
            raise KeyError(f"no token vectors for document {doc_id!r}")
        units, mask = self._seq[doc_id]
        if len(units) != len(tokens):
            raise ValueError(f"token vectors for {doc_id!r} cover {len(units)} "
                             f"positions but the denoised text has {len(tokens)}")
        return units[:limit], mask[:limit], None


def load_token_vectors(path) -> TokenEmbeddings:
    """Text format: `doc_id token_index v1 ... vdim`, one line per position;
    every document's indices must form a gap-free 0..L-1 range."""
    keys, line_nos, matrix = read_vectors(path, keys=2, comments=True)
    rows: dict[str, dict[int, int]] = {}
    for row, ((doc_id, idx_s), line_no) in enumerate(zip(keys, line_nos)):
        idx = parse_number(idx_s, int, f"{path}: line {line_no}: position")
        if idx in rows.setdefault(doc_id, {}):
            raise ValueError(f"{path}: line {line_no}: duplicate position "
                             f"{idx} for {doc_id!r}")
        rows[doc_id][idx] = row
    sequences = {}
    for doc_id, by_idx in rows.items():
        if sorted(by_idx) != list(range(len(by_idx))):
            raise ValueError(f"{path}: positions for {doc_id!r} are not a "
                             f"gap-free 0..{len(by_idx) - 1} range")
        sequences[doc_id] = matrix[[by_idx[i] for i in range(len(by_idx))]]
    del matrix  # the sequences are copies: free the parsed rows before normalizing
    return TokenEmbeddings(sequences)


def sim_matrix(q_units, q_mask, q_keys, d_units, d_mask, d_keys) -> np.ndarray:
    """Cosine similarities, clipped to [-1, 1]; 0 where either side is
    out-of-vocabulary; exactly 1.0 where in-vocabulary identity keys agree."""
    S = q_units @ d_units.T
    S[~q_mask, :] = 0.0
    S[:, ~d_mask] = 0.0
    np.clip(S, -1.0, 1.0, out=S)
    if q_keys is not None and d_keys is not None:
        same = q_keys[:, None] == d_keys[None, :]
        same &= q_mask[:, None] & d_mask[None, :]
        S[same] = 1.0
    return S


def bin_similarities(sims: np.ndarray, widths, bins: int) -> np.ndarray:
    """Log-count histograms of each row of an (R, C) input over each of n
    column segments, the segments' `widths` summing to C: (n, R, bins + 1).
    `bins` regular bins over [-1, 1) plus a reserved top bin counting exact
    1.0 matches. Every (segment, row) histogram comes from one bincount over
    offset bin indices; each entry's bin is its own elementwise function."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    n_rows, n_segs = sims.shape[0], len(widths)
    idx = np.floor((sims + 1.0) / 2.0 * bins).astype(np.intp)
    np.clip(idx, 0, bins - 1, out=idx)
    idx[sims == 1.0] = bins
    segment = np.repeat(np.arange(n_segs), widths)
    idx += (np.arange(n_rows)[:, None] * n_segs + segment) * (bins + 1)
    counts = np.bincount(idx.ravel(), minlength=n_rows * n_segs * (bins + 1))
    return np.log1p(counts.reshape(n_rows, n_segs, bins + 1)).transpose(1, 0, 2)


def dedup_terms(tokens: list[str]) -> list[str]:
    """Distinct terms in first-occurrence order."""
    return list(dict.fromkeys(tokens))


def drmm_query(query_terms: list[str], query_doc_id: str, provider, idf_table):
    """The query's side of its DRMM features, the same against every
    document: the rows of its terms and their idf."""
    if not query_terms:
        raise ValueError("empty query after denoising")
    return (provider.rows(query_doc_id, query_terms),
            idf_table.idfs(query_terms))


# Bound on the entries of one DRMM batch's (Q, sum of D) similarity buffer,
# and so on the memory a batch adds, at any query and document length; a
# document longer than it on its own forms a batch of one.
DRMM_BATCH_ENTRIES = 2 ** 16


def drmm_batch(query, docs, provider, bins: int) -> list:
    """DRMM features of a `drmm_query` result against each (doc_id, tokens)
    in docs, whose tokens go to `provider.rows`, in order. Documents are
    taken in batches of at most DRMM_BATCH_ENTRIES similarities."""
    n_terms = len(query[0][1])
    feats, batch, width = [], [], 0
    for doc in docs:
        if batch and n_terms * (width + len(doc[1])) > DRMM_BATCH_ENTRIES:
            feats += _drmm_batch(query, batch, provider, bins)
            batch, width = [], 0
        batch.append(doc)
        width += len(doc[1])
    return feats + (_drmm_batch(query, batch, provider, bins) if batch else [])


def _drmm_batch(query, docs, provider, bins: int) -> list:
    """One batch of `drmm_batch`. Each document's similarities are its own
    `q_units @ d_units.T`, the product a single pair computes; clipping, the
    exact-match pin and binning are elementwise, so a pair's histograms do
    not depend on the rest of the batch. Out-of-vocabulary query terms keep
    a zero histogram."""
    (q_units, q_mask, q_keys), idf = query
    products, d_masks, d_keys = [], [], []
    for doc_id, tokens in docs:
        units, mask, keys = provider.rows(doc_id, tokens)
        products.append(q_units @ units.T)
        d_masks.append(mask)
        d_keys.append(keys)
    d_mask = np.concatenate(d_masks)
    S = np.concatenate(products, axis=1)[np.ix_(q_mask, d_mask)]
    np.clip(S, -1.0, 1.0, out=S)
    if q_keys is not None:
        S[q_keys[q_mask][:, None] == np.concatenate(d_keys)[d_mask]] = 1.0
    hists = np.zeros((len(docs), len(q_mask), bins + 1))
    hists[:, q_mask] = bin_similarities(
        S, [np.count_nonzero(mask) for mask in d_masks], bins)
    return [(h.copy(), idf) for h in hists]


def drmm_features(query_terms: list[str], query_doc_id: str,
                  doc_tokens: list[str], doc_id: str,
                  provider, idf_table, bins: int):
    """Per distinct query term: a similarity histogram against every
    in-vocabulary document token, plus the term's idf for the gate.

    Out-of-vocabulary query terms keep a zero histogram. With positional
    providers each query position counts as its own term.
    """
    return drmm_batch(drmm_query(query_terms, query_doc_id, provider, idf_table),
                      [(doc_id, doc_tokens)], provider, bins)[0]


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def pacrr_query(query_tokens: list[str], query_doc_id: str, provider,
                idf_table, q_len: int):
    """The query's side of its PACRR features, the same against every
    document: the rows of its first q_len tokens and their softmax-normalized
    idf."""
    if not query_tokens:
        raise ValueError("empty query after denoising")
    return (provider.rows(query_doc_id, query_tokens, q_len),
            softmax(idf_table.idfs(query_tokens[:q_len])))


def pacrr_pair(query, doc_tokens, doc_id: str, provider, d_len: int):
    """PACRR features of a `pacrr_query` result against one document, whose
    tokens go to `provider.rows`; a document with no tokens gives a (T, 0)
    similarity matrix."""
    rows, idf_col = query
    return sim_matrix(*rows, *provider.rows(doc_id, doc_tokens, d_len)), idf_col


def pacrr_features(query_tokens: list[str], query_doc_id: str,
                   doc_tokens: list[str], doc_id: str,
                   provider, idf_table, q_len: int, d_len: int):
    """Similarity matrix over the (truncated) query and document token
    sequences plus the softmax-normalized idf of the retained query terms.
    No padding rows: short queries keep one row per retained term."""
    return pacrr_pair(pacrr_query(query_tokens, query_doc_id, provider,
                                  idf_table, q_len),
                      doc_tokens, doc_id, provider, d_len)
