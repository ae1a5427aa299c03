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
from itertools import repeat

import numpy as np

from .._textio import parse_number, read_vectors
from ..dense import NORM_BLOCK_ENTRIES, _row_norms

log = logging.getLogger(__name__)


class _UnitRows:
    """Unit-normalized vectors in one matrix plus a spare zero row, which
    row id -1 (out-of-vocabulary) reads. A row of zero norm counts as
    out-of-vocabulary: cosine is undefined for it. Identity keys are the
    row ids when the provider has a vector per term (`dedup`), else none.

    Row j of the unit matrix is row order[j] of matrix (row j without an
    order) divided by its norm, written a block of rows at a time, so an
    order costs no reordered copy of the matrix."""

    def __init__(self, matrix: np.ndarray, norms: np.ndarray, order=None):
        size = len(matrix) if order is None else len(order)
        usable = norms > 0 if order is None else norms[order] > 0
        self._units = np.zeros((size + 1, matrix.shape[1]))
        step = max(1, NORM_BLOCK_ENTRIES // max(1, matrix.shape[1]))
        for lo in range(0, size, step):
            rows = slice(lo, lo + step) if order is None else order[lo:lo + step]
            np.divide(matrix[rows], norms[rows, None], out=self._units[:-1][lo:lo + step],
                      where=usable[lo:lo + step, None])
        self._usable = np.append(usable, False)
        self._range = np.arange(size)

    def row_ids(self, terms) -> np.ndarray:
        """Each term's row id, -1 for a term with no row."""
        return np.fromiter(map(self._row.get, terms, repeat(-1)), dtype=np.intp,
                           count=len(terms))

    def in_vocab(self, ids) -> np.ndarray:
        """Whether each row id's row has a vector of nonzero norm."""
        return self._usable[ids]

    def units(self, ids) -> np.ndarray:
        """The unit rows of row ids; -1 reads the zero row. A unit-stride
        view of `_range` holds consecutive ids: it reads a slice, no copy."""
        if ids.base is self._range and ids.strides == self._range.strides and len(ids):
            return self._units[ids[0]:ids[0] + len(ids)]
        return self._units[ids]

    def rows(self, ids: np.ndarray, limit: int | None = None):
        """(units, in-vocab mask, identity keys) of the first `limit` row ids
        (all without a limit)."""
        ids = ids[:limit]
        return self.units(ids), self.in_vocab(ids), ids if self.dedup else None


class TypeEmbeddings(_UnitRows):
    """Static word vectors, in the word vectors' row numbering; a term's
    tokens share its row, so equal in-vocabulary rows pin to 1.0."""

    dedup = True

    def __init__(self, word_vectors):
        m = word_vectors.matrix
        # one dot product per row: the bits of np.linalg.norm(vec), which
        # np.linalg.norm(m, axis=1) does not keep
        super().__init__(m, np.sqrt(np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0]))
        self._row = word_vectors.row
        if unusable := np.count_nonzero(~self._usable[:-1]):
            log.warning("word vectors: %d zero-norm vector(s) treated as "
                        "out-of-vocabulary", unusable)

    def ids(self, doc_id: str, tokens: np.ndarray) -> np.ndarray:
        """The tokens, which are already row ids (see `row_ids`)."""
        return tokens


class TokenEmbeddings(_UnitRows):
    """Per-position contextual vectors: `positions` maps each doc_id to its
    positions' rows of `matrix`, in order. The unit matrix holds them
    document by document, each in position order, so a document's row ids
    are one run, whose units read as a slice. The positions index the
    engine's own denoised token sequence, so its length must match; rows
    are positional, so no pair gets the hard exact-match 1.0."""

    dedup = False
    _row: dict[str, int] = {}  # no term has a row of its own

    def __init__(self, matrix: np.ndarray, positions: dict[str, np.ndarray]):
        order = np.concatenate([np.zeros(0, dtype=np.intp), *positions.values()])
        super().__init__(matrix, _row_norms(matrix), order)
        ends = np.cumsum([len(rows) for rows in positions.values()], dtype=np.intp)
        self._positions = {doc_id: self._range[end - len(rows):end]
                           for (doc_id, rows), end in zip(positions.items(), ends)}

    def ids(self, doc_id: str, tokens) -> np.ndarray:
        """The row ids of a document's positions, as many as its denoised
        tokens, of which only the number is read. A text with no tokens has
        no positions and needs no vectors, which the file cannot list."""
        if len(tokens) and doc_id not in self._positions:
            raise KeyError(f"no token vectors for document {doc_id!r}")
        ids = self._positions.get(doc_id, self._range[:0])
        if len(ids) != len(tokens):
            raise ValueError(f"token vectors for {doc_id!r} cover {len(ids)} "
                             f"positions but the denoised text has {len(tokens)}")
        return ids


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
    del keys, line_nos  # free the per-line lists before normalizing
    for doc_id, by_idx in rows.items():
        if sorted(by_idx) != list(range(len(by_idx))):
            raise ValueError(f"{path}: positions for {doc_id!r} are not a "
                             f"gap-free 0..{len(by_idx) - 1} range")
        rows[doc_id] = np.array([by_idx[i] for i in range(len(by_idx))], dtype=np.intp)
    return TokenEmbeddings(matrix, rows)


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


def _bin_numbers(sims: np.ndarray, bins: int) -> np.ndarray:
    """Overwrites an array of similarities with their bins, as floats, and
    returns it: `bins` regular bins over [-1, 1), anything lower in the
    first, and a reserved top bin for s >= 1.0, where clipping puts a
    similarity at exactly 1.0. The bin is a non-decreasing function of s:
    every step (a comparison, + 1, / 2, * bins, floor, clip) is monotone in
    floating point."""
    top = sims >= 1.0
    sims += 1.0
    sims /= 2.0
    sims *= bins
    np.floor(sims, out=sims)
    np.clip(sims, 0, bins - 1, out=sims)
    sims[top] = bins
    return sims


def dedup_terms(tokens: list[str]) -> list[str]:
    """Distinct terms in first-occurrence order."""
    return list(dict.fromkeys(tokens))


def drmm_query(ids: np.ndarray, provider, idf: np.ndarray):
    """The query's side of its DRMM features, the same against every
    document: the rows of its terms, given as row ids, and their idf."""
    if not len(ids):
        raise ValueError("empty query after denoising")
    return provider.rows(ids), idf


# Bound on the entries of one DRMM batch, query terms times document tokens
# summed over its documents; a document above it forms a batch of one. At
# 2**20 each 50-candidate list of the uk2eu-ensemble-drmm benchmark is one
# batch (the largest hold about 0.6 M entries). Besides the count
# histograms it returns, one byte per bin unless a bin holds 256 tokens or
# more, a batch holds at most 8 bytes per histogram bin, 16 per entry, 64
# per token and 1 MiB of slices; a batch that takes the per-document exit
# adds 8 * dim bytes per token and 17 per entry of its largest document.
DRMM_BATCH_ENTRIES = 2 ** 20

# Entries a batch bins or counts at a time: its table is binned, and its
# tokens counted, in slices of about this many similarities (a slice holds
# whole documents, so one long document may exceed it).
DRMM_SLICE_ENTRIES = 2 ** 15


def drmm_batch(query, docs, provider, bins: int) -> list:
    """DRMM features of a `drmm_query` result against each document of
    docs, in order, given as its tokens' row ids (see `ids`). Documents are
    taken in batches of at most DRMM_BATCH_ENTRIES similarities."""
    n_terms = len(query[0][1])
    feats, batch, width = [], [], 0
    for ids in docs:
        if batch and n_terms * (width + len(ids)) > DRMM_BATCH_ENTRIES:
            feats += _drmm_batch(query, batch, provider, bins)
            batch, width = [], 0
        batch.append(ids)
        width += len(ids)
    return feats + (_drmm_batch(query, batch, provider, bins) if batch else [])


def _drmm_batch(query, docs, provider, bins: int) -> list:
    """One batch of `drmm_batch`. Its similarities form one table with a
    column per in-vocabulary query term and a row per distinct
    in-vocabulary row id of the batch: a term's, shared by its tokens, for
    a provider with a vector per term, else a position's. The table is
    binned once, in slices of rows, and each token reads its row's bins, so
    a term shared by many tokens is multiplied and binned once.
    `_proved_bins` shows that each bin is the one a pair's own `sim_matrix`
    gives; a batch where it cannot bins each pair's `sim_matrix` instead,
    which is kept only as this exit. Out-of-vocabulary query terms keep a
    zero histogram."""
    (q_units, q_mask, q_keys), idf = query
    ids = np.concatenate(docs)
    usable = provider.in_vocab(ids)
    rows, token_rows = np.unique(ids[usable], return_inverse=True)
    # each document's in-vocabulary tokens
    widths = np.bincount(np.repeat(np.arange(len(docs)), [len(d) for d in docs])[usable],
                         minlength=len(docs))
    binned = _proved_bins(provider, rows, q_units[q_mask],
                          None if q_keys is None else q_keys[q_mask], bins)
    if binned is None:
        binned = _per_document_bins(query[0], docs, provider, bins, widths.sum())
        token_rows = None
    hists = _histograms(binned, token_rows, widths, np.flatnonzero(q_mask),
                        len(q_mask), bins)
    return [(h, idf) for h in hists]


def _proved_bins(provider, rows, q_in, pins, bins: int):
    """The bins of a similarity table as an int array (len(rows), len(q_in)):
    the units of the row ids `rows`, a slice at a time, against the
    in-vocabulary query rows q_in, and the top bin where a row id equals one
    of `pins`, those rows' identity keys (None if they have none). None if
    a bin is not proved to equal that of every floating-point evaluation of
    its entry.

    Any evaluation of the dot product of two dim-term vectors, in any
    summation order and with or without fused multiply-adds, is within
    gamma * |x| * |y| of the exact value, gamma = dim * u / (1 - dim * u),
    u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1). Unit rows have norms within (dim + 2) * u of 1, so for
    any dim below 10**12 an entry s has |s| < 1.001, and two evaluations s
    and s' differ by less than 2.01 * dim * u.

    Each entry is binned once, through v = (s + 1) * (bins / 2): halving is
    exact, so v has the bits of `_bin_numbers`' ((s + 1) / 2) * bins, and
    the bin of s is clip(floor(v), 0, bins - 1), or the top bin where
    s >= 1.0. Write w(x) for v computed from x. Each of the two roundings
    is within u of its exact result, so for |x - s| <= d < 10**-3,
    |w(x) - v| <= (bins / 2) * (d + (|x + 1| + |s + 1|) * (2 * u + u * u))
    < (bins / 2) * d + 4.004 * bins * u. Two cases set d:
      - another evaluation s' of the entry, d = 2.01 * dim * u;
      - the ends s -+ eps, rounded, of the bracket eps = 4 * dim * u that an
        older guard binned twice, d = 4 * dim * u + 1.002 * u.
    The second is the wider: the margin m = bins * (2 * dim + 5) * u, exact
    in floating point, bounds |w(x) - v| in both. Rounding is monotone and
    w(x) is a float, so v - m and v + m, each rounded, bracket w(x).

    The bin is non-decreasing in w (see `_bin_numbers`), so an entry's bin
    is proved where ceil(v - m) - 1, the largest integer below v - m, and
    floor(v + m) agree, both clipped to [0, bins]. A common value below
    bins is then the bin of every such x. A common value bins needs v - m
    above bins, which only x above 1.0 gives: w(x) = bins itself can come
    from x just below 1.0, whose bin is bins - 1. The low end differs from
    floor(v - m) only where v - m is an integer. Identity matches take the
    top bin on both sides. A proved bin is therefore the one the pair's own
    `sim_matrix` gives, and the guard accepts no entry whose bins at the
    older bracket's ends differ."""
    margin = bins * (2 * q_in.shape[1] + 5) * 2.0 ** -53
    # table rows per slice: its vectors and similarities fit the slice
    step = max(1, DRMM_SLICE_ENTRIES // (len(q_in) + q_in.shape[1]))
    binned = np.empty((len(rows), len(q_in)), dtype=np.intp)
    for i in range(0, len(rows), step):
        v = provider.units(rows[i:i + step]) @ q_in.T
        v += 1.0
        v *= bins / 2
        low = np.ceil(v - margin)
        low -= 1
        v += margin
        high = np.floor(v, out=v)
        np.clip(low, 0, bins, out=low)
        np.clip(high, 0, bins, out=high)
        if pins is not None:
            pin = rows[i:i + step, None] == pins
            low[pin] = high[pin] = bins
        if not np.array_equal(low, high):
            return None
        binned[i:i + step] = high
    return binned


def _per_document_bins(q_rows, docs, provider, bins: int, n_rows: int) -> np.ndarray:
    """The bins of a batch's similarities as an int array, a row per
    in-vocabulary token (n_rows of them) and a column per in-vocabulary
    query term, from each document's own `sim_matrix` with the query's
    rows q_rows, the one a single pair computes."""
    binned = np.empty((n_rows, np.count_nonzero(q_rows[1])), dtype=np.intp)
    start = 0
    for ids in docs:
        d_rows = provider.rows(ids)
        block = sim_matrix(*q_rows, *d_rows)[np.ix_(q_rows[1], d_rows[1])]
        binned[start:start + block.shape[1]] = _bin_numbers(block, bins).T
        start += block.shape[1]
    return binned


def _histograms(binned, token_rows, widths, terms, n_terms: int, bins: int) -> list:
    """Each document's count histograms (n_terms, bins + 1) from an int
    array of bins, which it overwrites: its column j is histogram row
    terms[j], and the other rows stay zero. Document k has widths[k]
    in-vocabulary tokens; the tokens, in document order, read the array's
    rows token_rows (its rows in order when token_rows is None). They are
    counted in slices of whole documents, each with one bincount over
    offset bins. The counts come in the smallest unsigned type that holds
    the batch's largest count, each document's a view of its slice's
    array."""
    width = bins + 1
    binned += terms * width
    starts = np.concatenate(([0], np.cumsum(widths)))
    step = max(1, DRMM_SLICE_ENTRIES // max(1, len(terms)))
    slices, first = [], 0
    while first < len(widths):
        last = max(first + 1, np.searchsorted(starts, starts[first] + step, "right") - 1)
        lo, hi = starts[first], starts[last]
        idx = binned[lo:hi] if token_rows is None else binned[token_rows[lo:hi]]
        idx += (np.repeat(np.arange(last - first) * (n_terms * width),
                          widths[first:last]))[:, None]
        counts = np.bincount(idx.ravel(), minlength=(last - first) * n_terms * width)
        slices.append(counts.reshape(last - first, n_terms, width))
        first = last
    dtype = np.min_scalar_type(max(int(counts.max(initial=0)) for counts in slices))
    return [hists for counts in slices for hists in counts.astype(dtype)]


def drmm_features(query_tokens: list[str], query_doc_id: str,
                  doc_tokens: list[str], doc_id: str,
                  provider, idf_table, bins: int):
    """Per distinct query term: a histogram counting its similarities
    against every in-vocabulary document token, in the smallest unsigned
    type that holds its counts, plus the term's idf for the gate. The
    tokens are strings, each mapped to its row once.

    Out-of-vocabulary query terms keep a zero histogram. With positional
    providers each query position counts as its own term.
    """
    terms = dedup_terms(query_tokens) if provider.dedup else query_tokens
    query = drmm_query(provider.ids(query_doc_id, provider.row_ids(terms)), provider,
                       idf_table.idfs(terms))
    doc = provider.ids(doc_id, provider.row_ids(doc_tokens))
    return drmm_batch(query, [doc], provider, bins)[0]


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def pacrr_query(ids: np.ndarray, provider, idf: np.ndarray, q_len: int):
    """The query's side of its PACRR features, the same against every
    document: the rows of its first q_len tokens, given as row ids, and
    their softmax-normalized idf."""
    if not len(ids):
        raise ValueError("empty query after denoising")
    return provider.rows(ids, q_len), softmax(idf[:q_len])


def pacrr_batch(query, docs, provider, d_len: int) -> list:
    """PACRR features of a `pacrr_query` result against each document of
    docs, in order, given as its tokens' row ids (see `ids`) and cut at
    d_len: each pair's S, the bits of its own `sim_matrix`, and the query's
    idf column.

    The list's similarities are one (T, total D) block. Each document's
    product `q_units @ d_units.T`, its own matmul over its own gathered
    rows, is written into its columns; the masks, the clip and the identity
    pins then run once over the block. Each step is elementwise, so every
    entry keeps the bits of its pair's `sim_matrix`, and each S is a view
    of its document's columns, (T, 0) for a document with no tokens.

    Besides the block, 8 bytes per entry, computing it holds at most 1 byte
    per entry (the pins), 24 bytes per column, 384 per document, one
    document's gathered units, 8 * dim bytes per token, and 256 KiB for
    numpy's buffers."""
    (q_units, q_mask, q_keys), idf_col = query
    docs = [ids[:d_len] for ids in docs]
    bounds = np.cumsum([0] + [len(ids) for ids in docs]).tolist()
    S = np.empty((len(q_units), bounds[-1]))
    for ids, a, b in zip(docs, bounds, bounds[1:]):
        np.matmul(q_units, provider.units(ids).T, out=S[:, a:b])
    ids = np.concatenate([np.zeros(0, dtype=np.intp), *docs])
    d_mask = provider.in_vocab(ids)
    S[~q_mask, :] = 0.0
    S[:, ~d_mask] = 0.0
    np.clip(S, -1.0, 1.0, out=S)
    if q_keys is not None:
        # keys are row ids, in vocabulary on both sides or on neither, so an
        # out-of-vocabulary document token keyed -2, no row id, agrees with
        # no query term, and every agreeing pair is in vocabulary
        S[q_keys[:, None] == np.where(d_mask, ids, -2)] = 1.0
    return [(S[:, a:b], idf_col) for a, b in zip(bounds, bounds[1:])]


def pacrr_features(query_tokens: list[str], query_doc_id: str,
                   doc_tokens: list[str], doc_id: str,
                   provider, idf_table, q_len: int, d_len: int):
    """Similarity matrix over the (truncated) query and document token
    sequences plus the softmax-normalized idf of the retained query terms.
    No padding rows: short queries keep one row per retained term. The
    tokens are strings, each mapped to its row once."""
    query = pacrr_query(provider.ids(query_doc_id, provider.row_ids(query_tokens)),
                        provider, idf_table.idfs(query_tokens), q_len)
    return pacrr_batch(query, [provider.ids(doc_id, provider.row_ids(doc_tokens))],
                       provider, d_len)[0]
