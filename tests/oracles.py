"""Reference code that only tests call: the tokenizer that strips combining
marks one character at a time, scorers one (query, document) pair at a time
(BM25 read off a document's postings, DRMM and PACRR forward passes from raw
token lists or from one pair's 2-d products, and re-ranking with one model
call per candidate), BM25 over the whole pool with one scatter-add per query
term and tuned with one search per (cell, query), a training step that scores
and back-propagates one pair at a time, the dict-built postings, the lexsort
top-k, the per-row histogram, the bin-edge guard that bins each entry
twice, the einsum and strided-gather convolutions and
PACRR's rows with a padding and a k-max per kernel size, which the
vectorized kernels must reproduce, unit word and token vectors
normalized one term or one call at a time, the pre-fetch steps one entry at
a time (denoising per token, idf per term and per df, the date filter and min-max
normalization per entry, fusion over dicts and a tuple-keyed sort), run
files written one formatted line per entry, the R@k curve from each
query's `accumulate`d hits, builtin `sum` as Python adds floats before
3.12 and since, and small readers and helpers the pipeline itself has no
use for."""

from __future__ import annotations

import math
import operator
import re
import unicodedata
from collections import Counter
from functools import reduce
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from regir.bm25 import Bm25Params, GridCell, PostingsIndex
from regir.fusion import normalize_scores
from regir.metrics import float_sum, recall_at_k
from regir.ranking import RankedList, sort_scored
from regir._textio import write_table
from regir.text import IdfTable, TextPipeline
from regir.rerank.drmm import DrmmModel
from regir.rerank.features import (TokenEmbeddings, TypeEmbeddings, _bin_numbers,
                                   drmm_features, pacrr_features, sim_matrix, softmax)
from regir.rerank.pacrr import PacrrModel, _row_kmax, _sigmoid
from regir.rerank.train import hinge_loss, rel_score


def tokenize_per_char(text: str) -> list[str]:
    """`text.tokenize` with NFKD over the whole text, the combining-mark
    strip as a generator over its every character, and the digit tokens
    dropped by a list comprehension."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    tokens = re.findall(r"[^\W_]+", stripped.lower())
    return [t for t in tokens if not t.isdigit()]


def idf_from_token_lists(token_lists) -> IdfTable:
    """Idf table with document frequencies from pre-tokenized documents."""
    df: Counter[str] = Counter()
    n = 0
    for tokens in token_lists:
        n += 1
        df.update(set(tokens))
    if n == 0:
        raise ValueError("cannot build an idf table from zero documents")
    return IdfTable(n, dict(df))


def denoise_per_token(pipeline: TextPipeline, tokens: list[str]) -> list[str]:
    """`TextPipeline.denoise` with one stopword test and, with the idf
    filter on, one idf lookup and comparison per token."""
    def keeps(term: str) -> bool:
        if term in pipeline.stopwords:
            return False
        return (not pipeline.idf_filter
                or pipeline.idf_table.idf(term) >= pipeline.threshold)
    return [t for t in tokens if keeps(t)]


def distinct_rows_per_term(tokens: list[str], row: dict):
    """`text.distinct_rows` with one `row.get` per distinct token."""
    terms, rows, counts = [], [], []
    for term, tf in Counter(tokens).items():
        r = row.get(term)
        if r is not None:
            terms.append(term)
            rows.append(r)
            counts.append(float(tf))
    return terms, np.array(rows, dtype=np.intp), np.array(counts, dtype=np.float64)


def idf_per_df(doc_count: int, df: int) -> float:
    """The smoothed idf of one Python int df, as `IdfTable` defines it."""
    return math.log((doc_count - df + 0.5) / (df + 0.5) + 1.0)


def sort_scored_by_tuple(pairs) -> list[tuple[str, float]]:
    """`ranking.sort_scored` as one sort keyed by (-score, doc_id)."""
    return sorted(pairs, key=lambda p: (-p[1], p[0]))


def apply_filter_per_entry(query_doc, ranking: RankedList, window, corpus) -> RankedList:
    """`datefilter.apply_filter` with two `corpus.get` calls per entry and
    the window test in Python ints and floats."""
    if query_doc.year == 0:
        return ranking
    y = window.max_distance_years
    return RankedList([(doc_id, score) for doc_id, score in ranking
                       if corpus.get(doc_id).year == 0
                       or abs(corpus.get(doc_id).year - query_doc.year) <= y],
                      presorted=True)


def normalize_scores_per_entry(ranking: RankedList) -> RankedList:
    """`fusion.normalize_scores` computing `(s - lo) / span` one Python
    float at a time."""
    if not ranking:
        raise ValueError("cannot normalize an empty ranking")
    scores = [s for _, s in ranking]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return RankedList([(d, 1.0) for d, _ in ranking], presorted=True)
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"cannot normalize scores from {float(lo)!r} to "
                         f"{float(hi)!r}: their span is not finite")
    return RankedList([(d, (s - lo) / span) for d, s in ranking], presorted=True)


def fuse_dict_sort(list_a: RankedList, list_b: RankedList, alpha: float,
                   k: int) -> RankedList:
    """`fusion.fuse` of two normalized lists over two dicts and their set
    union, each score one Python float expression, cut after a full
    `sort_scored_by_tuple`."""
    a, b = dict(list_a), dict(list_b)
    fused = [(doc_id, alpha * a.get(doc_id, 0.0) + (1 - alpha) * b.get(doc_id, 0.0))
             for doc_id in set(a) | set(b)]
    return RankedList(sort_scored_by_tuple(fused)[:k], presorted=True)


def mean_relevant(qrels) -> float:
    """Mean number of relevant documents per judged query."""
    if not qrels.entries:
        return 0.0
    return sum(len(v) for v in qrels.entries.values()) / len(qrels.entries)


def postings_dict(corpus, pipeline) -> dict[str, list[tuple[str, int]]]:
    """term -> [(doc_id, tf)] over the denoised pool, both sorted: the dict
    index the CSR build must equal."""
    term_docs: dict[str, dict[str, int]] = {}
    for doc in corpus:
        for term, tf in Counter(pipeline(doc.text)).items():
            term_docs.setdefault(term, {})[doc.doc_id] = tf
    return {t: sorted(term_docs[t].items()) for t in sorted(term_docs)}


def index_from_postings(postings: dict[str, list[tuple[str, int]]],
                        doc_ids, idf_table: IdfTable) -> PostingsIndex:
    """A CSR index holding the given term -> [(doc_id, tf)] postings over
    the given documents, each list in doc_id order, through a pipeline with
    no stopwords and no idf filter: every term of the table is indexed, so
    the postings must cover it with its df."""
    ids = sorted(doc_ids)
    pos = {d: i for i, d in enumerate(ids)}
    terms = sorted(postings)
    positions = np.array([pos[d] for t in terms for d, _ in postings[t]],
                         dtype=np.int32)
    tf = np.array([f for t in terms for _, f in postings[t]], dtype=np.int32)
    pipeline = TextPipeline(idf_table, stopwords=frozenset(), idf_filter=False)
    index = PostingsIndex(pipeline, ids, positions, tf)
    assert index.terms == terms
    assert np.diff(index.offsets).tolist() == [len(postings[t]) for t in terms]
    return index


def postings_of(index: PostingsIndex) -> dict[str, list[tuple[str, int]]]:
    """The CSR postings as term -> [(doc_id, tf)]."""
    bounds = index.offsets
    return {term: [(str(index.doc_ids[p]), int(f))
                   for p, f in zip(index.positions[lo:hi], index.tf[lo:hi])]
            for term, lo, hi in zip(index.terms, bounds, bounds[1:])}


def doc_len_of(index: PostingsIndex) -> dict[str, int]:
    return {str(d): int(n) for d, n in zip(index.doc_ids, index.doc_len)}


def validate(index: PostingsIndex) -> None:
    """Check the structural invariants; raises on violation."""
    for term, plist in postings_of(index).items():
        if any(tf < 1 for _, tf in plist):
            raise AssertionError(f"tf < 1 in postings of {term!r}")
        if len(plist) != index.idf_table.df(term):
            raise AssertionError(
                f"postings df {len(plist)} != idf-table df "
                f"{index.idf_table.df(term)} for {term!r}")
    doc_len = doc_len_of(index)
    expect = sum(doc_len.values()) / len(doc_len)
    if abs(index.avg_len - expect) > 1e-12:
        raise AssertionError("avg_len out of sync with doc_len")


def score_of(ranking, doc_id: str):
    """The score of doc_id in a ranked list, None when it is absent."""
    for d, s in ranking:
        if d == doc_id:
            return s
    return None


def top_k_lexsort(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k by a full lexsort: -score first, then doc_id ascending; each
    tuple built from one `str` and one `float` call."""
    order = np.lexsort((doc_ids, -scores))
    top = order[: max(k, 0)]
    return [(str(doc_ids[i]), float(scores[i])) for i in top]


def bm25_score(index: PostingsIndex, query_tokens: list[str], doc_id: str,
               params: Bm25Params) -> float:
    """BM25 of one document, read off its postings one term at a time."""
    doc_len = doc_len_of(index)
    if doc_id not in doc_len:
        raise KeyError(f"unknown doc_id {doc_id!r}")
    norm = index._norm(doc_len[doc_id], params)
    postings = postings_of(index)
    score = 0.0
    for term, q_tf in Counter(query_tokens).items():
        plist = postings.get(term)
        if plist is None:
            continue
        tf = next((f for d, f in plist if d == doc_id), 0)
        if tf == 0:
            continue
        idf = index.idf_table.idf(term)
        score += q_tf * idf * tf * (params.k1 + 1) / (tf + params.k1 * norm)
    return score


def score_all_per_term(index: PostingsIndex, query_tokens: list[str],
                       params: Bm25Params) -> np.ndarray:
    """`PostingsIndex.score_all` with one scatter-add `scores[pos] += ...`
    per distinct query term, in first-occurrence order."""
    rows = {t: i for i, t in enumerate(index.terms)}
    bounds = index.offsets
    scores = np.zeros(index.doc_count)
    norms = params.k1 * index._norm(index.doc_len, params)
    for term, q_tf in Counter(query_tokens).items():
        row = rows.get(term)
        if row is None:
            continue
        lo, hi = bounds[row], bounds[row + 1]
        pos, tf = index.positions[lo:hi], index.tf[lo:hi]
        w = q_tf * index.idf_table.idf(term) * tf * (params.k1 + 1)
        scores[pos] += w / (tf + norms[pos])
    return scores


def tune_bm25_per_cell(index: PostingsIndex, queries: dict[str, list[str]],
                       qrels, k1_grid: list[float], b_grid: list[float],
                       k: int) -> list[GridCell]:
    """`tune_bm25`'s cells with one `bm25_search` per (cell, query)."""
    scored = [(toks, qrels.relevant(q)) for q, toks in sorted(queries.items())
              if qrels.relevant(q)]
    cells = []
    for k1 in k1_grid:
        for b in b_grid:
            params = Bm25Params(k1, b)
            total = 0.0
            for toks, rel in scored:
                total += recall_at_k(index.bm25_search(toks, params, k), rel, k)
            cells.append(GridCell(k1, b, total / len(scored)))
    return cells


def bin_similarities_row(sims: np.ndarray, bins: int) -> np.ndarray:
    """One row's count histogram (int64), one `np.add.at` per row: `bins`
    regular bins over [-1, 1) plus a reserved top bin for exact 1.0
    matches."""
    hist = np.zeros(bins + 1, dtype=np.int64)
    exact = sims == 1.0
    hist[bins] = np.count_nonzero(exact)
    rest = sims[~exact]
    if len(rest):
        idx = np.floor((rest + 1.0) / 2.0 * bins).astype(int)
        np.clip(idx, 0, bins - 1, out=idx)
        np.add.at(hist, idx, 1)
    return hist


def bin_edge_bracket(sims: np.ndarray, dim: int, bins: int):
    """The bin-edge guard that bins each entry of a similarity table twice:
    the bins of s - eps and of s + eps by `_bin_numbers`, eps = 4 * dim *
    2**-53, which bracket every evaluation of s. An entry is proved where
    the two agree."""
    eps = 4 * dim * 2.0 ** -53
    return _bin_numbers(sims - eps, bins), _bin_numbers(sims + eps, bins)


def drmm_features_per_row(query_terms: list[str], doc_tokens: list[str],
                          provider, idf_table, bins: int, query_doc_id: str = "",
                          doc_id: str = ""):
    """`drmm_features` of one pair, with one histogram per in-vocabulary
    query term, its counts as int64."""
    q_units, q_mask, q_keys = text_rows(provider, query_doc_id, query_terms)
    d_units, d_mask, d_keys = text_rows(provider, doc_id, doc_tokens)
    S = sim_matrix(q_units, q_mask, q_keys, d_units, d_mask, d_keys)
    hists = np.zeros((len(query_terms), bins + 1), dtype=np.int64)
    for i in range(len(query_terms)):
        if q_mask[i] and d_mask.any():
            hists[i] = bin_similarities_row(S[i, d_mask], bins)
    return hists, np.array([idf_table.idf(t) for t in query_terms])


def conv_einsum(S: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded correlation of S with each (n, n) kernel, (F, T, D)."""
    n = kernels.shape[1]
    t, d = S.shape
    p = (n - 1) // 2
    padded = np.zeros((t + n - 1, d + n - 1))
    padded[p:p + t, p:p + d] = S
    win = sliding_window_view(padded, (n, n))
    return np.einsum("tdab,fab->ftd", win, kernels) + bias[:, None, None]


def conv_strided_im2col(S: np.ndarray, kernels: np.ndarray, bias: np.ndarray):
    """Same-padded correlation as one matmul over the strided window gather
    `sliding_window_view(...).reshape(T*D, n*n)`, transposed, then the bias
    add: `K @ cols.T`, then `+= c[:, None]`, the layout whose bits
    `PacrrModel._conv` keeps on both of its paths. Returns the (F, T*D)
    outputs and the (T*D, n*n) window matrix."""
    n = kernels.shape[1]
    t, d = S.shape
    p = (n - 1) // 2
    padded = np.zeros((t + n - 1, d + n - 1))
    padded[p:p + t, p:p + d] = S
    # numpy has no n x n view of an empty document's n - 1 padding columns
    cols = (sliding_window_view(padded, (n, n)).reshape(t * d, n * n) if d
            else np.zeros((0, n * n)))
    out = kernels.reshape(-1, n * n) @ cols.T
    out += bias[:, None]
    return out, cols


def build_histogram(query_term: str, doc_tokens: list[str], word_vectors,
                    bins: int) -> np.ndarray:
    """Count histogram for a single query term against a document, using
    static word vectors. Out-of-vocabulary query term -> zero histogram."""
    provider = (word_vectors if isinstance(word_vectors, TypeEmbeddings)
                else TypeEmbeddings(word_vectors))
    q_units, q_mask, q_keys = text_rows(provider, "", [query_term])
    d_units, d_mask, d_keys = text_rows(provider, "", doc_tokens)
    if not q_mask[0] or not d_mask.any():
        return np.zeros(bins + 1, dtype=np.int64)
    S = sim_matrix(q_units, q_mask, q_keys, d_units, d_mask, d_keys)
    return bin_similarities_row(S[0, d_mask], bins)


def drmm_score(query_tokens: list[str], doc_tokens: list[str], model: DrmmModel,
               provider, idf_table, doc_id: str = "", query_doc_id: str = "") -> float:
    """Forward pass from raw (denoised) token lists; `drmm_features`
    deduplicates the query terms, so repeating a term changes nothing."""
    feats = drmm_features(query_tokens, query_doc_id, doc_tokens, doc_id,
                          provider, idf_table, model.bins)
    s_r, _ = model.score(feats)
    return s_r


def pacrr_score(query_tokens: list[str], doc_tokens: list[str], model: PacrrModel,
                provider, idf_table, doc_id: str = "", query_doc_id: str = "") -> float:
    """Forward pass from raw (denoised) token lists."""
    feats = pacrr_features(query_tokens, query_doc_id, doc_tokens, doc_id,
                           provider, idf_table,
                           model.config.q_len, model.config.d_len)
    s_r, _ = model.score(feats)
    return s_r


def drmm_score_2d(model: DrmmModel, feats) -> float:
    """DRMM's s_r from one pair's log-counts and 2-d products: `hists @
    W1.T`, the gemv `z @ W2` and the dot `gate @ out`."""
    counts, idf = feats
    hists = np.log1p(counts, dtype=np.float64)
    p = model.params
    out = np.tanh(hists @ p["W1"].T + p["b1"]) @ p["W2"] + p["b2"][0]
    return float(softmax(p["w_g"][0] * idf) @ out)


def rows_per_size(model: PacrrModel, feats, conv_cache: list | None = None) -> np.ndarray:
    """One pair's LSTM input S_sim (T, input_dim) with a convolution of its
    own padding per kernel size, whose window matrix is filled one shifted
    slice per kernel cell, and one `_row_kmax` per view. Given a list,
    conv_cache receives each size's backward cache entry: the k-max picks,
    their windows and winning filters."""
    S, idf_col = feats
    t, d = S.shape
    k = model.config.kmax
    views = [_row_kmax(S, k)[0]]
    for n in model.config.kernel_sizes:
        p = (n - 1) // 2
        padded = np.zeros((t + n - 1, d + n - 1))
        padded[p:p + t, p:p + d] = S
        cols = np.empty((t, d, n * n))
        for a in range(n):
            for b in range(n):
                cols[:, :, a * n + b] = padded[a:a + t, b:b + d]
        cols = cols.reshape(t * d, n * n)
        c_out = model.params[f"K{n}"].reshape(-1, n * n) @ cols.T
        c_out += model.params[f"c{n}"][:, None]
        v_n, idx_n = _row_kmax(c_out.max(axis=0).reshape(t, d), k)
        views.append(v_n)
        if conv_cache is not None:
            picked = idx_n >= 0
            flat = (idx_n + d * np.arange(t)[:, None])[picked]
            conv_cache.append({"n": n, "picked": picked, "windows": cols[flat],
                               "winner": c_out[:, flat].argmax(axis=0)})
    return np.concatenate(views + [idf_col[:, None]], axis=1)


def lstm_per_step(model: PacrrModel, x: np.ndarray):
    """PACRR's s_r with the LSTM read over one pair's rows x alone: a gemv
    `w @ x[t]` per step and scalar state. Returns s_r and the (T, 7) states
    h, c, i, f, o, g, tanh(c_new) of each step."""
    w, u, b = (model.params[k] for k in ("lstm_W", "lstm_U", "lstm_b"))
    h = c = 0.0
    states = []
    for t in range(x.shape[0]):
        a = w @ x[t] + u * h + b
        i, f, o = _sigmoid(a[0]), _sigmoid(a[1]), _sigmoid(a[2])
        g = np.tanh(a[3])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        states.append((h, c, i, f, o, g, tc))
        h, c = o * tc, c_new
    return float(h), np.array(states)


def pacrr_score_per_step(model: PacrrModel, feats) -> float:
    """PACRR's s_r from `rows_per_size` and `lstm_per_step`."""
    return lstm_per_step(model, rows_per_size(model, feats))[0]


def rerank_list_per_pair(reranker, query_id: str, ranking: RankedList,
                         features=None) -> RankedList:
    """`Reranker.rerank_list` with one `model.score` call per candidate, each
    pair's features read from the store (any `features` passed are not
    used)."""
    if not ranking:
        return ranking
    norm = dict(normalize_scores(ranking))
    rescored = []
    for doc_id in ranking.doc_ids:
        s_r, _ = reranker.model.score(reranker.store.features(query_id, doc_id))
        rescored.append((doc_id, rel_score(s_r, norm[doc_id], reranker.w_r,
                                           reranker.w_p)))
    return RankedList(sort_scored(rescored), presorted=True)


def hinge_step_per_pair(model, store, batch, norm_sp, w_r: float, w_p: float,
                        grads: dict) -> list[float]:
    """`train._hinge_step` with one `model.score` call per pair of each
    triple, forward and backward triple by triple."""
    losses = []
    for triple in batch:
        sp = norm_sp[triple.query_id]
        f_pos = store.features(triple.query_id, triple.pos_doc_id)
        f_neg = store.features(triple.query_id, triple.neg_doc_id)
        sr_pos, cache_pos = model.score(f_pos)
        sr_neg, cache_neg = model.score(f_neg)
        sp_pos, sp_neg = sp[triple.pos_doc_id], sp[triple.neg_doc_id]
        loss = hinge_loss(rel_score(sr_pos, sp_pos, w_r, w_p),
                          rel_score(sr_neg, sp_neg, w_r, w_p))
        losses.append(loss)
        if loss <= 0.0:
            continue
        grads["w_r"] += sr_neg - sr_pos
        grads["w_p"] += sp_neg - sp_pos
        for name, g in model.backward(cache_pos, -w_r).items():
            grads[name] += g
        for name, g in model.backward(cache_neg, +w_r).items():
            grads[name] += g
    return losses


def read_grid_csv(path) -> list[GridCell]:
    """Inverse of `bm25.write_grid_csv`."""
    cells = []
    with open(path, encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                if header != "k1,b,recall_at_k":
                    raise ValueError(f"{path}: unexpected grid header {header!r}")
                continue
            k1, b, r = line.split(",")
            cells.append(GridCell(float(k1), float(b), float(r)))
    if header is None:
        raise ValueError(f"{path}: empty grid file")
    return cells


def centroid_loop(tokens: list[str], word_vectors, idf_table) -> np.ndarray:
    """tf-idf weighted centroid summed term by term with `acc += w * x`."""
    acc = np.zeros(word_vectors.dim)
    mass = 0.0
    for term, tf in Counter(tokens).items():
        if term not in word_vectors:
            continue
        w = tf * idf_table.idf(term)
        acc += w * word_vectors.get(term)
        mass += w
    if mass == 0.0 or not acc.any():
        raise ValueError("no in-vocabulary token with positive tf*idf weight, "
                         "or a zero weighted sum")
    return acc / mass


def type_units_per_term(word_vectors) -> dict[str, np.ndarray]:
    """Each term's unit vector, `vec / np.linalg.norm(vec)` one term at a
    time; terms whose vector has norm zero are left out."""
    units = {}
    for term in word_vectors:
        vec = word_vectors[term]
        norm = np.linalg.norm(vec)
        if norm != 0:
            units[term] = vec / norm
    return units


def token_embeddings(sequences: dict[str, np.ndarray]) -> TokenEmbeddings:
    """A `TokenEmbeddings` over doc_id -> (positions, dim) vectors: the
    sequences stacked in order into one matrix."""
    ends = np.cumsum([len(seq) for seq in sequences.values()])
    return TokenEmbeddings(np.concatenate(list(sequences.values())),
                           dict(zip(sequences, np.split(np.arange(ends[-1]), ends[:-1]))))


def text_rows(provider, doc_id: str, tokens: list[str], limit: int | None = None):
    """The provider's (units, in-vocab mask, identity keys) of the first
    `limit` of a text's string tokens."""
    return provider.rows(provider.ids(doc_id, provider.row_ids(tokens)), limit)


def token_rows_per_call(seq: np.ndarray, limit: int | None = None):
    """(units, nonzero mask) of a document's first `limit` token vectors,
    normalized anew on each call."""
    seq = seq[:limit]
    norms = np.linalg.norm(seq, axis=1)
    mask = norms > 0
    units = np.zeros_like(seq)
    units[mask] = seq[mask] / norms[mask, None]
    return units, mask


def rk_curve_per_k(run, qrels, k_max: int) -> list[tuple[int, float]]:
    """`(k, mean R@k)` with one `recall_at_k` call per query and k."""
    query_ids = [q for q in sorted(run) if qrels.relevant(q)]
    return [(k, sum(recall_at_k(run[q], qrels.relevant(q), k) for q in query_ids)
             / len(query_ids)) for k in range(1, k_max + 1)]


def rk_curve_accumulate(run, qrels, k_max: int) -> list[tuple[int, float]]:
    """`emit_rk_curve`'s rows from each query's `accumulate`d hit prefix
    counts, padded to k_max with its last count; each k's R@k values are
    added over queries in sorted order by `float_sum`."""
    query_ids = [q for q in sorted(run) if qrels.relevant(q)]
    curves = []
    for q in query_ids:
        relevant = qrels.relevant(q)
        hits = list(accumulate(int(d in relevant) for d in run[q].doc_ids[:k_max]))
        hits += [hits[-1] if hits else 0] * (k_max - len(hits))
        curves.append([h / len(relevant) for h in hits])
    return [(k, float_sum(curve[k - 1] for curve in curves) / len(query_ids))
            for k in range(1, k_max + 1)]


def write_run_per_line(run, path, comment: str = "") -> None:
    """`ranking.write_run` with one formatted line per (query, rank) entry."""
    write_table(path, None, (f"{query_id}\t{rank}\t{doc_id}\t{score!r}"
                             for query_id in sorted(run)
                             for rank, (doc_id, score) in enumerate(run[query_id], 1)),
                comment)


def left_to_right_sum(values, start=0):
    """Builtin `sum` before Python 3.12: one `+` per value, left to right."""
    return reduce(operator.add, values, start)


def neumaier_sum(values, start=0):
    """Builtin `sum` from Python 3.12 on: integers exactly, and once a float
    is met, floats with Neumaier's compensation of each addition's rounding
    error, added back at the end."""
    values = list(values)
    if all(isinstance(v, int) for v in [start, *values]):
        return reduce(operator.add, values, start)
    total, compensation = float(start), 0.0
    for value in map(float, values):
        new = total + value
        if abs(total) >= abs(value):
            compensation += (total - new) + value
        else:
            compensation += (value - new) + total
        total = new
    return total + compensation if compensation and math.isfinite(compensation) else total
