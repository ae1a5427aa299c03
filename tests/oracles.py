"""Scorers that only tests call, one (query, document) pair at a time: BM25
read off a document's postings, and DRMM and PACRR forward passes from raw
token lists."""

from __future__ import annotations

from collections import Counter

import numpy as np

from regir.bm25 import Bm25Params, PostingsIndex
from regir.rerank.drmm import DrmmModel
from regir.rerank.features import (TypeEmbeddings, bin_similarities,
                                   dedup_terms, drmm_features, pacrr_features,
                                   sim_matrix)
from regir.rerank.pacrr import PacrrModel


def bm25_score(index: PostingsIndex, query_tokens: list[str], doc_id: str,
               params: Bm25Params) -> float:
    """BM25 of one document, read off its postings one term at a time."""
    if doc_id not in index.doc_len:
        raise KeyError(f"unknown doc_id {doc_id!r}")
    norm = index._norm(index.doc_len[doc_id], params)
    score = 0.0
    for term, q_tf in Counter(query_tokens).items():
        plist = index.postings.get(term)
        if plist is None:
            continue
        tf = next((f for d, f in plist if d == doc_id), 0)
        if tf == 0:
            continue
        score += q_tf * index.idf(term) * tf * (params.k1 + 1) / (tf + params.k1 * norm)
    return score


def build_histogram(query_term: str, doc_tokens: list[str], word_vectors,
                    bins: int) -> np.ndarray:
    """Histogram for a single query term against a document, using static
    word vectors. Out-of-vocabulary query term -> zero histogram."""
    provider = (word_vectors if isinstance(word_vectors, TypeEmbeddings)
                else TypeEmbeddings(word_vectors))
    q_units, q_mask, q_keys = provider.rows("", [query_term])
    d_units, d_mask, d_keys = provider.rows("", doc_tokens)
    if not q_mask[0] or not d_mask.any():
        return np.zeros(bins + 1)
    S = sim_matrix(q_units, q_mask, q_keys, d_units, d_mask, d_keys)
    return bin_similarities(S[0, d_mask], bins)


def drmm_score(query_tokens: list[str], doc_tokens: list[str], model: DrmmModel,
               provider, idf_table, doc_id: str = "", query_doc_id: str = "") -> float:
    """Forward pass from raw (denoised) token lists; query terms are
    deduplicated before histogramming, so repeating a term changes nothing."""
    terms = dedup_terms(query_tokens) if provider.dedup else query_tokens
    feats = drmm_features(terms, query_doc_id, doc_tokens, doc_id,
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
