"""Correctness checks on a pass's outputs, written independently of the
library's own scorers and oracles: a dict-based BM25, brute-force cosine over
centroids recomputed from the word vectors, fusion and the metrics recomputed
from the component lists. Each check returns a list of problems; empty means
it passed.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from regir.ranking import read_run
from regir.text import tokenize

TOL = 1e-9


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _compare(name, qid, got, ref_sorted, ref_score) -> list[str]:
    """got: the library's ranked list; ref_sorted: reference scores in rank
    order; ref_score: doc -> reference score."""
    problems = []
    for rank, (doc_id, score) in enumerate(got):
        if not _close(score, ref_score.get(doc_id, 0.0)):
            problems.append(f"{name} {qid}: {doc_id} scored {score!r}, "
                            f"reference {ref_score.get(doc_id, 0.0)!r}")
        if not _close(score, ref_sorted[rank]):
            problems.append(f"{name} {qid}: rank {rank + 1} holds {score!r}, "
                            f"reference {ref_sorted[rank]!r}")
        if problems:
            break
    return problems


class PoolTokens:
    """The pool's raw and denoised token counts, tokenized once."""

    def __init__(self, pool, pipeline):
        self.doc_ids = sorted(d.doc_id for d in pool)
        self.raw = 0
        self.tf: dict[str, Counter] = {}
        for doc in pool:
            raw = tokenize(doc.text)
            kept = pipeline.denoise(raw)
            self.raw += len(raw)
            self.tf[doc.doc_id] = Counter(kept)
        self.kept = sum(sum(c.values()) for c in self.tf.values())
        self.postings: dict[str, list[tuple[str, int]]] = defaultdict(list)
        for doc_id in self.doc_ids:
            for term, tf in self.tf[doc_id].items():
                self.postings[term].append((doc_id, tf))


def check_bm25(lists: dict, pool_tokens: PoolTokens, pipeline, queries, params) -> list[str]:
    """lists: qid -> the library's BM25 ranked list for that query."""
    n = len(pool_tokens.doc_ids)
    length = {d: sum(c.values()) for d, c in pool_tokens.tf.items()}
    avg = sum(length.values()) / n
    problems = []
    for qid, got in lists.items():
        scores = defaultdict(float)
        for term, q_tf in Counter(pipeline(queries.get(qid).text)).items():
            plist = pool_tokens.postings.get(term, [])
            df = len(plist)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            for doc_id, tf in plist:
                norm = 1 - params.b + params.b * length[doc_id] / avg
                scores[doc_id] += q_tf * idf * tf * (params.k1 + 1) / (tf + params.k1 * norm)
        ranked = sorted(((-scores.get(d, 0.0), d) for d in pool_tokens.doc_ids))
        problems += _compare("bm25", qid, got, [-s for s, _ in ranked], scores)
    return problems


def check_knn(lists: dict, pipeline, queries, word_vectors, store) -> list[str]:
    """Brute-force cosine against every stored centroid, with the query
    centroid recomputed from the word vectors."""
    ids = sorted(store.vectors)
    matrix = np.stack([store.vectors[d] for d in ids])
    problems = []
    for qid, got in lists.items():
        acc, mass = np.zeros(word_vectors.dim), 0.0
        for term, tf in Counter(pipeline(queries.get(qid).text)).items():
            if term in word_vectors.vectors:
                w = tf * pipeline.idf_table.idf(term)
                acc += w * word_vectors.vectors[term]
                mass += w
        if mass == 0:
            if got:
                problems.append(f"knn {qid}: list for a query with no centroid")
            continue
        q = acc / mass
        sims = {}
        for doc_id, row in zip(ids, matrix):
            denom = math.sqrt(float(row @ row)) * math.sqrt(float(q @ q))
            sims[doc_id] = float(row @ q) / denom if denom else -1.0
        ranked = sorted((-s, d) for d, s in sims.items())
        problems += _compare("knn", qid, got, [-s for s, _ in ranked], sims)
    return problems


def _minmax(ranking) -> dict[str, float]:
    scores = [s for _, s in ranking]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return {d: 1.0 for d, _ in ranking}
    return {d: (s - lo) / (hi - lo) for d, s in ranking}


def check_fusion(fused_run, parts: dict, alpha: float, depth: int) -> list[str]:
    """Every fused score and order, recomputed from the component lists."""
    problems = []
    for qid, got in fused_run.items():
        a, b = (_minmax(lst) for lst in parts[qid].values())
        ref = {d: alpha * a.get(d, 0.0) + (1 - alpha) * b.get(d, 0.0)
               for d in set(a) | set(b)}
        want = sorted(ref.items(), key=lambda p: (-p[1], p[0]))[:depth]
        if [d for d, _ in got] != [d for d, _ in want]:
            problems.append(f"fusion {qid}: order differs from the recomputation")
        elif any(not _close(s, ref[d], 1e-12) for d, s in got):
            problems.append(f"fusion {qid}: a fused score differs")
    return problems


def check_window(run, window, queries, pool) -> list[str]:
    problems = []
    for qid, ranking in run.items():
        q_year = queries.get(qid).year
        if q_year == 0:
            continue
        for doc_id, _ in ranking:
            year = pool.get(doc_id).year
            if year and abs(year - q_year) > window.max_distance_years:
                problems.append(f"datefilter {qid}: {doc_id} ({year}) outside "
                                f"the window around {q_year}")
    return problems


def out_of_window(run, window, queries, pool) -> int:
    """How many entries of a run the window drops."""
    dropped = 0
    for qid, ranking in run.items():
        q_year = queries.get(qid).year
        if q_year:
            dropped += sum(1 for d, _ in ranking if pool.get(d).year and
                           abs(pool.get(d).year - q_year) > window.max_distance_years)
    return dropped


def check_rerank(reranked, candidates) -> list[str]:
    problems = []
    for qid, ranking in reranked.items():
        if sorted(ranking.doc_ids) != sorted(candidates[qid].doc_ids):
            problems.append(f"rerank {qid}: not a permutation of its candidates")
        scores = [s for _, s in ranking]
        if any(x < y for x, y in zip(scores, scores[1:])):
            problems.append(f"rerank {qid}: scores increase down the list")
    return problems


def recall(ranking, relevant, k) -> float:
    return sum(1 for d, _ in ranking[:k] if d in relevant) / len(relevant)


def ndcg(ranking, relevant, k) -> float:
    dcg = sum(1 / math.log2(i + 2) for i, (d, _) in enumerate(ranking[:k])
              if d in relevant)
    return dcg / sum(1 / math.log2(i + 2) for i in range(min(len(relevant), k)))


def check_outputs(final, final_path, eval_path, qrels, k) -> tuple[list[str], float]:
    """The written run equals the final run, and the eval CSV's mean nDCG@k
    equals a recomputation. Returns the problems and that nDCG."""
    problems = []
    if read_run(final_path) != final:
        problems.append(f"{final_path.name}: differs from the final run")
    judged = [q for q in sorted(final) if qrels.relevant(q)]
    value = sum(ndcg(final[q], qrels.relevant(q), k) for q in judged) / len(judged)
    with open(eval_path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    col = rows[0].index(f"ndcg_at_{k}")
    mean = float(next(r for r in rows if r[0] == "mean")[col])
    if not _close(mean, value, 1e-12):
        problems.append(f"{eval_path.name}: mean nDCG@{k} {mean!r}, "
                        f"recomputed {value!r}")
    return problems, value


def check_pass(su, res, comps) -> tuple[list[str], dict]:
    """Every check on one pass. Returns the problems and what the checks
    counted: date-filter drops, short candidate lists, and the pre-fetch
    recall and final nDCG recomputed here."""
    cfg, queries, pool = su.cfg, su.queries, su.pool
    pool_tokens = PoolTokens(pool, su.pipeline)
    sample = sorted(res.candidates["test"])[:5]
    problems = []
    if "bm25" in comps:
        problems += check_bm25({q: res.parts[q]["bm25"] for q in sample},
                               pool_tokens, su.pipeline, queries, res.params)
    if "w2v-cent" in comps:
        problems += check_knn({q: res.parts[q]["w2v-cent"] for q in sample},
                              su.pipeline, queries, su.word_vectors, su.cent_store)
    if len(comps) == 2:
        for run in res.prefetch.values():
            problems += check_fusion(run, res.parts, res.alpha, 2 * cfg.k)
    dropped = short = 0
    if res.window is not None and res.window.mode == "pre":
        for split, run in res.candidates.items():
            problems += check_window(run, res.window, queries, pool)
            dropped += out_of_window(res.prefetch[split], res.window, queries, pool)
            short += sum(1 for r in run.values() if len(r) < cfg.k)
    elif res.window is not None:
        before = res.reranked if res.reranked is not None else res.candidates["test"]
        problems += check_window(res.final, res.window, queries, pool)
        dropped = out_of_window(before, res.window, queries, pool)
        short = sum(1 for r in res.final.values() if len(r) < cfg.k)
    if res.reranked is not None:
        problems += check_rerank(res.reranked, res.candidates["test"])
    found, ndcg_value = check_outputs(res.final, res.final_path, res.eval_path,
                                      su.qrels.restrict(su.splits.test_ids), cfg.eval_k)
    problems += found
    r_at_100 = sum(recall(ranking, su.qrels.relevant(q), 100)
                   for run in res.prefetch.values() for q, ranking in run.items())
    r_at_100 /= sum(len(run) for run in res.prefetch.values())
    return problems, {"dropped": dropped, "short": short, "ndcg": ndcg_value,
                      "r_at_100": r_at_100, "raw_tokens": pool_tokens.raw,
                      "kept_tokens": pool_tokens.kept,
                      "postings": sum(len(c) for c in pool_tokens.tf.values())}
