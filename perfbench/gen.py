"""Seeded synthetic corpora shaped like EU2UK and UK2EU.

Sizes, lengths and where each figure comes from are in baseline.json
("corpus", and each workload's "shape"). The properties that decide where
the engine spends its time are reproduced:

* Zipf-distributed tokens whose top ranks are the shipped English stopwords,
  so the idf threshold of the text pipeline sits where it does on real text
  and the denoiser keeps roughly half the tokens.
* Topic vocabularies shared by many documents, so every query has many
  plausible candidates, plus a per-query signature shared with its planted
  relevant documents (as many per query as the real splits have on average)
  at a strength set per workload so that pre-fetch recall lands near the
  real data's.
* Relevant documents dated within a few years of their query.
* Lognormal document and query lengths with a lower tail of very short
  queries (corrigenda, one-line amendments), which may keep no token that
  has a word vector. Lengths are drawn by stratified quantiles, so
  different seeds give the same length distribution while the documents
  themselves differ.
* Word vectors for only part of the vocabulary, as pre-trained vectors have.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
Writes pool.jsonl, queries.jsonl, qrels.tsv, splits.json, vectors.txt,
config.txt and (for re-ranking workloads) hyperparams.txt into DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import CORPUS, WORKLOADS, config_text, hyperparams_text  # noqa: E402

STOPWORDS = Path("src/regir/data/stopwords_en.txt")
VECTOR_DIM = 50
YEARS = (1995, 2020)
CONSONANTS = list("bcdfghjklmnprstvz")
VOWELS = list("aeiou")


def stratified_lognormal(rng, n: int, median: float, sigma: float) -> np.ndarray:
    """n lengths at the stratified quantiles of a lognormal, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    z = np.array([NormalDist().inv_cdf(float(x)) for x in u])
    lengths = np.maximum(3, np.round(median * np.exp(sigma * z))).astype(int)
    rng.shuffle(lengths)
    return lengths


def make_vocab(rng, size: int) -> tuple[np.ndarray, int]:
    """The shipped stopwords (shuffled) as the top ranks, then pseudo-words;
    returns the vocabulary and the number of stopwords."""
    stop = [w for w in STOPWORDS.read_text(encoding="utf-8").split() if w]
    rng.shuffle(stop)
    taken = set(stop)
    words = []
    while len(words) < size - len(stop):
        syl = rng.integers(2, 5)
        w = "".join(CONSONANTS[rng.integers(len(CONSONANTS))]
                    + VOWELS[rng.integers(len(VOWELS))] for _ in range(syl))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return np.array(stop + words, dtype=object), len(stop)


class Zipf:
    def __init__(self, size: int, s: float = 1.0, q: float = 2.7):
        p = (np.arange(size) + q) ** -s
        self.cdf = np.cumsum(p / p.sum())

    def sample(self, rng, n: int) -> np.ndarray:
        return np.minimum(np.searchsorted(self.cdf, rng.random(n)),
                          len(self.cdf) - 1)


def render(vocab, ids) -> str:
    return " ".join(vocab[ids].tolist())


def relevant_counts(rng, n: int, mean: float) -> np.ndarray:
    """n relevant-document counts, shuffled: two adjacent values out of 1, 2
    and 3, mixed so that their mean is as close to `mean` as n allows."""
    low = min(int(mean), 2)
    high = round((mean - low) * n)
    return rng.permutation([low + 1] * high + [low] * (n - high))


def length_params(style: str) -> tuple[float, float]:
    """(median, sigma) of the lognormal token count of a style's documents."""
    return (CORPUS["doc_tokens"][style] * CORPUS["length_scale"],
            CORPUS["length_sigma"])


def generate(name: str, seed: int, out: Path, scale: float = 1.0) -> None:
    shape = WORKLOADS[name]["shape"]
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    out.mkdir(parents=True, exist_ok=True)
    vocab, n_stop = make_vocab(rng, CORPUS["vocab"])
    v = len(vocab)
    zipf = Zipf(v)

    n_pool = max(50, int(shape["pool_docs"] * scale))
    split_sizes = {s: max(4, int(c * scale)) if c else 0
                   for s, c in shape["queries"].items()}
    n_query = sum(split_sizes.values())
    n_topics = shape["topics"]
    # topic vocabularies from the mid-frequency band, signatures from the
    # tail; both stratified by rank, so topics and queries get alike mixes of
    # frequent and rare terms whatever the seed
    band = np.arange(n_stop + 600, min(v, 8000))
    topic_terms = [rng.permutation(band[t::n_topics])[:150] for t in range(n_topics)]
    sig_bands = np.array_split(np.arange(min(v - 200, 3000), v), 12)

    # --- queries: topic, year, signature, relevant pool documents
    q_topic = rng.integers(n_topics, size=n_query)
    q_year = rng.integers(YEARS[0] + 2, YEARS[1] + 1, size=n_query)
    q_sig = [np.array([rng.choice(b) for b in sig_bands]) for _ in range(n_query)]
    # chronological splits; lengths and relevant counts are stratified within
    # each split, so every seed gives each split the same mix
    split_of = {}
    order = np.argsort(q_year, kind="stable")
    start = 0
    for s in ("train", "dev", "test"):
        split_of[s] = order[start:start + split_sizes[s]]
        start += split_sizes[s]
    n_rel = np.zeros(n_query, dtype=int)
    q_len = np.zeros(n_query, dtype=int)
    for split, members in split_of.items():
        n = len(members)
        if n == 0:
            continue
        n_rel[members] = relevant_counts(rng, n, shape["mean_relevant"][split])
        lengths = stratified_lognormal(rng, n, *length_params(shape["query_style"]))
        n_short = int(round(CORPUS["short_queries"]["share"] * n))
        lo, hi = CORPUS["short_queries"]["tokens"]
        lengths[:n_short] = np.round(np.exp(np.linspace(np.log(lo), np.log(hi), n_short)))
        q_len[members] = rng.permutation(lengths)
    rel_docs = rng.permutation(n_pool)[: int(n_rel.sum())]
    rel_of = np.split(rel_docs, np.cumsum(n_rel)[:-1])

    d_topic = rng.integers(n_topics, size=n_pool)
    d_year = rng.integers(YEARS[0], YEARS[1] + 1, size=n_pool)
    d_sig = {}
    for q, docs in enumerate(rel_of):
        for d in docs:
            d_topic[d] = q_topic[q]
            d_year[d] = np.clip(q_year[q] + int(np.round(rng.normal(0, 1.5))),
                                *YEARS)
            d_sig[int(d)] = q_sig[q]

    def body(length, topic, sig, sig_rate):
        ids = zipf.sample(rng, length)
        slots = rng.random(length)
        topical = slots < 0.12
        ids[topical] = rng.choice(topic_terms[topic], int(topical.sum()))
        if sig is not None:  # sig_rate of the tokens, stochastically rounded
            marked = rng.choice(length, int(sig_rate * length + rng.random()),
                                replace=False)
            ids[marked] = rng.choice(sig, len(marked))
        return ids

    pool_len = stratified_lognormal(rng, n_pool, *length_params(shape["pool_style"]))
    with open(out / "pool.jsonl", "w", encoding="utf-8") as fh:
        for d in range(n_pool):
            ids = body(int(pool_len[d]), d_topic[d], d_sig.get(d), shape["signal"])
            title = render(vocab, zipf.sample(rng, 3))
            fh.write(json.dumps({"doc_id": f"d{d:06d}", "title": title,
                                 "body": render(vocab, ids),
                                 "year": int(d_year[d])}) + "\n")

    q_ids = [f"q{i:05d}" for i in range(n_query)]
    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        for q in range(n_query):
            ids = body(int(q_len[q]), q_topic[q], q_sig[q], shape["signal"])
            title = render(vocab, zipf.sample(rng, 3))
            fh.write(json.dumps({"doc_id": q_ids[q], "title": title,
                                 "body": render(vocab, ids),
                                 "year": int(q_year[q])}) + "\n")
    with open(out / "qrels.tsv", "w", encoding="utf-8") as fh:
        for q, docs in enumerate(rel_of):
            for d in sorted(docs):
                fh.write(f"{q_ids[q]}\td{d:06d}\n")
    splits = {s: sorted(q_ids[i] for i in members) for s, members in split_of.items()}
    splits["pool"] = [f"d{d:06d}" for d in range(n_pool)]
    (out / "splits.json").write_text(json.dumps(splits), encoding="utf-8")

    # word vectors for part of the vocabulary, more of the frequent terms;
    # terms that occur together point alike, as trained
    # vectors do: a topic's terms share its direction, a signature's terms
    # share their own as well
    centers = rng.normal(0, 1, (n_topics, VECTOR_DIM))
    home = rng.integers(n_topics, size=v)
    for t, terms in enumerate(topic_terms):
        home[terms] = t
    vecs = 0.6 * centers[home] + rng.normal(0, 1, (v, VECTOR_DIM))
    for q, sig in enumerate(q_sig):
        vecs[sig] = (0.5 * centers[q_topic[q]] + rng.normal(0, 1, VECTOR_DIM)
                     + 0.5 * rng.normal(0, 1, (len(sig), VECTOR_DIM)))
    cover = rng.random(v) < np.where(np.arange(v) < 5000, 0.85, 0.55)
    with open(out / "vectors.txt", "w", encoding="utf-8") as fh:
        for i in np.flatnonzero(cover):
            fh.write(vocab[i] + " " + " ".join(f"{x:.5f}" for x in vecs[i]) + "\n")

    (out / "config.txt").write_text(config_text(name, seed), encoding="utf-8")
    hp = hyperparams_text(name)
    if hp is not None:
        (out / "hyperparams.txt").write_text(hp, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    tmp = out.with_name(out.name + ".part")
    generate(args.workload, args.seed, tmp)
    os.replace(tmp, out)


if __name__ == "__main__":
    main()
