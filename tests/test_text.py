import math
import random
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regir.text
from regir.bm25 import build_index
from regir.corpus import Corpus
from regir.dense import WordVectors, build_centroid_store
from regir.rerank.features import TypeEmbeddings
from regir.rerank.train import FeatureStore, Hyperparams
from regir.text import (TextPipeline, build_pipeline, encode_bags,
                        load_default_stopwords, load_stopwords, tokenize)

from conftest import VOCAB, make_doc, random_corpus, run_python
from oracles import idf_from_token_lists, tokenize_per_char


# --- tokenize ---

def test_tokenize_drops_digits_and_punctuation():
    assert tokenize("The Batteries Act 2009.") == ["the", "batteries", "act"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_hyphen_is_boundary():
    assert tokenize("a-b") == ["a", "b"]


def test_tokenize_slash_citation():
    # all-digit fragments vanish, the alphabetic part survives
    assert tokenize("Directive 2006/66/EC") == ["directive", "ec"]


def test_tokenize_strips_diacritics():
    assert tokenize("café naïve") == ["cafe", "naive"]


def test_tokenize_underscore_is_boundary():
    assert tokenize("foo_bar") == ["foo", "bar"]


def test_tokenize_mixed_alnum_survives():
    # only tokens made solely of digits are removed
    assert tokenize("ec66 2006") == ["ec66"]


def test_tokenize_no_empty_or_spaced_tokens(rng):
    text = " ".join(rng.choice(VOCAB + ["a.b", "x-y", "1984", "§12"])
                    for _ in range(200))
    tokens = tokenize(text)
    assert all(t and " " not in t for t in tokens)
    assert all(t == t.lower() for t in tokens)


# non-ASCII combining marks and digits, where folding stretches of the text
# could most plausibly part from folding all of it
MARKS_AND_DIGITS = st.characters(categories=("Mn", "Mc", "Me", "Nd", "Nl", "No"),
                                 min_codepoint=0x80)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters() | MARKS_AND_DIGITS | st.sampled_from("aZ0 _-.")))
def test_tokenize_equals_the_per_character_strip_on_arbitrary_unicode(text):
    assert tokenize(text) == tokenize_per_char(text)


CODE_POINTS = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
# each code point next to its neighbours in code-point order, between ASCII
# words, inside an ASCII word, and between marks and digits
CONTEXTS = ["{}", "a {} b", "a{}b", "\u00e9 {} \u0327x 12 {}"]


def _inert(ch: str) -> bool:
    """Unassigned and private-use: no decomposition, no mark, no case."""
    return unicodedata.category(ch) in ("Cn", "Co")


def test_tokenize_equals_the_per_character_strip_on_every_code_point():
    """Every code point outside the surrogates in the first context, and
    every one that is not inert in the others, batched into long strings
    with nothing between the instances. An inert code point folds to itself,
    as checked here, like many a tested one."""
    assert all(unicodedata.normalize("NFKD", ch) == ch
               and not unicodedata.combining(ch)
               and ch.lower() == ch
               for ch in CODE_POINTS if _inert(ch))
    assigned = [ch for ch in CODE_POINTS if not _inert(ch)]
    for context, points in zip(CONTEXTS, [CODE_POINTS] + [assigned] * 3):
        for lo in range(0, len(points), 1 << 15):
            batch = points[lo:lo + (1 << 15)]
            text = "".join(context.format(ch, ch) for ch in batch)
            assert tokenize(text) == tokenize_per_char(text), (context, hex(ord(batch[0])))


# --- bags of term ids ---

BAG_VOCAB = VOCAB + ["the", "of", "and", "caf\u00e9", "2009", "na\u00efve"]

# marks, precomposed letters, compatibility forms, non-ASCII digits and
# letters whose lowercase or decomposition is unusual
TRICKY = "aZ09_ -.\u0301\u0308\u00e9\u00c5\u0130\u00df\ufb01\u2163\u0663\u00bd\u1e9e\u212a\u03a3\u0345"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text() | st.text(alphabet=TRICKY), max_size=6))
def test_bags_equal_token_counts_on_arbitrary_unicode(texts):
    corpus = Corpus([make_doc(f"d{i}", [text]) for i, text in enumerate(texts)])
    bags = encode_bags(corpus)
    counts = [Counter(tokenize(doc.text)) for doc in corpus]
    first_seen = list(dict.fromkeys(t for c in counts for t in c))
    assert bags.terms == first_seen
    bounds = bags.offsets.tolist()
    assert len(bounds) == len(texts) + 1
    for count, lo, hi in zip(counts, bounds, bounds[1:]):
        got = [(bags.terms[i], int(f)) for i, f in zip(bags.ids[lo:hi], bags.tf[lo:hi])]
        assert got == list(count.items())
    for i, doc in enumerate(corpus):
        assert [bags.terms[t] for t in bags.sequence(i)] == tokenize(doc.text)


def test_bags_hold_each_documents_term_counts_in_first_occurrence_order(
        rng, monkeypatch):
    corpus = random_corpus(rng, 30, vocab=BAG_VOCAB)
    other = random_corpus(rng, 10, vocab=BAG_VOCAB + ["unseen"], prefix="o")
    other = Corpus([make_doc("blank", ["2009"], title="1999")] + list(other))
    for block_docs in (1, 7, 256):  # documents counted per vectorized block
        monkeypatch.setattr(regir.text, "_BLOCK_DOCS", block_docs)
        raw = encode_bags(corpus)
        pipeline = build_pipeline(corpus)
        for coll, bags, tokens in ((corpus, raw, lambda d: tokenize(d.text)),
                                   (corpus, pipeline.bags(corpus),
                                    lambda d: pipeline(d.text)),
                                   (other, pipeline.bags(other),
                                    lambda d: pipeline(d.text))):
            assert bags.doc_ids == [d.doc_id for d in coll]
            bounds = bags.offsets.tolist()
            for i, (doc, lo, hi) in enumerate(zip(coll, bounds, bounds[1:])):
                got = [(bags.terms[t], int(f))
                       for t, f in zip(bags.ids[lo:hi], bags.tf[lo:hi])]
                assert got == list(Counter(tokens(doc)).items())
                assert [bags.terms[t] for t in bags.sequence(i)] == tokens(doc)
        for bags in (raw, pipeline.bags(corpus)):
            assert bags.ids.dtype == bags.tf.dtype == bags.seq.dtype == np.int32
            assert bags.offsets.dtype == bags.seq_offsets.dtype == np.int64


def test_pool_is_tokenized_once_for_pipeline_index_and_centroids(rng, monkeypatch):
    """Building the pipeline, the index and the centroids, and the
    re-ranker's features of every (query, pool document) pair, tokenize each
    pool document once in all."""
    corpus = random_corpus(rng, 25, vocab=BAG_VOCAB)
    queries = Corpus([make_doc(f"q{i}", rng.sample(BAG_VOCAB, 6), title="Query")
                      for i in range(3)])
    calls = Counter()
    real = regir.text.tokenize

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(regir.text, "tokenize", counting)
    pipeline = build_pipeline(corpus)
    build_index(corpus, pipeline)
    wv = WordVectors(VOCAB, np.ones((len(VOCAB), 3)))
    build_centroid_store(corpus, pipeline, wv)
    for kind in ("drmm", "pacrr"):
        store = FeatureStore(kind, TypeEmbeddings(wv), pipeline, queries, corpus,
                             Hyperparams())
        for query in queries:
            for doc in corpus:
                store.features(query.doc_id, doc.doc_id)
    for query in queries:
        del calls[query.text]
    assert calls == Counter(doc.text for doc in corpus)
    assert sum(calls.values()) == len(corpus)


# --- idf ---

def test_idf_frozen_values():
    table = idf_from_token_lists([["a", "b"], ["a"]])
    assert table.idf("b") == pytest.approx(math.log(2), abs=1e-12)
    assert table.idf("a") == pytest.approx(math.log(1.2), abs=1e-12)
    # unseen term falls back to the df=0 form
    assert table.idf("zz") == pytest.approx(math.log(6), abs=1e-12)


def test_idf_nonnegative_everywhere(rng):
    corpus = [[rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
              for _ in range(50)]
    table = idf_from_token_lists(corpus)
    assert all(table.idf(t) >= 0 for t in table.terms)
    assert table.idf("never-seen") > 0


def test_idf_term_in_every_doc_positive():
    table = idf_from_token_lists([["x"], ["x"], ["x"]])
    assert 0 < table.idf("x") == pytest.approx(math.log(0.5 / 3.5 + 1))


def test_idf_empty_collection_rejected():
    with pytest.raises(ValueError):
        idf_from_token_lists([])


def test_stopword_avg_idf_restricted_to_present_words():
    table = idf_from_token_lists([["the", "tax"], ["tax"], ["levy"]])
    # only "the" occurs; "of" must not drag the df=0 idf into the mean
    avg = table.stopword_avg_idf(frozenset({"the", "of"}))
    assert avg == pytest.approx(table.idf("the"))


def test_stopword_avg_idf_no_stopwords_present():
    table = idf_from_token_lists([["tax"], ["levy"]])
    assert table.stopword_avg_idf(frozenset({"the", "of"})) == 0.0


THRESHOLD_OF_A_POOL = """
import random
from regir.corpus import Corpus, Document
from regir.text import build_pipeline, load_default_stopwords

rng = random.Random(5)
stopwords = sorted(load_default_stopwords())
docs = [Document(doc_id=f"d{i}", title=f"Act {i}",
                 body=" ".join(rng.sample(stopwords, rng.randint(1, 60))
                               + [f"term{rng.randrange(500)}" for _ in range(20)]),
                 year=0)
        for i in range(300)]
print(repr(build_pipeline(Corpus(docs)).threshold))
"""


def test_threshold_does_not_depend_on_the_hash_seed():
    """The stopwords are a set, whose iteration order the hash seed picks.
    Summed in that order, these seeds gave three thresholds, so a term whose
    idf lies between them was kept by one process and dropped by another."""
    thresholds = {run_python(THRESHOLD_OF_A_POOL, hash_seed=seed)
                  for seed in (1, 3, 4)}
    assert len(thresholds) == 1, thresholds


# --- denoise ---

def test_denoise_removes_stopwords(uniform_idf):
    pipeline = TextPipeline(uniform_idf, stopwords=frozenset({"the"}),
                            idf_filter=False)
    assert pipeline.denoise(["the", "tax", "the", "levy"]) == ["tax", "levy"]


def test_denoise_all_stopwords(uniform_idf):
    pipeline = TextPipeline(uniform_idf, stopwords=frozenset({"a", "b"}),
                            idf_filter=False)
    assert pipeline.denoise(["a", "b", "a"]) == []


def test_denoise_idf_threshold_removes_boilerplate():
    # ten docs: "annex" in all ten (low idf), "the" in five (the stopword),
    # "tax" rare. The stopword's idf exceeds the boilerplate idf, so the
    # threshold filter must drop "annex" even though it is not a stopword.
    lists = [["annex", "the", "tax"] if i < 1 else
             (["annex", "the"] if i < 5 else ["annex", "levy"])
             for i in range(10)]
    table = idf_from_token_lists(lists)
    assert table.idf("annex") < table.idf("the")
    pipeline = TextPipeline(table, stopwords=frozenset({"the"}), idf_filter=True)
    assert pipeline.threshold == pytest.approx(table.idf("the"))
    out = pipeline.denoise(["annex", "tax", "annex", "levy"])
    assert out == ["tax", "levy"]


def test_denoise_preserves_order_and_duplicates():
    table = idf_from_token_lists([["tax", "levy"], ["tax"]])
    pipeline = TextPipeline(table, stopwords=frozenset(), idf_filter=False)
    assert pipeline.denoise(["levy", "tax", "levy", "tax"]) == \
        ["levy", "tax", "levy", "tax"]


@pytest.mark.parametrize("seed", range(5))
def test_denoise_idempotent_and_subsequence(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, 30)
    pipeline = build_pipeline(corpus)
    for doc_id in list(corpus.ids)[:10]:
        tokens = tokenize(corpus.get(doc_id).text)
        once = pipeline.denoise(tokens)
        assert pipeline.denoise(once) == once
        it = iter(tokens)
        assert all(tok in it for tok in once)  # subsequence check


def test_pipeline_call_is_tokenize_then_denoise(tiny_corpus):
    pipeline = build_pipeline(tiny_corpus)
    text = "The tax, the LEVY; 2007."
    assert pipeline(text) == pipeline.denoise(tokenize(text))


# --- stopword resources ---

def test_default_stopwords_shape():
    words = load_default_stopwords()
    assert 250 <= len(words) <= 400
    assert "the" in words and "of" in words
    assert all(w == w.lower() and w.strip() == w for w in words)


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "sw.txt"
    path.write_text("the\nof\n\nand\n")
    assert load_stopwords(path) == frozenset({"the", "of", "and"})


def test_build_pipeline_threshold_uses_pool(tiny_corpus):
    pipeline = build_pipeline(tiny_corpus)
    present = [w for w in load_default_stopwords()
               if pipeline.idf_table.df(w) > 0]
    if present:
        expected = sum(pipeline.idf_table.idf(w) for w in present) / len(present)
    else:
        expected = 0.0
    assert pipeline.threshold == pytest.approx(expected)


def test_build_pipeline_refuses_a_pool_it_would_empty(tiny_corpus):
    """The pool's only stopwords, in one document, put the threshold above
    every term's idf; without the idf filter the stopwords alone can empty
    a pool. A pool with no word at all is left to the index's own check."""
    pool = Corpus([make_doc(f"d{i}", ["tax", "fish"]) for i in range(4)]
                  + [make_doc("d4", ["of", "the", "and"], title="The")])
    with pytest.raises(ValueError, match=r"no term's idf reaches the threshold "
                                         r"\d+\.\d{4} .*turn the idf filter off"):
        build_pipeline(pool)
    assert build_pipeline(pool, idf_filter=False)(pool.get("d0").text)
    with pytest.raises(ValueError, match="empty after stopword removal"):
        build_pipeline(tiny_corpus, stopwords=frozenset(VOCAB) | {"regulation"},
                       idf_filter=False)
    blank = Corpus([make_doc("b1", ["1999"], title="2001")])
    assert build_pipeline(blank).bags(blank).ids.size == 0
