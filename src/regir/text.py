"""Two-stage text pipeline: tokenization, then statistical denoising.

Long statutory documents carry heavy boilerplate. Stage one normalizes and
tokenizes; stage two drops stopwords and then every token whose pool idf
falls below the average idf of the stopword list, which empirically removes
around half of the surface text while keeping the discriminative terms.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress, filterfalse, repeat

import numpy as np

from ._textio import read_lines

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# from a non-ASCII character up to the next ASCII letter: ASCII folds to
# itself, and text in another script is folded in a few long stretches
_FOLD_RE = re.compile(r"[^\x00-\x7f][^A-Za-z]*")
# every byte below 0x80 whose character _TOKEN_RE matches kept, every other
# byte a space
_BYTE_BREAKS = bytes(c if c < 0x80 and _TOKEN_RE.match(chr(c)) else 0x20
                     for c in range(256))
# the digit rule: a word of digits only is no token
_numeric = str.isdigit


def _fold_marks(match: re.Match) -> str:
    """A stretch of text NFKD-decomposed, its combining marks stripped."""
    decomposed = unicodedata.normalize("NFKD", match.group())
    return "".join(filterfalse(unicodedata.combining, decomposed))


def _words(text: str) -> list[str]:
    """The lowercased runs of word characters of a text, digit-only ones
    included: every tokenization splits its text here.

    NFKD-decompose and strip combining marks (so accented and plain forms
    collide), lowercase, and take maximal runs of word characters excluding
    the underscore.

    NFKD followed by the strip maps each character on its own (canonical
    reordering moves only combining marks, and every one is stripped) and
    maps ASCII to itself. So they run only on the stretches that start at
    a non-ASCII character, which gives the string that running them over
    the whole text gives.

    Lowercased ASCII text (including text such as "Café" that folds to
    ASCII) has no word characters but [0-9a-z], so turning every other
    byte into a space and splitting on whitespace yields the runs the
    regex finds; only text that keeps a non-ASCII character takes the regex.
    """
    if not text.isascii():
        text = _FOLD_RE.sub(_fold_marks, text)
        if not text.isascii():
            return _TOKEN_RE.findall(text.lower())
    return text.encode("ascii").lower().translate(_BYTE_BREAKS).decode("ascii").split()


def tokenize(text: str) -> list[str]:
    """Normalize and split raw text (see `_words`), and drop purely numeric
    tokens."""
    return list(filterfalse(_numeric, _words(text)))


@dataclass(frozen=True)
class Bags:
    """A collection as term ids, flat over its documents.

    Document i (the collection's row i) owns entries
    seq_offsets[i]:seq_offsets[i+1] of `seq`, its term ids in text order, and
    entries offsets[i]:offsets[i+1] of `ids` and `tf`, its bag: its distinct
    term ids in first-occurrence order and how often each occurs. `terms`
    maps a term id back to its string.
    """

    terms: list[str]
    ids: np.ndarray          # int32
    tf: np.ndarray           # int32
    offsets: np.ndarray      # int64, documents + 1
    seq: np.ndarray          # int32
    seq_offsets: np.ndarray  # int64, documents + 1

    def df(self) -> np.ndarray:
        """Document frequency of every term id."""
        return np.bincount(self.ids, minlength=len(self.terms))

    def sequence(self, i: int) -> np.ndarray:
        """Document i's term ids in text order."""
        return self.seq[self.seq_offsets[i]:self.seq_offsets[i + 1]]

    def counts(self, i: int) -> dict[str, int]:
        """Document i's bag as term -> count, in first-occurrence order."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return dict(zip(map(self.terms.__getitem__, self.ids[lo:hi].tolist()),
                        self.tf[lo:hi].tolist()))

    def select(self, keep: np.ndarray) -> "Bags":
        """The bags and sequences restricted to the term ids where `keep` is
        true."""
        mask, seq_mask = keep[self.ids], keep[self.seq]
        return Bags(self.terms, self.ids[mask], self.tf[mask],
                    kept_offsets(mask, self.offsets), self.seq[seq_mask],
                    kept_offsets(seq_mask, self.seq_offsets))


def kept_offsets(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Document offsets into the entries that `mask` keeps."""
    kept = np.zeros(len(mask) + 1, dtype=np.int64)
    kept[1:] = mask
    return np.cumsum(kept, out=kept)[offsets]  # in place: one int64 per entry


# documents whose bags one vectorized sort counts: bounds its temporary arrays
_BLOCK_DOCS = 256


def encode_bags(corpus) -> Bags:
    """Tokenize every document once into its term-id sequence, and count
    its bag from that. Term ids are assigned in order of first occurrence
    over the collection.

    Every word gets an id, digit-only ones included; the digit rule then
    runs once per vocabulary term, and one monotone remap drops the
    numeric terms from the sequences, which keeps the order of the ids."""
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # an unseen word gets the next id
    seq, seq_offsets = [], [0]
    for doc in corpus:
        seq += map(vocab.__getitem__, _words(doc.text))
        seq_offsets.append(len(seq))
    words = list(vocab)
    keep = ~np.fromiter(map(_numeric, words), dtype=bool, count=len(words))
    seq = np.fromiter(seq, dtype=np.int32, count=len(seq))
    mask = keep[seq]
    seq = seq[mask]
    seq = (np.cumsum(keep, dtype=np.int32) - 1)[seq]
    seq_offsets = kept_offsets(mask, np.array(seq_offsets, dtype=np.int64))
    terms = list(compress(words, keep))
    blocks = [_count_terms(seq, seq_offsets[lo:lo + _BLOCK_DOCS + 1], len(terms))
              for lo in range(0, max(len(corpus), 1), _BLOCK_DOCS)]
    ids, tf, sizes = (np.concatenate(part) for part in zip(*blocks))
    return Bags(terms, ids, tf,
                np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
                seq, seq_offsets)


def _count_terms(seq: np.ndarray, bounds: np.ndarray, n_terms: int):
    """The bags of the documents whose sequences `bounds` delimit in `seq`:
    their distinct term ids in first-occurrence order, the counts, and each
    document's number of distinct terms. A block whose keys would leave the
    int64 range is counted in halves. One document's keys stay in it up to
    3 * 10**9 tokens in the collection, which bounds both its length and
    n_terms."""
    n_docs, size = len(bounds) - 1, int(bounds[-1] - bounds[0])
    if n_docs > 1 and n_docs * n_terms * size > 2 ** 63:
        half = n_docs // 2
        parts = zip(_count_terms(seq, bounds[:half + 1], n_terms),
                    _count_terms(seq, bounds[half:], n_terms))
        return tuple(np.concatenate(part) for part in parts)
    chunk = seq[bounds[0]:bounds[-1]]
    doc = np.repeat(np.arange(n_docs), np.diff(bounds))
    # one key per (document, term, position): distinct, so any sort orders
    # them alike, and each run of equal (document, term) starts at its
    # first position
    keys = (doc * n_terms + chunk) * size + np.arange(size)
    keys.sort()
    pair, position = np.divmod(keys, size)
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    # each count at its term's first position: read in position order, the
    # documents stay in order and each one's terms in first-occurrence order
    tf = np.zeros(size, dtype=np.int32)
    tf[position[starts]] = np.diff(starts, append=size)
    first = np.flatnonzero(tf)
    return chunk[first], tf[first], np.bincount(doc[first], minlength=n_docs)


def distinct_rows(tokens, row: dict) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct tokens that `row` maps, in first-occurrence order, with
    each one's row and its count as a float, from a token list or from its
    term -> count mapping in first-occurrence order (`Bags.counts`)."""
    counts = Counter(tokens)
    rows = np.fromiter(map(row.get, counts, repeat(-1)), dtype=np.intp,
                       count=len(counts))
    hit = rows >= 0
    tf = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return list(compress(counts, hit)), rows[hit], tf[hit]


def load_default_stopwords() -> frozenset[str]:
    """Fixed English stopword list shipped with the package (~320 words)."""
    data = resources.files("regir.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def load_stopwords(path) -> frozenset[str]:
    """One stopword per line, lowercased; blank lines and '#' comments
    ignored. An entry that is not one whole token of its own, which no
    token could ever equal, is refused."""
    words = set()
    for line_no, entry in read_lines(path):
        word = entry.lower()
        if tokenize(word) != [word]:
            raise ValueError(f"{path}: line {line_no}: stopword {entry!r} "
                             f"tokenizes to {tokenize(entry)}, not to itself")
        words.add(word)
    if not words:
        raise ValueError(f"{path}: no stopwords")
    return frozenset(words)


class IdfTable:
    """Smoothed inverse document frequencies over a reference collection.

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1), which stays positive for
    every df in [0, N]. Terms never seen in the collection get the df = 0
    value, the table maximum.
    """

    def __init__(self, doc_count: int, df: dict[str, int]):
        if doc_count <= 0:
            raise ValueError("doc_count must be positive")
        for term, count in df.items():
            if not 0 < count <= doc_count:
                raise ValueError(f"df[{term!r}] = {count} outside [1, {doc_count}]")
        self.doc_count = doc_count
        self._df = dict(df)
        counts = np.fromiter(self._df.values(), dtype=np.int64, count=len(self._df))
        self._idf = dict(zip(self._df, self.idf_of_df(counts).tolist()))
        self._unseen = float(self.idf_of_df(np.zeros(1, dtype=np.int64))[0])

    def idf_of_df(self, df: np.ndarray) -> np.ndarray:
        """The idf of each int64 document frequency: the ratio's arithmetic
        rounds each step as Python does on an int df (int64 differences are
        exact, and an int enters a float sum exactly), and `math.log` takes
        each ratio."""
        ratios = (self.doc_count - df + 0.5) / (df + 0.5) + 1.0
        return np.fromiter(map(math.log, ratios.tolist()), dtype=np.float64,
                           count=len(ratios))

    def idf(self, term: str) -> float:
        return self._idf.get(term, self._unseen)

    def idfs(self, terms) -> np.ndarray:
        """The idf of each term, in order, as one float64 array."""
        return np.fromiter(map(self._idf.get, terms, repeat(self._unseen)),
                           dtype=np.float64)

    def df(self, term: str) -> int:
        return self._df.get(term, 0)

    @property
    def terms(self):
        return self._df.keys()

    def stopword_avg_idf(self, stopwords) -> float:
        """Mean idf over the stopwords that actually occur in the collection.

        Returns 0.0 (an always-pass threshold, since idf is non-negative)
        when no stopword occurs at all. `math.fsum` rounds the exact sum
        once, so the set's iteration order, which the hash seed picks, does
        not reach the bits.
        """
        present = [self.idf(t) for t in stopwords if t in self._df]
        if not present:
            return 0.0
        return math.fsum(present) / len(present)


class TextPipeline:
    """tokenize -> stopword removal -> idf-threshold filter.

    The idf threshold is the mean idf of the stopwords that occur in the
    reference collection: anything rarer than an average stopword survives.
    Disable with idf_filter=False for small synthetic collections where
    document frequencies are too coarse to separate noise from signal.
    """

    def __init__(self, idf_table: IdfTable, stopwords: frozenset[str] | None = None,
                 idf_filter: bool = True):
        self.idf_table = idf_table
        self.stopwords = load_default_stopwords() if stopwords is None else frozenset(stopwords)
        self.idf_filter = idf_filter
        self.threshold = idf_table.stopword_avg_idf(self.stopwords)
        # the terms denoising drops: the stopwords, and with the idf filter
        # on, the table terms below the threshold. A term outside the table
        # has the df = 0 idf, the table maximum, which no threshold (a mean
        # over table terms, or 0.0) exceeds: it is kept unless a stopword.
        terms = list(idf_table.terms)
        drop = np.fromiter(map(self.stopwords.__contains__, terms), dtype=bool,
                           count=len(terms))
        if idf_filter:
            drop |= idf_table.idfs(terms) < self.threshold
        self._drop = frozenset(chain(self.stopwords, compress(terms, drop)))
        # the idf-table terms denoising keeps, sorted, and each one's row
        self.kept_terms = sorted(compress(terms, ~drop))
        self.kept_row = {t: i for i, t in enumerate(self.kept_terms)}
        self._bags: dict = {}  # collection object -> its denoised bags

    def denoise(self, tokens: list[str]) -> list[str]:
        return list(filterfalse(self._drop.__contains__, tokens))

    def denoise_bags(self, bags: Bags) -> Bags:
        drop = np.fromiter(map(self._drop.__contains__, bags.terms), dtype=bool,
                           count=len(bags.terms))
        return bags.select(~drop)

    def bags(self, corpus) -> Bags:
        """Denoised bags of a collection, encoded once per collection object."""
        if corpus not in self._bags:
            self._bags[corpus] = self.denoise_bags(encode_bags(corpus))
        return self._bags[corpus]

    def __call__(self, text: str) -> list[str]:
        return self.denoise(tokenize(text))


def build_pipeline(corpus, stopwords: frozenset[str] | None = None,
                   idf_filter: bool = True) -> TextPipeline:
    """Pipeline whose idf statistics come from the given (pool) collection.

    The idf table is computed on tokenized but not-yet-denoised text, so the
    threshold itself is well-defined before any filtering happens. The
    pipeline keeps the collection's denoised bags, so indexing it and
    building its centroids tokenize nothing again.
    """
    if len(corpus) == 0:
        raise ValueError("cannot build an idf table from zero documents")
    bags = encode_bags(corpus)
    table = IdfTable(len(corpus), dict(zip(bags.terms, bags.df().tolist())))
    pipeline = TextPipeline(table, stopwords=stopwords, idf_filter=idf_filter)
    denoised = pipeline.denoise_bags(bags)
    if len(bags.ids) and not len(denoised.ids):
        if idf_filter:
            raise ValueError(
                f"every document is empty after denoising: no term's idf "
                f"reaches the threshold {pipeline.threshold:.4f} (the mean idf "
                f"of the stopwords in the pool); turn the idf filter off")
        raise ValueError("every document is empty after stopword removal")
    pipeline._bags[corpus] = denoised
    return pipeline
