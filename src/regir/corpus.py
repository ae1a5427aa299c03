"""Document collections, relevance judgments, and query splits.

Canonical on-disk formats:
    corpus   JSONL, one object per line with keys ``doc_id``, ``title``,
             ``body`` and optional integer ``year``
    qrels    TSV ``query_id<TAB>relevant_doc_id``, '#' comment lines ignored
    splits   JSON with keys ``train``, ``dev``, ``test``, ``pool``
"""

from __future__ import annotations

import datetime
import json
import logging
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ._textio import read_json, read_jsonl, read_lines

log = logging.getLogger(__name__)

_TITLE_YEAR_RE = re.compile(r"\b((?:19|20)\d{2})\b")


class CorpusError(ValueError):
    """Raised for malformed or inconsistent collection inputs."""


def _extract_year(record: dict, where: str) -> int:
    """Publication year: explicit field first, then first plausible
    4-digit token in the title, else 0 (unknown, exempt from date filters).
    `where` names the record in errors."""
    if "year" in record and record["year"] is not None:
        year = record["year"]
        if not isinstance(year, int) or isinstance(year, bool):
            raise CorpusError(f"{where}: year must be an integer, got {year!r}")
        current = datetime.date.today().year
        if not (1800 < year <= current):
            raise CorpusError(f"{where}: year {year} outside (1800, {current}]")
        return year
    current = datetime.date.today().year
    for match in _TITLE_YEAR_RE.finditer(record.get("title", "")):
        candidate = int(match.group(1))
        if 1800 < candidate <= current:
            return candidate
    return 0


@dataclass(frozen=True)
class Document:
    """One legal act. ``year == 0`` means the publication year is unknown."""

    doc_id: str
    title: str
    body: str
    year: int = 0

    @property
    def text(self) -> str:
        """Full retrievable text: title plus body."""
        return self.title + "\n" + self.body if self.body else self.title


class Corpus:
    """Immutable document collection keyed by doc_id."""

    def __init__(self, documents: list[Document]):
        self._docs: dict[str, Document] = {}
        for doc in documents:
            if doc.doc_id in self._docs:
                raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
            if not doc.title:
                raise CorpusError(f"doc {doc.doc_id!r}: title is empty")
            self._docs[doc.doc_id] = doc

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __iter__(self):
        return iter(self._docs.values())

    def get(self, doc_id: str) -> Document:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc_id {doc_id!r}") from None

    def years(self, doc_ids) -> np.ndarray:
        """The publication year of each doc_id, in order, as int64; `get`'s
        KeyError for the first unknown one."""
        try:
            return np.fromiter(map(attrgetter("year"),
                                   map(self._docs.__getitem__, doc_ids)),
                               dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown doc_id {exc.args[0]!r}") from None

    @property
    def ids(self) -> list[str]:
        return list(self._docs)


REQUIRED_FIELDS = ("doc_id", "title", "body")


def _document(record, where: str) -> Document:
    """The Document a canonical record describes; errors start with `where`."""
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: expected a JSON object, "
                          f"got {type(record).__name__}")
    for key in REQUIRED_FIELDS:
        if key not in record:
            raise CorpusError(f"{where}: missing required field {key!r}")
    doc_id, title, body = (record[key] for key in REQUIRED_FIELDS)
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"{where}: doc_id must be a non-empty string")
    if not isinstance(title, str) or not isinstance(body, str):
        raise CorpusError(f"{where}: title/body must be strings")
    if not title:
        raise CorpusError(f"{where}: title is empty")
    return Document(doc_id, title, body, _extract_year(record, where))


def ingest_collection(path, tag: str = "") -> Corpus:
    """Parse a canonical JSONL collection, validating every record.

    Aborts on the first malformed line, missing required field, or
    duplicate doc_id, naming the offending line/id. `tag` is ignored: it is
    kept only because the benchmark still passes it, and goes with the next
    change to the benchmark.
    """
    documents = []
    seen: set[str] = set()
    empty_bodies = 0
    for line_no, record in read_jsonl(path, error=CorpusError):
        doc = _document(record, f"{path}: line {line_no}")
        if doc.doc_id in seen:
            raise CorpusError(f"{path}: line {line_no}: duplicate doc_id "
                              f"{doc.doc_id!r}")
        seen.add(doc.doc_id)
        empty_bodies += not doc.body
        documents.append(doc)
    if empty_bodies:
        log.warning("%s: %d document(s) with empty body", path, empty_bodies)
    return Corpus(documents)


def write_collection(corpus: Corpus, path) -> None:
    """Serialize back to canonical JSONL (round-trips with ingest_collection)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            record = {"doc_id": doc.doc_id, "title": doc.title, "body": doc.body}
            if doc.year:
                record["year"] = doc.year
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def convert_collection(path, out_path,
                       field_map: dict[str, str] | None = None) -> Corpus:
    """Convert a third-party archive (JSON array or JSONL with foreign field
    names) to canonical JSONL.

    field_map maps canonical keys (doc_id, title, body, year) to the source
    keys; unmapped keys default to the canonical names.
    """
    mapping = {k: k for k in ("doc_id", "title", "body", "year")}
    mapping.update(field_map or {})
    with open(path, "rb") as fh:
        is_array = fh.read(1024).lstrip().startswith(b"[")
    records = (read_json(path, CorpusError) if is_array
               else [record for _, record in read_jsonl(path, CorpusError)])
    documents = []
    for i, rec in enumerate(records, start=1):
        where = f"{path}: record {i}"
        if not isinstance(rec, dict):
            raise CorpusError(f"{where}: expected a JSON object, "
                              f"got {type(rec).__name__}")
        out = {canon: rec[src] for canon, src in mapping.items() if src in rec}
        for key in REQUIRED_FIELDS:
            if key not in out:
                raise CorpusError(f"{where}: no source field for {key!r} "
                                  f"(looked for {mapping[key]!r})")
        if not isinstance(out.get("year", 0), int):
            out.pop("year", None)
        documents.append(_document(out, where))
    try:
        corpus = Corpus(documents)
    except CorpusError as exc:  # a duplicate doc_id
        raise CorpusError(f"{path}: {exc}") from None
    write_collection(corpus, out_path)
    return corpus


@dataclass
class CorpusStats:
    doc_count: int
    mean_tokens: float
    median_tokens: float
    year_histogram: dict[int, int]
    empty_body_count: int

    def as_dict(self) -> dict:
        return {
            "doc_count": self.doc_count,
            "mean_tokens": self.mean_tokens,
            "median_tokens": self.median_tokens,
            "year_histogram": {str(k): v for k, v in sorted(self.year_histogram.items())},
            "empty_body_count": self.empty_body_count,
        }


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Summary statistics with raw whitespace tokenization (pre-denoising)."""
    lengths = [len(doc.text.split()) for doc in corpus]
    years = Counter(doc.year for doc in corpus)
    return CorpusStats(
        doc_count=len(corpus),
        mean_tokens=statistics.fmean(lengths) if lengths else 0.0,
        median_tokens=float(statistics.median(lengths)) if lengths else 0.0,
        year_histogram=dict(years),
        empty_body_count=sum(1 for doc in corpus if not doc.body),
    )


@dataclass
class Qrels:
    """Relevance judgments: query doc_id -> set of relevant pool doc_ids."""

    entries: dict[str, set[str]] = field(default_factory=dict)

    def relevant(self, query_id: str) -> set[str]:
        return self.entries.get(query_id, set())

    def restrict(self, query_ids) -> "Qrels":
        wanted = set(query_ids)
        return Qrels({q: set(r) for q, r in self.entries.items() if q in wanted})


def load_qrels(path, query_corpus: Corpus | None = None,
               pool_corpus: Corpus | None = None) -> Qrels:
    """Load TSV judgments. Rows referencing unknown ids are collected and the
    load fails at the end, listing every offender."""
    entries: dict[str, set[str]] = {}
    unknown: list[str] = []
    for line_no, line in read_lines(path, error=CorpusError):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}: line {line_no}: expected 2 tab-separated "
                              f"columns, got {len(parts)}")
        query_id, doc_id = parts
        bad = False
        if query_corpus is not None and query_id not in query_corpus:
            unknown.append(f"line {line_no}: unknown query_id {query_id!r}")
            bad = True
        if pool_corpus is not None and doc_id not in pool_corpus:
            unknown.append(f"line {line_no}: unknown doc_id {doc_id!r}")
            bad = True
        if not bad:
            entries.setdefault(query_id, set()).add(doc_id)
    if not entries and not unknown:
        raise CorpusError(f"{path}: no judgment rows")
    if unknown:
        raise CorpusError(f"{path}: {len(unknown)} row(s) reference unknown ids:\n  "
                          + "\n  ".join(unknown))
    return Qrels(entries)


@dataclass
class SplitManifest:
    """Train/dev/test query id lists plus the retrieval pool ids."""

    train_ids: list[str]
    dev_ids: list[str]
    test_ids: list[str]
    pool_ids: list[str]

    def validate(self, query_corpus: Corpus | None = None,
                 pool_corpus: Corpus | None = None,
                 qrels: Qrels | None = None) -> None:
        """Enforce split invariants; chronology violations only warn."""
        # errors list ids in split order, which no hash seed changes
        splits = {"train": self.train_ids, "dev": self.dev_ids,
                  "test": self.test_ids}
        sets = {name: set(ids) for name, ids in splits.items()}
        for name, ids in (*splits.items(), ("pool", self.pool_ids)):
            if len(set(ids)) != len(ids):
                raise CorpusError(f"split {name!r} contains duplicate ids")
        for a in ("train", "dev", "test"):
            for b in ("train", "dev", "test"):
                if a < b and sets[a] & sets[b]:
                    overlap = sorted(sets[a] & sets[b])[:5]
                    raise CorpusError(f"splits {a!r} and {b!r} overlap: {overlap}")
        if query_corpus is not None:
            for name, ids in splits.items():
                missing = [i for i in ids if i not in query_corpus]
                if missing:
                    raise CorpusError(f"split {name!r}: ids missing from query "
                                      f"collection: {missing[:5]}")
            self._check_chronology(query_corpus)
        if pool_corpus is not None:
            missing = [i for i in self.pool_ids if i not in pool_corpus]
            if missing:
                raise CorpusError(f"pool ids missing from pool collection: {missing[:5]}")
        if qrels is not None:
            for name, ids in splits.items():
                empty = [i for i in ids if not qrels.relevant(i)]
                if empty:
                    raise CorpusError(f"split {name!r}: queries with no relevant "
                                      f"documents: {empty[:5]}")

    def _check_chronology(self, query_corpus: Corpus) -> None:
        def years(ids):
            return [query_corpus.get(i).year for i in ids if query_corpus.get(i).year]

        train, dev, test = years(self.train_ids), years(self.dev_ids), years(self.test_ids)
        if train and dev and max(train) > min(dev):
            log.warning("chronological order violated: max(train year)=%d > "
                        "min(dev year)=%d", max(train), min(dev))
        if dev and test and min(dev) > min(test):
            log.warning("chronological order violated: min(dev year)=%d > "
                        "min(test year)=%d", min(dev), min(test))

    @classmethod
    def from_json(cls, path) -> "SplitManifest":
        data = read_json(path, CorpusError)
        if not isinstance(data, dict):
            raise CorpusError(f"{path}: split manifest must be a JSON object")
        for key in ("train", "dev", "test", "pool"):
            if key not in data:
                raise CorpusError(f"{path}: split manifest missing key {key!r}")
            ids = data[key]
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise CorpusError(f"{path}: split {key!r} must be a list of strings")
        return cls(data["train"], data["dev"], data["test"], data["pool"])
