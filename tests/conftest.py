import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import regir
from regir.corpus import Corpus, Document, Qrels
from regir.rerank import features
from regir.text import IdfTable, build_pipeline

from oracles import idf_from_token_lists


def pytest_addoption(parser):
    parser.addoption("--full", action="store_true", default=False,
                     help="run the full-dataset checks (needs REGIR_DATA_DIR)")


# one "PASS/FAIL criterion N: ..." line per acceptance criterion, echoed
# after the test run so the verdicts survive output capturing
ACCEPTANCE_LINES = []


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException as exc:
        tag = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        ACCEPTANCE_LINES.append(f"{tag} criterion {num}: {summary}")
        raise
    ACCEPTANCE_LINES.append(f"PASS criterion {num}: {summary}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "full: needs the real dataset (run with --full)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--full"):
        return
    skip = pytest.mark.skip(reason="needs --full and REGIR_DATA_DIR")
    for item in items:
        if "full" in item.keywords:
            item.add_marker(skip)


def run_python(code: str, *args, hash_seed: int, **env: str) -> str:
    """The stdout of `code` run in a fresh interpreter under the given
    PYTHONHASHSEED and further environment variables, with this package
    importable."""
    env = dict(os.environ, **env, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [str(Path(regir.__file__).parents[1]),
                    *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


VOCAB = ["tax", "levy", "duty", "customs", "excise", "fish", "quota", "vessel",
         "net", "harbour", "data", "privacy", "consent", "breach", "notice",
         "tariff", "border", "import", "export", "goods", "waste", "emission",
         "permit", "licence", "annex"]


class FixedIdf(IdfTable):
    """An idf table with prescribed values, `default` for any other term."""

    def __init__(self, values, default=1.0):
        self._idf, self._unseen = dict(values), default


def exit_spy(monkeypatch) -> list:
    """Records the number of documents of each DRMM batch that takes the
    per-document exit, `features._per_document_bins`."""
    calls = []
    real = features._per_document_bins

    def spy(q_rows, docs, *rest):
        calls.append(len(docs))
        return real(q_rows, docs, *rest)

    monkeypatch.setattr(features, "_per_document_bins", spy)
    return calls


def keyed(cls, vectors, **kwargs):
    """A `WordVectors` or `DocVectorStore` over a key -> vector mapping."""
    return cls(list(vectors), np.array(list(vectors.values()), dtype=np.float64),
               **kwargs)


def make_doc(doc_id, words, year=0, title="Regulation"):
    return Document(doc_id=doc_id, title=title, body=" ".join(words), year=year)


def random_corpus(rng: random.Random, n_docs: int, vocab=None, doc_len=(5, 40),
                  prefix="d", year_range=None) -> Corpus:
    vocab = vocab or VOCAB
    docs = []
    for i in range(n_docs):
        length = rng.randint(*doc_len)
        words = [rng.choice(vocab) for _ in range(length)]
        year = rng.randint(*year_range) if year_range else 0
        docs.append(make_doc(f"{prefix}{i:04d}", words, year=year,
                             title=f"Act {i}"))
    return Corpus(docs)


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture
def tiny_corpus():
    docs = [
        make_doc("d1", ["tax", "levy", "tax", "customs"], year=2001),
        make_doc("d2", ["fish", "quota", "vessel", "fish", "fish"], year=2003),
        make_doc("d3", ["tax", "fish", "border", "goods"], year=2005),
        make_doc("d4", ["privacy", "consent", "breach", "notice"], year=2007),
    ]
    return Corpus(docs)


@pytest.fixture
def raw_pipeline(tiny_corpus):
    """Pipeline without the idf filter so every vocab word survives."""
    return build_pipeline(tiny_corpus, stopwords=frozenset(), idf_filter=False)


def write_jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps(d) + "\n")


def build_dataset(tmp_path, rng):
    """Small on-disk dataset: pool + queries JSONL, qrels TSV, splits JSON,
    word vectors. Mirrors the layout the CLI consumes."""
    themes = [VOCAB[i:i + 5] for i in range(0, 20, 5)]
    pool = []
    for i in range(40):
        theme = themes[i % 4]
        words = [rng.choice(theme) for _ in range(30)]
        pool.append({"doc_id": f"uk{i:03d}", "title": f"Regulation {i}",
                     "body": " ".join(words), "year": 1995 + (i % 20)})
    queries = []
    for i in range(12):
        theme = themes[i % 4]
        words = [rng.choice(theme) for _ in range(25)]
        queries.append({"doc_id": f"eu{i:02d}", "title": f"Directive {i}",
                        "body": " ".join(words), "year": 1996 + (i % 18)})
    write_jsonl(tmp_path / "pool.jsonl", pool)
    write_jsonl(tmp_path / "queries.jsonl", queries)
    with open(tmp_path / "qrels.tsv", "w") as fh:
        for i, q in enumerate(queries):
            rel = [p["doc_id"] for j, p in enumerate(pool) if j % 4 == i % 4][:2]
            for r in rel:
                fh.write(f"{q['doc_id']}\t{r}\n")
    splits = {"train": [q["doc_id"] for q in queries[:6]],
              "dev": [q["doc_id"] for q in queries[6:9]],
              "test": [q["doc_id"] for q in queries[9:]],
              "pool": [p["doc_id"] for p in pool]}
    (tmp_path / "splits.json").write_text(json.dumps(splits))
    with open(tmp_path / "wv.txt", "w") as fh:
        for w in VOCAB + ["regulation", "directive", "act"]:
            vec = [round(rng.uniform(-1.0, 1.0), 4) for _ in range(8)]
            fh.write(w + " " + " ".join(map(str, vec)) + "\n")
    return tmp_path


def date_window_dataset(tmp_path, rng):
    """build_dataset, with each test query dated like its first relevant
    document except the last, dated before the whole pool: a post window of
    0 years keeps the others' relevant documents and empties that one's
    list."""
    root = build_dataset(tmp_path, rng)
    pool_years = {}
    for line in (root / "pool.jsonl").read_text().splitlines():
        doc = json.loads(line)
        pool_years[doc["doc_id"]] = doc["year"]
    first_relevant = {}
    for line in (root / "qrels.tsv").read_text().splitlines():
        query_id, doc_id = line.split("\t")
        first_relevant.setdefault(query_id, doc_id)
    test_ids = json.loads((root / "splits.json").read_text())["test"]
    queries = [json.loads(line)
               for line in (root / "queries.jsonl").read_text().splitlines()]
    for query in queries:
        if query["doc_id"] in test_ids:
            query["year"] = pool_years[first_relevant[query["doc_id"]]]
    next(q for q in queries if q["doc_id"] == test_ids[-1])["year"] = 1900
    write_jsonl(root / "queries.jsonl", queries)
    return root


@pytest.fixture
def workdir(tmp_path, rng):
    return build_dataset(tmp_path, rng)


def simple_qrels(mapping):
    return Qrels({q: set(docs) for q, docs in mapping.items()})


@pytest.fixture
def uniform_idf():
    """Same idf for every vocab term, handy when weighting must not matter."""
    return idf_from_token_lists([VOCAB])
