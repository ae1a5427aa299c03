"""regir: document-to-document retrieval for regulatory text.

Queries are whole legal documents. Candidates come from BM25, tf-idf
weighted embedding centroids, or their ensemble; trainable neural matchers
re-rank the candidates; a publication-year filter prunes them; R@k, nDCG@k
and R-Precision score the result against transposition-derived judgments.
"""

__version__ = "0.1.0"

from .bm25 import Bm25Params, PostingsIndex, build_index, load_index, save_index, tune_bm25
from .corpus import (Corpus, CorpusError, Document, Qrels, SplitManifest,
                     corpus_stats, ingest_collection, load_qrels)
from .datefilter import DateWindow, apply_filter, choose_window
from .dense import (DocVectorStore, WordVectors, build_centroid_store, centroid,
                    knn_search, load_doc_vectors, load_word_vectors)
from .fusion import fuse, normalize_scores, tune_alpha
from .metrics import (EvalReport, aggregate_runs, evaluate_run, ndcg_at_k,
                      r_precision, recall_at_k)
from .ranking import RankedList, Run, read_run, write_run
from .text import IdfTable, TextPipeline, build_pipeline, tokenize

__all__ = [
    "__version__",
    "Bm25Params", "PostingsIndex", "build_index", "save_index", "load_index",
    "tune_bm25",
    "Corpus", "CorpusError", "Document", "Qrels", "SplitManifest",
    "corpus_stats", "ingest_collection", "load_qrels",
    "DateWindow", "apply_filter", "choose_window",
    "DocVectorStore", "WordVectors", "build_centroid_store", "centroid",
    "knn_search", "load_doc_vectors", "load_word_vectors",
    "fuse", "normalize_scores", "tune_alpha",
    "EvalReport", "aggregate_runs", "evaluate_run", "ndcg_at_k", "r_precision",
    "recall_at_k",
    "RankedList", "Run", "read_run", "write_run",
    "IdfTable", "TextPipeline", "build_pipeline", "tokenize",
]
