"""regir: document-to-document retrieval for regulatory text.

Queries are whole legal documents. Candidates come from BM25, tf-idf
weighted embedding centroids, or their ensemble; trainable neural matchers
re-rank the candidates; a publication-year filter prunes them; R@k, nDCG@k
and R-Precision score the result against transposition-derived judgments.
"""

__version__ = "0.1.0"
