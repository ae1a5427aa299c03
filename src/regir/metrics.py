"""Ranking metrics: R@k, binary-gain nDCG@k, R-Precision, the mean R@k
curve over k = 1..k_max, and mean/sd aggregation over multiple seeded runs.

Macro averages run over queries with at least one relevant document; the
rest are excluded and counted. Gains are binary, the discount is
log2(rank + 1), and the ideal DCG places min(R, k) relevant documents at the
top, matching the usual trec_eval conventions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._textio import parse_number, read_lines, write_table
from .ranking import Run

log = logging.getLogger(__name__)


def _ids(ranked) -> list[str]:
    """A RankedList's doc_ids, or the ranked ids themselves, uncopied when
    they come as a list."""
    ids = getattr(ranked, "doc_ids", ranked)  # a property: evaluate it once
    return ids if isinstance(ids, list) else list(ids)


def float_sum(values) -> float:
    """Every float sum and mean an artifact holds: the values added left to
    right from 0.0, as builtin `sum` did before Python 3.12 compensated."""
    total = 0.0
    for value in values:
        total += value
    return total


def recall_at_k(ranked, relevant: set[str], k: int) -> float:
    if not relevant:
        raise ValueError("empty relevant set")
    if k < 1:
        raise ValueError("k must be >= 1")
    top = _ids(ranked)[:k]
    return sum(1 for d in top if d in relevant) / len(relevant)


def ndcg_at_k(ranked, relevant: set[str], k: int) -> float:
    if not relevant:
        raise ValueError("empty relevant set")
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for i, doc_id in enumerate(_ids(ranked)[:k], start=1):
        if doc_id in relevant:
            dcg += 1.0 / math.log2(i + 1)
    ideal = float_sum(1.0 / math.log2(i + 1) for i in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


def r_precision(ranked, relevant: set[str]) -> float:
    """|top-R hits| / R with R = |relevant|; short lists just contribute
    whatever prefix they have."""
    if not relevant:
        raise ValueError("empty relevant set")
    r = len(relevant)
    top = _ids(ranked)[:r]
    return sum(1 for d in top if d in relevant) / r


@dataclass
class EvalReport:
    """Per-query metric rows plus macro means. metric_names fixes column
    order for CSV export."""

    k: int
    per_query: dict[str, dict[str, float]]
    excluded_query_ids: list[str] = field(default_factory=list)

    @property
    def metric_names(self) -> list[str]:
        return [f"r_at_{self.k}", f"ndcg_at_{self.k}", "rp"]

    @property
    def macro(self) -> dict[str, float]:
        names = self.metric_names
        n = len(self.per_query)
        if n == 0:
            return {m: 0.0 for m in names}
        return {m: float_sum(row[m] for row in self.per_query.values()) / n for m in names}


def evaluate_run(run: Run, qrels, k: int = 20) -> EvalReport:
    """Score every query in the run; queries with no relevant documents are
    excluded from the macro average and listed on the report."""
    per_query: dict[str, dict[str, float]] = {}
    excluded = []
    for query_id in sorted(run):
        relevant = qrels.relevant(query_id)
        if not relevant:
            excluded.append(query_id)
            continue
        ranking = _ids(run[query_id])  # read once for the three metrics
        per_query[query_id] = {
            f"r_at_{k}": recall_at_k(ranking, relevant, k),
            f"ndcg_at_{k}": ndcg_at_k(ranking, relevant, k),
            "rp": r_precision(ranking, relevant),
        }
    return EvalReport(k, per_query, excluded)


def write_eval_csv(report: EvalReport, path, comment: str = "") -> None:
    """`query_id,<metrics...>` rows in sorted query order, then a `mean`
    summary row over the included queries."""
    names = report.metric_names
    header = ",".join(["query_id", *names])
    if report.excluded_query_ids:
        header = (f"# excluded (no relevant docs): "
                  f"{','.join(report.excluded_query_ids)}\n{header}")
    rows = sorted(report.per_query.items()) + [("mean", report.macro)]
    write_table(path, header, (",".join([query_id, *(repr(row[m]) for m in names)])
                               for query_id, row in rows), comment)


def read_eval_csv(path) -> EvalReport:
    """The report write_eval_csv wrote, its k read off the `r_at_K` column;
    the `mean` row is its macro. Every row has the report's columns, each
    value a finite number."""
    per_query: dict[str, dict[str, float]] = {}
    names: list[str] = []
    for line_no, line in read_lines(path):
        parts = line.split(",")
        if not names:
            if parts[0] != "query_id":
                raise ValueError(f"{path}: line {line_no}: missing header row")
            names = parts[1:]
            continue
        if len(parts) != len(names) + 1:
            raise ValueError(f"{path}: line {line_no}: expected {len(names) + 1} "
                             f"columns, got {len(parts)}")
        per_query[parts[0]] = {m: parse_number(v, float, f"{path}: line {line_no}: {m}")
                               for m, v in zip(names, parts[1:])}
    if not names:
        raise ValueError(f"{path}: empty eval csv")
    per_query.pop("mean", None)
    k = names[0].removeprefix("r_at_")
    report = EvalReport(int(k) if k.isdecimal() else 0, per_query)
    if report.k < 1 or names != report.metric_names:
        raise ValueError(f"{path}: expected the columns r_at_K, ndcg_at_K, rp "
                         f"of an eval CSV")
    return report


def aggregate_runs(reports: list[EvalReport]) -> dict[str, tuple[float, float]]:
    """metric -> (mean, population sd) of the macro averages across seeded
    runs. The runs are the whole population of reported trials, hence the
    population variance."""
    if not reports:
        raise ValueError("no reports to aggregate")
    first = reports[0]
    for rep in reports[1:]:
        if set(rep.per_query) != set(first.per_query):
            raise ValueError("reports cover different query sets")
        if rep.k != first.k:
            raise ValueError("reports use different k")
    out: dict[str, tuple[float, float]] = {}
    for metric in first.metric_names:
        values = [rep.macro[metric] for rep in reports]
        mean = float_sum(values) / len(values)
        var = float_sum((v - mean) ** 2 for v in values) / len(values)
        out[metric] = (mean, math.sqrt(var))
    return out


def write_summary_csv(summary: dict[str, tuple[float, float]], path,
                      comment: str = "") -> None:
    write_table(path, "metric,mean,sd",
                (f"{metric},{mean!r},{sd!r}" for metric, (mean, sd) in summary.items()),
                comment)


def emit_rk_curve(run: Run, qrels, k_max: int) -> list[tuple[int, float]]:
    """`(k, mean R@k)` rows for k = 1..k_max over queries with relevant
    documents; the run must be fetched at depth >= k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    query_ids = qrels.judged(sorted(run))
    short = [q for q in query_ids
             if len(run[q]) < min(k_max, len(qrels.relevant(q)))]
    # row i marks query i's relevant entries among its top k_max, then holds
    # its hit count at each depth k, then its R@k: the floats recall_at_k
    # returns. The rows are added in query order from 0.0, one vector add
    # per query, as float_sum adds each k's values
    curves = np.zeros((len(query_ids), k_max))
    sizes = np.zeros(len(query_ids))
    for i, q in enumerate(query_ids):
        relevant = qrels.relevant(q)
        curves[i, [j for j, (d, _) in enumerate(run[q][:k_max]) if d in relevant]] = 1
        sizes[i] = len(relevant)
    np.cumsum(curves, axis=1, out=curves)
    curves /= sizes[:, None]
    total = np.zeros(k_max)
    for curve in curves:
        total += curve
    rows = list(zip(range(1, k_max + 1), (total / len(query_ids)).tolist()))
    if short:
        log.warning("rk curve: %d list(s) shorter than k_max", len(short))
    return rows


def write_rk_curve_csv(rows, path, comment: str = "") -> None:
    write_table(path, "k,recall", (f"{k},{recall!r}" for k, recall in rows),
                comment)
