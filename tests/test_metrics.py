
import re

import pytest

from regir.corpus import Qrels
from regir.metrics import (EvalReport, aggregate_runs, evaluate_run,
                           ndcg_at_k, r_precision, read_eval_csv, recall_at_k,
                           write_eval_csv, write_summary_csv)
from regir.ranking import RankedList, Run


def rl(*doc_ids):
    return RankedList([(d, float(len(doc_ids) - i))
                       for i, d in enumerate(doc_ids)])


# --- recall ---

def test_recall_basic():
    assert recall_at_k(rl("a", "b", "c"), {"a", "c"}, k=2) == 0.5
    assert recall_at_k(rl("a", "b", "c"), {"a", "c"}, k=3) == 1.0


def test_recall_k_beyond_list():
    assert recall_at_k(rl("a"), {"a", "b"}, k=10) == 0.5


def test_recall_no_relevant_retrieved():
    assert recall_at_k(rl("x", "y"), {"a"}, k=2) == 0.0


# --- ndcg ---

def test_ndcg_single_relevant_rank_two():
    value = ndcg_at_k(rl("x", "rel"), {"rel"}, k=20)
    assert value == pytest.approx(0.6309297535714575, abs=1e-13)


def test_ndcg_two_relevant_at_one_and_three():
    value = ndcg_at_k(rl("rel1", "x", "rel2"), {"rel1", "rel2"}, k=3)
    assert value == pytest.approx(0.9197207891481876, abs=1e-13)


def test_ndcg_perfect_ranking_is_one():
    assert ndcg_at_k(rl("a", "b"), {"a", "b"}, k=2) == pytest.approx(1.0)


def test_ndcg_ideal_uses_min_of_relevant_and_k():
    # 3 relevant but k=1: ideal dcg is a single gain, so a hit at rank 1
    # scores 1.0 even though two relevant docs are missing
    assert ndcg_at_k(rl("a"), {"a", "b", "c"}, k=1) == pytest.approx(1.0)


def test_ndcg_empty_list_zero():
    assert ndcg_at_k(rl(), {"a"}, k=5) == 0.0


# --- r-precision ---

def test_r_precision_prefix():
    # R=3, prefix [a, x, b] holds two relevant docs
    assert r_precision(rl("a", "x", "b"), {"a", "b", "c"}) == pytest.approx(2 / 3)


def test_r_precision_short_list_counts_prefix_only():
    # R=4 but list has 2 entries: precision over the 4-prefix that exists
    assert r_precision(rl("a", "b"), {"a", "b", "c", "d"}) == pytest.approx(0.5)


def test_r_precision_equals_recall_at_r(rng):
    for _ in range(200):
        pool = [f"d{i}" for i in range(30)]
        relevant = set(rng.sample(pool, rng.randint(1, 10)))
        ranking = rl(*rng.sample(pool, rng.randint(1, 30)))
        r = len(relevant)
        assert r_precision(ranking, relevant) == \
            pytest.approx(recall_at_k(ranking, relevant, r))


# --- evaluation over runs ---

def simple_run():
    return Run({"q1": rl("a", "b"), "q2": rl("x", "rel"), "q3": rl("y")})


def test_evaluate_run_excludes_unjudged_queries():
    qrels = Qrels({"q1": {"a"}, "q2": {"rel"}, "q3": set()})
    report = evaluate_run(simple_run(), qrels, k=20)
    assert set(report.per_query) == {"q1", "q2"}
    assert report.excluded_query_ids == ["q3"]
    assert report.macro["r_at_20"] == pytest.approx(1.0)
    assert report.macro["ndcg_at_20"] == pytest.approx(
        (1.0 + 0.6309297535714575) / 2)


def test_eval_csv_roundtrip(tmp_path):
    qrels = Qrels({"q1": {"a"}, "q2": {"rel"}})
    run = Run({"q1": rl("a", "b"), "q2": rl("x", "rel")})
    report = evaluate_run(run, qrels, k=20)
    path = tmp_path / "eval.csv"
    write_eval_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "query_id,r_at_20,ndcg_at_20,rp"
    assert lines[-1].startswith("mean,")
    back = read_eval_csv(path)
    assert back.k == 20
    assert back.per_query == report.per_query
    assert back.per_query["q2"]["ndcg_at_20"] == pytest.approx(0.6309297535714575)
    # the mean row holds repr of the macro means, which recompute bit-equal
    assert lines[-1] == "mean," + ",".join(repr(v) for v in back.macro.values())
    assert back.macro == report.macro


@pytest.mark.parametrize("row, message", [
    ("q1,0.5", "line 2: expected 3 columns, got 2"),
    ("q1,0.5,0.25,1.0", "line 2: expected 3 columns, got 4"),
    ("q1,abc,0.5", "line 2: r: expected a finite number, got 'abc'"),
    ("q1,0.5,nan", "line 2: n: expected a finite number, got 'nan'"),
])
def test_read_eval_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "eval.csv"
    path.write_text(f"query_id,r,n\n{row}\nmean,0.5,0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        read_eval_csv(path)


@pytest.mark.parametrize("header", [
    "query_id,r_at_5,ndcg_at_7,rp", "query_id,r_at_5,ndcg_at_5",
    "query_id,rp,r_at_5,ndcg_at_5", "query_id,r_at_0,ndcg_at_0,rp",
    "query_id,r_at_05,ndcg_at_05,rp", "query_id,r,n",
])
def test_read_eval_csv_requires_the_report_columns(tmp_path, header):
    path = tmp_path / "eval.csv"
    row = ",".join(["q1"] + ["0.5"] * (header.count(",")))
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected "
                                         "the columns r_at_K, ndcg_at_K, rp"):
        read_eval_csv(path)


def test_aggregate_runs_population_sd():
    reports = []
    for value in (40.0, 43.0, 46.0):
        reports.append(EvalReport(20, {"q1": {"r_at_20": value,
                                              "ndcg_at_20": 0.5, "rp": 0.5}}))
    summary = aggregate_runs(reports)
    mean, sd = summary["r_at_20"]
    assert mean == pytest.approx(43.0)
    assert sd == pytest.approx(2.449489742783178, abs=1e-12)


def test_aggregate_runs_rejects_query_mismatch():
    a = EvalReport(20, {"q1": {"r_at_20": 1.0, "ndcg_at_20": 1.0, "rp": 1.0}})
    b = EvalReport(20, {"q2": {"r_at_20": 1.0, "ndcg_at_20": 1.0, "rp": 1.0}})
    with pytest.raises(ValueError):
        aggregate_runs([a, b])


def test_aggregate_runs_rejects_k_mismatch():
    a = EvalReport(20, {"q1": {"r_at_20": 1.0, "ndcg_at_20": 1.0, "rp": 1.0}})
    b = EvalReport(10, {"q1": {"r_at_10": 1.0, "ndcg_at_10": 1.0, "rp": 1.0}})
    with pytest.raises(ValueError):
        aggregate_runs([a, b])


def test_summary_csv_format(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv({"r_at_20": (0.5, 0.01), "rp": (0.25, 0.0)}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,mean,sd"
    assert lines[1] == "r_at_20,0.5,0.01"
