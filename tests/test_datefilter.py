import math

import pytest

from regir.corpus import Corpus, Qrels
from regir.datefilter import (DateWindow, apply_filter, candidates,
                              choose_window, filter_run, finalize, read_years,
                              write_year_hist_csv, write_years,
                              year_diff_histogram)
from regir.ranking import RankedList, Run

from conftest import make_doc


def corpus_with_years(years: dict[str, int]) -> Corpus:
    return Corpus([make_doc(d, ["tax"], year=y) for d, y in years.items()])


def rl(*doc_ids):
    return RankedList([(d, float(len(doc_ids) - i))
                       for i, d in enumerate(doc_ids)])


def test_window_validation():
    DateWindow(0, "pre")
    DateWindow(15, "post")
    DateWindow(math.inf)
    with pytest.raises(ValueError):
        DateWindow(-1)
    with pytest.raises(ValueError):
        DateWindow(2.5)
    with pytest.raises(ValueError):
        DateWindow(3, "sideways")


@pytest.mark.parametrize("years", [math.nan, -math.inf])
def test_window_refuses_a_non_finite_size_with_its_own_message(years):
    with pytest.raises(ValueError, match=r"^max_distance_years must be a "
                       rf"non-negative integer or inf, got {years}$"):
        DateWindow(years)


def test_filter_hand_case():
    # query year 2006, window +/-5: of {2008, 2012, 2015} only 2008 survives
    pool = corpus_with_years({"a": 2008, "b": 2012, "c": 2015})
    query = make_doc("q", ["tax"], year=2006)
    out = apply_filter(query, rl("b", "a", "c"), DateWindow(5), pool)
    assert out.doc_ids == ["a"]


def test_filter_zero_window_same_year_only():
    pool = corpus_with_years({"a": 2006, "b": 2007})
    query = make_doc("q", ["tax"], year=2006)
    out = apply_filter(query, rl("a", "b"), DateWindow(0), pool)
    assert out.doc_ids == ["a"]


def test_filter_keeps_unknown_year_docs():
    pool = corpus_with_years({"a": 1950 + 70, "b": 0})
    query = make_doc("q", ["tax"], year=2000)
    out = apply_filter(query, rl("a", "b"), DateWindow(1), pool)
    assert out.doc_ids == ["b"]


def test_filter_unknown_query_year_noop(caplog):
    pool = corpus_with_years({"a": 2008})
    query = make_doc("q", ["tax"], year=0)
    with caplog.at_level("WARNING"):
        out = apply_filter(query, rl("a"), DateWindow(0), pool)
    assert out.doc_ids == ["a"]
    assert any("date filter" in r.message for r in caplog.records)


def test_filter_preserves_order_and_idempotent():
    pool = corpus_with_years({"a": 2005, "b": 2007, "c": 2030 - 10, "d": 2006})
    query = make_doc("q", ["tax"], year=2006)
    window = DateWindow(2)
    once = apply_filter(query, rl("c", "b", "d", "a"), window, pool)
    assert once.doc_ids == ["b", "d", "a"]
    twice = apply_filter(query, once, window, pool)
    assert twice.doc_ids == once.doc_ids
    assert [s for _, s in twice] == [s for _, s in once]


def test_filter_survivors_are_subset():
    pool = corpus_with_years({f"d{i}": 2000 + i for i in range(10)})
    query = make_doc("q", ["tax"], year=2004)
    before = rl(*[f"d{i}" for i in range(10)])
    after = apply_filter(query, before, DateWindow(3), pool)
    assert set(after.doc_ids) <= set(before.doc_ids)


def test_infinite_window_is_noop():
    pool = corpus_with_years({"a": 1801 + 80, "b": 2020})
    query = make_doc("q", ["tax"], year=1900)
    out = apply_filter(query, rl("a", "b"), DateWindow(math.inf), pool)
    assert out.doc_ids == ["a", "b"]


def test_prefilter_refills_to_k():
    pool = corpus_with_years({"far1": 1990, "far2": 1991, "ok1": 2005,
                              "ok2": 2006, "ok3": 2007})
    queries = Corpus([make_doc("q", ["tax"], year=2006)])
    deep = Run({"q": rl("far1", "ok1", "far2", "ok2", "ok3")})
    out = filter_run(deep, DateWindow(2, "pre"), queries, pool, k=2)["q"]
    # the two far docs drop out and deeper in-window docs refill the list
    assert out.doc_ids == ["ok1", "ok2"]


def test_filter_run_pre_vs_post():
    pool = corpus_with_years({"far": 1990, "ok1": 2005, "ok2": 2007})
    queries = Corpus([make_doc("q1", ["tax"], year=2006)])
    run = Run({"q1": rl("far", "ok1", "ok2")})
    post = filter_run(run, DateWindow(5, "post"), queries, pool)
    assert post["q1"].doc_ids == ["ok1", "ok2"]
    pre = filter_run(run, DateWindow(5, "pre"), queries, pool, k=1)
    assert pre["q1"].doc_ids == ["ok1"]


def test_choose_window_infinite_grid_keeps_metrics():
    pool = corpus_with_years({"a": 2000, "b": 2010})
    queries = Corpus([make_doc("q1", ["tax"], year=2005)])
    run = Run({"q1": rl("a", "b")})
    qrels = Qrels({"q1": {"b"}})
    assert choose_window(run, qrels, queries, pool, [math.inf], "post",
                         k=2, eval_k=20) == math.inf


def test_choose_window_planted_optimum():
    # positives live within +/-2 of the query year; 30 distractors sit at
    # exactly +/-3 and outrank the positives, so Y=3 leaves the positives
    # below rank 20 while Y=2 clears them out. Y=1 drops one positive.
    years = {"rel_near": 2001, "rel_far": 2002}
    for i in range(30):
        years[f"noise{i:02d}"] = 2003
    pool = corpus_with_years(years)
    queries = Corpus([make_doc("q1", ["tax"], year=2000)])
    order = [f"noise{i:02d}" for i in range(30)] + ["rel_near", "rel_far"]
    run = Run({"q1": rl(*order)})
    qrels = Qrels({"q1": {"rel_near", "rel_far"}})
    chosen = choose_window(run, qrels, queries, pool, [1, 2, 3], "pre",
                           k=20, eval_k=20)
    assert chosen == 2


def test_choose_window_tie_takes_larger():
    pool = corpus_with_years({"rel": 2001})
    queries = Corpus([make_doc("q1", ["tax"], year=2000)])
    run = Run({"q1": rl("rel")})
    qrels = Qrels({"q1": {"rel"}})
    assert choose_window(run, qrels, queries, pool, [1, 5, 3], "post",
                         k=1, eval_k=20) == 5


@pytest.mark.parametrize("mode,years,k,eval_k", [
    # post filters only the top k, so the window that reaches d3 at deep
    # rank 3 finds nothing the run returns: both windows score 0
    ("post", {"d1": 2000, "d2": 2000, "d3": 2020, "d4": 2020}, 2, 2),
    # pre refills to k = 1, so d3 at refill rank 2 is not returned either
    ("pre", {"d1": 2020, "d2": 2000, "d3": 2020, "d4": 2000}, 1, 2),
], ids=["post", "pre-eval-k-beyond-k"])
def test_choose_window_scores_only_the_lists_the_run_returns(mode, years, k,
                                                             eval_k):
    pool = corpus_with_years(years)
    queries = Corpus([make_doc("q1", ["tax"], year=2020)])
    deep = Run({"q1": rl("d1", "d2", "d3", "d4")})
    qrels = Qrels({"q1": {"d3"}})
    assert choose_window(deep, qrels, queries, pool, [1, 100], mode,
                         k=k, eval_k=eval_k) == 100


def test_candidates_and_finalize():
    pool = corpus_with_years({"far": 1990, "ok1": 2005, "ok2": 2007})
    queries = Corpus([make_doc("q1", ["tax"], year=2006)])
    deep = Run({"q1": rl("far", "ok1", "ok2")})
    pre, post = DateWindow(5, "pre"), DateWindow(5, "post")
    # pre: filter, refill to k; finalize leaves the lists alone
    cands = candidates(deep, 2, pre, queries, pool)
    assert cands["q1"].doc_ids == ["ok1", "ok2"]
    assert finalize(cands, pre, queries, pool) is cands
    # post: the top k, filtered at the end
    cands = candidates(deep, 2, post, queries, pool)
    assert cands["q1"].doc_ids == ["far", "ok1"]
    assert finalize(cands, post, queries, pool)["q1"].doc_ids == ["ok1"]
    # no window: the top k; k=None cuts nothing
    assert candidates(deep, 1, None, queries, pool)["q1"].doc_ids == ["far"]
    assert candidates(deep, None, None, queries, pool) is deep
    assert candidates(deep, None, pre, queries, pool)["q1"].doc_ids == ["ok1", "ok2"]
    assert finalize(deep, None, queries, pool) is deep


def test_year_diff_histogram_skips_unknown_years(tmp_path):
    pool = corpus_with_years({"a": 2008, "b": 0, "c": 2003})
    queries = Corpus([make_doc("q1", ["tax"], year=2006),
                      make_doc("q2", ["tax"], year=0)])
    qrels = Qrels({"q1": {"a", "b", "c"}, "q2": {"a"}})
    hist = year_diff_histogram(qrels, queries, pool)
    assert dict(hist) == {2: 1, -3: 1}
    path = tmp_path / "hist.csv"
    write_year_hist_csv(hist, path)
    assert path.read_text().splitlines() == ["year_diff,count", "-3,1", "2,1"]


def test_the_years_file_round_trips_a_window_of_its_grid(tmp_path):
    path = tmp_path / "datefilter_years.json"
    write_years(5.0, path)
    assert path.read_text() == '{"years": 5.0}'
    assert read_years(path, [1.0, 5.0]) == 5.0
    with pytest.raises(ValueError, match=f"^{path}: years must be a value of "
                       r"datefilter.grid, got 5.0$"):
        read_years(path, [1.0, 2.0])
