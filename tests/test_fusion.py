import random

import pytest

from regir.corpus import Qrels
from regir.fusion import (default_alpha_grid, fuse, fuse_runs,
                          normalize_scores, tune_alpha, write_alpha_grid_csv)
from regir.ranking import RankedList, Run

from oracles import score_of


def rl(*pairs):
    return RankedList(list(pairs))


def test_normalize_min_max():
    out = normalize_scores(rl(("a", 10.0), ("b", 5.0), ("c", 0.0)))
    assert [s for _, s in out] == [1.0, 0.5, 0.0]
    assert out.doc_ids == ["a", "b", "c"]


def test_normalize_constant_scores_all_one():
    out = normalize_scores(rl(("a", 3.0), ("b", 3.0)))
    assert [s for _, s in out] == [1.0, 1.0]


def test_normalize_empty_rejected():
    with pytest.raises(ValueError):
        normalize_scores(rl())


def test_fuse_convex_combination():
    a = rl(("d1", 1.0), ("d2", 0.0))
    b = rl(("d2", 1.0), ("d1", 0.0))
    out = fuse(a, b, alpha=0.75, k=2)
    assert score_of(out, "d1") == pytest.approx(0.75)
    assert score_of(out, "d2") == pytest.approx(0.25)
    assert out.doc_ids == ["d1", "d2"]


def test_fuse_missing_doc_scores_zero():
    a = rl(("d1", 1.0), ("d2", 0.5), ("d3", 0.0))
    b = rl(("d4", 1.0), ("d1", 0.0))
    out = fuse(a, b, alpha=0.5, k=4)
    # d4 only in b: 0.5*0 + 0.5*1
    assert score_of(out, "d4") == pytest.approx(0.5)
    # d2 only in a: 0.5*0.5
    assert score_of(out, "d2") == pytest.approx(0.25)


def test_fuse_truncates_to_k():
    a = rl(("d1", 1.0), ("d2", 0.5), ("d3", 0.0))
    out = fuse(a, a, alpha=0.5, k=2)
    assert out.doc_ids == ["d1", "d2"]


def test_fuse_alpha_bounds():
    a = rl(("d1", 1.0))
    with pytest.raises(ValueError):
        fuse(a, a, alpha=1.5, k=1)
    with pytest.raises(ValueError):
        fuse(a, a, alpha=-0.1, k=1)


def test_fuse_normalizes_each_raw_list_itself():
    a = rl(("d1", 12.0), ("d2", 9.0), ("d3", 8.0))
    b = rl(("d3", -1.0), ("d2", -3.0))
    out = fuse(a, b, alpha=0.5, k=3)
    # a: 1.0, 0.25, 0.0; b: d3 1.0, d2 0.0
    assert out == [("d1", 0.5), ("d3", 0.5), ("d2", 0.125)]
    assert out == fuse(normalize_scores(a), normalize_scores(b), alpha=0.5, k=3)


def test_fuse_symmetry(rng):
    ids = [f"d{i}" for i in range(12)]
    for _ in range(10):
        a = normalize_scores(rl(*[(d, rng.random())
                                  for d in rng.sample(ids, 8)]))
        b = normalize_scores(rl(*[(d, rng.random())
                                  for d in rng.sample(ids, 8)]))
        alpha = rng.random()
        left = fuse(a, b, alpha, k=12)
        right = fuse(b, a, 1.0 - alpha, k=12)
        assert left.doc_ids == right.doc_ids
        for d in left.doc_ids:
            assert score_of(left, d) == pytest.approx(score_of(right, d),
                                                     abs=1e-12)


def test_fuse_alpha_one_keeps_first_ranking():
    a = rl(("d1", 1.0), ("d2", 0.4), ("d3", 0.0))
    b = rl(("d3", 1.0), ("d1", 0.0))
    out = fuse(a, b, alpha=1.0, k=3)
    assert out.doc_ids == ["d1", "d2", "d3"]
    assert score_of(out, "d2") == pytest.approx(0.4)


def test_fuse_runs_query_mismatch_rejected():
    run_a = Run({"q1": rl(("d1", 1.0))})
    run_b = Run({"q2": rl(("d1", 1.0))})
    with pytest.raises(ValueError):
        fuse_runs(run_a, run_b, alpha=0.5, k=1)


def test_default_alpha_grid():
    grid = default_alpha_grid()
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid[7] == pytest.approx(0.35)


def test_tune_alpha_picks_best_and_breaks_ties_low():
    # relevant doc tops run_a; run_b buries it. alpha=1 wins; if several
    # alphas tie, the smaller must be returned.
    run_a = Run({"q1": rl(("rel", 1.0), ("x", 0.5), ("y", 0.0))})
    run_b = Run({"q1": rl(("x", 1.0), ("y", 0.5), ("rel", 0.0))})
    qrels = Qrels({"q1": {"rel"}})
    best, grid = tune_alpha(run_a, run_b, qrels, [0.0, 0.5, 1.0], k=1)
    assert best == 1.0
    scores = dict(grid)
    assert scores[1.0] == 1.0 and scores[0.0] == 0.0

    # symmetric case where every alpha ties at recall 1.0
    best_tied, _ = tune_alpha(run_a, run_a, qrels, [0.2, 0.8], k=3)
    assert best_tied == 0.2


def test_alpha_grid_csv_header(tmp_path):
    path = tmp_path / "alpha.csv"
    write_alpha_grid_csv([(0.0, 0.5), (0.05, 0.75)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,recall_at_k"
    assert lines[1].startswith("0.0,")
