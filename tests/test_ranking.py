import random

import numpy as np
import pytest

from regir.ranking import (RankedList, Run, lists_for, read_run, sort_scored,
                           top_k_from_arrays, write_run)

from oracles import score_of, top_k_lexsort, write_run_per_line


def test_sort_scored_orders_by_score_then_id():
    items = [("b", 1.0), ("a", 1.0), ("c", 2.0)]
    assert sort_scored(items) == [("c", 2.0), ("a", 1.0), ("b", 1.0)]


@pytest.mark.parametrize("seed", range(6))
def test_top_k_from_arrays_equals_lexsort_oracle(seed):
    """Heavy zero ties and ties at the cut, with ids in any order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    ids = np.array([f"d{i:05d}" for i in range(n)], dtype=object)
    if seed >= 3:
        rng.shuffle(ids)
    scores = rng.integers(0, 4, size=n).astype(np.float64)
    scores[rng.random(n) < 0.5] = 0.0
    if seed % 2:
        scores -= 2.0  # negative scores too, as cosine similarities have
    for k in (0, 1, 2, 5, n // 3, n - 1, n, n + 7):
        assert top_k_from_arrays(ids, scores, k) == top_k_lexsort(ids, scores, k)


def test_top_k_from_arrays_matches_sort():
    ids = np.array(["d3", "d1", "d2"], dtype=object)
    scores = np.array([0.5, 0.5, 0.9])
    top = top_k_from_arrays(ids, scores, k=3)
    assert [d for d, _ in top] == ["d2", "d1", "d3"]
    assert top == sort_scored(list(zip(ids, scores)))


def test_ranked_list_rejects_duplicates():
    with pytest.raises(ValueError):
        RankedList([("a", 1.0), ("a", 0.5)])


def test_ranked_list_truncated():
    ranked = RankedList([("a", 2.0), ("b", 1.0), ("c", 0.5)])
    assert ranked.truncated(2).doc_ids == ["a", "b"]
    assert ranked.truncated(10).doc_ids == ["a", "b", "c"]


def test_run_roundtrip(tmp_path):
    run = Run({"q2": RankedList([("a", 0.5), ("b", 0.25)]),
               "q1": RankedList([("c", 1.5)])})
    path = tmp_path / "run.tsv"
    write_run(run, path, comment="demo")
    text = path.read_text()
    assert text.startswith("# demo\n")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    # queries sorted, ranks contiguous from 1
    assert lines[0].split("\t") == ["q1", "1", "c", "1.5"]
    assert lines[1].split("\t")[:3] == ["q2", "1", "a"]
    back = read_run(path)
    assert set(back) == {"q1", "q2"}
    assert back["q2"].doc_ids == ["a", "b"]
    assert score_of(back["q2"], "b") == 0.25


# ids and scores a run file must carry through: non-ASCII ids, both signed
# zeros, the least subnormal and a score near the float maximum
IDS = ["d1", "d2", "dé", "ü7", "文書", "Ω", "d10", "e\u0301"]
SCORES = [-0.0, 0.0, 5e-324, 1e308, -1e308, 1.5, 0.1 + 0.2, 1 / 3, -2.0]


def generated_run(rng: random.Random) -> Run:
    """Empty lists, one-entry lists and lists whose scores tie, in queries
    with non-ASCII ids too."""
    run = Run()
    for q in ["q1", "q2", "qé", "問", "q10", "q3"][:rng.randint(1, 6)]:
        scores = rng.sample(SCORES, 3)
        run[q] = RankedList([(d, rng.choice(scores))
                             for d in rng.sample(IDS, rng.randint(0, len(IDS)))])
    return run


@pytest.mark.parametrize("seed", range(20))
def test_write_run_equals_the_per_line_writer(tmp_path, seed):
    run = generated_run(random.Random(seed))
    write_run(run, tmp_path / "got.tsv", comment=f"manifest {seed}\nsecond line")
    write_run_per_line(run, tmp_path / "want.tsv", comment=f"manifest {seed}\nsecond line")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
    back = read_run(tmp_path / "got.tsv")
    assert repr(back) == repr(Run((q, run[q]) for q in sorted(run) if run[q]))


def test_read_run_rejects_gapped_ranks(tmp_path):
    path = tmp_path / "run.tsv"
    path.write_text("q1\t1\ta\t1.0\nq1\t3\tb\t0.5\n")
    with pytest.raises(ValueError):
        read_run(path)


def test_read_run_rejects_increasing_scores(tmp_path):
    path = tmp_path / "run.tsv"
    path.write_text("q1\t1\ta\t0.5\nq1\t2\tb\t1.0\n")
    with pytest.raises(ValueError):
        read_run(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("line_no", [1, 2])
def test_read_run_rejects_non_finite_scores(tmp_path, bad, line_no):
    rows = ["q1\t1\ta\t1.0", "q1\t2\tb\t0.5"]
    rows[line_no - 1] = rows[line_no - 1].rsplit("\t", 1)[0] + "\t" + bad
    path = tmp_path / "run.tsv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=rf"run\.tsv: line {line_no}: .*not finite"):
        read_run(path)


@pytest.mark.parametrize("rank, score", [("x", "0.5"), ("2.0", "0.5"),
                                         ("2", "abc"), ("2", "")])
def test_read_run_rejects_non_numeric_fields(tmp_path, rank, score):
    path = tmp_path / "run.tsv"
    path.write_text(f"q1\t1\ta\t1.0\nq1\t{rank}\tb\t{score}\n")
    with pytest.raises(ValueError, match=r"run\.tsv: line 2: non-numeric"):
        read_run(path)


def test_read_run_rejects_duplicate_docs(tmp_path):
    path = tmp_path / "run.tsv"
    path.write_text("q1\t1\ta\t1.0\nq2\t1\ta\t1.0\nq1\t2\ta\t0.5\n")
    with pytest.raises(ValueError, match=r"run\.tsv: line 3: duplicate doc_id 'a' "
                                         r"within query 'q1'"):
        read_run(path)


@pytest.mark.parametrize("row, which", [("\t2\tb\t0.5", "query"),
                                        ("q1\t2\t\t0.5", "doc")])
def test_read_run_rejects_empty_ids(tmp_path, row, which):
    path = tmp_path / "run.tsv"
    path.write_text("q1\t1\ta\t1.0\n" + row + "\n")
    with pytest.raises(ValueError, match=rf"run\.tsv: line 2: empty {which} id"):
        read_run(path)


def test_lists_for_reads_a_query_without_a_line_as_an_empty_list(tmp_path):
    """write_run writes no line for q2's empty list; read back for the ids
    q3, q2, q1 the run holds them in that order, q2 with an empty list, and
    drops q9, which was not asked for."""
    run = Run({"q1": RankedList([("a", 1.0)]), "q2": RankedList(),
               "q3": RankedList([("b", 2.0), ("c", 1.0)]),
               "q9": RankedList([("a", 1.0)])})
    write_run(run, tmp_path / "run.tsv")
    read = read_run(tmp_path / "run.tsv")
    assert "q2" not in read
    got = lists_for(read, ["q3", "q2", "q1"])
    assert list(got) == ["q3", "q2", "q1"]
    assert got == {q: run[q] for q in ("q3", "q2", "q1")}


def test_run_truncated():
    run = Run({"q1": RankedList([("a", 1.0), ("b", 0.5)])})
    cut = run.truncated(1)
    assert cut["q1"].doc_ids == ["a"]
    # original untouched
    assert run["q1"].doc_ids == ["a", "b"]
