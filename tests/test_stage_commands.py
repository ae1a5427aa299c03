"""The CLI's stage commands, chained, write what `regir run` writes.

For each config of `test_config_space.py` that `load_config` accepts, the
commands that make up its run (`index`, `tune-bm25`, `vectors`, `prefetch`,
`fuse`, `train`, `rerank`, `date-filter`, `evaluate`, `report rk-curve`,
`report year-hist`) are run on the same data, and each file they write is
compared with the run's artifact of the same name, `# manifest` lines
stripped.

An ensemble's deep lists are made in two commands: each component's
`prefetch --k 4K` (the run fetches components twice as deep as its 2K-deep
lists), then `fuse --k 2K` of the two.

What the commands cannot make is named, not compared:
- `fusion_alpha.json`, whose alpha `fuse --tune-alpha` echoes instead;
- `datefilter_years.json`: no command tunes the window, so the sweep reads
  the tuned window from it.
"""

import json
import re

import pytest
from click.testing import CliRunner

from regir.cli import main
from regir.experiment import load_config, run_experiment

from test_config_space import K, ROWS, WINDOW, config_text, row_id, space  # noqa: F401
from test_pinned_artifacts import _digest

RUNNABLE = [row for row in ROWS if not (row["mode"].startswith("ensemble")
                                        and row["fusion"] == "neither")]


def test_every_accepted_row_is_swept():
    assert len(RUNNABLE) == 27


def cli(*args) -> str:
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result.output


def restricted_qrels(space, split: str, out):
    """The judgments of the split's queries, as a qrels file."""
    ids = set(json.loads((space / "splits.json").read_text())[split])
    out.write_text("".join(line + "\n" for line in
                           (space / "qrels.tsv").read_text().splitlines()
                           if line.split("\t")[0] in ids))
    return out


@pytest.mark.parametrize("row", RUNNABLE, ids=row_id)
def test_stage_commands_write_what_regir_run_writes(space, tmp_path, row):
    config = space / f"sweep{ROWS.index(row)}.txt"
    config.write_text(config_text(row))
    run_dir, out = tmp_path / "run", tmp_path / "cli"
    run_experiment(load_config(config), run_dir)
    out.mkdir()
    mode, _, components = row["mode"].partition(":")
    names = components.split(",") if components else [mode]
    ensemble = len(names) > 1
    queries, pool, qrels, splits = (space / name for name in (
        "queries.jsonl", "pool.jsonl", "qrels.tsv", "splits.json"))
    made = {}  # a run artifact's name -> the commands' file

    cli("index", "--collection", pool, "--out", out / "index.bin")
    cli("vectors", "--collection", pool, "--word-vectors", space / "wv.txt",
        "--index", out / "index.bin", "--out", out / "centroids.vec")
    if "bm25" in names:
        made["index.bin"] = out / "index.bin"
    if "w2v-cent" in names:
        made["centroids.vec"] = out / "centroids.vec"
    fetch = ["--queries", queries, "--collection", pool, "--index", out / "index.bin",
             "--word-vectors", space / "wv.txt", "--centroids", out / "centroids.vec",
             "--pool-vectors", space / "pool.vec",
             "--query-vectors", space / "queries.vec"]
    if row["bm25_tune"] and "bm25" in names:
        cli("tune-bm25", "--index", out / "index.bin", "--queries", queries,
            "--qrels", qrels, "--splits", splits, "--k", K,
            "--grid-k1", "0.9,1.5", "--grid-b", "0.5,0.9",
            "--out", out / "bm25_grid.csv", "--params-out", out / "bm25_params.json")
        made["bm25_grid.csv"] = out / "bm25_grid.csv"
        made["bm25_params.json"] = out / "bm25_params.json"
        fetch += ["--params", out / "bm25_params.json"]

    filter_mode, _, tune = row["datefilter"].partition("-")
    tunes_alpha = ensemble and row["fusion"] == "tune"
    # the splits the run pre-fetches: train and dev to train on, dev to tune
    trains = row["model"] != "none"
    fetched = ["test", *["train"] * trains,
               *["dev"] * (trains or bool(tune) or tunes_alpha)]

    def lists(name, depth, split, path=None):
        """A run file of `name`'s lists of the split's queries, `depth` long."""
        path = path or out / f"{name}_{depth}_{split}.tsv"
        cli("prefetch", "--mode", name, "--k", depth, *fetch, "--splits", splits,
            "--split", split, "--out", path)
        return path

    # an ensemble tunes alpha on its components' 2K-deep dev lists
    alpha = 0.5
    if tunes_alpha:
        echoed = cli("fuse", "--run-a", lists(names[0], 2 * K, "dev"),
                     "--run-b", lists(names[1], 2 * K, "dev"), "--k", K,
                     "--tune-alpha", "--qrels", qrels, "--grid", "0:1:0.5",
                     "--grid-out", out / "alpha_grid.csv", "--out", out / "fused.tsv")
        alpha = float(re.search(r"tuned alpha=(\S+)", echoed)[1])
        assert {"alpha": alpha} == json.loads((run_dir / "fusion_alpha.json").read_text())
        made["alpha_grid.csv"] = out / "alpha_grid.csv"
    # the deep lists: a single component's 2K-deep lists, or the fusion of
    # both components' 4K-deep lists at depth 2K
    for split in fetched:
        deep = made[f"prefetch_{split}.tsv"] = out / f"prefetch_{split}.tsv"
        if ensemble:
            cli("fuse", "--run-a", lists(names[0], 4 * K, split),
                "--run-b", lists(names[1], 4 * K, split), "--k", 2 * K,
                "--alpha", alpha, "--out", deep)
        else:
            lists(mode, 2 * K, split, deep)
    cli("report", "rk-curve", "--run", out / "prefetch_test.tsv", "--qrels", qrels,
        "--splits", splits, "--k-max", 2 * K, "--out", out / "rk_curve.csv")
    made["rk_curve.csv"] = out / "rk_curve.csv"
    fetch = ["--mode", mode, *(["--components", components, "--alpha", alpha]
                               if ensemble else []), "--k", K, *fetch]

    years = WINDOW
    if tune:
        years = json.loads((run_dir / "datefilter_years.json").read_text())["years"]
    window = ([] if row["datefilter"] == "none"
              else ["--date-filter", years, "--filter-mode", filter_mode])
    if row["model"] == "none":
        final, report = "final_test.tsv", "eval_test.csv"
        cli("prefetch", *fetch, *window, "--splits", splits, "--split", "test",
            "--out", out / final)
        if window:
            cli("date-filter", "--run", out / "prefetch_test.tsv", "--queries", queries,
                "--collection", pool, "--years", years, "--mode", filter_mode,
                "--k", K, "--out", out / "filtered.tsv")
            assert (out / "filtered.tsv").read_bytes() == (out / final).read_bytes()
    else:
        final, report = "reranked_test_seed1.tsv", "eval_test_seed1.csv"
        # the lists a re-ranker scores: cut to k after a pre window only
        pre = window if filter_mode == "pre" else []
        cli("prefetch", *fetch, *pre, "--out", out / "candidates.tsv")
        cli("prefetch", *fetch, *pre, "--splits", splits, "--split", "test",
            "--out", out / "candidates_test.tsv")
        provider = (["--word-vectors", space / "wv.txt"] if row["embeddings"] == "word"
                    else ["--token-vectors", space / "tokens.txt"])
        text = ["--queries", queries, "--collection", pool,
                "--index", out / "index.bin", *provider]
        cli("train", "--model", row["model"], "--run", out / "candidates.tsv", *text,
            "--qrels", qrels, "--splits", splits, "--hyperparams", space / "hp.txt",
            "--seed", 1, "--out", out / "checkpoint_seed1.bin",
            "--log", out / "training_log_seed1.csv")
        cli("rerank", "--checkpoint", out / "checkpoint_seed1.bin",
            "--run", out / "candidates_test.tsv", *text, "--k", K, *window,
            "--out", out / final)
        made["checkpoint_seed1.bin"] = out / "checkpoint_seed1.bin"
        made["training_log_seed1.csv"] = out / "training_log_seed1.csv"
    made[final] = out / final
    cli("evaluate", "--run", out / final, "--qrels", qrels, "--k", 4,
        "--splits", splits, "--split", "test", "--out", out / report)
    made[report] = out / report

    # year_hist.csv covers the dev split's judged pairs when the run fetches
    # dev lists, the test split's otherwise
    judged = restricted_qrels(space, "dev" if "dev" in fetched else "test",
                              out / "judged.tsv")
    cli("report", "year-hist", "--qrels", judged, "--queries", queries,
        "--collection", pool, "--out", out / "year_hist.csv")
    made["year_hist.csv"] = out / "year_hist.csv"

    artifacts = {p.name for p in run_dir.iterdir()}
    unmade = {"manifest.json"}
    if tune:
        unmade.add("datefilter_years.json")
    if tunes_alpha:
        unmade.add("fusion_alpha.json")
    assert made.keys() == artifacts - unmade
    assert ({name: _digest((run_dir / name).read_bytes()) for name in artifacts - unmade}
            == {name: _digest(made[name].read_bytes()) for name in artifacts - unmade})
