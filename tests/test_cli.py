import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from regir.bm25 import load_index
from regir.cli import main
from regir.corpus import ingest_collection
from regir.dense import load_word_vectors
from regir.experiment import Inputs, emit_rk_curve
from regir.fusion import default_alpha_grid
from regir.ranking import RankedList, read_run, write_run
from regir.rerank.features import TypeEmbeddings, load_token_vectors
from regir.rerank.train import (FeatureStore, Hyperparams, load_checkpoint,
                                rerank_run)
from regir.text import build_pipeline

from conftest import build_dataset, date_window_dataset, write_jsonl
from oracles import score_of
from test_corpus import BAD_IDS
from test_experiment import RANGES_ROUNDED_OUTSIDE


def blob(result):
    err = getattr(result, "stderr", "") or ""
    return result.output + err


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """One dataset plus the artifacts the commands build on each other:
    index, centroids, pre-fetched runs, a trained checkpoint."""
    root = build_dataset(tmp_path_factory.mktemp("cliwork"),
                         random.Random(20260814))
    runner = CliRunner()

    def cli(*args):
        return runner.invoke(main, [str(a) for a in args],
                             catch_exceptions=False)

    def ok(*args):
        result = cli(*args)
        assert result.exit_code == 0, blob(result)
        return result

    ok("index", "--collection", root / "pool.jsonl", "--out", root / "index.bin")
    ok("vectors", "--collection", root / "pool.jsonl",
       "--word-vectors", root / "wv.txt", "--index", root / "index.bin",
       "--out", root / "centroids.vec")
    ok("prefetch", "--mode", "bm25", "--k", "10",
       "--queries", root / "queries.jsonl", "--index", root / "index.bin",
       "--out", root / "run_all.tsv")
    ok("prefetch", "--mode", "bm25", "--k", "10",
       "--queries", root / "queries.jsonl", "--index", root / "index.bin",
       "--splits", root / "splits.json", "--split", "test",
       "--out", root / "run_test.tsv")
    (root / "hp.txt").write_text(
        "lr=0.01\nmax_epochs=2\nbatch=4\nnegatives=2\nB=6\nhidden=3\n")
    ok("train", "--model", "drmm", "--run", root / "run_all.tsv",
       "--queries", root / "queries.jsonl", "--collection", root / "pool.jsonl",
       "--qrels", root / "qrels.tsv", "--splits", root / "splits.json",
       "--index", root / "index.bin", "--word-vectors", root / "wv.txt",
       "--hyperparams", root / "hp.txt", "--out", root / "ck.bin",
       "--log", root / "train_log.csv")
    return SimpleNamespace(root=root, cli=cli, ok=ok)


def test_version(env):
    result = env.ok("--version")
    assert "version" in result.output


def test_ingest_stats_and_canonical_out(env):
    out = env.root / "canonical.jsonl"
    stats = env.root / "stats.json"
    result = env.ok("ingest", "--collection", env.root / "pool.jsonl",
                    "--out", out, "--stats-out", stats)
    assert "40 documents" in result.output
    assert "years 1995..2014" in result.output
    data = json.loads(stats.read_text())
    assert data["doc_count"] == 40
    assert len(ingest_collection(out)) == 40


def test_a_pool_file_out_of_doc_id_order_is_numbered_in_doc_id_order(env,
                                                                     tmp_path):
    """A pool whose lines are shuffled is the sorted pool: the corpus
    iterates and numbers its rows in ascending doc_id, `ingest --out` writes
    that order, and the index, the centroids and the matcher features built
    from it are the bytes built from the sorted file."""
    lines = (env.root / "pool.jsonl").read_text().splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    shuffled = tmp_path / "pool.jsonl"
    shuffled.write_text("".join(lines))
    pool = ingest_collection(shuffled)
    ids = sorted(json.loads(line)["doc_id"] for line in lines)
    assert [doc.doc_id for doc in pool] == pool.ids == ids
    assert pool.row == {doc_id: i for i, doc_id in enumerate(ids)}
    assert pool.years(ids).tolist() == [doc.year for doc in pool]

    for name, collection in (("sorted", env.root / "pool.jsonl"),
                             ("shuffled", shuffled)):
        out = tmp_path / name
        out.mkdir()
        env.ok("ingest", "--collection", collection,
               "--out", out / "canonical.jsonl")
        env.ok("index", "--collection", collection, "--out", out / "index.bin")
        env.ok("vectors", "--collection", collection, "--word-vectors",
               env.root / "wv.txt", "--index", out / "index.bin",
               "--out", out / "centroids.vec")
        pool = ingest_collection(collection)
        queries = ingest_collection(env.root / "queries.jsonl")
        provider = TypeEmbeddings(load_word_vectors(env.root / "wv.txt"))
        for kind in ("drmm", "pacrr"):
            store = FeatureStore(kind, provider, build_pipeline(pool), queries,
                                 pool, Hyperparams(B=6, q_len=16, d_len=64))
            (out / f"{kind}.bin").write_bytes(b"".join(
                part.tobytes() for query in queries for doc_id in pool.ids
                for part in store.features(query.doc_id, doc_id)))
    written = [json.loads(line)["doc_id"] for line in
               (tmp_path / "shuffled" / "canonical.jsonl").read_text().splitlines()]
    assert written == ids
    for name in ("canonical.jsonl", "index.bin", "centroids.vec", "drmm.bin",
                 "pacrr.bin"):
        assert ((tmp_path / "shuffled" / name).read_bytes()
                == (tmp_path / "sorted" / name).read_bytes()), name


def test_ingest_rejects_malformed_file(env, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"title": "no id"}\n')
    result = env.cli("ingest", "--collection", bad)
    assert result.exit_code != 0
    assert "doc_id" in blob(result)


def test_convert_with_field_map(env, tmp_path):
    src = tmp_path / "foreign.json"
    src.write_text(json.dumps([
        {"id": "x1", "name": "Water Act", "text": "clean water", "published": 2004},
        {"id": "x2", "name": "Air Act", "text": "clean air", "published": 2008},
    ]))
    out = tmp_path / "converted.jsonl"
    result = env.ok("convert", "--in", src, "--out", out,
                    "--map", "doc_id=id", "--map", "title=name",
                    "--map", "body=text", "--map", "year=published")
    assert "wrote 2 documents" in result.output
    corpus = ingest_collection(out)
    assert corpus.get("x2").year == 2008


@pytest.mark.parametrize("doc_id", BAD_IDS.values(), ids=list(BAD_IDS))
def test_convert_refuses_an_id_the_text_formats_cannot_hold(env, tmp_path, doc_id):
    src = tmp_path / "foreign.jsonl"
    src.write_text("".join(json.dumps({"id": i, "name": "Act", "text": "water"}) + "\n"
                           for i in ("x1", doc_id)))
    out = tmp_path / "converted.jsonl"
    result = env.cli("convert", "--in", src, "--out", out, "--map", "doc_id=id",
                     "--map", "title=name", "--map", "body=text")
    assert result.exit_code == 1
    assert f"Error: {src}: line 2: doc_id {doc_id!r}" in blob(result)
    assert not out.exists()


def test_convert_rejects_unknown_canonical_field(env, tmp_path):
    src = tmp_path / "foreign.json"
    src.write_text("[]")
    result = env.cli("convert", "--in", src, "--out", tmp_path / "o.jsonl",
                     "--map", "identifier=id")
    assert result.exit_code != 0
    assert "identifier" in blob(result)


def test_index_reports_shape(env, tmp_path):
    result = env.ok("index", "--collection", env.root / "pool.jsonl",
                    "--out", tmp_path / "idx.bin")
    assert "indexed 40 documents" in result.output


def test_tune_bm25_grid_csv(env, tmp_path):
    grid = tmp_path / "grid.csv"
    params = tmp_path / "params.json"
    result = env.ok("tune-bm25", "--index", env.root / "index.bin",
                    "--queries", env.root / "queries.jsonl",
                    "--qrels", env.root / "qrels.tsv",
                    "--splits", env.root / "splits.json",
                    "--k", "10", "--out", grid, "--params-out", params,
                    "--grid-k1", "0.5,1.0", "--grid-b", "0:1:0.5")
    assert "best k1=" in result.output
    lines = grid.read_text().splitlines()
    assert lines[0] == "k1,b,recall_at_k"
    assert len(lines) == 1 + 2 * 3
    best = json.loads(params.read_text())
    assert set(best) == {"k1", "b"}


def with_unknown_judgments(root, out, *rows):
    """The env dataset's qrels plus `rows`, in `out`; the line number of
    each row."""
    lines = (root / "qrels.tsv").read_text().splitlines()
    out.write_text("".join(f"{line}\n" for line in [*lines, *rows]))
    return range(len(lines) + 1, len(lines) + 1 + len(rows))


def test_tune_bm25_refuses_judgments_of_a_query_not_in_queries(env, tmp_path):
    """As `regir run` does; `tune-bm25` used to tune on them (exit 0). It
    reads no pool, so it checks no doc id."""
    qrels = tmp_path / "qrels.tsv"
    [line] = with_unknown_judgments(env.root, qrels, "nosuchquery\tuk000")
    out = tmp_path / "grid.csv"
    result = env.cli("tune-bm25", "--index", env.root / "index.bin",
                     "--queries", env.root / "queries.jsonl", "--qrels", qrels,
                     "--out", out)
    assert result.exit_code == 1
    assert (f"Error: {qrels}: 1 row(s) reference unknown ids:\n"
            f"  line {line}: unknown query_id 'nosuchquery'\n") in blob(result)
    assert not out.exists()


def test_vectors_reports_store_shape(env):
    result = env.ok("vectors", "--collection", env.root / "pool.jsonl",
                    "--word-vectors", env.root / "wv.txt",
                    "--index", env.root / "index.bin",
                    "--out", env.root / "centroids2.vec")
    assert "40 centroids of dim 8" in result.output


def test_prefetch_bm25_run_file(env):
    run = read_run(env.root / "run_test.tsv")
    assert sorted(run) == ["eu09", "eu10", "eu11"]
    assert all(len(rl) <= 10 for rl in run.values())


def test_prefetch_bm25_needs_index(env, tmp_path):
    result = env.cli("prefetch", "--mode", "bm25",
                     "--queries", env.root / "queries.jsonl",
                     "--out", tmp_path / "r.tsv")
    assert result.exit_code != 0
    assert "--index" in blob(result)


def test_prefetch_centroid_mode(env, tmp_path):
    out = tmp_path / "cent_run.tsv"
    env.ok("prefetch", "--mode", "w2v-cent", "--k", "10",
           "--queries", env.root / "queries.jsonl",
           "--index", env.root / "index.bin",
           "--word-vectors", env.root / "wv.txt",
           "--centroids", env.root / "centroids.vec", "--out", out)
    assert len(read_run(out)) == 12


def test_prefetch_ensemble(env, tmp_path):
    out = tmp_path / "ens_run.tsv"
    env.ok("prefetch", "--mode", "ensemble", "--k", "10",
           "--components", "bm25,w2v-cent", "--alpha", "0.6",
           "--queries", env.root / "queries.jsonl",
           "--index", env.root / "index.bin",
           "--word-vectors", env.root / "wv.txt",
           "--centroids", env.root / "centroids.vec", "--out", out)
    run = read_run(out)
    assert len(run) == 12
    for rl in run.values():
        assert all(0.0 <= score_of(rl, d) <= 1.0 + 1e-9 for d in rl.doc_ids)


def test_prefetch_with_date_filter(env, tmp_path):
    out = tmp_path / "dated.tsv"
    env.ok("prefetch", "--mode", "bm25", "--k", "10",
           "--queries", env.root / "queries.jsonl",
           "--index", env.root / "index.bin",
           "--collection", env.root / "pool.jsonl",
           "--date-filter", "3", "--filter-mode", "pre", "--out", out)
    pool = ingest_collection(env.root / "pool.jsonl")
    queries = ingest_collection(env.root / "queries.jsonl")
    for query_id, rl in read_run(out).items():
        qyear = queries.get(query_id).year
        assert all(abs(pool.get(d).year - qyear) <= 3 for d in rl.doc_ids)


def run_config(root, settings):
    """A `regir run` config over the env dataset at prefetch.k = 5."""
    return ("task = EU2UK\n"
            + "".join(f"data.{key} = {root / name}\n" for key, name in
                      (("pool", "pool.jsonl"), ("queries", "queries.jsonl"),
                       ("qrels", "qrels.tsv"), ("splits", "splits.json")))
            + f"dense.word_vectors = {root / 'wv.txt'}\n"
            "prefetch.k = 5\n" + settings)


@pytest.mark.parametrize("mode_args,config", [
    (["--mode", "bm25"], "prefetch.mode = bm25\n"),
    (["--mode", "ensemble", "--components", "bm25,w2v-cent", "--alpha", "0.6"],
     "prefetch.mode = ensemble\nfusion.components = bm25,w2v-cent\n"
     "fusion.alpha = 0.6\n"),
    (["--mode", "bm25", "--date-filter", "3", "--filter-mode", "pre"],
     "prefetch.mode = bm25\ndatefilter.years = 3\ndatefilter.mode = pre\n"),
    (["--mode", "bm25", "--date-filter", "3", "--filter-mode", "post"],
     "prefetch.mode = bm25\ndatefilter.years = 3\ndatefilter.mode = post\n"),
    (["--mode", "bm25", "--date-filter", "3"],
     "prefetch.mode = bm25\ndatefilter.years = 3\n"),
], ids=["bm25", "ensemble", "pre-filter", "post-filter", "default-filter"])
def test_prefetch_writes_regir_run_candidates(env, tmp_path, mode_args, config):
    root = env.root
    out = tmp_path / "prefetch.tsv"
    env.ok("prefetch", *mode_args, "--k", "5",
           "--queries", root / "queries.jsonl",
           "--splits", root / "splits.json", "--split", "test",
           "--index", root / "index.bin", "--collection", root / "pool.jsonl",
           "--word-vectors", root / "wv.txt",
           "--centroids", root / "centroids.vec", "--out", out)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(root, config))
    env.ok("run", "--config", cfg, "--out", tmp_path / "exp")
    assert read_run(out) == read_run(tmp_path / "exp" / "final_test.tsv")


def write_doc_vectors(root, out):
    """pool.vec and queries.vec in `out` for the collections in `root`: each
    document's vector leans toward its theme (its index mod 4), as its words
    and judgments do."""
    rng = random.Random(5)
    for name, prefix in (("pool.vec", "pool"), ("queries.vec", "queries")):
        lines = ["#dim 4"]
        for line in (root / f"{prefix}.jsonl").read_text().splitlines():
            doc_id = json.loads(line)["doc_id"]
            values = [rng.uniform(-0.1, 0.1) for _ in range(4)]
            values[int(doc_id[2:]) % 4] += 1.0
            lines.append(f"{doc_id} " + " ".join(map(repr, values)))
        (out / name).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("mode", ["doc-vectors", "w2v-cent"])
def test_prefetch_refuses_pool_vectors_absent_from_the_collection(env, tmp_path, mode):
    """Given --collection, `regir prefetch` checks the pool's doc vectors
    against it, as `regir run` does, and its centroids too; it used to rank
    a document the pool lacks."""
    root = env.root
    write_doc_vectors(root, tmp_path)
    (tmp_path / "centroids.vec").write_bytes((root / "centroids.vec").read_bytes())
    stores = {"doc-vectors": ("pool.vec", 4, ["--query-vectors", tmp_path / "queries.vec",
                                              "--pool-vectors"]),
              "w2v-cent": ("centroids.vec", 8, ["--index", root / "index.bin",
                                                "--word-vectors", root / "wv.txt",
                                                "--centroids"])}
    name, dim, args = stores[mode]
    with open(tmp_path / name, "a") as fh:
        fh.write("ghost " + " ".join(["1.0"] + ["0.0"] * (dim - 1)) + "\n")
    out = tmp_path / "prefetch.tsv"
    outcomes = [env.cli("prefetch", "--mode", mode, "--k", "5", *args, tmp_path / name,
                        "--queries", root / "queries.jsonl",
                        "--collection", root / "pool.jsonl", "--out", out)]
    if mode == "doc-vectors":  # a w2v-cent run builds its own centroids
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(run_config(root, "prefetch.mode = doc-vectors\n"
                                        "dense.pool_vectors = pool.vec\n"
                                        "dense.query_vectors = queries.vec\n"))
        outcomes.append(env.cli("run", "--config", cfg, "--out", tmp_path / "exp"))
    for outcome in outcomes:
        assert outcome.exit_code == 1
        assert (f"Error: {tmp_path / name}: doc vectors reference ids absent from "
                f"{root / 'pool.jsonl'}: ['ghost']") in blob(outcome)
    assert not out.exists()


@pytest.mark.parametrize("bad", ["centroids.vec", "pool.vec"])
def test_an_ensemble_prefetch_names_the_vector_file_the_pool_lacks(env, tmp_path, bad):
    """An ensemble of w2v-cent and doc-vectors reads two vector files of the
    pool; the refusal of one with an id the pool lacks names that file."""
    root = env.root
    write_doc_vectors(root, tmp_path)
    (tmp_path / "centroids.vec").write_bytes((root / "centroids.vec").read_bytes())
    dim = 8 if bad == "centroids.vec" else 4
    with open(tmp_path / bad, "a") as fh:
        fh.write("ghost " + " ".join(["1.0"] + ["0.0"] * (dim - 1)) + "\n")
    out = tmp_path / "prefetch.tsv"
    result = env.cli("prefetch", "--mode", "ensemble", "--components",
                     "w2v-cent,doc-vectors", "--alpha", "0.5", "--k", "5",
                     "--index", root / "index.bin", "--word-vectors", root / "wv.txt",
                     "--centroids", tmp_path / "centroids.vec",
                     "--pool-vectors", tmp_path / "pool.vec",
                     "--query-vectors", tmp_path / "queries.vec",
                     "--queries", root / "queries.jsonl",
                     "--collection", root / "pool.jsonl", "--out", out)
    assert result.exit_code == 1
    assert (f"Error: {tmp_path / bad}: doc vectors reference ids absent from "
            f"{root / 'pool.jsonl'}: ['ghost']") in blob(result)
    assert not out.exists()


@pytest.mark.parametrize("command", ["vectors", "train", "rerank", "prefetch"])
def test_stage_commands_refuse_an_index_of_another_pool(env, tmp_path, command):
    """An index over another pool than --collection (here one document
    short) is refused, naming the index and the first id that differs,
    before any output is written: `vectors` used to write centroids weighted
    by the other pool's idf, and `train` and `rerank` read the same text
    pipeline."""
    root = env.root
    lines = (root / "pool.jsonl").read_text().splitlines()
    (tmp_path / "short.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    env.ok("index", "--collection", tmp_path / "short.jsonl",
           "--out", tmp_path / "short.bin")
    text = ["--queries", root / "queries.jsonl", "--word-vectors", root / "wv.txt"]
    args = {"vectors": ["--word-vectors", root / "wv.txt"],
            "train": ["--model", "drmm", "--run", root / "run_all.tsv", *text,
                      "--qrels", root / "qrels.tsv", "--splits", root / "splits.json"],
            "rerank": ["--checkpoint", root / "ck.bin", "--run", root / "run_test.tsv",
                       *text],
            "prefetch": ["--mode", "bm25", "--queries", root / "queries.jsonl"]}
    out = tmp_path / "out"
    result = env.cli(command, *args[command], "--index", tmp_path / "short.bin",
                     "--collection", root / "pool.jsonl", "--out", out)
    assert result.exit_code == 1
    assert (f"Error: {tmp_path / 'short.bin'}: an index of another pool than "
            f"{root / 'pool.jsonl'}: {json.loads(lines[-1])['doc_id']!r} is in one "
            f"of them only") in blob(result)
    assert not out.exists()


def test_prefetch_doc_vectors_writes_regir_run_candidates(env, tmp_path):
    root = env.root
    write_doc_vectors(root, tmp_path)
    vectors = ["--pool-vectors", tmp_path / "pool.vec",
               "--query-vectors", tmp_path / "queries.vec"]
    env.ok("prefetch", "--mode", "doc-vectors", "--k", "5", *vectors,
           "--queries", root / "queries.jsonl",
           "--splits", root / "splits.json", "--split", "test",
           "--out", tmp_path / "prefetch.tsv")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(root, "prefetch.mode = doc-vectors\n"
                                    "dense.pool_vectors = pool.vec\n"
                                    "dense.query_vectors = queries.vec\n"))
    env.ok("run", "--config", cfg, "--out", tmp_path / "exp")
    run = read_run(tmp_path / "prefetch.tsv")
    assert run == read_run(tmp_path / "exp" / "final_test.tsv")
    # each test query's nearest pool documents share its theme
    assert all(int(d[2:]) % 4 == int(q[2:]) % 4
               for q, ranking in run.items() for d in ranking.doc_ids[:5])


def test_a_zero_query_doc_vector_gets_an_empty_list_in_prefetch_and_run(
        env, tmp_path, caplog):
    """Such a query used to abort the whole pre-fetch with `zero query
    vector`; both commands now warn and give it an empty list."""
    root = env.root
    write_doc_vectors(root, tmp_path)
    zeroed = json.loads((root / "splits.json").read_text())["test"][0]
    lines = (tmp_path / "queries.vec").read_text().splitlines()
    (tmp_path / "queries.vec").write_text("\n".join(
        f"{zeroed} 0.0 0.0 0.0 0.0" if line.split()[0] == zeroed else line
        for line in lines) + "\n")
    warning = f"query {zeroed}: zero doc vector; empty list"
    caplog.set_level("WARNING")
    env.ok("prefetch", "--mode", "doc-vectors", "--k", "5",
           "--pool-vectors", tmp_path / "pool.vec",
           "--query-vectors", tmp_path / "queries.vec",
           "--queries", root / "queries.jsonl",
           "--splits", root / "splits.json", "--split", "test",
           "--out", tmp_path / "prefetch.tsv")
    assert caplog.messages == [warning]
    caplog.clear()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(root, "prefetch.mode = doc-vectors\n"
                                    "dense.pool_vectors = pool.vec\n"
                                    "dense.query_vectors = queries.vec\n"))
    env.ok("run", "--config", cfg, "--out", tmp_path / "exp")
    assert warning in caplog.messages
    run = read_run(tmp_path / "prefetch.tsv")
    assert run == read_run(tmp_path / "exp" / "final_test.tsv")
    assert zeroed not in run and len(run) > 0


def test_a_key_error_is_reported_by_its_message(env, tmp_path):
    """A KeyError's one-line error is its message, not the repr of it, both
    from a command and from a stage of `regir run`."""
    root = env.root
    write_doc_vectors(root, tmp_path)
    missing = json.loads((root / "splits.json").read_text())["test"][0]
    lines = (tmp_path / "queries.vec").read_text().splitlines()
    (tmp_path / "queries.vec").write_text("".join(
        line + "\n" for line in lines if line.split()[0] != missing))
    result = env.cli("prefetch", "--mode", "doc-vectors", "--k", "5",
                     "--pool-vectors", tmp_path / "pool.vec",
                     "--query-vectors", tmp_path / "queries.vec",
                     "--queries", root / "queries.jsonl",
                     "--splits", root / "splits.json", "--split", "test",
                     "--out", tmp_path / "prefetch.tsv")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(root, "prefetch.mode = doc-vectors\n"
                                    "dense.pool_vectors = pool.vec\n"
                                    "dense.query_vectors = queries.vec\n"))
    staged = env.cli("run", "--config", cfg, "--out", tmp_path / "exp")
    message = f"no vector for query {missing!r}"
    for outcome, error in ((result, f"Error: {message}"),
                           (staged, f"Error: stage 'prefetch' failed: {message}")):
        assert outcome.exit_code == 1
        assert [line for line in outcome.output.splitlines()
                if line.startswith("Error")] == [error]


@pytest.mark.parametrize("args,message", [
    (["--mode", "ensemble", "--alpha", "0.5"],
     "ensemble needs --components and --alpha"),
    (["--mode", "ensemble", "--components", "bm25,w2v-cent"],
     "ensemble needs --components and --alpha"),
    (["--mode", "ensemble", "--components", "bm25,foo", "--alpha", "0.5",
      "--index", "index.bin"],
     "--components must name two of bm25, w2v-cent, doc-vectors"),
    (["--mode", "ensemble", "--components", "bm25", "--alpha", "0.5",
      "--index", "index.bin"],
     "--components must name two of bm25, w2v-cent, doc-vectors"),
    (["--mode", "ensemble", "--components", "bm25,bm25", "--alpha", "0.5",
      "--index", "index.bin"],
     "--components names bm25 twice"),
    (["--mode", "w2v-cent", "--index", "index.bin", "--word-vectors", "wv.txt"],
     "w2v-cent needs --index, --word-vectors and --centroids"),
    (["--mode", "w2v-cent", "--index", "index.bin", "--centroids",
      "centroids.vec"], "w2v-cent needs --index, --word-vectors and --centroids"),
    (["--mode", "doc-vectors", "--pool-vectors", "wv.txt"],
     "doc-vectors needs --pool-vectors and --query-vectors"),
    (["--mode", "bm25", "--index", "index.bin", "--date-filter", "3"],
     "--date-filter needs --collection for publication years"),
    (["--mode", "bm25", "--index", "index.bin", "--alpha", "0.5"],
     "--alpha needs --mode ensemble"),
    (["--mode", "bm25", "--index", "index.bin", "--components", "bm25,w2v-cent"],
     "--components needs --mode ensemble"),
    (["--mode", "bm25", "--index", "index.bin", "--filter-mode", "pre"],
     "--filter-mode needs --date-filter"),
    (["--mode", "ensemble", "--components", "bm25,w2v-cent", "--alpha", "7",
      "--index", "index.bin", "--word-vectors", "wv.txt", "--centroids",
      "centroids.vec"], "--alpha must be in [0, 1], got 7.0"),
], ids=["no-components", "no-alpha", "unknown-component", "one-component",
        "repeated-component", "no-centroids", "no-word-vectors",
        "no-query-vectors", "no-collection", "alpha-without-ensemble",
        "components-without-ensemble", "filter-mode-without-date-filter",
        "alpha-outside-unit-interval"])
def test_prefetch_refuses_missing_inputs_before_loading_any(env, tmp_path,
                                                           monkeypatch, args,
                                                           message):
    import regir.experiment

    def no_load(*args, **kwargs):
        raise AssertionError("an input was loaded before the options were checked")

    for name in ("ingest_collection", "load_index", "load_word_vectors",
                 "load_doc_vectors"):
        monkeypatch.setattr(regir.experiment, name, no_load)
    args = [env.root / a if a in ("index.bin", "wv.txt", "centroids.vec") else a
            for a in args]
    result = env.cli("prefetch", *args, "--queries", env.root / "queries.jsonl",
                     "--out", tmp_path / "r.tsv")
    assert result.exit_code != 0
    assert f"Error: {message}" in blob(result)
    assert not (tmp_path / "r.tsv").exists()


def test_stage_commands_take_the_pipeline_from_the_index(env, tmp_path):
    """An index built with custom stopwords carries them to `vectors` and a
    w2v-cent `prefetch`, which write what `regir run` writes with the same
    text.stopwords."""
    root = env.root
    stop = tmp_path / "stop.txt"
    stop.write_text("tax\nfish\nregulation\n")
    env.ok("index", "--collection", root / "pool.jsonl", "--stopwords", stop,
           "--out", tmp_path / "index.bin")

    def centroid_lists(index, name):
        env.ok("vectors", "--collection", root / "pool.jsonl",
               "--word-vectors", root / "wv.txt", "--index", index,
               "--out", tmp_path / f"{name}.vec")
        env.ok("prefetch", "--mode", "w2v-cent", "--k", "5",
               "--queries", root / "queries.jsonl",
               "--splits", root / "splits.json", "--split", "test",
               "--index", index, "--word-vectors", root / "wv.txt",
               "--centroids", tmp_path / f"{name}.vec",
               "--out", tmp_path / f"{name}.tsv")
        return read_run(tmp_path / f"{name}.tsv")

    lists = centroid_lists(tmp_path / "index.bin", "custom")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(root, f"prefetch.mode = w2v-cent\n"
                                    f"text.stopwords = {stop}\n"))
    env.ok("run", "--config", cfg, "--out", tmp_path / "exp")
    assert lists == read_run(tmp_path / "exp" / "final_test.tsv")
    assert ((tmp_path / "custom.vec").read_bytes()
            == (tmp_path / "exp" / "centroids.vec").read_bytes())
    assert lists != centroid_lists(root / "index.bin", "default")


def test_tuned_params_round_trip_into_prefetch(env, tmp_path):
    """`tune-bm25 --params-out` writes the file and grid `regir run` writes
    when it tunes BM25, and `prefetch --params` reads it back into the
    lists of that run."""
    root = env.root
    params = tmp_path / "bm25.json"
    grid = ["--grid-k1", "0.5,2.0,4.0", "--grid-b", "0:1:0.5"]
    env.ok("tune-bm25", "--index", root / "index.bin",
           "--queries", root / "queries.jsonl", "--qrels", root / "qrels.tsv",
           "--splits", root / "splits.json", "--k", "5", *grid,
           "--out", tmp_path / "grid.csv", "--params-out", params)
    env.ok("prefetch", "--mode", "bm25", "--k", "5",
           "--queries", root / "queries.jsonl",
           "--splits", root / "splits.json", "--split", "test",
           "--index", root / "index.bin", "--params", params,
           "--out", tmp_path / "prefetch.tsv")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(root, "prefetch.mode = bm25\nbm25.tune = true\n"
                                    "bm25.grid_k1 = 0.5,2.0,4.0\n"
                                    "bm25.grid_b = 0:1:0.5\n"))
    outdir = tmp_path / "exp"
    env.ok("run", "--config", cfg, "--out", outdir)
    assert params.read_bytes() == (outdir / "bm25_params.json").read_bytes()
    assert ((tmp_path / "grid.csv").read_text().splitlines()
            == (outdir / "bm25_grid.csv").read_text().splitlines()[1:])
    assert read_run(tmp_path / "prefetch.tsv") == read_run(outdir / "final_test.tsv")


@pytest.mark.parametrize("text,message", [
    ('{"k1": "x", "b": 0.5}', "k1 must be a finite number, got 'x'"),
    ('{"k1": true, "b": 0.5}', "k1 must be a finite number, got True"),
    ('{"k1": NaN, "b": 0.75}', "k1 must be a finite number, got nan"),
    ('{"k1": 1.2, "b": Infinity}', "b must be a finite number, got inf"),
    ('{"k1": 1.2, "b": -0.5}', "b must be non-negative, got -0.5"),
    ('{"k1": 1.0}', "expected a JSON object with exactly the keys k1 and b"),
    ('{"k1": 1.0, "b": 0.5, "k3": 8}',
     "expected a JSON object with exactly the keys k1 and b"),
    ("[1.2, 0.75]", "expected a JSON object with exactly the keys k1 and b"),
    ('{"k1": 1.2,\n "b": ', "line 2: malformed JSON"),
], ids=["text", "bool", "nan", "inf", "negative", "missing", "extra", "list",
        "truncated"])
def test_prefetch_refuses_bad_params_naming_the_file(env, tmp_path, text, message):
    params = tmp_path / "bm25.json"
    params.write_text(text)
    result = env.cli("prefetch", "--mode", "bm25", "--k", "5",
                     "--queries", env.root / "queries.jsonl",
                     "--index", env.root / "index.bin", "--params", params,
                     "--out", tmp_path / "r.tsv")
    assert result.exit_code == 1
    assert f"Error: {params}: {message}" in blob(result)
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize("text,message", [
    ("[0.5]", "expected a JSON object with exactly the key alpha"),
    ('{"alpha": 0.5, "beta": 1}', "expected a JSON object with exactly the key alpha"),
    ('{"alpha": "x"}', "alpha must be a finite number in [0, 1], got 'x'"),
    ('{"alpha": true}', "alpha must be a finite number in [0, 1], got True"),
    ('{"alpha": NaN}', "alpha must be a finite number in [0, 1], got nan"),
    ('{"alpha": 1.5}', "alpha must be a finite number in [0, 1], got 1.5"),
], ids=["list", "extra", "text", "bool", "nan", "above-one"])
def test_rerun_refuses_a_bad_tuned_alpha_naming_the_file(env, tmp_path, text,
                                                         message):
    """A rerun into a finished output directory reads the tuned weight back
    from fusion_alpha.json; a damaged one ends it with one error line."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(env.root, "prefetch.mode = ensemble\n"
                                        "fusion.components = bm25,w2v-cent\n"
                                        "fusion.tune = true\n"
                                        "fusion.grid = 0:1:0.5\n"))
    outdir = tmp_path / "exp"
    env.ok("run", "--config", cfg, "--out", outdir)
    alpha_path = outdir / "fusion_alpha.json"
    alpha = json.loads((outdir / "manifest.json").read_text())["fusion_alpha"]
    assert alpha_path.read_text() == json.dumps({"alpha": alpha})
    alpha_path.write_text(text)
    result = env.cli("run", "--config", cfg, "--out", outdir)
    assert result.exit_code == 1
    assert f"Error: {alpha_path}: {message}" in blob(result)
    assert "Traceback" not in blob(result)



OFF_GRID = "years must be a value of datefilter.grid"


@pytest.mark.parametrize("text,message", [
    ("[5]", "expected a JSON object with exactly the key years"),
    ('{"years": 5, "mode": "pre"}', "expected a JSON object with exactly the key years"),
    ('{"years": "5"}', f"{OFF_GRID}, got '5'"),
    ('{"years": true}', f"{OFF_GRID}, got True"),
    ('{"years": NaN}', f"{OFF_GRID}, got nan"),
    ('{"years": 2.5}', f"{OFF_GRID}, got 2.5"),
    ('{"years": -1}', f"{OFF_GRID}, got -1"),
    ('{"years": 3}', f"{OFF_GRID}, got 3"),
], ids=["list", "extra", "text", "bool", "nan", "fraction", "negative", "off-grid"])
def test_rerun_refuses_a_bad_tuned_window_naming_the_file(env, tmp_path, text,
                                                          message):
    """A rerun into a finished output directory reads the tuned date window
    back from datefilter_years.json; a damaged one, or a window outside the
    grid it was tuned on, ends it with one error line."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(run_config(env.root, "datefilter.tune = true\n"))
    outdir = tmp_path / "exp"
    env.ok("run", "--config", cfg, "--out", outdir)
    years_path = outdir / "datefilter_years.json"
    years = json.loads((outdir / "manifest.json").read_text())["datefilter_years"]
    assert years_path.read_text() == json.dumps({"years": years})
    years_path.write_text(text)
    result = env.cli("run", "--config", cfg, "--out", outdir)
    assert result.exit_code == 1
    assert f"Error: {years_path}: {message}" in blob(result)
    assert "Traceback" not in blob(result)

def test_commands_load_the_index_once(env, tmp_path, monkeypatch):
    import regir.experiment

    loads = []
    real = regir.experiment.load_index
    monkeypatch.setattr(regir.experiment, "load_index",
                        lambda path: loads.append(path) or real(path))
    root = env.root
    env.ok("prefetch", "--mode", "ensemble", "--k", "5",
           "--components", "bm25,w2v-cent", "--alpha", "0.6",
           "--queries", root / "queries.jsonl", "--index", root / "index.bin",
           "--word-vectors", root / "wv.txt",
           "--centroids", root / "centroids.vec", "--out", tmp_path / "r.tsv")
    env.ok("tune-bm25", "--index", root / "index.bin",
           "--queries", root / "queries.jsonl", "--qrels", root / "qrels.tsv",
           "--splits", root / "splits.json", "--k", "5",
           "--grid-k1", "1.0", "--grid-b", "0.5", "--out", tmp_path / "g.csv")
    assert loads == [root / "index.bin"] * 2


@pytest.mark.parametrize("command", ["prefetch", "tune-bm25"])
def test_commands_tokenize_each_query_at_most_once(env, tmp_path, monkeypatch,
                                                   command):
    """An ensemble pre-fetch of both text components and a tuning sweep read
    a query's terms from the pipeline's bags of the query collection, which
    is encoded once, even when the command covers one split."""
    import regir.text

    calls = Counter()
    real = regir.text._words
    monkeypatch.setattr(regir.text, "_words",
                        lambda text: calls.update([text]) or real(text))
    root = env.root
    args = {"prefetch": ["--mode", "ensemble", "--components", "bm25,w2v-cent",
                         "--alpha", "0.6", "--word-vectors", root / "wv.txt",
                         "--centroids", root / "centroids.vec", "--split", "test"],
            "tune-bm25": ["--qrels", root / "qrels.tsv", "--grid-k1", "0.5,1.0",
                          "--grid-b", "0:1:0.5"]}[command]
    env.ok(command, *args, "--k", "5", "--queries", root / "queries.jsonl",
           "--index", root / "index.bin", "--splits", root / "splits.json",
           "--out", tmp_path / "out")
    texts = {query.text for query in ingest_collection(root / "queries.jsonl")}
    assert calls and set(calls) <= texts and set(calls.values()) == {1}


@pytest.mark.parametrize("command,option", [
    ("tune-bm25", "--grid-k1"), ("tune-bm25", "--grid-b"), ("fuse", "--grid"),
])
def test_grid_options_are_bounded(env, tmp_path, command, option):
    root = env.root
    args = {"tune-bm25": ["--index", root / "index.bin",
                          "--queries", root / "queries.jsonl"],
            "fuse": ["--run-a", root / "run_all.tsv", "--run-b",
                     root / "run_all.tsv", "--tune-alpha"]}[command]
    result = env.cli(command, *args, "--qrels", root / "qrels.tsv",
                     option, "0:1e9:1e-9", "--out", tmp_path / "out")
    assert result.exit_code == 1
    assert f"{option}: more than 10000 grid values" in blob(result)


@pytest.mark.parametrize("command,option", [
    ("tune-bm25", "--grid-k1"), ("tune-bm25", "--grid-b"), ("fuse", "--grid"),
])
def test_grid_options_refuse_values_that_repeat_once_rounded(env, tmp_path,
                                                             command, option):
    root = env.root
    args = {"tune-bm25": ["--index", root / "index.bin",
                          "--queries", root / "queries.jsonl"],
            "fuse": ["--run-a", root / "run_all.tsv", "--run-b",
                     root / "run_all.tsv", "--tune-alpha"]}[command]
    result = env.cli(command, *args, "--qrels", root / "qrels.tsv",
                     option, "0:0.0003:0.00005", "--out", tmp_path / "out")
    assert result.exit_code == 1
    assert f"{option}: '0:0.0003:0.00005' repeats values" in blob(result)


@pytest.mark.parametrize("command,option", [
    ("tune-bm25", "--grid-k1"), ("tune-bm25", "--grid-b"), ("fuse", "--grid"),
])
def test_grid_options_are_checked_before_any_input_is_read(tmp_path, command, option):
    """Every input named here exists but does not parse, so the grid's
    error is the one reported only if the grid is parsed first."""
    bad = tmp_path / "bad.txt"
    bad.write_text("not an input\n")
    args = {"tune-bm25": ["--index", bad, "--queries", bad, "--splits", bad],
            "fuse": ["--run-a", bad, "--run-b", bad, "--tune-alpha"]}[command]
    result = CliRunner().invoke(main, [str(a) for a in (
        command, *args, "--qrels", bad, option, "0:1:-1", "--out", tmp_path / "out")])
    assert result.exit_code == 1
    assert f"Error: {option}: step must be positive" in blob(result)


@pytest.mark.parametrize("raw, value", RANGES_ROUNDED_OUTSIDE)
def test_grid_k1_refuses_a_range_whose_rounding_leaves_it(env, tmp_path, raw, value):
    root = env.root
    result = env.cli("tune-bm25", "--index", root / "index.bin",
                     "--queries", root / "queries.jsonl", "--qrels", root / "qrels.tsv",
                     "--grid-k1", raw, "--out", tmp_path / "out")
    assert result.exit_code == 1
    assert f"--grid-k1: '{raw}' gives {value} once rounded" in blob(result)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["tune-bm25", "prefetch", "fuse", "rerank",
                                     "date-filter", "evaluate", "report rk-curve"])
def test_depth_options_refuse_values_below_one(env, tmp_path, command, value):
    """`--k -1` used to cut the last entry off every list, since a list's
    top -1 is all but its last entry."""
    root = env.root
    run, queries = root / "run_all.tsv", root / "queries.jsonl"
    args = {"tune-bm25": ["--index", root / "index.bin", "--queries", queries,
                          "--qrels", root / "qrels.tsv"],
            "prefetch": ["--mode", "bm25", "--index", root / "index.bin",
                         "--queries", queries],
            "fuse": ["--run-a", run, "--run-b", run, "--alpha", "0.5"],
            "rerank": ["--checkpoint", root / "ck.bin", "--run", run,
                       "--queries", queries, "--collection", root / "pool.jsonl",
                       "--index", root / "index.bin",
                       "--word-vectors", root / "wv.txt"],
            "date-filter": ["--run", run, "--queries", queries,
                            "--collection", root / "pool.jsonl", "--years", "3"],
            "evaluate": ["--run", run, "--qrels", root / "qrels.tsv"],
            "report rk-curve": ["--run", run, "--qrels", root / "qrels.tsv"]}[command]
    option = "--k-max" if command == "report rk-curve" else "--k"
    out = tmp_path / "out"
    result = env.cli(*command.split(), *args, option, value, "--out", out)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}': {value} is not in the range x>=1" \
        in blob(result)
    assert not out.exists()


@pytest.mark.parametrize("command", ["tune-bm25", "prefetch", "evaluate",
                                     "report rk-curve"])
def test_split_without_splits_is_refused_before_any_input_is_read(env, tmp_path,
                                                                   command):
    """`--split` used to be ignored without `--splits`, so every query ran:
    `tune-bm25` tuned on the test queries too. Every input named here exists
    but does not parse, so the refusal comes before any of them is read."""
    bad = tmp_path / "bad.txt"
    bad.write_text("not an input\n")
    args = {"tune-bm25": ["--index", bad, "--queries", bad, "--qrels", bad],
            "prefetch": ["--mode", "bm25", "--index", bad, "--queries", bad],
            "evaluate": ["--run", bad, "--qrels", bad],
            "report rk-curve": ["--run", bad, "--qrels", bad, "--k-max", "10"]}[command]
    out = tmp_path / "out"
    result = env.cli(*command.split(), *args, "--split", "dev", "--out", out)
    assert result.exit_code == 1
    assert "Error: --split needs --splits" in blob(result)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "train", "tune-bm25", "prefetch",
                                     "evaluate"])
def test_every_command_refuses_the_split_manifest_regir_run_refuses(
        env, tmp_path, command):
    """A dev split that names three train queries twice each: `regir run`
    refuses it, and the commands that read a split manifest used to take it
    (`train` trained, exit 0). Each now fails with the run's message before
    it writes its output."""
    root = env.root
    splits = json.loads((root / "splits.json").read_text())
    splits["dev"] += splits["train"][:3] * 2
    bad = tmp_path / "splits.json"
    bad.write_text(json.dumps(splits))
    out = tmp_path / "out"
    config = tmp_path / "exp.cfg"
    config.write_text(run_config(root, "prefetch.mode = bm25\n").replace(
        str(root / "splits.json"), str(bad)))
    args = {"run": ["--config", config],
            "train": ["--model", "drmm", "--run", root / "run_all.tsv",
                      "--queries", root / "queries.jsonl",
                      "--collection", root / "pool.jsonl",
                      "--qrels", root / "qrels.tsv", "--index", root / "index.bin",
                      "--word-vectors", root / "wv.txt",
                      "--hyperparams", root / "hp.txt", "--splits", bad],
            "tune-bm25": ["--index", root / "index.bin",
                          "--queries", root / "queries.jsonl",
                          "--qrels", root / "qrels.tsv", "--splits", bad],
            "prefetch": ["--mode", "bm25", "--index", root / "index.bin",
                         "--queries", root / "queries.jsonl", "--splits", bad],
            "evaluate": ["--run", root / "run_all.tsv",
                         "--qrels", root / "qrels.tsv", "--splits", bad]}[command]
    result = env.cli(command, *args, "--out", out)
    assert result.exit_code == 1
    assert f"Error: {bad}: split 'dev' contains duplicate ids\n" in blob(result)
    assert not (out / "final_test.tsv" if command == "run" else out).exists()


@pytest.mark.parametrize("fault", ["query", "pool", "judgments"])
def test_split_manifest_refusals_name_the_manifest_and_the_other_file(
        env, tmp_path, fault):
    """A manifest naming a query or pool document the collections lack, or
    a query the judgments give no relevant document, is refused naming the
    manifest and the file it disagrees with."""
    root = env.root
    splits = json.loads((root / "splits.json").read_text())
    qrels = root / "qrels.tsv"
    if fault == "query":
        splits["dev"].append("ghost")
        message, other, ids = ("split 'dev': ids missing from query collection",
                               root / "queries.jsonl", ["ghost"])
    elif fault == "pool":
        splits["pool"].append("ghost")
        message, other, ids = ("pool ids missing from pool collection",
                               root / "pool.jsonl", ["ghost"])
    else:
        dropped = splits["dev"][0]
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("".join(line + "\n" for line in
                                 (root / "qrels.tsv").read_text().splitlines()
                                 if line.split("\t")[0] != dropped))
        message, other, ids = ("split 'dev': queries with no relevant documents",
                               qrels, [dropped])
    manifest = tmp_path / "splits.json"
    manifest.write_text(json.dumps(splits))
    inputs = Inputs(root / "pool.jsonl", root / "queries.jsonl", qrels,
                    splits_path=manifest)
    with pytest.raises(ValueError) as refused:
        inputs.splits
    assert str(refused.value) == f"{manifest}: {message} ({other}): {ids}"


def test_fuse_fixed_alpha(env, tmp_path):
    out = tmp_path / "fused.tsv"
    result = env.ok("fuse", "--run-a", env.root / "run_all.tsv",
                    "--run-b", env.root / "run_all.tsv",
                    "--alpha", "0.3", "--k", "5", "--out", out)
    assert "12 fused lists" in result.output
    assert all(len(rl) <= 5 for rl in read_run(out).values())


def test_fuse_tuned_alpha_grid(env, tmp_path):
    out = tmp_path / "fused.tsv"
    grid_out = tmp_path / "alpha_grid.csv"
    result = env.ok("fuse", "--run-a", env.root / "run_all.tsv",
                    "--run-b", env.root / "run_all.tsv", "--tune-alpha",
                    "--qrels", env.root / "qrels.tsv", "--grid", "0:1:0.5",
                    "--grid-out", grid_out, "--out", out)
    assert "tuned alpha=0.0" in result.output  # tie: every alpha equal
    lines = grid_out.read_text().splitlines()
    assert lines[0] == "alpha,recall_at_k"
    assert len(lines) == 4


def test_fuse_default_grid_is_the_default_alpha_grid(env, tmp_path):
    """Without --grid, tuning sweeps `default_alpha_grid()`: the grid CSV
    is the one `--grid 0:1:0.05` writes, and --help states that grid."""
    grids = []
    for extra in ([], ["--grid", "0:1:0.05"]):
        grid_out = tmp_path / f"grid{len(grids)}.csv"
        env.ok("fuse", "--run-a", env.root / "run_all.tsv",
               "--run-b", env.root / "run_all.tsv", "--tune-alpha",
               "--qrels", env.root / "qrels.tsv", *extra,
               "--grid-out", grid_out, "--out", tmp_path / "fused.tsv")
        grids.append(grid_out.read_bytes())
    assert grids[0] == grids[1]
    alphas = [line.split(",")[0] for line in grids[0].decode().splitlines()[1:]]
    assert alphas == [repr(a) for a in default_alpha_grid()]
    assert "[default: 0:1:0.05]" in " ".join(env.ok("fuse", "--help").output.split())


@pytest.mark.parametrize("args,message", [
    (["--tune-alpha"], "--tune-alpha needs --qrels"),
    ([], "give --alpha or --tune-alpha"),
    (["--alpha", "7"], "--alpha must be in [0, 1], got 7.0"),
    (["--alpha", "nan"], "--alpha must be in [0, 1], got nan"),
], ids=["tune-without-qrels", "neither", "alpha-above-one", "alpha-nan"])
def test_fuse_checks_its_options_before_reading_a_run(env, tmp_path, args, message):
    """A six-column line would fail the run files' reader: the option error
    is reported, so the options were checked first."""
    bad = tmp_path / "bad.tsv"
    bad.write_text("eu00\t1\tuk00\t1.0\textra\tcolumns\n")
    result = env.cli("fuse", "--run-a", bad, "--run-b", bad, *args,
                     "--out", tmp_path / "f.tsv")
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines()
            if line.startswith("Error")] == [f"Error: {message}"]
    assert not (tmp_path / "f.tsv").exists()


@pytest.mark.parametrize("args,message", [
    (["--alpha", "0.5", "--tune-alpha"], "--tune-alpha conflicts with explicit --alpha"),
    (["--alpha", "0.5", "--grid", "0:1:0.5"], "--grid needs --tune-alpha"),
    (["--alpha", "0.5", "--grid-out", "grid.csv"], "--grid-out needs --tune-alpha"),
], ids=["alpha-and-tune", "grid-without-tune", "grid-out-without-tune"])
def test_fuse_refuses_options_that_would_be_ignored(env, tmp_path, args, message):
    """A given --alpha is not overwritten by the tuned one, as `fusion.alpha`
    with `fusion.tune` is refused, and a grid option is not dropped unread."""
    args = [tmp_path / a if a == "grid.csv" else a for a in args]
    result = env.cli("fuse", "--run-a", env.root / "run_all.tsv",
                     "--run-b", env.root / "run_all.tsv",
                     "--qrels", env.root / "qrels.tsv", *args, "--out", tmp_path / "f.tsv")
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines()
            if line.startswith("Error")] == [f"Error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tune", [[], ["--tune-alpha", "--qrels"]],
                         ids=["fixed", "tuned"])
def test_fuse_refuses_runs_over_different_queries(env, tmp_path, tune):
    """Tuned or not, runs that cover different queries are refused naming
    them, before a query missing from one is looked up in it."""
    root = env.root
    extra = [*tune, root / "qrels.tsv"] if tune else ["--alpha", "0.5"]
    result = env.cli("fuse", "--run-a", root / "run_all.tsv",
                     "--run-b", root / "run_test.tsv", *extra,
                     "--out", tmp_path / "f.tsv")
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines()
            if line.startswith("Error")] == [
        "Error: query sets differ between runs (only in a: ['eu00', 'eu01', "
        "'eu02'], only in b: [])"]


SPAN_OVERFLOWS = ("cannot normalize scores from -1e+308 to 1e+308: their span "
                  "is not finite")


def with_overflowing_span(run_path, out):
    """A copy of the run file whose second query's scores run from 1e308 down
    to -1e308, a span no float holds; returns that query's id."""
    run = read_run(run_path)
    query_id = sorted(run)[1]
    doc_ids = run[query_id].doc_ids
    scores = [1e308] + [0.0] * (len(doc_ids) - 2) + [-1e308]
    run[query_id] = RankedList(zip(doc_ids, scores), presorted=True)
    write_run(run, out)
    return query_id


def test_fuse_refuses_an_overflowing_span_naming_the_query(env, tmp_path):
    """With a fixed alpha and when tuning it alike."""
    bad = tmp_path / "bad.tsv"
    query_id = with_overflowing_span(env.root / "run_all.tsv", bad)
    for weight in (["--alpha", "0.5"], ["--tune-alpha", "--qrels", env.root / "qrels.tsv"]):
        result = env.cli("fuse", "--run-a", env.root / "run_all.tsv", "--run-b", bad,
                         *weight, "--out", tmp_path / "f.tsv")
        assert result.exit_code == 1
        assert f"Error: query {query_id}: {SPAN_OVERFLOWS}\n" in blob(result)
        assert not (tmp_path / "f.tsv").exists()


def test_rerank_refuses_an_overflowing_span_naming_the_run_and_query(env,
                                                                    tmp_path):
    bad = tmp_path / "bad.tsv"
    query_id = with_overflowing_span(env.root / "run_test.tsv", bad)
    result = env.cli("rerank", "--checkpoint", env.root / "ck.bin", "--run", bad,
                     "--queries", env.root / "queries.jsonl",
                     "--collection", env.root / "pool.jsonl",
                     "--index", env.root / "index.bin",
                     "--word-vectors", env.root / "wv.txt",
                     "--out", tmp_path / "r.tsv")
    assert result.exit_code == 1
    assert f"Error: {bad}: query {query_id}: {SPAN_OVERFLOWS}\n" in blob(result)
    assert not (tmp_path / "r.tsv").exists()


def test_train_writes_checkpoint_and_log(env):
    assert (env.root / "ck.bin").exists()
    lines = (env.root / "train_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,dev_r20,w_r,w_p"
    assert len(lines) == 3  # two epochs


def test_train_rejects_two_providers(env, tmp_path):
    result = env.cli("train", "--model", "drmm", "--run", env.root / "run_all.tsv",
                     "--queries", env.root / "queries.jsonl",
                     "--collection", env.root / "pool.jsonl",
                     "--qrels", env.root / "qrels.tsv",
                     "--splits", env.root / "splits.json",
                     "--index", env.root / "index.bin",
                     "--out", tmp_path / "ck.bin")
    assert result.exit_code != 0
    assert "exactly one" in blob(result)


def test_train_seed_overrides_the_hyperparameter_file(env, tmp_path):
    hp = tmp_path / "hp.txt"
    hp.write_text((env.root / "hp.txt").read_text() + "seed=3\n")
    env.ok("train", "--model", "drmm", "--run", env.root / "run_all.tsv",
           "--queries", env.root / "queries.jsonl",
           "--collection", env.root / "pool.jsonl",
           "--qrels", env.root / "qrels.tsv", "--splits", env.root / "splits.json",
           "--index", env.root / "index.bin", "--word-vectors", env.root / "wv.txt",
           "--hyperparams", hp, "--seed", "7", "--out", tmp_path / "ck.bin")
    stored = load_checkpoint(tmp_path / "ck.bin").hp
    assert stored.seed == 7
    assert (stored.lr, stored.max_epochs) == (0.01, 2)


def _uncommented(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("emptied", [None, "train", "dev"])
def test_prefetch_and_train_write_what_regir_run_trains(tmp_path, emptied):
    """`regir prefetch` + `regir train` write the checkpoint and the training
    log `regir run` writes for the same settings, also when a train or a dev
    query has no indexed term: the run holds an empty list for it, the run
    file no line, and `train` reads the missing line as an empty list."""
    root = build_dataset(tmp_path, random.Random(20260814))
    if emptied:
        query_id = json.loads((root / "splits.json").read_text())[emptied][0]
        queries = [json.loads(line) for line in
                   (root / "queries.jsonl").read_text().splitlines()]
        for query in queries:
            if query["doc_id"] == query_id:
                query.update(title="qqq", body="www")
        write_jsonl(root / "queries.jsonl", queries)
    (root / "hp.txt").write_text(
        "lr=0.01\nmax_epochs=2\nbatch=4\nnegatives=2\nB=6\nhidden=3\n")
    runner = CliRunner()
    for args in (
            ["index", "--collection", root / "pool.jsonl", "--no-idf-filter",
             "--out", root / "index.bin"],
            ["prefetch", "--mode", "bm25", "--k", "5",
             "--queries", root / "queries.jsonl", "--index", root / "index.bin",
             "--out", root / "run.tsv"],
            ["train", "--model", "drmm", "--run", root / "run.tsv",
             "--queries", root / "queries.jsonl", "--collection", root / "pool.jsonl",
             "--qrels", root / "qrels.tsv", "--splits", root / "splits.json",
             "--index", root / "index.bin", "--word-vectors", root / "wv.txt",
             "--hyperparams", root / "hp.txt", "--seed", "7",
             "--out", root / "ck.bin", "--log", root / "log.csv"]):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, blob(result)
    (root / "exp.cfg").write_text(
        "task = EU2UK\ndata.pool = pool.jsonl\ndata.queries = queries.jsonl\n"
        "data.qrels = qrels.tsv\ndata.splits = splits.json\n"
        "dense.word_vectors = wv.txt\ntext.idf_filter = false\n"
        "prefetch.mode = bm25\nprefetch.k = 5\nrerank.model = drmm\n"
        "rerank.hyperparams = hp.txt\nseed = 7\n")
    result = runner.invoke(main, ["run", "--config", str(root / "exp.cfg"),
                                  "--out", str(root / "exp")])
    assert result.exit_code == 0, blob(result)
    if emptied:
        assert query_id not in read_run(root / "run.tsv")
    assert ((root / "ck.bin").read_bytes()
            == (root / "exp" / "checkpoint_seed7.bin").read_bytes())
    assert (_uncommented(root / "log.csv")
            == _uncommented(root / "exp" / "training_log_seed7.csv"))


def test_vectors_on_empty_error_names_the_document(env, tmp_path):
    pool = tmp_path / "pool.jsonl"
    pool.write_text((env.root / "pool.jsonl").read_text() + json.dumps(
        {"doc_id": "oov", "title": "Zzz", "body": "qqq www", "year": 2000}) + "\n")
    env.ok("index", "--collection", pool, "--out", tmp_path / "index.bin")
    args = ["vectors", "--collection", pool, "--word-vectors", env.root / "wv.txt",
            "--index", tmp_path / "index.bin", "--out", tmp_path / "c.vec"]
    result = env.cli(*args, "--on-empty", "error")
    assert result.exit_code == 1
    assert "Error: document 'oov': no in-vocabulary token" in blob(result)
    assert "wrote 40 centroids" in env.ok(*args).output


def test_rerank_with_checkpoint(env, tmp_path):
    out = tmp_path / "reranked.tsv"
    result = env.ok("rerank", "--checkpoint", env.root / "ck.bin",
                    "--run", env.root / "run_test.tsv",
                    "--queries", env.root / "queries.jsonl",
                    "--collection", env.root / "pool.jsonl",
                    "--index", env.root / "index.bin",
                    "--word-vectors", env.root / "wv.txt", "--out", out)
    assert "re-ranked 3 lists" in result.output
    before = read_run(env.root / "run_test.tsv")
    after = read_run(out)
    for query_id in before:
        assert set(after[query_id].doc_ids) == set(before[query_id].doc_ids)


def test_train_and_rerank_with_token_vectors(env, tmp_path):
    """Both commands take per-position vectors of the index pipeline's
    denoised sequences; the re-ranked lists are the library's."""
    root = env.root
    pipeline = load_index(root / "index.bin").pipeline
    pool = ingest_collection(root / "pool.jsonl")
    queries = ingest_collection(root / "queries.jsonl")
    rng = random.Random(9)
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("".join(
        f"{doc.doc_id} {i} " + " ".join(repr(rng.uniform(-1, 1)) for _ in range(4))
        + "\n" for doc in [*pool, *queries] for i, _ in enumerate(pipeline(doc.text))))
    common = ["--queries", root / "queries.jsonl",
              "--collection", root / "pool.jsonl", "--index", root / "index.bin",
              "--token-vectors", tokens]
    ck = tmp_path / "ck.bin"
    env.ok("train", "--model", "drmm", "--run", root / "run_all.tsv",
           "--qrels", root / "qrels.tsv", "--splits", root / "splits.json",
           "--hyperparams", root / "hp.txt", *common, "--out", ck)
    out = tmp_path / "reranked.tsv"
    result = env.ok("rerank", "--checkpoint", ck, "--run", root / "run_test.tsv",
                    *common, "--out", out)
    assert "re-ranked 3 lists" in result.output
    trained = load_checkpoint(ck)
    store = FeatureStore("drmm", load_token_vectors(tokens), pipeline, queries,
                         pool, trained.hp)
    [expected] = rerank_run(read_run(root / "run_test.tsv"), [trained.reranker(store)])
    assert read_run(out) == expected


def test_rerank_k_truncates_before_scoring(env, tmp_path):
    out = tmp_path / "reranked_k2.tsv"
    env.ok("rerank", "--checkpoint", env.root / "ck.bin",
           "--run", env.root / "run_test.tsv",
           "--queries", env.root / "queries.jsonl",
           "--collection", env.root / "pool.jsonl",
           "--index", env.root / "index.bin",
           "--word-vectors", env.root / "wv.txt", "--k", "2", "--out", out)
    before = read_run(env.root / "run_test.tsv")
    after = read_run(out)
    assert after.keys() == before.keys()
    for query_id, rl in after.items():
        assert len(rl) == 2
        assert set(rl.doc_ids) == set(before[query_id].doc_ids[:2])


def test_rerank_post_date_filter_drops_entries(env, tmp_path):
    out = tmp_path / "reranked_dated.tsv"
    env.ok("rerank", "--checkpoint", env.root / "ck.bin",
           "--run", env.root / "run_test.tsv",
           "--queries", env.root / "queries.jsonl",
           "--collection", env.root / "pool.jsonl",
           "--index", env.root / "index.bin",
           "--word-vectors", env.root / "wv.txt",
           "--date-filter", "2", "--filter-mode", "post", "--out", out)
    pool = ingest_collection(env.root / "pool.jsonl")
    queries = ingest_collection(env.root / "queries.jsonl")
    for query_id, rl in read_run(out).items():
        qyear = queries.get(query_id).year
        assert all(abs(pool.get(d).year - qyear) <= 2 for d in rl.doc_ids)


def test_rerank_refuses_a_filter_mode_without_a_date_filter(env, tmp_path):
    """The mode would be ignored: it is refused before the run file, whose
    six-column line would fail its reader, is read."""
    bad = tmp_path / "bad.tsv"
    bad.write_text("eu00\t1\tuk00\t1.0\textra\tcolumns\n")
    result = env.cli("rerank", "--checkpoint", env.root / "ck.bin", "--run", bad,
                     "--queries", env.root / "queries.jsonl",
                     "--collection", env.root / "pool.jsonl",
                     "--index", env.root / "index.bin",
                     "--word-vectors", env.root / "wv.txt",
                     "--filter-mode", "pre", "--out", tmp_path / "r.tsv")
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines()
            if line.startswith("Error")] == ["Error: --filter-mode needs --date-filter"]
    assert not (tmp_path / "r.tsv").exists()


def test_date_filter_command(env, tmp_path):
    out = tmp_path / "filtered.tsv"
    result = env.ok("date-filter", "--run", env.root / "run_all.tsv",
                    "--queries", env.root / "queries.jsonl",
                    "--collection", env.root / "pool.jsonl",
                    "--years", "3", "--mode", "post", "--out", out)
    assert "kept" in result.output
    kept = sum(len(rl) for rl in read_run(out).values())
    total = sum(len(rl) for rl in read_run(env.root / "run_all.tsv").values())
    assert kept <= total


@pytest.mark.parametrize("years", ["nan", "2.5", "-1"])
@pytest.mark.parametrize("command", ["rerank", "date-filter"])
def test_a_bad_window_is_refused_before_any_input_is_read(env, tmp_path,
                                                          command, years):
    """Every input is corrupt, so the window's error is the one reported
    only if the window is built before any input is read."""
    bad = tmp_path / "corrupt"
    bad.write_bytes(b"\xff not any input format\n")
    args = {"rerank": ["--checkpoint", bad, "--index", bad, "--word-vectors",
                       bad, "--date-filter", years],
            "date-filter": ["--years", years]}[command]
    result = env.cli(command, "--run", bad, "--queries", bad, "--collection",
                     bad, *args, "--out", tmp_path / "out.tsv")
    assert result.exit_code != 0
    assert (f"Error: max_distance_years must be a non-negative integer or "
            f"inf, got {float(years)}\n") in blob(result)


@pytest.mark.parametrize("vectors", [[], ["--word-vectors", "--token-vectors"]],
                         ids=["neither", "both"])
@pytest.mark.parametrize("command", ["train", "rerank"])
def test_the_vectors_options_are_checked_before_any_input_is_read(
        env, tmp_path, command, vectors):
    """Every input is corrupt, so the error about the --word-vectors /
    --token-vectors pair is the one reported only if the pair is checked
    before any input is read."""
    bad = tmp_path / "corrupt"
    bad.write_bytes(b"\xff not any input format\n")
    args = {"train": ["--model", "drmm", "--qrels", bad, "--splits", bad],
            "rerank": ["--checkpoint", bad]}[command]
    result = env.cli(command, "--run", bad, "--queries", bad, "--collection",
                     bad, "--index", bad, *args,
                     *[x for option in vectors for x in (option, bad)],
                     "--out", tmp_path / "out")
    assert result.exit_code != 0
    assert ("Error: give exactly one of --word-vectors / --token-vectors\n"
            in blob(result))


def date_filter(env, out, *args):
    """The lists `date-filter --years 3` writes for run_all.tsv, with an
    empty list for each query it did not write (all entries dropped)."""
    env.ok("date-filter", "--run", env.root / "run_all.tsv",
           "--queries", env.root / "queries.jsonl",
           "--collection", env.root / "pool.jsonl", "--years", "3", *args,
           "--out", out)
    written = read_run(out)
    return {q: written[q].doc_ids if q in written else []
            for q in read_run(env.root / "run_all.tsv")}


def in_window(env, depth=None):
    pool = ingest_collection(env.root / "pool.jsonl")
    queries = ingest_collection(env.root / "queries.jsonl")
    return {q: [d for d in rl.doc_ids[:depth]
                if abs(pool.get(d).year - queries.get(q).year) <= 3]
            for q, rl in read_run(env.root / "run_all.tsv").items()}


def test_date_filter_without_k_cuts_nothing(env, tmp_path):
    # with nothing deeper to refill from, both modes keep every survivor
    kept = in_window(env)
    assert date_filter(env, tmp_path / "pre.tsv", "--mode", "pre") == kept
    assert date_filter(env, tmp_path / "post.tsv", "--mode", "post") == kept


def test_date_filter_k_is_the_candidate_depth(env, tmp_path):
    """pre refills to k from deeper entries; post filters the top k."""
    pre = date_filter(env, tmp_path / "pre.tsv", "--mode", "pre", "--k", "3")
    post = date_filter(env, tmp_path / "post.tsv", "--mode", "post", "--k", "3")
    assert pre == {q: kept[:3] for q, kept in in_window(env).items()}
    assert post == in_window(env, depth=3)
    assert pre != post


def test_evaluate_echoes_metrics_and_writes_csv(env, tmp_path):
    out = tmp_path / "eval.csv"
    result = env.ok("evaluate", "--run", env.root / "run_test.tsv",
                    "--qrels", env.root / "qrels.tsv", "--k", "10",
                    "--splits", env.root / "splits.json", "--split", "test",
                    "--out", out)
    assert "r_at_10" in result.output
    assert "ndcg_at_10" in result.output
    lines = out.read_text().splitlines()
    assert lines[0].startswith("query_id,")
    assert lines[-1].startswith("mean,")


def test_evaluate_split_agrees_with_the_run_when_a_window_empties_a_list(tmp_path):
    """`final_test.tsv` has no line for a query whose list the post window
    emptied; evaluating it over the test split scores that query as an empty
    list, as the run's own evaluation does."""
    root = date_window_dataset(tmp_path, random.Random(20260814))
    (root / "exp.cfg").write_text(
        "task = EU2UK\ndata.pool = pool.jsonl\ndata.queries = queries.jsonl\n"
        "data.qrels = qrels.tsv\ndata.splits = splits.json\n"
        "prefetch.k = 10\ndatefilter.years = 0\ndatefilter.mode = post\n"
        "eval.k = 5\n")
    runner = CliRunner()
    outdir = tmp_path / "exp"
    for args in (["run", "--config", root / "exp.cfg", "--out", outdir],
                 ["evaluate", "--run", outdir / "final_test.tsv",
                  "--qrels", root / "qrels.tsv", "--k", "5",
                  "--splits", root / "splits.json", "--split", "test",
                  "--out", tmp_path / "eval.csv"]):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, blob(result)
    test_ids = json.loads((root / "splits.json").read_text())["test"]
    assert sorted(read_run(outdir / "final_test.tsv")) == sorted(test_ids[:-1])
    own = (outdir / "eval_test.csv").read_text().splitlines()
    assert own[0].startswith("# manifest ")
    assert (tmp_path / "eval.csv").read_text().splitlines() == own[1:]
    assert f"r_at_5 {float(own[-1].split(',')[1]):.4f}" in result.output


def test_evaluate_unknown_split(env, tmp_path):
    result = env.cli("evaluate", "--run", env.root / "run_test.tsv",
                     "--qrels", env.root / "qrels.tsv",
                     "--splits", env.root / "splits.json", "--split", "holdout")
    assert result.exit_code != 0
    assert "holdout" in blob(result)


def test_report_aggregate(env, tmp_path):
    ev1, ev2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    fused = tmp_path / "fused_test.tsv"
    env.ok("fuse", "--run-a", env.root / "run_test.tsv",
           "--run-b", env.root / "run_test.tsv", "--alpha", "0.5",
           "--k", "5", "--out", fused)
    env.ok("evaluate", "--run", env.root / "run_test.tsv",
           "--qrels", env.root / "qrels.tsv", "--k", "10", "--out", ev1)
    env.ok("evaluate", "--run", fused,
           "--qrels", env.root / "qrels.tsv", "--k", "10", "--out", ev2)
    summary = tmp_path / "summary.csv"
    result = env.ok("report", "aggregate", "--eval", ev1, "--eval", ev2,
                    "--out", summary)
    assert "+/-" in result.output
    lines = summary.read_text().splitlines()
    assert lines[0] == "metric,mean,sd"


@pytest.mark.parametrize("header,row", [
    ("query_id,recall,ndcg_at_10,rp", "q1,0.5,0.5,0.5"),
    ("query_id,r_at_10,rp", "q1,0.5,0.5"),
], ids=["no-recall-column", "no-ndcg-column"])
def test_report_aggregate_rejects_foreign_eval_csv(env, tmp_path, header, row):
    foreign = tmp_path / "foreign.csv"
    foreign.write_text(f"{header}\n{row}\n")
    result = env.cli("report", "aggregate", "--eval", foreign,
                     "--out", tmp_path / "summary.csv")
    assert result.exit_code == 1
    assert f"{foreign}: expected the columns r_at_K, ndcg_at_K, rp" in blob(result)


def test_report_rk_curve(env, tmp_path):
    out = tmp_path / "rk.csv"
    result = env.ok("report", "rk-curve", "--run", env.root / "run_all.tsv",
                    "--qrels", env.root / "qrels.tsv", "--k-max", "10",
                    "--out", out)
    assert "R@10" in result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "k,recall"
    assert len(lines) == 11
    recalls = [float(line.split(",")[1]) for line in lines[1:]]
    assert recalls == sorted(recalls)


def test_report_rk_curve_over_a_split_counts_a_query_without_lines(tmp_path):
    """A test query with no indexed term has an empty pre-fetched list, so
    `prefetch_test.tsv` has no line for it. Over the test split,
    `report rk-curve` counts it at R@k 0 and writes `regir run`'s
    rk_curve.csv; without --splits it averages the queries of the file."""
    root = build_dataset(tmp_path, random.Random(20260814))
    splits = json.loads((root / "splits.json").read_text())
    queries = [json.loads(line) for line in
               (root / "queries.jsonl").read_text().splitlines()]
    for query in queries:
        if query["doc_id"] == splits["test"][0]:
            query.update(title="qqq", body="www")
    write_jsonl(root / "queries.jsonl", queries)
    (root / "exp.cfg").write_text(
        "task = EU2UK\ndata.pool = pool.jsonl\ndata.queries = queries.jsonl\n"
        "data.qrels = qrels.tsv\ndata.splits = splits.json\n"
        "prefetch.mode = bm25\nprefetch.k = 5\neval.k = 5\n")
    runner = CliRunner()
    outdir = tmp_path / "exp"
    result = runner.invoke(main, ["run", "--config", str(root / "exp.cfg"),
                                  "--out", str(outdir)])
    assert result.exit_code == 0, blob(result)
    assert sorted(read_run(outdir / "prefetch_test.tsv")) == sorted(splits["test"][1:])
    own = (outdir / "rk_curve.csv").read_text().splitlines()
    assert own[0].startswith("# manifest ")
    args = ["report", "rk-curve", "--run", outdir / "prefetch_test.tsv",
            "--qrels", root / "qrels.tsv", "--k-max", "10"]
    for split_args in (["--splits", root / "splits.json"],
                       ["--splits", root / "splits.json", "--split", "test"]):
        result = runner.invoke(main, [str(a) for a in args + split_args +
                                      ["--out", tmp_path / "rk.csv"]])
        assert result.exit_code == 0, blob(result)
        assert (tmp_path / "rk.csv").read_text().splitlines() == own[1:]
        assert f"R@10 = {float(own[-1].split(',')[1]):.4f}" in result.output
    result = runner.invoke(main, [str(a) for a in args + ["--out", tmp_path / "all.csv"]])
    assert result.exit_code == 0, blob(result)
    rows = emit_rk_curve(read_run(outdir / "prefetch_test.tsv"),
                         Inputs(qrels_path=root / "qrels.tsv").qrels, 10)
    assert (tmp_path / "all.csv").read_text().splitlines() == \
        ["k,recall"] + [f"{k},{r!r}" for k, r in rows]
    assert (tmp_path / "all.csv").read_text() != (tmp_path / "rk.csv").read_text()


def test_report_commands_share_the_error_boundary(env, tmp_path):
    bad = tmp_path / "bad_run.tsv"
    bad.write_text("q1 Q0 d1\n")
    result = env.cli("report", "rk-curve", "--run", bad,
                     "--qrels", env.root / "qrels.tsv", "--k-max", "10",
                     "--out", tmp_path / "rk.csv")
    assert result.exit_code == 1
    assert f"Error: {bad}: line 1: expected 4 columns" in blob(result)


def test_report_year_hist(env, tmp_path):
    out = tmp_path / "hist.csv"
    result = env.ok("report", "year-hist", "--qrels", env.root / "qrels.tsv",
                    "--queries", env.root / "queries.jsonl",
                    "--collection", env.root / "pool.jsonl", "--out", out)
    assert "24 pairs" in result.output
    assert out.read_text().splitlines()[0] == "year_diff,count"


def test_report_year_hist_lists_every_unknown_id(env, tmp_path):
    """By the judgments' reader, which `regir run` shares; the command used
    to stop at the first, reporting a query id as an unknown doc_id."""
    qrels = tmp_path / "qrels.tsv"
    query_line, doc_line = with_unknown_judgments(
        env.root, qrels, "nosuchquery\tuk000", "eu00\tnosuchdoc")
    out = tmp_path / "hist.csv"
    result = env.cli("report", "year-hist", "--qrels", qrels,
                     "--queries", env.root / "queries.jsonl",
                     "--collection", env.root / "pool.jsonl", "--out", out)
    assert result.exit_code == 1
    assert (f"Error: {qrels}: 2 row(s) reference unknown ids:\n"
            f"  line {query_line}: unknown query_id 'nosuchquery'\n"
            f"  line {doc_line}: unknown doc_id 'nosuchdoc'\n") in blob(result)
    assert not out.exists()


def test_run_command_end_to_end(env, tmp_path):
    cfg = env.root / "exp.cfg"
    cfg.write_text(
        "task = EU2UK\n"
        "data.pool = pool.jsonl\n"
        "data.queries = queries.jsonl\n"
        "data.qrels = qrels.tsv\n"
        "data.splits = splits.json\n"
        "prefetch.mode = bm25\n"
        "prefetch.k = 10\n"
        "bm25.tune = true\n"
        "bm25.grid_k1 = 0.5,1.0\n"
        "bm25.grid_b = 0.0,0.5\n"
        "eval.k = 5\n")
    outdir = tmp_path / "exp"
    result = env.ok("run", "--config", cfg, "--out", outdir)
    assert "manifest " in result.output
    assert "eval_test.csv:" in result.output
    assert (outdir / "manifest.json").exists()
    assert (outdir / "bm25_grid.csv").exists()
    assert (outdir / "rk_curve.csv").exists()


def test_run_command_reports_a_failed_stage_in_one_line(env, tmp_path):
    """A test query with no word vector gets an empty centroid list, which
    the ensemble cannot fuse: `run` exits with the stage's error on one
    line, naming the query, and `prefetch` with the same error."""
    test_id = json.loads((env.root / "splits.json").read_text())["test"][0]
    queries = [json.loads(line) for line in
               (env.root / "queries.jsonl").read_text().splitlines()]
    for query in queries:
        if query["doc_id"] == test_id:
            query.update(title="qqq", body="www")
    (tmp_path / "queries.jsonl").write_text(
        "".join(json.dumps(query) + "\n" for query in queries))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "task = EU2UK\n"
        f"data.pool = {env.root / 'pool.jsonl'}\n"
        "data.queries = queries.jsonl\n"
        f"data.qrels = {env.root / 'qrels.tsv'}\n"
        f"data.splits = {env.root / 'splits.json'}\n"
        f"dense.word_vectors = {env.root / 'wv.txt'}\n"
        "prefetch.mode = ensemble\n"
        "prefetch.k = 10\n"
        "fusion.components = bm25,w2v-cent\n"
        "fusion.tune = true\n"
        "eval.k = 5\n")
    result = env.cli("run", "--config", cfg, "--out", tmp_path / "exp")
    assert result.exit_code == 1
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert errors == [f"Error: stage 'prefetch' failed: query {test_id}: cannot "
                      "normalize an empty ranking"]
    assert "Traceback" not in blob(result)
    result = env.cli("prefetch", "--mode", "ensemble", "--k", "10",
                     "--components", "bm25,w2v-cent", "--alpha", "0.6",
                     "--queries", tmp_path / "queries.jsonl",
                     "--index", env.root / "index.bin",
                     "--word-vectors", env.root / "wv.txt",
                     "--centroids", env.root / "centroids.vec",
                     "--out", tmp_path / "ens.tsv")
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines() if line.startswith("Error")] \
        == [f"Error: query {test_id}: cannot normalize an empty ranking"]


def test_run_command_rejects_bad_config(env, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task = EU2UK\nretrieval.engine = lucene\n")
    result = env.cli("run", "--config", cfg, "--out", tmp_path / "exp")
    assert result.exit_code != 0
    assert "retrieval.engine" in blob(result)
