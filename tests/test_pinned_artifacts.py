"""Every artifact of four toy `regir run` configs, pinned by its sha256.

A change that alters one bit of a run file, a grid, a checkpoint or an eval
CSV fails here. The `# manifest <hash>` comment lines are stripped first:
their hash covers the dataset's paths, which differ per test run.
`manifest.json` is left out for the same reason, and for its timings.
"""

import hashlib
import random

import pytest

from regir.corpus import ingest_collection
from regir.experiment import load_config, run_experiment
from regir.text import build_pipeline

from conftest import VOCAB, build_dataset

COMMON = ("task = EU2UK\n"
          "seed = 5\n"
          "data.pool = pool.jsonl\n"
          "data.queries = queries.jsonl\n"
          "data.qrels = qrels.tsv\n"
          "data.splits = splits.json\n"
          "dense.word_vectors = wv.txt\n"
          "rerank.hyperparams = hp.txt\n"
          "prefetch.k = 8\n"
          "eval.k = 5\n")

CONFIGS = {
    # tuned BM25 with a pre-mode date window, PACRR re-ranking
    "bm25-tune-pre": ("prefetch.mode = bm25\n"
                      "bm25.tune = true\n"
                      "bm25.grid_k1 = 0.6,1.2,2.0\n"
                      "bm25.grid_b = 0.3,0.75\n"
                      "datefilter.years = 6\n"
                      "datefilter.mode = pre\n"
                      "rerank.model = pacrr\n"),
    # a bm25 + w2v-cent ensemble with a tuned fusion weight, DRMM re-ranking
    "ensemble-fusion-tune": ("prefetch.mode = ensemble\n"
                             "fusion.components = bm25,w2v-cent\n"
                             "fusion.tune = true\n"
                             "fusion.grid = 0:1:0.125\n"
                             "rerank.model = drmm\n"),
    # BM25, DRMM re-ranking over per-position token vectors
    "bm25-drmm-token": ("prefetch.mode = bm25\n"
                        "rerank.model = drmm\n"
                        "rerank.embeddings = token\n"
                        "rerank.token_vectors = tokens.txt\n"),
    # w2v-cent with a post-mode date window, PACRR over token vectors
    "w2v-cent-pacrr-token": ("prefetch.mode = w2v-cent\n"
                             "datefilter.years = 6\n"
                             "datefilter.mode = post\n"
                             "rerank.model = pacrr\n"
                             "rerank.embeddings = token\n"
                             "rerank.token_vectors = tokens.txt\n"),
}

# each theme's first word has a zero token vector at every position it
# holds: an out-of-vocabulary position
ZERO_TERMS = set(VOCAB[0:20:5])

DIGESTS = {
    "bm25-tune-pre": {
        "bm25_grid.csv":
            "f025a88cff48986b119a079f3f11c8bb924bb60ce9b84b8be07876634f193360",
        "bm25_params.json":
            "019e39d37f788920e653aad6926279084cccc715bbffc4d9568ae4a382adb53e",
        "checkpoint_seed5.bin":
            "c63aa841c595d4a99c493c255874b45ed358cc217794877d56f7e937c69c7e72",
        "eval_test_seed5.csv":
            "28a748d87cd6c3493b82c3cfd8e933ea851b2ec68b74906b022aa28fd3d7ae52",
        "index.bin":
            "b5b99c1c2e2fae9865caadff1da1e8e3e701ff6aae28f4f92c8847a93286f3a2",
        "prefetch_dev.tsv":
            "b4c3e196e0e6cafa5eef289771cfc6a83226c5fba55699e4ebd18cf9fcd9afcb",
        "prefetch_test.tsv":
            "a261e5bbc0edb9589413169f2c91842d601d59f2740c7e094d58c967b3bbe5ad",
        "prefetch_train.tsv":
            "e24c7e7154dabeb77c6ff305e97b1ec1272962d68291a604ff5b49bedfaa2d75",
        "reranked_test_seed5.tsv":
            "b8c5a16d4225e081929351260eae0b7013e948d02643c682c71fbfb65552f2aa",
        "rk_curve.csv":
            "c3658193835476506803e815dba021f68efb81b6a51c5b1eb73a24b880471825",
        "training_log_seed5.csv":
            "ecbebf4c24bee25f41ab34d2561da097ea3258423e2afe7f9b655f235a941fb0",
        "year_hist.csv":
            "e3a2c47cd81cb0faec410fc73a511bd39aaf4ffd989b836ffbf026461b4a664d",
    },
    "ensemble-fusion-tune": {
        "alpha_grid.csv":
            "3e9ad051aa6bbf9938ceccba799c9a5009ed9f6f5d738864fdbc4fc78fddcd4d",
        "centroids.vec":
            "a8a6429b567fd15b6c3077a0ac2ff4656da1aad504fde28294567848565f38d0",
        "checkpoint_seed5.bin":
            "aa984996cd23c224827969b67baa4b4b27dcae24d471ccfd53a68a5d9ecd02ed",
        "eval_test_seed5.csv":
            "b89840b1a0626a218ea8432ae26f5277f6b0ad0b5547cbdc2e10e47b780010bf",
        "fusion_alpha.json":
            "273dd59bd29c60d8894c8ecf2c15ca5044109d1cbd1a098592645c370637f360",
        "index.bin":
            "b5b99c1c2e2fae9865caadff1da1e8e3e701ff6aae28f4f92c8847a93286f3a2",
        "prefetch_dev.tsv":
            "bd8dfa3d88f7fb852f8c245da3c6bc5ee5b6111fe72501624967db5601ec0edc",
        "prefetch_test.tsv":
            "397caf24d3bbcd2b56c132f5ad18e6222cbc8689406bebaa04a196fdd923a8f9",
        "prefetch_train.tsv":
            "85e2285fe61e60e83da61609efd585c3ea690a1c4e73863b52a0369849582b2d",
        "reranked_test_seed5.tsv":
            "6dfee9066e8e03a5496fde12627f26101a7de88bf96b6bc1ffb004dc35d69992",
        "rk_curve.csv":
            "9cd9d886ad0a7c357d922bb995e1337a19dff0b114e99859acb1b1e2ae5ab284",
        "training_log_seed5.csv":
            "b27e67d36f8e029c082e6037fba30f4ea5ddc3f3e8db66aa8c7f51a92ab54855",
        "year_hist.csv":
            "e3a2c47cd81cb0faec410fc73a511bd39aaf4ffd989b836ffbf026461b4a664d",
    },
    "bm25-drmm-token": {
        "checkpoint_seed5.bin":
            "05662308d475c143f79f250bb4e7f2a1c59ee0354167116002eb8fd14bf85148",
        "eval_test_seed5.csv":
            "89f5df198b26411009811bdbb09fff1acb44d1f4933fe9c75dfab66f80aec58d",
        "index.bin":
            "b5b99c1c2e2fae9865caadff1da1e8e3e701ff6aae28f4f92c8847a93286f3a2",
        "prefetch_dev.tsv":
            "d70aafbba9723469addb6103ddbcc148c12b7959f389c447fbd96da48de2cdf4",
        "prefetch_test.tsv":
            "c038bc534198587b55922a5ec44c0a1ed37e81f31845cdbde65b2f24337648b8",
        "prefetch_train.tsv":
            "78ffbc304c892e5bb390e9f363167b8fcb3017f5d1c237e5b439a14aecf3fecf",
        "reranked_test_seed5.tsv":
            "58b5b194b4e9db9cbd16d88ec0ad4f0eac8397ac6a24191ddb3847c045415e50",
        "rk_curve.csv":
            "c3658193835476506803e815dba021f68efb81b6a51c5b1eb73a24b880471825",
        "training_log_seed5.csv":
            "d3f5f9cb9823cf9cc91239d28caa00b3ff9fbfe5413e7a2f4bc6ad8cbe8c987d",
        "year_hist.csv":
            "e3a2c47cd81cb0faec410fc73a511bd39aaf4ffd989b836ffbf026461b4a664d",
    },
    "w2v-cent-pacrr-token": {
        "centroids.vec":
            "a8a6429b567fd15b6c3077a0ac2ff4656da1aad504fde28294567848565f38d0",
        "checkpoint_seed5.bin":
            "c63aa841c595d4a99c493c255874b45ed358cc217794877d56f7e937c69c7e72",
        "eval_test_seed5.csv":
            "16554d239b2e7c8c879a91e7fb8c5aee127570aa5b6616aee04cfdff64701660",
        "prefetch_dev.tsv":
            "a175ed122bcbce4c82c2acd1979d3104ab9394f480fd46849ab83ed740207c46",
        "prefetch_test.tsv":
            "3ad33c99f04f7d72ebe04b5f396d5929392229ab5009f5777940c90b1adc5970",
        "prefetch_train.tsv":
            "7b43094d701cecc380780ca59a1af7d25d41a11b77319858793c88ec2985ee4b",
        "reranked_test_seed5.tsv":
            "146c900835ddada0bf5984bf4e71a0c081e2e8a2591f806ba0310a6aafe1f9f4",
        "rk_curve.csv":
            "9cd9d886ad0a7c357d922bb995e1337a19dff0b114e99859acb1b1e2ae5ab284",
        "training_log_seed5.csv":
            "55fbcf7dcf4a8145a202f0684c524dcd611b1d3135177f8aad207d40e65ca940",
        "year_hist.csv":
            "e3a2c47cd81cb0faec410fc73a511bd39aaf4ffd989b836ffbf026461b4a664d",
    },
}


def _digest(data: bytes) -> str:
    kept = b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"# manifest "))
    return hashlib.sha256(kept).hexdigest()


def write_token_vectors(root, rng: random.Random) -> None:
    """A dim-6 vector per position of each document's denoised sequence, as
    a run's default pipeline denoises it; zero at ZERO_TERMS."""
    pool = ingest_collection(root / "pool.jsonl")
    pipeline = build_pipeline(pool, stopwords=None, idf_filter=True)
    with open(root / "tokens.txt", "w") as fh:
        for doc in [*pool, *ingest_collection(root / "queries.jsonl")]:
            for i, term in enumerate(pipeline(doc.text)):
                values = ([0.0] * 6 if term in ZERO_TERMS
                          else [rng.uniform(-1.0, 1.0) for _ in range(6)])
                fh.write(f"{doc.doc_id} {i} {' '.join(map(repr, values))}\n")


def run_digests(root, name: str) -> dict[str, str]:
    (root / "hp.txt").write_text(
        "lr=0.01\nmax_epochs=2\nbatch=4\nnegatives=2\nB=6\nhidden=3\n"
        "filters=2\nkernel_sizes=2,3\nkmax=2\nq_len=10\nd_len=20\n")
    (root / f"{name}.txt").write_text(COMMON + CONFIGS[name])
    outdir = root / f"out-{name}"
    run_experiment(load_config(root / f"{name}.txt"), outdir)
    return {p.name: _digest(p.read_bytes()) for p in sorted(outdir.iterdir())
            if p.name != "manifest.json"}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_artifacts_match_their_pinned_digests(tmp_path, name):
    root = build_dataset(tmp_path, random.Random(20261019))
    write_token_vectors(root, random.Random(35))
    assert run_digests(root, name) == DIGESTS[name]
