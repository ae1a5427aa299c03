"""Every artifact of `regir run` on each benchmark workload's data, pinned
by its sha256.

The data is `perfbench/gen.py`'s corpus for the workload at a tenth of the
benchmark's scale and seed 3, so each run takes the paths only a benchmark
shape reaches. `eu2uk-bm25` (a 1,000-document pool, 4 dev and 30 test
queries) tunes BM25 over a real dev split and cuts 200-entry deep lists by a
pre date window, with R@k up to 200. `uk2eu-ensemble-drmm` (393 documents,
6 train, 4 dev and 12 test queries) tunes the fusion weight and trains and
re-ranks with DRMM; `uk2eu-pacrr` (4 train, 4 dev and 7 test queries) trains
and re-ranks with PACRR under a post date window. The digests are taken as
`test_pinned_artifacts.py` takes them, `# manifest` lines stripped and
`manifest.json` left out.
"""

import sys
from pathlib import Path

import pytest

from regir.experiment import load_config, run_experiment

from test_pinned_artifacts import _digest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

DIGESTS = {
    "eu2uk-bm25": {
        "bm25_grid.csv":
            "be854fc81d79a3ebcddcffea3b076320480dd95ba36fe88df5e4c8c13b9e5f2e",
        "bm25_params.json":
            "b07f78c7dde31a2ae4523e2decd5123fba5522a60548ef0ff5c2a764e88419a1",
        "eval_test.csv":
            "25e88b5a087bef579f124c1b490df85eaaa2d3ef609b45431f008512d45fdabb",
        "final_test.tsv":
            "2d0ebb376115ecb542cec6e7ac443441b9399a310eef431a5bb02177f1a7e076",
        "index.bin":
            "108bd73570da02492ec1025416c3d63c5301002d87b3c1515a479897249c8b41",
        "prefetch_test.tsv":
            "71e171fa5d12b567189e069069ede2ffef69a644ef4a39066f25060703906dd7",
        "rk_curve.csv":
            "33a6f76481c4a7f03c1caa585d219032630239f91a51fc6936758dc1171b873f",
        "year_hist.csv":
            "e9ab48d93c6f05f5021eeed9c5afd705f16325d3bcee39a913d5cfe652c8ab04",
    },
    "uk2eu-ensemble-drmm": {
        "alpha_grid.csv":
            "2560a9728de56feb5767a3b2923e4087de81a3a60f8633bca0fb71c8c3331e1e",
        "centroids.vec":
            "9b33ea0a08c4b39029865eb80cb5a77e2f91a7de49642647bbb0bb4b4c4d31ae",
        "checkpoint_seed3.bin":
            "bbcf6317e5aa3051fc5202ba2b90faae4e88078c5d4b2ec760a87de2126fea99",
        "eval_test_seed3.csv":
            "ef53c402c9939fa01c74747cc56348852a688b47d148f9bcb64b98c97d6c93fc",
        "fusion_alpha.json":
            "273dd59bd29c60d8894c8ecf2c15ca5044109d1cbd1a098592645c370637f360",
        "index.bin":
            "65cf3005c8eae78659e0dd3e741f55e6f5fbdaaa61423b5ae5d68011650368e6",
        "prefetch_dev.tsv":
            "b5654500800a399a8b1633d1658991f408efe12f41831c3fb060acc1776d37ee",
        "prefetch_test.tsv":
            "4fd8f40a25e2c49049455f2b50a19138be58dda2ea68517830daa066282e0e58",
        "prefetch_train.tsv":
            "060451c51877c53569e042be1e1b47e554cff19d99011fc9d291b52d643f8293",
        "reranked_test_seed3.tsv":
            "6aa2eb4fb460bad8c6d25a37e5a74743543027b6b4c9e98141046a259c0a6ca1",
        "rk_curve.csv":
            "6fc99a86bea6b3151ebed15e689cfe602b6ea9276b26023d1df521b82e0b325b",
        "training_log_seed3.csv":
            "fc7705a1887db6d891fa87e1abe3da81dbfb969df6dccb9984fa058f0ecad7de",
        "year_hist.csv":
            "ce2a64fc47a771452b5067f33ebb3f9d0fab11ae56d2c8c669d30bcc8b258de4",
    },
    "uk2eu-pacrr": {
        "checkpoint_seed3.bin":
            "c4598bf53edd76ac88a48e3a03c9a11bd3280f81f74b9b66f887f0d63a5604f6",
        "eval_test_seed3.csv":
            "4ea984feeed82e33e4a95dc426897077ebe42373d5a0c2f746cfac3a5ce240af",
        "index.bin":
            "212b9e072361c3c7bdaa2b28d5c6eebcd2256403230d17dd7b66992f11570e9c",
        "prefetch_dev.tsv":
            "aef722e2e4fd2ba4f177871c1b6b77ffd29a2115e6808001892a8744525bc064",
        "prefetch_test.tsv":
            "20f55ebc629035339eb5338b695f8f3cee47d2071c013633b65c84c095e2f1f1",
        "prefetch_train.tsv":
            "c451fe721dde77996f1f6694172fde2103c6eb17f2f79f4958ffc57010ec576c",
        "reranked_test_seed3.tsv":
            "f6b141a526cf11832cfb8f33f6f99faab8b0187ce71bdbad0faae906e582b995",
        "rk_curve.csv":
            "d49fb782fb253ac26d7a78f6590729a8134cb67dcfbca2dd17e20c161ba82da0",
        "training_log_seed3.csv":
            "3de84bbd5970bb9ca4701b4cdc7b04c1bc3095f98ab894a85cb9a6f5114ca039",
        "year_hist.csv":
            "dec767fe1efa0c83c237f077a35f6335b5ed55f3fae28dcad3149676051d1759",
    },
}


def workload_digests(name: str, tmp_path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(ROOT)  # the generator reads the shipped stopwords
    data = tmp_path / "data"
    gen.generate(name, 3, data, scale=0.1)
    outdir = tmp_path / "out"
    run_experiment(load_config(data / "config.txt"), outdir)
    return {p.name: _digest(p.read_bytes()) for p in sorted(outdir.iterdir())
            if p.name != "manifest.json"}


def test_eu2uk_bm25_artifacts_match_their_pinned_digests(tmp_path, monkeypatch):
    assert (workload_digests("eu2uk-bm25", tmp_path, monkeypatch)
            == DIGESTS["eu2uk-bm25"])


@pytest.mark.parametrize("name", ["uk2eu-ensemble-drmm", "uk2eu-pacrr"])
def test_uk2eu_artifacts_match_their_pinned_digests(name, tmp_path, monkeypatch):
    assert workload_digests(name, tmp_path, monkeypatch) == DIGESTS[name]
