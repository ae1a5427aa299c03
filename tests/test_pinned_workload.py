"""Every artifact of `regir run` on the benchmark's `eu2uk-bm25` data, pinned
by its sha256.

The data is `perfbench/gen.py`'s corpus at a tenth of the benchmark's scale
(seed 3: a 1,000-document pool, 4 dev and 30 test queries), so the run takes
the paths only a benchmark shape reaches: tuning over a real dev split,
200-entry deep lists cut by a pre date window, and R@k up to 200. The digests
are taken as `test_pinned_artifacts.py` takes them, `# manifest` lines
stripped and `manifest.json` left out.
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
}


@pytest.fixture
def data(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the generator reads the shipped stopwords
    out = tmp_path / "data"
    gen.generate("eu2uk-bm25", 3, out, scale=0.1)
    return out


def test_eu2uk_bm25_artifacts_match_their_pinned_digests(data, tmp_path):
    outdir = tmp_path / "out"
    run_experiment(load_config(data / "config.txt"), outdir)
    got = {p.name: _digest(p.read_bytes()) for p in sorted(outdir.iterdir())
           if p.name != "manifest.json"}
    assert got == DIGESTS
