"""Tests for the benchmark itself.

The pipeline pass must stay pinned to `regir run`: for a small seed, its
final test run file and eval CSV are byte-identical to what run_experiment
writes for the same config, traced or not; where the pass counted a failed
query, run_experiment must fail too. A query that raises is counted as a
failed operation and the pass goes on. BENCHMARK.json names exactly the
workloads and metrics run.py reports.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stages  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from regir.experiment import load_config, run_experiment  # noqa: E402

SCALE = 0.1


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # the generator reads the shipped stopwords


def _pass(data: Path, out: Path, tr=None):
    su = stages.setup(data / "config.txt", out / "setup", Tracer(False))
    ops = stages.Ops()
    res = stages.run_pass(su, out / "pass", tr or Tracer(False), ops)
    return res, ops


# seed 28 gives the small ensemble corpus a query with no centroid
@pytest.mark.parametrize("workload,seed,fails",
                         [(name, 3, False) for name in sorted(WORKLOADS)]
                         + [("uk2eu-ensemble-drmm", 28, True)])
def test_pass_files_match_regir_run(workload, seed, fails, tmp_path):
    data = tmp_path / "data"
    gen.generate(workload, seed, data, scale=SCALE)
    res, ops = _pass(data, tmp_path / "plain")
    traced, traced_ops = _pass(data, tmp_path / "traced", Tracer(True))
    assert bool(ops.failed) == fails, ops.errors
    assert traced_ops.failed == ops.failed
    if fails:
        with pytest.raises(RuntimeError, match="cannot normalize an empty ranking"):
            run_experiment(load_config(data / "config.txt"), tmp_path / "ref")
        return
    run_experiment(load_config(data / "config.txt"), tmp_path / "ref")
    for path, traced_path in ((res.final_path, traced.final_path),
                              (res.eval_path, traced.eval_path)):
        expected = (tmp_path / "ref" / path.name).read_bytes()
        assert path.read_bytes() == expected
        assert traced_path.read_bytes() == expected


def test_generator_is_seeded(tmp_path):
    for name in ("a", "b"):
        gen.generate("uk2eu-pacrr", 3, tmp_path / name, scale=SCALE)
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


@pytest.mark.parametrize("split", ["dev", "test"])
def test_failed_query_is_counted(split, tmp_path):
    """A query with no in-vocabulary token has no centroid; the ensemble
    cannot normalize an empty list, so that query fails and the rest run,
    where run_experiment stops. A dev query fails twice: once when the
    fusion weight is tuned, once when the dev split is pre-fetched for
    training."""
    data = tmp_path / "data"
    gen.generate("uk2eu-ensemble-drmm", 3, data, scale=SCALE)
    victim = json.loads((data / "splits.json").read_text())[split][0]
    lines = (data / "queries.jsonl").read_text().splitlines()
    with open(data / "queries.jsonl", "w", encoding="utf-8") as fh:
        for line in lines:
            record = json.loads(line)
            if record["doc_id"] == victim:
                record.update(title="qqzzxx", body="qqzzxx")
            fh.write(json.dumps(record) + "\n")
    res, ops = _pass(data, tmp_path / "out")
    assert ops.failed == {"dev": 2, "test": 1}[split], ops.errors
    assert victim not in res.prefetch[split]
    assert len(res.final) == len(res.candidates["test"]) > 0
    with pytest.raises(RuntimeError, match="cannot normalize an empty ranking"):
        run_experiment(load_config(data / "config.txt"), tmp_path / "ref")


def test_speed_clock_scales_between_ticks_and_skips_the_kernel():
    clock = speed.SpeedClock()
    ref = speed.REFERENCE_S
    # kernel runs at [0, 1) and [10, 11), both at half the reference speed
    clock._starts, clock._ends, clock._kernel_s = [0.0, 10.0], [1.0, 11.0], [2 * ref] * 2
    assert clock.scaled(2.0, 4.0) == pytest.approx(1.0)
    assert clock.scaled(0.0, 11.0) == pytest.approx(4.5)
    assert clock.scaled(11.0, 13.0) == pytest.approx(1.0)
    clock._kernel_s = [ref, 3 * ref]  # the speed between ticks is their mean
    assert clock.scaled(1.0, 10.0) == pytest.approx(4.5)


def test_benchmark_json_matches_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert bench["paths"] == ["perfbench"]
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert list(baseline["layer_map"]) == [name for name, _ in run.PER_LAYER]
