"""regir benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a regir checkout; it imports regir from ./src. It
generates the workload's synthetic corpus for the seed (cached under
.perfbench/, generation kept out of every metric), sets the pipeline up
SETUP_REPEATS times, then measures the workload's number of passes of the
whole pipeline (run_s is their median). While
fewer than S seconds have passed since the pass began, every pre-fetched
query is fetched again, in whole rounds of a closed loop (one client). The
outputs are then checked against independent recomputations. Operations
attempted and failed are the per-query operations of the passes, a fixed
number for a workload and seed; the closed-loop rounds only re-time them.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from traced passes (as many as untraced ones, in ABBA order) and from
per-call probes, and the span trace is written to .perfbench/traces/. The
lines before it print the same metrics, their unscaled values with the
median scale factor (see speed.py), and the stage times of the stages the
workload runs, for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import CORPUS, WORKLOADS  # noqa: E402

# one client, one thread: the engine's pool and the BLAS library alike
SINGLE_THREAD = ("REGIR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS")

CACHE_KEEP = 6  # generated corpora kept under .perfbench/data

END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"),
    ("prefetch_qps", "queries/s"), ("prefetch_ms_p50", "ms"),
    ("prefetch_ms_p90", "ms"), ("prefetch_r_at_100", "ratio"),
    ("final_ndcg_at_20", "ratio"),
]

PER_LAYER = [
    ("corpus.ingest_s", "s"),
    ("text.pipeline_build_s", "s"), ("text.tokens_per_s", "tokens/s"),
    ("text.query_ms_p50", "ms"), ("text.kept_ratio", "ratio"),
    ("bm25.build_s", "s"), ("bm25.save_s", "s"), ("bm25.load_s", "s"),
    ("bm25.file_bytes", "bytes"), ("bm25.postings", "count"),
    ("bm25.score_ms_p50", "ms"), ("bm25.tune_cell_query_ms", "ms"),
    ("ranking.topk_ms_p50", "ms"), ("ranking.write_run_s", "s"),
    ("ranking.read_run_s", "s"),
    ("dense.word_vectors_load_s", "s"), ("dense.centroid_store_s", "s"),
    ("dense.store_roundtrip_s", "s"), ("dense.centroid_ms_p50", "ms"),
    ("dense.knn_ms_p50", "ms"), ("dense.docs_skipped", "count"),
    ("fusion.fuse_ms_p50", "ms"), ("fusion.tune_alpha_s", "s"),
    ("datefilter.filter_ms_p50", "ms"), ("datefilter.dropped", "count"),
    ("datefilter.short_lists", "count"),
    ("metrics.evaluate_s", "s"),
    ("features.drmm_ms_p50", "ms"), ("features.pacrr_ms_p50", "ms"),
    ("features.pairs", "count"), ("features.bytes", "bytes"),
    ("drmm.forward_ms_p50", "ms"), ("drmm.backward_ms_p50", "ms"),
    ("pacrr.forward_ms_p50", "ms"), ("pacrr.backward_ms_p50", "ms"),
    ("train.loop_s", "s"), ("train.epochs", "count"), ("train.triples", "count"),
    ("train.skipped_positives", "count"), ("train.checkpoint_save_s", "s"),
    ("train.checkpoint_load_s", "s"), ("train.checkpoint_bytes", "bytes"),
    ("trace.overhead_s", "s"), ("trace.bookkeeping_s", "s"), ("trace.spans", "count"),
    ("speed.scale", "ratio"), ("raw.setup_s", "s"), ("raw.run_s", "s"),
    ("raw.prefetch_ms_p50", "ms"), ("raw.prefetch_ms_p90", "ms"),
]


def ensure_data(root: Path, workload: str, seed: int) -> Path:
    """The generated corpus for (workload, seed), made in a child process so
    generation stays out of this process's time and peak memory. The cache
    key includes the generator's source and the workload's definition, so a
    changed generator or shape regenerates."""
    cache = root / ".perfbench" / "data"
    source = hashlib.sha256((HERE / "gen.py").read_bytes() + json.dumps(
        [CORPUS, WORKLOADS[workload]], sort_keys=True).encode())
    out = cache / f"{workload}-{seed}-{source.hexdigest()[:12]}"
    if not out.is_dir():
        cache.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(out)], cwd=root, check=True)
        old = sorted((p for p in cache.iterdir() if p.is_dir() and p != out),
                     key=lambda p: p.stat().st_mtime)
        for stale in old[:max(0, len(old) - CACHE_KEEP + 1)]:
            shutil.rmtree(stale, ignore_errors=True)
    return out


def report(args, result: dict, root: Path) -> dict:
    """Prints the metrics for a reader; returns the JSON result line."""
    ops = result["ops"]
    print(f"workload {args.workload} seed {args.seed}: {ops.attempted} operations "
          f"in the passes, {ops.failed} failed; {result['queries']} pre-fetch "
          f"queries, each latency the median of its {result['rounds']}+ rounds")
    for name, unit in END_TO_END:
        print(f"  {name:<28} {result['e2e'][name]:14.6g} {unit}")
    print("  unscaled, with the median scale factor: " + json.dumps(result["raw"]))
    for name, value in result["stages"].items():
        unit = {"rerank_qps": "queries/s", "rerank_ms_p50": "ms"}.get(name, "s")
        print(f"  stage.{name:<22} {value:14.6g} {unit}")
    for msg in result["problems"][:20] + ops.errors[:5]:
        print(msg, file=sys.stderr)
    metrics, table = result["e2e"], END_TO_END
    if args.trace:
        metrics, table = result["per_layer"], PER_LAYER
        tr = result["tracer"]
        print("  layer self time in the traced pass (s):")
        for layer, secs in tr.layer_self_times().items():
            print(f"    {layer:<12} {secs:10.4f}")
        for name, unit in PER_LAYER:
            print(f"  {name:<28} {metrics[name]:14.6g} {unit}")
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tr.write(traces / f"{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "run_s": result["run_s"], "traced_run_s": result["traced_run_s"]})
    missing = [name for name, _ in table if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": not result["problems"], "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in table}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regir benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "regir" / "__init__.py").is_file():
        print("perfbench: run from the root of a regir checkout (no src/regir here)",
              file=sys.stderr)
        return 2
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    logging.basicConfig(level=logging.ERROR)
    from measure import measure

    data = ensure_data(root, args.workload, args.seed)
    work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(data, work, args.seconds, bool(args.trace),
                         WORKLOADS[args.workload]["passes"])
        line = report(args, result, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
