"""One measured run: setup repeated, the pipeline passes, a closed pre-fetch
loop filling the measuring window, the checks, and the metrics."""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from pathlib import Path

import checks
import probes
import stages
from regir.rerank.train import Hyperparams, sample_triples
from speed import SpeedClock
from tracing import Tracer
from workloads import SETUP_REPEATS

# per-layer metrics read off the setup spans (median over the repeats)
SETUP_SPANS = ("corpus.ingest", "text.pipeline_build", "bm25.build", "bm25.save",
               "bm25.load", "dense.word_vectors_load", "dense.centroid_store",
               "dense.store_roundtrip")


MIN_ROUNDS = 4  # closed-loop rounds after the passes, whatever the window


def quantile(values, q: float) -> float:
    """The q-quantile with statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def pass_order(passes: int, trace: bool) -> list[bool]:
    """The passes to make, True for a traced one. An untraced run makes
    `passes` untraced passes. A traced run makes `passes` of each, in ABBA
    order, so that with two or more a drift in speed over the run falls on
    both alike. (Two of each would take a re-ranking workload's traced run
    past three minutes on a slow host.)"""
    if not trace:
        return [False] * passes
    return [traced for i in range(passes)
            for traced in ((False, True) if i % 2 == 0 else (True, False))]


def measure(data: Path, work: Path, seconds: float, trace: bool, passes: int) -> dict:
    """Returns the end-to-end metrics (e2e), their raw values with the
    median scale factor (raw), the stage times of the first pass (stages),
    ops, problems and, when traced, per_layer. run_s is the median over the
    untraced passes. Times in e2e and stages are at reference speed (see
    speed.py); raw times are not."""
    clock = SpeedClock()
    setup_iv, setup_tracers = [], []
    su = None
    for i in range(SETUP_REPEATS):
        su = None
        gc.collect()
        tr = Tracer(trace)
        clock.tick()
        start = time.perf_counter()
        su = stages.setup(data / "config.txt", work / f"setup{i}", tr, clock.tick)
        setup_iv.append((start, time.perf_counter()))
        setup_tracers.append(tr)

    off = Tracer(False)
    ops = stages.Ops(clock)
    problems = []
    gc.collect()  # setup's garbage is setup's cost
    window_start = time.perf_counter()
    pass_iv, traced_iv = [], []
    res = traced = tr = None
    for i, is_traced in enumerate(pass_order(passes, trace)):
        pass_tr = Tracer(is_traced)
        start = time.perf_counter()
        again = stages.run_pass(su, work / f"pass{i}", pass_tr, ops)
        (traced_iv if is_traced else pass_iv).append((start, time.perf_counter()))
        if is_traced and traced is None:
            traced, tr = again, pass_tr  # the per-layer metrics' pass
        if res is None:
            res = again
            continue
        if again.final != res.final:
            problems.append(f"pass {i}: the final run differs from the first pass")
        if not is_traced:
            for qid, intervals in again.prefetch_s.items():
                res.prefetch_s[qid] += intervals
    # closed loop: whole rounds over the pre-fetched queries while the
    # measuring window lasts, and at least MIN_ROUNDS of them where the
    # passes fill the window; a query's latency is the median of its rounds.
    # The rounds repeat operations the passes already made, so they are not
    # counted in ops: attempted and failed stay fixed for a seed, whatever
    # the host's speed. A repeat that raises or differs is a wrong output.
    repeats = stages.Ops(clock)
    fetched = [(split, q) for split, run in res.prefetch.items() for q in run]
    rounds = 0
    while time.perf_counter() - window_start < seconds or rounds < MIN_ROUNDS:
        rounds += 1
        for split, qid in fetched:
            out = repeats.run(res.prefetch_s[qid], stages.prefetch_one, su, res, off, qid)
            if out is not None and out[0] != res.prefetch[split][qid]:
                problems.append(f"{qid}: a repeated pre-fetch differs")
    if repeats.failed:
        problems.append(f"{repeats.failed} repeated pre-fetches raised where "
                        "the pass succeeded")
        problems += repeats.errors[:5]
    clock.tick()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scaled(intervals):
        return [clock.scaled(a, b) for a, b in intervals]

    def raw(intervals):
        return [b - a for a, b in intervals]

    prefetch_s = [statistics.median(scaled(res.prefetch_s[q])) for _, q in fetched]
    raw_prefetch_s = [statistics.median(raw(res.prefetch_s[q])) for _, q in fetched]
    run_s = statistics.median(scaled(pass_iv))
    found, counted = checks.check_pass(su, res, stages.components(su.cfg))
    problems += found
    out = {"ops": ops, "problems": problems,
           "queries": len(fetched),
           "rounds": min(len(res.prefetch_s[q]) for _, q in fetched),
           "e2e": {
               "setup_s": statistics.median(scaled(setup_iv)),
               "run_s": run_s,
               "peak_rss_mb": peak_rss_mb,
               "prefetch_qps": len(prefetch_s) / sum(prefetch_s),
               "prefetch_ms_p50": 1e3 * statistics.median(prefetch_s),
               "prefetch_ms_p90": 1e3 * quantile(prefetch_s, 0.9),
               "prefetch_r_at_100": counted["r_at_100"],
               "final_ndcg_at_20": counted["ndcg"],
           },
           "raw": {
               "speed.scale": clock.scale(),
               "raw.setup_s": statistics.median(raw(setup_iv)),
               "raw.run_s": statistics.median(raw(pass_iv)),
               "raw.prefetch_ms_p50": 1e3 * statistics.median(raw_prefetch_s),
               "raw.prefetch_ms_p90": 1e3 * quantile(raw_prefetch_s, 0.9),
           },
           "stages": {f"{name}_s": sum(scaled(iv)) for name, iv in res.stages.items()}}
    if res.rerank_s:
        rerank_s = scaled(res.rerank_s)
        out["stages"]["rerank_qps"] = len(rerank_s) / sum(rerank_s)
        out["stages"]["rerank_ms_p50"] = 1e3 * statistics.median(rerank_s)
    if trace:
        traced_run_s = statistics.median(scaled(traced_iv))
        out["per_layer"] = per_layer(su, res, traced, tr, setup_tracers, counted,
                                     data, work)
        out["per_layer"].update(out["raw"])
        out["per_layer"]["trace.overhead_s"] = traced_run_s - run_s
        out["per_layer"]["trace.bookkeeping_s"] = tr.bookkeeping_s
        out["tracer"] = tr
        out["run_s"], out["traced_run_s"] = run_s, traced_run_s
    return out


def per_layer(su, res, traced, tr, setup_tracers, counted, data, work) -> dict:
    """Probe timings first; values from the setup spans and the traced pass
    replace them where the workload itself runs that layer."""
    metrics = probes.run_probes(su, res, data, work)
    for name in SETUP_SPANS:
        if any(span[0] == name for span in setup_tracers[-1].spans):
            metrics[f"{name}_s"] = statistics.median(t.total(name) for t in setup_tracers)
    metrics["text.tokens_per_s"] = counted["raw_tokens"] / metrics["text.pipeline_build_s"]
    metrics["text.kept_ratio"] = counted["kept_tokens"] / counted["raw_tokens"]
    metrics["bm25.file_bytes"] = su.index_bytes
    metrics["bm25.postings"] = counted["postings"]
    if su.cent_store is not None:
        metrics["dense.docs_skipped"] = len(su.pool) - len(su.cent_store)
    metrics["datefilter.dropped"] = counted["dropped"]
    metrics["datefilter.short_lists"] = counted["short"]
    self_s = tr.self_times()
    metrics["ranking.write_run_s"] = tr.total("ranking.write_run")
    metrics["metrics.evaluate_s"] = tr.layer_self_times()["metrics"]
    if "fusion.tune_alpha" in self_s:
        metrics["fusion.tune_alpha_s"] = tr.total("fusion.tune_alpha")
    if "ranking.read_run" in self_s:
        metrics["ranking.read_run_s"] = tr.total("ranking.read_run")
    metrics["features.pairs"] = traced.feature_pairs
    metrics["features.bytes"] = traced.feature_bytes
    metrics.update({"train.epochs": 0, "train.triples": 0, "train.skipped_positives": 0})
    if traced.train is not None:
        cfg = su.cfg
        hp = Hyperparams.from_file(cfg.rerank_hyperparams_path)
        cands = {**traced.candidates["train"], **traced.candidates["dev"]}
        # the same draw train_model makes first from its seeded generator
        triples, _ = sample_triples([q for q in su.splits.train_ids if q in cands],
                                    su.qrels, cands, hp.negatives,
                                    random.Random(cfg.rerank_seeds[0]))
        metrics["train.loop_s"] = self_s["rerank.train_model"]
        metrics["train.checkpoint_save_s"] = tr.total("rerank.checkpoint_save")
        metrics["train.epochs"] = len(traced.train.log_rows)
        metrics["train.triples"] = len(triples)
        metrics["train.skipped_positives"] = traced.train.skipped_positives
    metrics["trace.spans"] = len(tr.spans)
    return metrics
