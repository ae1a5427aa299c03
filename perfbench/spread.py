"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median), the way the
acceptance rule for BENCHMARK.json computes them.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--baseline]

Runs are sequential, from the current directory (a regir checkout root),
with BENCHMARK.json's run_seconds. The unscaled times each run prints are
summarized the same way. --baseline records both summaries as the
workload's baseline in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = (int(x) for x in raw.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in raw.split(",")]


RAW_PREFIX = "  unscaled, with the median scale factor: "


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    return out


def raw_values(stdout: str) -> dict:
    """The unscaled times and scale factor run.py prints before its result."""
    line = next(line for line in stdout.splitlines() if line.startswith(RAW_PREFIX))
    return {name: {"value": value, "unit": "s" if name.endswith("_s") else
                   "ms" if "_ms_" in name else "ratio"}
            for name, value in json.loads(line[len(RAW_PREFIX):]).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs, raws, walls = [], [], []
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - start)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        raws.append({"metrics": raw_values(proc.stdout)})
        values = " ".join(f"{v['value']:.4g}" for v in result["metrics"].values())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={walls[-1]:.1f}s  {values}")
    summary, raw_summary = summarize(runs), summarize(raws)
    print(f"{args.workload}: {len(runs)} runs, longest {max(walls):.1f} s, "
          f"{sum(walls):.0f} s in all")
    for name, s in summary.items():
        bound = bounds[name]
        flag = ("within a third of the bound" if s["spread"] <= bound / 3 else
                "within the bound" if s["spread"] <= bound else "OVER THE BOUND")
        print(f"  {name:<20} median {s['median']:12.6g} {s['unit']:<10} "
              f"spread {s['spread']:7.2%}  {flag}")
    for name, s in raw_summary.items():
        print(f"  {name:<20} median {s['median']:12.6g} {s['unit']:<10} "
              f"spread {s['spread']:7.2%}  (unscaled)")
    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text())
        doc["baseline"]["workloads"][args.workload] = {
            "seeds": seeds, "metrics": summary, "unscaled": raw_summary}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
