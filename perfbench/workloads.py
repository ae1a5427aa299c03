"""The benchmark's workloads, read from baseline.json, their one source: the
corpus shape, experiment config and re-ranker hyperparameters of each, and
the length figures all corpora share (with where each figure comes from).

Every workload is a closed loop: one process, one client, REGIR_THREADS=1.
"""

from __future__ import annotations

import json
from pathlib import Path

SETUP_REPEATS = 3

_DOC = json.loads((Path(__file__).resolve().parent / "baseline.json")
                  .read_text(encoding="utf-8"))
CORPUS = _DOC["corpus"]
WORKLOADS = _DOC["workloads"]


def config_text(name: str, seed: int) -> str:
    """The `regir run` config for a workload, relative to its data dir."""
    lines = [f"seed = {seed}", "data.pool = pool.jsonl",
             "data.queries = queries.jsonl", "data.qrels = qrels.tsv",
             "data.splits = splits.json"]
    lines += [f"{k} = {v}" for k, v in WORKLOADS[name]["config"].items()]
    return "\n".join(lines) + "\n"


def hyperparams_text(name: str) -> str | None:
    hp = WORKLOADS[name]["hyperparams"]
    if hp is None:
        return None
    return "".join(f"{k} = {v}\n" for k, v in hp.items())
