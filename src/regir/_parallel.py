"""Thread-pool helper honoring the REGIR_THREADS cap, at most one thread per
CPU.

Default is sequential execution (deterministic, no surprises); results always
come back in input order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    raw = os.environ.get("REGIR_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"REGIR_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(n, os.cpu_count() or 1))


def parallel_map(fn, items):
    """map(fn, items) -> list, fanned out over REGIR_THREADS threads."""
    items = list(items)
    n = thread_count()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
