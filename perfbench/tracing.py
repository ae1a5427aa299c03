"""In-memory spans and counts recorded around the benchmark's calls into regir.

A span has a name (``layer.operation``), start and end on
``time.perf_counter``, the index of the span that was open when it started,
and an optional request id (a query id, or a query/doc pair). A layer's self
time is the time its spans cover minus the time their child spans cover.
The tracer's own time outside its spans (opening and closing them) is summed
in ``bookkeeping_s``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._null = nullcontext()
        self.bookkeeping_s = 0.0

    def span(self, name: str, request=None):
        if not self.enabled:
            return self._null
        return self._span(name, request, time.perf_counter())

    @contextmanager
    def _span(self, name: str, request, called: float):
        record = [name, 0.0, None, self._open[-1] if self._open else -1, request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = start = time.perf_counter()
        self.bookkeeping_s += start - called
        try:
            yield
        finally:
            record[2] = end = time.perf_counter()
            self._open.pop()
            self.bookkeeping_s += time.perf_counter() - end

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_times().items():
            out[name.split(".")[0]] += secs
        return dict(sorted(out.items()))

    def write(self, path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [{"name": n, "start": s - t0, "end": e - t0,
                       "parent": p, "request": r}
                      for n, s, e, p, r in self.spans],
            "counts": dict(self.counts),
            "self_s": self.self_times(),
            "layer_self_s": self.layer_self_times(),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
