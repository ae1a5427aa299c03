"""Timings at a reference machine speed.

On a shared host the same work can take twice as long from one minute to
the next, because other tenants contend for the cores and caches; process
CPU time swings with it, so it is no cure. The benchmark therefore runs a
small fixed calibration kernel (regex tokenizing and dict counting, a NumPy
scatter-add, a gather from an array larger than the caches and a lexsort
over string ids: the kinds of work regir does) at operation and stage
boundaries, and converts each measured interval to the time it would have
taken at the speed where the kernel takes REFERENCE_S. Each stretch of the
interval between two kernel runs is scaled by the kernel times at its two
ends; time spent in the kernel itself is left out.

The kernel shares the process with regir, so it is built to depend as
little on regir's state as a kernel in the same process can. It keeps no
allocation (counts, scatter and gather targets are preallocated and reused;
its few temporaries are freed before it returns), it runs with the garbage
collector off, so regir's heap never makes it collect, and it runs twice
per tick with only the second run timed, so its data is back in the caches
before the timing starts, whatever regir evicted. What it still shares with
regir is the host: the cores, caches and memory bandwidth that other
tenants contend for too, which is what it is meant to measure. Each run
prints its raw times and the median scale factor next to the scaled ones,
so how far the scaling moved a figure can be checked. In one check on a
2-core shared Linux container, a 16 MiB memory sweep added to every BM25
scoring call raised eu2uk-bm25's pre-fetch p50 by 67% raw and by 61%
scaled (medians over three seeds).
"""

from __future__ import annotations

import bisect
import gc
import re
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3  # the timed kernel run's time on the reference machine

_TEXT = " ".join(f"w{i * 7919 % 1000}x" for i in range(500))
_WORD = re.compile(r"\w+")
_COUNTS = dict.fromkeys(_WORD.findall(_TEXT), 0)
_IDX = (np.arange(8000) * 7919) % 5000
_ACC = np.zeros(5000)
_NEG = np.zeros(1000)
_BIG = np.arange(1 << 20, dtype=np.float64)           # 8 MiB, beyond the caches
_GATHER = (np.arange(8000) * 104729) % (1 << 20)
_GATHERED = np.zeros(len(_GATHER))
_IDS = np.array([f"d{i * 7919 % 1000:06d}" for i in range(1000)], dtype=object)


def _kernel() -> float:
    counts = _COUNTS
    for word in counts:
        counts[word] = 0
    for word in _WORD.findall(_TEXT):
        counts[word] += 1
    _ACC.fill(0.0)
    np.add.at(_ACC, _IDX, 1.0)
    np.negative(_ACC[:1000], out=_NEG)
    first = int(np.lexsort((_IDS, _NEG))[0])
    np.take(_BIG, _GATHER, out=_GATHERED)
    return float(_ACC[0]) + float(_GATHERED[-1]) + first


class SpeedClock:
    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._kernel_s: list[float] = []

    def tick(self, min_gap: float = 0.0) -> None:
        """Time the kernel now, unless the last run ended less than min_gap
        seconds ago."""
        start = time.perf_counter()
        if self._ends and start - self._ends[-1] < min_gap:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel()  # warms the caches for the timed run
            mid = time.perf_counter()
            _kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._starts.append(start)
        self._ends.append(end)
        self._kernel_s.append(end - mid)

    def scale(self) -> float:
        """The median factor from raw to reference-speed time."""
        return REFERENCE_S / statistics.median(self._kernel_s)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end) at reference speed, kernel runs excluded.
        A stretch with a tick on one side only uses that tick's speed."""
        n = len(self._starts)
        if n == 0:
            raise RuntimeError("no calibration tick recorded")
        i = bisect.bisect_right(self._starts, start) - 1  # last tick before start
        total, cursor = 0.0, start if i < 0 else max(start, self._ends[i])
        while True:
            j = i + 1  # the next tick, which ends this stretch
            stop = min(end, self._starts[j]) if j < n else end
            k_lo = self._kernel_s[max(i, 0)] if i >= 0 else self._kernel_s[0]
            k_hi = self._kernel_s[j] if j < n else self._kernel_s[n - 1]
            if stop > cursor:
                total += (stop - cursor) * REFERENCE_S / ((k_lo + k_hi) / 2)
            if j >= n or self._starts[j] >= end:
                return total
            cursor = max(cursor, self._ends[j])
            i = j
