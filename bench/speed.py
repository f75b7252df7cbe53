"""How fast the machine runs Python right now, so that timed calls can be
reported at one fixed reference speed.

On a shared host the same code runs up to 1.8 times faster or slower in
spells of a fraction of a second to minutes, as other tenants load the
shared cores, caches and memory.  A run that falls in a slow spell would
read slow on every figure.  So the benchmark times one ``reference()`` call,
a fixed piece of pure Python, every ``every`` seconds, and reports a call of
wall time w as ``w * REFERENCE_S / r``, where r is the mean of the reference
times measured just before, during and just after the call.  Samples fall
between short calls; a long call (a scan) takes them itself as it consumes
its input, and their time is taken off the call's.  ``reference()`` uses
nothing from isk4lab, so a change to the library moves the calls' times and
never r.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right

# A reference() call takes 2.2 to 4 ms on a 2-vCPU Intel Xeon VM with
# Python 3.11.7; scaled figures read as times on that VM while a call takes
# REFERENCE_S.
REFERENCE_S = 3.5e-3

_N = 11
_ADJ = [0] * _N
for _v in range(_N):
    for _d in (1, 3):
        _u = (_v + _d) % _N
        _ADJ[_v] |= 1 << _u
        _ADJ[_u] |= 1 << _v


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference() -> tuple[dict[int, int], int]:
    """Two halves of about equal time.  The first counts connected induced
    subgraphs, by size, among every third vertex set of a fixed 11-vertex
    circulant graph: bit masks, a generator, set growth and a dict, as in
    the library's subset searches.  The second builds and drops small
    records, as a scan does for every line.  The library's calls slow down
    by less than a pure loop on a shared host and by more than allocation
    alone, so the reference holds both."""
    sizes: dict[int, int] = {}
    for mask in range(1, 1 << _N, 3):
        reach = frontier = mask & -mask
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= _ADJ[v]
            frontier = grown & mask & ~reach
            reach |= frontier
        if reach == mask:
            k = mask.bit_count()
            sizes[k] = sizes.get(k, 0) + 1
    records = []
    for i in range(3000):
        records.append({"line": i, "pair": (i, i + 1), "counts": [i] * 3})
    return sizes, len(records)


class Speed:
    """Reference samples over a run, and calls scaled by them."""

    def __init__(self, every: float = 0.05):
        self.every = every
        self.at: list[float] = []    # when each sample ended
        self.took: list[float] = []  # its reference time, seconds

    def sample(self) -> None:
        """One reference() call.  The cyclic collector is off during it, as
        its cost depends on the program's heap, not the machine."""
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(end)
        self.took.append(end - start)

    def due(self) -> None:
        """Sample if the last sample is older than ``every`` seconds."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.every:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of a call from t0 to t1, less the samples it took, at
        reference speed.  Needs a sample before t0 and one after t1."""
        i, j = bisect_right(self.at, t0) - 1, bisect_left(self.at, t1)
        if i < 0 or j == len(self.at):
            raise ValueError("no reference sample on both sides of the call")
        wall = t1 - t0 - sum(self.took[i + 1:j])
        return wall * REFERENCE_S / statistics.fmean(self.took[i:j + 1])

    def ratio(self) -> float:
        """Median reference time over REFERENCE_S: above 1 on a slower
        machine or in a slower spell."""
        return statistics.median(self.took) / REFERENCE_S
