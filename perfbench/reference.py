"""Machine-speed reference: a fixed pure-Python workload.

On a small shared machine the speed at which the same Python code runs
drifts with the neighbours' load: by up to a factor of two over minutes
on a shared 2-core virtual machine.  The benchmark times this reference
between documents and scales each document's time by
``REFERENCE_S`` over the median of the reference times around it, which
removes the drift the two share.  The reference does what the solver
does most, exact Fraction arithmetic with tuples, dicts and a heap, and
imports nothing from ptgsolve, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from fractions import Fraction

# Nominal reference duration: scaled times read as seconds on a machine
# that runs the reference in this long (about its median on that machine).
REFERENCE_S = 0.005

_rng = random.Random(0)
_NODES = 150
_GRAPH = tuple(
    tuple((_rng.randrange(_NODES), Fraction(_rng.randint(1, 9), _rng.randint(1, 9)))
          for _ in range(6))
    for _ in range(_NODES)
)


def _shortest_paths():
    dist = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_time() -> float:
    """Seconds the reference workload takes now."""
    t0 = time.perf_counter()
    _shortest_paths()
    return time.perf_counter() - t0


def around(refs, i: int, width: int = 5) -> float:
    """Median of the reference times nearest the gap between ``refs[i]``
    and ``refs[i + 1]``: ``width`` on each side and those two.  A single
    reference time jitters more than the drift it tracks."""
    return statistics.median(refs[max(0, i - width): i + width + 2])


def scale(seconds: float, reference_s: float) -> float:
    """``seconds`` at the nominal reference speed, given the reference
    time measured around it."""
    return seconds * REFERENCE_S / reference_s
