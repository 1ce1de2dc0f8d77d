"""Reference work that measures the machine's speed while a pass runs.

Wall time on a shared machine drifts by tens of percent within minutes, and
the drift moves the benchmark's figures as much as a real change would.  So
the worker also times a small fixed piece of pure-Python graph work (bitmask
independent sets, BFS rows, dict and tuple churn: the same kind of work as
the solver's) every SAMPLE_EVERY_S, from a SIGALRM handler.  The code is
written here and shares nothing with packcrit, so no change to the program
can change its speed; only the machine can.  The reported figures are
scaled by REFERENCE_S over the reference work's median time during each
item, that is, they are seconds on a machine where the reference work takes
REFERENCE_S.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.02
# Median time of one reference_work() call that the figures are scaled to.
REFERENCE_S = 0.0004


def _graph(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def _mis(adj: list[int], mask: int, memo: dict[int, int]) -> int:
    if not mask:
        return 0
    hit = memo.get(mask)
    if hit is not None:
        return hit
    v = (mask & -mask).bit_length() - 1
    best = _mis(adj, mask & ~(1 << v), memo)
    best = max(best, 1 + _mis(adj, mask & ~(adj[v] | (1 << v)), memo))
    memo[mask] = best
    return best


def _bfs_rows(adj: list[int]) -> tuple:
    rows = []
    for s in range(len(adj)):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                m = adj[u]
                while m:
                    b = m & -m
                    w = b.bit_length() - 1
                    m ^= b
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(tuple(sorted(dist.items())))
    return tuple(rows)


def reference_work(seed: int) -> int:
    rng = random.Random(seed)
    adj = _graph(rng, 16, 0.25)
    rows = _bfs_rows(adj)
    return _mis(adj, (1 << 16) - 1, {}) + len({r[-1] for r in rows})


class SpeedSampler:
    """Times reference_work() now and then while the workload runs.

    ``take()`` samples on demand; between ``start()`` and ``stop()`` a timer
    samples every SAMPLE_EVERY_S.  ``handler_s`` is the time spent in the
    timer's handler, which the caller subtracts from what it measures.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def take(self) -> None:
        t0 = time.perf_counter()
        reference_work(len(self.samples) % 8)
        self.samples.append(time.perf_counter() - t0)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.take()
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        # The handler stays installed, so an alarm already on its way is
        # still taken as a sample rather than killing the process.
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale_since(self, first: int) -> float:
        """REFERENCE_S over the median sample from index ``first`` on."""
        return REFERENCE_S / statistics.median(self.samples[first:])
