"""Host speed, sampled while the benchmark runs, to put times in reference seconds.

A shared VM runs the same code up to twice as slowly for spells of a tenth
of a second to tens of seconds.  So while a span is timed, a wall-clock
timer (SIGALRM, every `INTERVAL` seconds) interrupts the process and times
`reference_kernel()`, a fixed piece of plain Python with none of the
library's code.  A span's processor time, less the samples taken inside
it, is then scaled by how fast the kernel ran meanwhile:

    reference seconds = (cpu - sampled) * mean(REF_SECONDS / kernel time)

The mean runs over the samples taken during the span, or over the
`MIN_SAMPLES` samples nearest its middle when it had fewer.  Samples are
even in wall time, so this mean of speeds weights each stretch of the span
by its length.  A library change leaves the kernel alone and so shows in
full; a slow spell slows the kernel and the library alike and cancels out.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter, process_time

INTERVAL = 0.01
MIN_SAMPLES = 3
# Processor seconds of one kernel call on the scale times are reported in:
# about its time, called from the timer, on the 2.1 GHz Xeon VM where the
# benchmark was defined, so that reference and processor seconds agree there.
REF_SECONDS = 0.00035
REF_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))


def reference_kernel():
    """Rank and nullity of every subset of 7 edges on 5 vertices, by union-find.

    Plain Python with the library's mix of small loops, lists, tuples and
    dict updates.  Returns the processor seconds it took.
    """
    start = process_time()
    counts = {}
    for mask in range(1 << len(REF_EDGES)):
        parent = list(range(5))
        rank = 0
        for i, (u, v) in enumerate(REF_EDGES):
            if mask >> i & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    rank += 1
        key = (rank, bin(mask).count("1") - rank)
        counts[key] = counts.get(key, 0) + 1
    elapsed = process_time() - start
    if sum(counts.values()) != 1 << len(REF_EDGES):
        raise AssertionError("reference kernel miscounted")
    return elapsed


class Sampler:
    """Times the reference kernel every INTERVAL wall seconds while active.

    Use as a context manager around the timed spans, then convert each span
    with `scale()`.  Samples accumulate over every activation.
    """

    def __init__(self):
        self.stamps = []   # wall time of each sample, increasing
        self.costs = []    # processor seconds of each sample's kernel
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        stamp = perf_counter()
        cost = reference_kernel()
        if cost > 0:
            self.stamps.append(stamp)
            self.costs.append(cost)

    def scale(self, start, end, cpu):
        """Reference seconds of a span: wall start and end, processor time."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        inside = self.costs[lo:hi]
        if len(inside) >= MIN_SAMPLES:
            speeds = inside
        else:
            middle = (start + end) / 2
            near = range(max(0, lo - MIN_SAMPLES), min(len(self.stamps),
                                                       hi + MIN_SAMPLES))
            near = sorted(near, key=lambda k: abs(self.stamps[k] - middle))
            speeds = [self.costs[k] for k in near[:MIN_SAMPLES]]
        if not speeds:
            raise RuntimeError("no host speed samples")
        factor = sum(REF_SECONDS / c for c in speeds) / len(speeds)
        return (cpu - sum(inside)) * factor
