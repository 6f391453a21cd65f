"""A short fixed pure-Python loop, run while timed work runs, tracks host speed.

The host the benchmark was built on changes speed by up to 2x within a
second, for CPU time as much as for wall time. A ``Meter`` runs the probe
loop a few times before and after the work and, through SIGALRM, every
PERIOD_S while it runs, in the process that does the work. The work's time,
less the time spent in probes, multiplied by NOMINAL_S over the mean probe
time, is the time the work would take at the speed where the probe takes
NOMINAL_S. Probes fire on a wall-clock schedule, so their mean is the
host's slowness averaged over the work. A change to socperf leaves the loop
alone, so a speed-up shows in full. Kept to the standard library's
cheapest imports because child processes import it before the work they
time.
"""

import heapq
import signal
import time

ITERATIONS = 2_000
NOMINAL_S = 0.0015
PERIOD_S = 0.05
AROUND = 3


def loop():
    heap, counts, x = [], {}, 0.0
    for i in range(ITERATIONS):
        heapq.heappush(heap, (x, i))
        x += 1.0 / (i + 1)
        counts[i & 63] = counts.get(i & 63, 0) + 1
        if len(heap) > 8:
            heapq.heappop(heap)
    return x


class Meter:
    """Probes the host's speed before, during and after a ``with`` block.

    ``spent`` is the total time spent in probes so far; a timing taken
    inside the block subtracts the probe time that fell within it
    (``elapsed``). Not reentrant: one Meter at a time per process.
    """

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _probe(self, *_):
        start = time.perf_counter()
        loop()
        took = time.perf_counter() - start
        self.probes.append(took)
        self.spent += took

    def __enter__(self):
        for _ in range(AROUND):
            self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(AROUND):
            self._probe()

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def elapsed(self, mark) -> float:
        """Seconds of work since mark, less the probes that ran in between."""
        start, spent = mark
        return time.perf_counter() - start - (self.spent - spent)

    def scale(self) -> float:
        """Factor from measured time to time at the nominal speed."""
        return scale(sum(self.probes) / len(self.probes))


def scale(probe_s: float) -> float:
    return NOMINAL_S / probe_s
