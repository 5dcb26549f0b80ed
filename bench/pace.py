"""The machine's speed, sampled while a plain run measures.

The shared machine's speed drifts: a fixed pure-Python loop runs up to 1.7
times slower in some stretches than in others, the stretches last from under
a second to 30 s, and CPU time drifts with wall time.  So while a plain run
measures, a timer signal makes the main thread run one short pass of a fixed
reference loop every INTERVAL_S, and a span's wall time is rescaled to the
speed at which one pass takes REF_PASS_S.  The handler runs between two
bytecodes of whatever the main thread is doing, on the same CPU, so it sees the
speed the op sees; its own time is taken out of every span it lands in.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_PASS_S = 0.002
INTERVAL_S = 0.1
# a span with fewer passes inside it is rescaled by the passes nearest to it
MIN_PASSES = 3


def reference_pass() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


class Pace:
    """Samples the speed from a SIGALRM timer while entered."""

    def __init__(self):
        self.ticks = []  # (start, seconds) of each reference pass

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_pass()
        self.ticks.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def own_seconds(self, t0: float, t1: float) -> float:
        """Wall seconds from t0 to t1 less the passes run inside them."""
        return (t1 - t0) - sum(d for s, d in self.ticks if t0 <= s < t1)

    def pass_seconds(self, t0: float, t1: float) -> float:
        """Median pass time from t0 to t1, or of the MIN_PASSES passes
        nearest to that span if it holds fewer."""
        inside = [d for s, d in self.ticks if t0 <= s < t1]
        if len(inside) < MIN_PASSES:
            mid = (t0 + t1) / 2.0
            nearest = sorted(self.ticks, key=lambda tick: abs(tick[0] - mid))
            inside = [d for s, d in nearest[:MIN_PASSES]]
        return statistics.median(inside)

    def at_reference(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of work done from t0 to t1, at reference speed."""
        return seconds * REF_PASS_S / self.pass_seconds(t0, t1)

    def time_at_reference(self, fn) -> float:
        """Seconds that ``fn()`` takes, at reference speed.  MIN_PASSES passes
        run right before and after it, so that a short call has passes next to
        it on the same CPU."""
        for _ in range(MIN_PASSES):
            self._tick(None, None)
        t0 = perf_counter()
        fn()
        t1 = perf_counter()
        for _ in range(MIN_PASSES):
            self._tick(None, None)
        return self.at_reference(self.own_seconds(t0, t1), t0, t1)
