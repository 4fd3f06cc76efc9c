"""Timings corrected for the host's speed at the time they were taken.

On a shared host the speed of a vCPU drifts: the same fixed work can take
1.7 times as long in one minute as in the next, and a timing of a few
seconds follows that drift. RefClock samples the speed while the work runs.
A SIGALRM timer interrupts the work every PERIOD_S, and the handler times a
fixed chunk that touches no part of bbcsec: half small numpy operations,
half pure-Python arithmetic and dict stores, the two kinds of work the
package does. (A pure-Python chunk alone tracked the numpy-heavy simulate
workload less well.) The work's own time (the elapsed time less the time
spent in the handler) is integrated at the speed each sample measured: an interval of the work between two samples
counts REF_CHUNK_S / (chunk time) times its length, averaged over the
samples at its two ends. The result is the work's time at the reference
speed, seconds as they would read if the chunk always took REF_CHUNK_S.
Integrating the speed, rather than dividing by the mean chunk time, weighs
fast and slow stretches of a run by how long each lasted, and a chunk
preempted for a few milliseconds changes the weight of its own intervals
only.

Single process, single thread: the handler runs in the main thread between
bytecodes, so a long C call delays the next sample but is still timed.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.01
NUMPY_STEPS = 20  # about 90 us in a tight loop on the host named below
PYTHON_STEPS = 350  # about as long again
_SMALL = np.linspace(0.1, 1.0, 16).reshape(4, 4)
# About the chunk's mean time between the timed units' steps on the 2-vCPU
# Xeon host the benchmark was written on, so scaled and raw unit times read
# alike there. (Between steps the chunk runs with caches the work has
# filled: slower than in a tight loop, and slower still during imports.)
# A fixed constant: only ratios between runs matter.
REF_CHUNK_S = 2.4e-4


def _step(x: float) -> float:
    return x * 0.5 + 1.0


def _chunk() -> float:
    acc = 0.0
    for _ in range(NUMPY_STEPS):
        m = _SMALL @ _SMALL
        acc += float((m * np.log2(m)).sum())
    table = {}
    for i in range(PYTHON_STEPS):
        acc += _step(float(i))
        table[i & 15] = acc
    return acc + len(table)


class RefClock:
    """Times the work between start() and stop() at the reference speed."""

    def __init__(self):
        self.samples = []  # (work-clock time of the sample, chunk time)
        self.spent_s = 0.0  # time spent in the handler
        self._busy = False
        self._start = self._end = None
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives while a chunk runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        _chunk()
        dt = time.perf_counter() - t0
        self.samples.append((t0 - self.spent_s, dt))
        self.spent_s += dt
        self._busy = False

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> "RefClock":
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        return self

    def __enter__(self) -> "RefClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def clock(self) -> float:
        """A timer that leaves out the handler's time, for per-call latencies."""
        return time.perf_counter() - self.spent_s

    @property
    def work_s(self) -> float:
        """Elapsed seconds between start and stop, less the handler's time."""
        return self._end - self._start - self.spent_s

    @property
    def scaled_s(self) -> float:
        """work_s at the reference speed."""
        if not self.samples:
            raise RuntimeError("work shorter than one sampling period: no speed sample")
        # interval ends on the work clock: start, each sample, stop
        ends = [self._start] + [t for t, _ in self.samples] + [self._end - self.spent_s]
        speed = [REF_CHUNK_S / dt for _, dt in self.samples]
        weights = [speed[0]] + [(a + b) / 2 for a, b in zip(speed, speed[1:])] + [speed[-1]]
        return sum((b - a) * w for a, b, w in zip(ends, ends[1:], weights))
