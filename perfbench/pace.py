"""Host-speed sampling inside a child, to take CPU drift out of its timings.

The benchmark shares a host whose CPU speed drifts by 10-30 % over tens
of seconds, so the same run a few minutes apart differs by more than any
change worth measuring, and no run length averages the drift away.  The
child therefore samples the host's speed while it runs: every PERIOD_S a
SIGALRM handler times one fixed chunk of interpreter and small-NumPy
work (the same mix llab spends its time in).  A measured interval is then
reported net of the handler's own time and scaled by the mean of
REFERENCE_CHUNK_S / chunk time over the samples taken in it: the time the
interval would have taken on the host at its reference speed.

On a 2-vCPU VM, over ten runs of `verify-identities` with other seeds,
the raw wall time spread 34 % (quartiles over median) and the scaled one
5.4 %.  The sampling costs about 1 % of the run.

The signals move where llab's large arrays land, and with that
hyperbolic's peak RSS (410, 420 or 460 MB at random, even with a handler
that does no work), so peak RSS is taken from a child without sampling.

The handler runs on the main thread between bytecodes, so it only
measures the host when llab runs single-threaded (LLAB_THREADS=1); with
more threads it would also time the wait for the GIL.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# the scale of the reported times, not a tolerance: on a 2-vCPU VM
# (Python 3.11, NumPy 2.4, one BLAS thread) the chunk took 0.41 ms when
# the host was quiet and 0.55-0.6 ms typically
REFERENCE_CHUNK_S = 0.0005
NEAR = 8  # samples around a short interval that set its scale
MIN_SAMPLES = 8  # an interval with fewer is topped up by samples right after it
CAPACITY = 8192  # samples a child can hold: 400 s at PERIOD_S

_A = np.random.default_rng(0).standard_normal((16, 16))
_B = np.empty_like(_A)
_C = np.empty_like(_A)


def reference_chunk() -> None:
    """Fixed interpreter and small-NumPy work that allocates no memory
    outside Python's small-object allocator, so that it leaves llab's
    heap as it found it."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    np.copyto(_B, _A)
    for _ in range(40):
        np.matmul(_B, _B, out=_C)
        np.abs(_C, out=_B)
        np.divide(_C, _B.max(), out=_B)


class Sampler:
    """Times reference_chunk every PERIOD_S of wall time while started.

    `starts` and `durations` hold the samples on the time.monotonic()
    clock and `busy_s` the handler time so far, so that an interval can
    be taken net of the sampling.  Both are allocated up front and filled
    in place, for the reason given in reference_chunk, and hold floats,
    which the garbage collector does not track.
    """

    def __init__(self):
        self._starts = [0.0] * CAPACITY
        self._durations = [0.0] * CAPACITY
        self.count = 0
        self.busy_s = 0.0

    @property
    def starts(self) -> list[float]:
        return self._starts[: self.count]

    @property
    def durations(self) -> list[float]:
        return self._durations[: self.count]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        if self.count == CAPACITY:
            return
        t0 = time.monotonic()
        reference_chunk()
        dt = time.monotonic() - t0
        self._starts[self.count] = t0
        self._durations[self.count] = dt
        self.count += 1
        self.busy_s += dt

    def _tick(self, signum, frame) -> None:
        # no collection may start inside the handler: that would move
        # llab's own collections
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.sample()
        finally:
            if enabled:
                gc.enable()

    def factor_near(self, t0: float, t1: float) -> float:
        """Mean speed relative to the reference over the NEAR samples
        taken closest to the middle of [t0, t1]."""
        starts = self.starts
        i = bisect.bisect_left(starts, 0.5 * (t0 + t1))
        lo = max(0, min(i - NEAR // 2, len(starts) - NEAR))
        return statistics.fmean(REFERENCE_CHUNK_S / dt for dt in self.durations[lo:lo + NEAR])

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed relative to the reference over samples in [t0, t1].

        An interval too short to hold MIN_SAMPLES is topped up with
        samples taken now, right after it.
        """
        inside = [dt for t, dt in zip(self.starts, self.durations) if t0 <= t <= t1]
        while len(inside) < MIN_SAMPLES and self.count < CAPACITY:
            self.sample()
            inside.append(self.durations[-1])
        return statistics.fmean(REFERENCE_CHUNK_S / dt for dt in inside)
