"""Host speed probe of the femchp benchmark.

On a shared host the same work can take up to twice as long from one
second to the next, because another tenant loads the physical core.  The
probe measures that: while it runs, a timer interrupts the benchmark every
``PERIOD_S`` seconds and times a fixed reference kernel (a short Python
loop over small numpy arrays and a 160 x 160 Cholesky factorisation) on
its second, warm call.  The kernel never calls femchp, so a change to
femchp cannot change it.

An interval's *normalised* duration is its wall time, less the time the
probe itself took inside it, with each moment weighted by ``REFERENCE_S``
over the kernel time measured around it: the time the interval would
have taken had the host run at the reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# seconds between two probe samples
PERIOD_S = 0.04
# the host's speed at an interval is read from the samples within this
# many seconds of it: one sample alone varies too much, and the speed
# changes over seconds, not milliseconds
WINDOW_S = 0.25
# kernel time on an unloaded core of the reference machine (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread); only
# the unit of the normalised figures depends on it, never their ratios
REFERENCE_S = 4.0e-4

_RNG = np.random.default_rng(20130201)
_ROWS = _RNG.normal(size=(48, 3))
_SPD = (lambda a: a @ a.T + 160.0 * np.eye(160))(_RNG.normal(size=(160, 160)))


def _interpreter_part() -> float:
    acc = 0.0
    for row in _ROWS:
        acc += float(np.abs(row - _ROWS[0]).max())
    return acc


def _blas_part() -> float:
    return float(np.linalg.cholesky(_SPD)[-1, -1])


def kernel() -> float:
    """The fixed reference work; returns a value so it cannot be skipped.

    About half of it is interpreter work and half a dense factorisation:
    on a loaded core the first slows more than the second, and femchp's
    workloads mix the two (grid-sweep mostly the first, newton-medium
    mostly the second).
    """
    return _interpreter_part() + _blas_part()


class SpeedProbe:
    """Samples the kernel time on a timer while entered; keeps the samples.

    After exit, each sample stands for the slice of time up to the next
    one, at the slowness ``REFERENCE_S`` times the mean of 1/kernel time
    over the samples within ``WINDOW_S`` of it; a normalised duration is
    the integral of that slowness over the interval.
    """

    def __init__(self):
        self.start: list = []
        self.end: list = []
        self.busy: list = []     # time each sample took, both calls
        self.interpreter: list = []   # time of the timed call's first part
        self._previous = None
        self._slowness = self._integral = self._busy_integral = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # the first call brings the kernel's data back into cache, so the
        # timed second call sees the core's speed, not what the program
        # last evicted
        kernel()
        t1 = time.perf_counter()
        _interpreter_part()
        t_mid = time.perf_counter()
        _blas_part()
        t2 = time.perf_counter()
        self.start.append(t1)
        self.end.append(t2)
        self.interpreter.append(t_mid - t1)
        self.busy.append(t2 - t0)

    def __enter__(self):
        kernel()   # first call pays numpy's lazy set-up
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(None, None)
        # a sample delayed past the next timer tick can be interrupted by
        # that tick's sample, which then lands first
        order = np.argsort(self.start, kind="stable")
        for name in ("start", "end", "busy", "interpreter"):
            setattr(self, name, [getattr(self, name)[k] for k in order])
        t = np.array(self.start)
        inv = np.concatenate([[0.0], np.cumsum(1.0 / np.subtract(self.end, self.start))])
        lo = np.searchsorted(t, t - WINDOW_S, side="left")
        hi = np.searchsorted(t, t + WINDOW_S, side="right")
        self._slowness = REFERENCE_S * (inv[hi] - inv[lo]) / (hi - lo)
        self._integral = np.concatenate([[0.0], np.cumsum(self._slowness[:-1] * np.diff(t))])
        self._busy_integral = np.concatenate([[0.0], np.cumsum(self._slowness * self.busy)])

    def to_json(self) -> dict:
        return {"start": self.start, "kernel_s": np.subtract(self.end, self.start).tolist(),
                "interpreter_s": self.interpreter}

    def _integrate(self, t: float) -> float:
        """Integral of the slowness from the first sample up to t."""
        i = max(bisect.bisect_right(self.start, t) - 1, 0)
        return float(self._integral[i] + (t - self.start[i]) * self._slowness[i])

    def _inside(self, t0: float, t1: float) -> tuple:
        """Index range of the samples that started within [t0, t1)."""
        return bisect.bisect_left(self.start, t0), bisect.bisect_left(self.start, t1)

    def kernel_s(self, t0: float, t1: float):
        """Mean kernel time of the samples within [t0, t1), None if there are none."""
        i, j = self._inside(t0, t1)
        return float(np.mean(np.subtract(self.end[i:j], self.start[i:j]))) if j > i else None

    def normalised_s(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1) at the reference speed, probe time excluded."""
        i, j = self._inside(t0, t1)
        busy = self._busy_integral[j] - self._busy_integral[i]
        return self._integrate(t1) - self._integrate(t0) - float(busy)
