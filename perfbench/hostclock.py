"""Wall time rescaled to a reference host speed.

A shared virtual CPU does not run at one speed: the same fixed piece of work
can take 1.6 times as long for a few seconds and then speed up again, and
each vCPU changes on its own.  Over a run of tens of seconds that moves a raw
wall time by more than the changes a benchmark should resolve.

`HostClock` interleaves a short fixed calibration kernel with the measured
code, about every `PERIOD_S` seconds of it, in the same thread.  Each stretch
of measured code between two calibrations is rescaled by the ratio of the
kernel's reference time `KERNEL_REF_S` to its time measured at the two ends
of the stretch, so the sum reads as the wall time on a host that runs the
kernel in `KERNEL_REF_S`.  Time spent in the kernel itself is left out of
both the raw and the rescaled time.  The kernel mixes interpreter work with
numpy operations on small arrays, as the simulator's step loop does.
"""

from __future__ import annotations

import time

import numpy as np

PERIOD_S = 0.1
KERNEL_REF_S = 5e-4  # a fixed constant, so rescaled times compare across runs
KERNEL_REPS = 3  # the kernel's time is the fastest of this many repeats

_ARRAY = np.linspace(0.0, 1.0, 512)


def _kernel() -> float:
    a = _ARRAY
    s = 0.0
    for i in range(48):
        b = np.cumsum(a)
        b *= 0.5
        b += a
        s += float(b[i])
        for j in range(24):
            s += j * 0.5
    return s


class HostClock:
    def __init__(self):
        self.marks: list = []  # (start, duration) of every calibration
        self._next = 0.0

    def calibrate(self) -> float:
        """Time the kernel now; returns its time."""
        clock = time.perf_counter
        start = clock()
        best = float("inf")
        for _ in range(KERNEL_REPS):
            t0 = clock()
            _kernel()
            best = min(best, clock() - t0)
        end = clock()
        self.marks.append((start, end, best))
        self._next = end + PERIOD_S
        return best

    def ticking(self, fn):
        """fn wrapped so that a call made after the period has elapsed
        calibrates first."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if clock() >= self._next:
                self.calibrate()
            return fn(*args, **kwargs)

        return wrapper

    def measure(self, fn, *args):
        """Call fn(*args) between two calibrations; returns (raw seconds,
        rescaled seconds, fn's return value).  Calibrations made by `ticking`
        wrappers during the call split it into stretches."""
        first = len(self.marks)
        self.calibrate()
        ret = fn(*args)
        self.calibrate()
        raw = scaled = 0.0
        marks = self.marks[first:]
        for (_s0, e0, k0), (s1, _e1, k1) in zip(marks, marks[1:]):
            stretch = s1 - e0
            raw += stretch
            scaled += stretch * KERNEL_REF_S / (0.5 * (k0 + k1))
        return raw, scaled, ret
