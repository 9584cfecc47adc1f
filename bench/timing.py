"""Times at the machine's reference speed.

The cores of the machine this benchmark was written on switch between a
fast and a slow state, about 1.7x apart, for periods from a fraction of a
second to minutes; the switching comes from outside the process (it shows
in CPU time as much as in wall time, and on either core).  The same round
of work then reads 10 s in one run and 15 s in the next, which hides any
change smaller than half.

So while a round runs, a timer signal samples the speed every
SAMPLE_INTERVAL_S: a fixed calibration kernel of numpy and Python work that
shares no code with normlab, run twice, fastest kept.  Each timed call into
normlab is scaled by REF_KERNEL_S over the mean kernel time sampled while it
ran (for a call shorter than the interval, the samples on either side of
it): the time the call would take with the kernel at its reference time.
The time spent sampling is taken out of the call's raw time first.  A
change to normlab leaves the kernel alone, so a faster normlab reads
faster; a slow machine state stretches both and cancels.  Raw wall times
are kept next to the scaled ones in the run record.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# the kernel's time in the fast state of a 2-core Xeon at 2.0 GHz
# (Python 3.11.7, numpy 2.4.6), measured as the lowest of many probes
REF_KERNEL_S = 1.4e-3
SAMPLE_INTERVAL_S = 0.1

_X = np.linspace(-1.0, 1.0, 64)
_TH = np.linspace(0.0, 2.0 * math.pi, 2048)


def _kernel() -> float:
    s = 0.0
    for i in range(28):
        a = np.abs(_X * (1.0 + i))
        m = float(a.max())
        s += m * float(np.sum((a / m) ** 1.5)) ** (1.0 / 1.5)
        c = np.cos(_TH + i)
        s += float(np.max(np.sign(c) * np.abs(c) ** 0.8))
        s += math.fsum(v * 0.5 for v in range(30))
    return s


def probe() -> float:
    """Seconds of one kernel run, the faster of two."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Samples the machine's speed and times calls into normlab.

    Used as a context manager around a round.  With `periodic` the samples
    come from SIGALRM every SAMPLE_INTERVAL_S; without it (the traced run,
    whose span records a signal must not interleave with) from the end of
    every timed call.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.sample_t: list[float] = []
        self.sample_k: list[float] = []
        self.probe_s = 0.0  # raw seconds spent sampling
        probe()  # the first run pays numpy's lazy set-up

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        k = probe()
        t1 = time.perf_counter()
        self.sample_t.append(0.5 * (t0 + t1))
        self.sample_k.append(k)
        self.probe_s += t1 - t0

    def __enter__(self):
        self.sample()
        if self.periodic:
            self._handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
        self.sample()
        return False

    def time(self, fn, *args, **kwargs):
        """-> (result, raw seconds without sampling, (start, end)) of fn(*args)."""
        p0 = self.probe_s
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        raw = (t1 - t0) - (self.probe_s - p0)
        if not self.periodic:
            self.sample()
        return result, raw, (t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the mean kernel time sampled in [t0, t1], or on either side."""
        i = bisect.bisect_left(self.sample_t, t0)
        j = bisect.bisect_right(self.sample_t, t1)
        ks = self.sample_k[i:j] if j > i else self.sample_k[max(i - 1, 0):i + 1]
        return REF_KERNEL_S / statistics.fmean(ks)


@dataclass
class Round:
    """One round of a workload: its timed calls, operation counts and problems."""

    parts: list = field(default_factory=list)  # (raw seconds, (start, end), is operation)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_raw: float = 0.0
    wall: float = 0.0  # reference-speed seconds
    op_raw: list = field(default_factory=list)
    op: list = field(default_factory=list)  # reference-speed seconds per operation

    def add(self, raw: float, span, operation: bool = True) -> None:
        """A timed call into normlab; `operation` puts it in op_p50_ms."""
        self.parts.append((raw, span, operation))

    def record(self, errs: list[str], failed: bool = False) -> None:
        """One attempted operation; it fails when it has problems or `failed` says so."""
        self.attempted += 1
        self.problems.extend(errs)
        if errs or failed:
            self.failed += 1

    def scale(self, clock: SpeedClock) -> None:
        """Fill the wall and operation times once the round's samples are in."""
        for raw, span, operation in self.parts:
            scaled = raw * clock.factor(*span)
            self.wall_raw += raw
            self.wall += scaled
            if operation:
                self.op_raw.append(raw)
                self.op.append(scaled)
