"""Host-speed calibration: every end-to-end time at one reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts as
the other tenants come and go.  On a 2-CPU VM, a fixed solve timed in 2 s
stretches swung from 6.6 ms to 10.6 ms, and the ops per second of
back-to-back 20 s windows moved with a coefficient of variation of 0.15 to
0.24: more than any median over a run can remove.

So a run also times three fixed kernels that do not touch the library
between ops, once per :data:`INTERVAL_S` seconds of ops: an interpreter
loop, small numpy calls from a Python loop (as the solvers make them), and
a numpy scan of an array larger than the private caches (as the PIC pushes
make them).  Their speed follows the host's drift.  Over ten processes
that ran the same workload, the coefficient of variation of ops per second
fell from 0.06-0.12 raw to 0.01-0.04 calibrated.  Every reported time is
``raw × factor`` with ``factor = reference / calibration``: the time the op
would take on a host where the kernels take their reference times (both are
geometric means over the kernels; the calibration over every sample of the
run).  A change to the library moves the op times and not the kernels, so
it shows in full.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

#: seconds of ops between two calibration samples
INTERVAL_S = 0.1
#: most calibration rounds in one sample
MAX_ROUNDS = 8

_RNG = np.random.default_rng(2011)
_LARGE = _RNG.integers(0, 1000, 1 << 19)  # 4 MiB: beyond the private caches
_ROW = np.cumsum(_RNG.integers(0, 1000, 512))
_KEYS = [int(x) for x in _RNG.integers(0, int(_ROW[-1]), 64)]


def _interpreter() -> int:
    s, d = 0, {}
    for i in range(3000):
        s += i & 7
        d[i & 255] = s
    return s


def _numpy_large() -> np.ndarray:
    return np.cumsum(_LARGE)


def _numpy_calls() -> int:
    """Many small numpy calls from a Python loop, as the solvers make them."""
    hit = 0
    for key in _KEYS:
        j = int(np.searchsorted(_ROW, key))
        hit += int(_ROW[j : j + 4].sum()) & 1
    return hit


#: kernel name -> (kernel, its time in seconds on the reference host: the
#: 5th percentile of 600 samples on a 2-CPU Xeon VM, Python 3.11.7, numpy 2.4.6)
KERNELS = {
    "interpreter": (_interpreter, 0.24e-3),
    "numpy_large": (_numpy_large, 1.5e-3),
    "numpy_calls": (_numpy_calls, 0.22e-3),
}


class Calibrator:
    """Kernel timings sampled through a run, and the time they took."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.kernels = [kernel for kernel, _ in KERNELS.values()]
        #: geometric mean of the kernels' reference times
        self.reference_s = math.exp(statistics.fmean(math.log(ref) for _, ref in KERNELS.values()))
        self.interval_s = interval_s
        self.samples: list[list[float]] = [[] for _ in KERNELS]
        self.spent_s = 0.0  # wall time inside the kernels, to leave out of unit times
        self.last = perf_counter()

    def sample(self, rounds: int = 1) -> None:
        t_start = perf_counter()
        for _ in range(rounds):
            for times, kernel in zip(self.samples, self.kernels):
                t0 = perf_counter()
                kernel()
                times.append(perf_counter() - t0)
        self.last = perf_counter()
        self.spent_s += self.last - t_start

    def tick(self) -> None:
        """Sample once per :attr:`interval_s` passed since the last sample.

        After a long op this takes several rounds (at most :data:`MAX_ROUNDS`),
        so that the host's speed is sampled as densely around long ops as
        around short ones.
        """
        rounds = int((perf_counter() - self.last) / self.interval_s)
        if rounds:
            self.sample(min(rounds, MAX_ROUNDS))

    def seconds(self) -> float:
        """Geometric mean of every kernel time sampled.

        A mean, not a median: the ops run through the host's slow stretches
        as well as its fast ones, and their total time follows the average
        speed.
        """
        if not self.samples[0]:
            self.sample()
        return math.exp(statistics.fmean(math.log(x) for times in self.samples for x in times))

    def factor(self) -> float:
        """Multiplier taking a time measured in this run to the reference host."""
        return self.reference_s / self.seconds()
