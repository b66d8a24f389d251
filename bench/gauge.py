"""The host's speed, gauged between the benchmark's timed launches.

The benchmark runs on a few virtual CPUs of a shared host. Other work on the
host slows every process in the VM by up to about 1.5x, in spells that last
from seconds to minutes, so raw wall times of identical runs a minute apart
differ by more than a performance change worth detecting. A fixed piece of
the benchmark's own work, a pure-Python loop and small numpy matrix products
like the program's kernels, runs right before and right after each timed
launch. The launch's wall time is scaled by ``REFERENCE_S`` over the mean of
those two gauge times: it reads as the wall time the launch would take on a
host whose gauge takes ``REFERENCE_S``.

The gauge runs nothing from ``mbpre``, so a change to the program does not
move it; the scale factors are printed with each run's report.
"""

from __future__ import annotations

import time

import numpy as np

# About the gauge's time in a quiet spell on a 2-vCPU x86_64 VM (Python 3.11,
# numpy 2.4); it only sets the scale of the reported seconds.
REFERENCE_S = 0.030
PY_ITERATIONS = 300_000
NP_PRODUCTS = 3_000
_MATS = np.random.default_rng(0).random((64, 2, 2))


def measure():
    """Seconds taken by the fixed gauge work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PY_ITERATIONS):
        acc += i * i
    m = np.eye(2)
    for i in range(NP_PRODUCTS):
        m = _MATS[i & 63] @ m
        m /= m.sum()
    return time.perf_counter() - t0


class Gauge:
    """Scales each timed launch by the gauge times on either side of it."""

    def __init__(self):
        self._last = measure()
        self.factors = []  # the scale factor of every launch, in order

    def scale(self, wall):
        """Call right after the launch that took ``wall`` seconds."""
        now = measure()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(factor)
        return wall * factor
