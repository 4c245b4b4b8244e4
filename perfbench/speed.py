"""Machine-speed reference for timings on a shared, noisy host.

On a shared 2-vCPU x86_64 virtual machine, the same code runs up to about
1.7x slower for stretches of seconds to a minute, because other tenants
load the host.  A run's raw wall times then say more about the
neighbours than about the program.  So the benchmark times a fixed
reference kernel, which uses no program code, every ``SAMPLE_EVERY_S``
between and during operations, and scales each operation's wall time by
``REFERENCE_S / kernel time`` around it: times read as on a machine where
the kernel takes ``REFERENCE_S``.  The kernel mixes interpreter work with
small numpy calls, like the program, so both slow down alike; measured on
streamed captures, this cut the spread of 0.3-second windows from 49% of
the median to 8%.  Raw times are kept in the run's raw output.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The kernel time that scaled timings assume (about its undisturbed time
#: on that 2-vCPU machine).
REFERENCE_S = 0.9e-3

#: Sample the kernel at most this often; states of the host last seconds.
SAMPLE_EVERY_S = 0.1


class SpeedMeter:
    """Samples the reference kernel; converts wall times to reference time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((24, 24))
        self._b = rng.standard_normal((64, 8)) + 0j
        self._y = self._b[:, 0].copy()
        self._table: dict[int, int] = {}
        #: ``(time, kernel seconds)`` per sample.
        self.samples: list[tuple[float, float]] = []
        self._last = -np.inf

    def _kernel(self) -> float:
        t0 = perf_counter()
        total = 0
        for i in range(4000):
            total += i * i
            self._table[i & 255] = total
        for _ in range(12):
            np.linalg.lstsq(self._b, self._y, rcond=None)
            self._a @ self._a
            np.cumsum(self._a, axis=0)
        return perf_counter() - t0

    def sample(self) -> float:
        """Time the kernel now; returns the wall time the sample took.

        The first pass refills the caches the program's work just evicted,
        so the second, timed pass measures the machine, not the program's
        memory footprint.
        """
        t0 = perf_counter()
        self._kernel()
        self.samples.append((t0, self._kernel()))
        self._last = perf_counter()
        return self._last - t0

    def maybe_sample(self, every_s: float = SAMPLE_EVERY_S) -> float:
        """Sample if the last sample is ``every_s`` old; returns the time taken."""
        if perf_counter() - self._last < every_s:
            return 0.0
        return self.sample()

    def factor(self, start: float, end: float, sensitivity: float = 1.0) -> float:
        """``(REFERENCE_S / kernel time) ** sensitivity`` around ``[start, end]``.

        The kernel time is the median of the samples near the interval.
        ``sensitivity`` is how strongly the timed work slows with the
        kernel, in log terms: 1 for interpreter-bound work like the kernel.
        """
        near = [k for t, k in self.samples
                if start - SAMPLE_EVERY_S <= t <= end + SAMPLE_EVERY_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return (REFERENCE_S / statistics.median(near)) ** sensitivity
