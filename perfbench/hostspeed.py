"""Host-speed reference kernels, to take the host's drift out of timings.

The benchmark runs on a shared virtual machine whose speed drifts by tens
of percent over minutes as other guests load the host, and no run length
averages that out. The drift is not uniform either: interpreter-bound
Python slows far more than numpy's vectorised FFTs. So each workload
names a reference mix that matches its own time split, and the fixed
kernels of that mix are timed between ops. ``HostSpeed.slowdown`` is the
mix-weighted ratio of each kernel's mean time to its nominal time, and
an end-to-end time divided by it is the time at the nominal host speed.

The kernels never call ncplane, and each sample runs with the garbage
collector off, so the objects the ops leave alive do not add collections
to a kernel's time (``test_slowdown_ignores_a_large_live_heap`` checks
this with a million live objects). The kernels do share the process's
memory allocator with the ops.

The FFT-pair kernels are also the benchmark's one timer of an
``fft2``+``ifft2`` pair: the traced run's calibration and
``baseline.py`` take the median of their samples.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np


def python_kernel() -> None:
    """Interpreter-bound work like the exact layers: ints and Fractions."""
    total, acc = 0, Fraction(0)
    for i in range(1, 401):
        total += (i * i) % 7
        acc += Fraction(total % 5, i % 9 + 1)


def _fft_kernel(n: int):
    values = np.random.default_rng(n).standard_normal((n, n)).astype(complex)

    def kernel() -> None:
        np.fft.ifft2(np.fft.fft2(values))

    return kernel


# name -> (kernel factory, nominal mean ms, op time between two samples in
# seconds). The nominal times are typical means on the machine the bounds
# were measured on; they only set the units of the scaled times.
KERNELS = {
    "python": (lambda: python_kernel, 1.0, 0.1),
    "fft256": (lambda: _fft_kernel(256), 3.0, 0.25),
    "fft512": (lambda: _fft_kernel(512), 20.0, 0.5),
}


class HostSpeed:
    """Samples a reference mix between ops and reports the host slowdown."""

    def __init__(self, mix: dict[str, float]):
        self.mix = mix
        self.kernels = {name: KERNELS[name][0]() for name in mix}
        self.samples: dict[str, list[float]] = {name: [] for name in mix}
        self._due = {name: 0.0 for name in mix}

    def sample(self, name: str) -> None:
        # With the collector off, a sample's time does not depend on how
        # many objects the process holds.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernels[name]()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples[name].append(elapsed * 1e3)

    def median_ms(self, name: str, count: int) -> float:
        """Median of ``count`` fresh samples of one kernel, in ms."""
        for _ in range(count):
            self.sample(name)
        return statistics.median(self.samples[name][-count:])

    def sample_due(self, op_seconds: float) -> None:
        """Sample each kernel once per its interval of elapsed op time."""
        for name in self.mix:
            while self._due[name] <= op_seconds:
                self.sample(name)
                self._due[name] += KERNELS[name][2]

    def slowdown(self) -> float:
        """Mix-weighted mean kernel time over nominal; 1 at nominal speed.

        The mean, not the median: when the host flips between a fast and a
        slow state, op time grows with the share of time spent slow, and
        only the mean of the samples does too.
        """
        return sum(weight * statistics.fmean(self.samples[name])
                   / KERNELS[name][1] for name, weight in self.mix.items())
