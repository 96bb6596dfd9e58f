"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to 25% slower or faster from one
second or minute to the next, for every kind of work on a CPU at once, and
the two CPUs of one machine swing independently.  The benchmark's parent
process shares its CPU with the workers and times this kernel before and
after each worker; it scales the worker's times by `REFERENCE_S` over the
kernel's time around it, which reports them at one fixed host speed.  The
kernel is the benchmark's own code and calls no library code under test, so
a change to the program does not move it.

It takes about 35 ms and mixes the kinds of work the workloads do:
interpreted Python, numpy element-wise transcendentals, a dense LAPACK
solve, an FFT and a memory-bound pass over arrays larger than the cache.
It runs in the parent while no worker runs, so it adds nothing to a
worker's time or peak memory.
"""

from __future__ import annotations

import os
import statistics
import time

from worker import BLAS_ENV

# BLAS reads its thread count when it loads: pin it before numpy is imported
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402
import scipy.linalg  # noqa: E402

# median kernel time on a 2-vCPU Intel Xeon cloud VM (OpenBLAS, one thread)
# when the benchmark was written; scaled times read as on that machine
REFERENCE_S = 0.037


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random(200_000) + 0.5
        self.matrix = rng.random((400, 400)) + 400.0 * np.eye(400)
        self.signal = rng.random(2**16 - 1)
        self.big = rng.random(2**22)
        self.out = np.empty_like(self.big)
        self.samples: list[float] = []
        self._kernel()  # first calls pay allocation and plan set-up

    def _kernel(self) -> None:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        np.log(np.abs(np.sin(self.x) / np.cos(self.x)))
        scipy.linalg.solve(self.matrix, np.ones(len(self.matrix)))
        scipy.fft.dst(self.signal, type=1)
        np.multiply(self.big, 1.5, out=self.out)
        np.add(self.out, self.big, out=self.out)

    def measure(self, count: int) -> float:
        """Time the kernel `count` times, keep the times and return their
        median: the kernel's time on this CPU right now."""
        times = []
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        return statistics.median(times)
