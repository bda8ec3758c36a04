"""Calibration of wall times against a fixed reference loop.

The benchmark shares its host with other tenants whose load comes in
bursts of seconds and slows this process by up to 2x while it lasts. A
run's raw wall times therefore move by 30-60% between runs minutes
apart, more than any code change worth measuring. The slowdown hits
every piece of work in a stretch alike, so the benchmark measures a
fixed reference loop after every timed item and scales the item's wall
time by ``nominal_s / mean(reference before, reference after)``. A
calibrated time reads as the wall time on the host when quiet, where the
reference loop takes ``nominal_s``.

The reference is numpy only, never convkit, so no change to the library
moves it. Its shape follows the workload's conv and first dense layer,
so it stalls on the same small-array numpy calls that dominate the
workload. ``nominal_s`` is the reference's quiet time on the machine the
benchmark was built on; it only sets the scale.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """One pass is ``reps`` forward passes of a frozen conv + dense layer
    pair of the workload's geometry, written with the kinds of numpy calls
    convkit's per-sample engine makes: a slice-multiply-add per conv tap
    and a cumulative-sum matrix-vector product."""

    def __init__(self, size: int, kernel: int, n_kernels: int, dense: int,
                 reps: int, nominal_s: float):
        rng = np.random.Generator(np.random.PCG64(0))
        out = size - kernel + 1
        self.image = rng.random((size, size))
        self.kernels = rng.random((n_kernels, kernel, kernel))
        pooled = (out + 1) // 2
        self.weights = rng.random((dense, n_kernels * pooled * pooled))
        self.reps = reps
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self.last = self.measure()

    def measure(self) -> float:
        """Wall time of one pass of the reference loop."""
        n_kernels, k, _ = self.kernels.shape
        out = self.image.shape[0] - k + 1
        maps = np.empty((n_kernels, out, out))
        start = time.perf_counter()
        for _ in range(self.reps):
            for p in range(n_kernels):
                acc = np.zeros((out, out))
                for u in range(k):
                    for v in range(k):
                        acc += self.kernels[p, u, v] * self.image[u : u + out, v : v + out]
                maps[p] = acc
            flat = maps[:, ::2, ::2].reshape(-1)
            np.cumsum(self.weights * flat[None, :], axis=1)[:, -1]
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Measure the reference now and return the scale for the item timed
        since the previous measurement."""
        before, self.last = self.last, self.measure()
        return self.nominal_s / ((before + self.last) / 2)
