"""Machine-speed probe that the benchmark's timings are scaled by.

The benchmark runs on shared virtual machines whose speed drifts by up to a
factor of two over minutes, which no number of repeats inside one run
averages away.  Every workload execution runs this probe in its own process
right before and right after the timed span.  Each execution's times are
scaled to the speed at which the probe takes ``REFERENCE_S`` (time times
``REFERENCE_S`` over the mean of its two probe times), and a run reports
the median of the scaled times.  The probe mixes the kinds of work the
workloads do: an interpreter loop, vectorized ``cos`` and a loop of small
complex matrix-vector products.  It touches no zenolock code, so a change
to the package cannot move it.
"""

import time

import numpy as np

REFERENCE_S = 0.25  # probe duration that defines the reference speed


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(1_400_000):
        total += i * i
    grid = np.linspace(0.0, 1e3, 100_000)
    for _ in range(40):
        np.cos(grid).sum()
    matrix = np.eye(4, dtype=complex) * 0.999
    vector = np.ones(4, dtype=complex)
    for _ in range(35_000):
        vector = matrix @ vector
    return time.perf_counter() - started


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured next to a probe of ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s

