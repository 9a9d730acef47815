"""Host-speed probe: a fixed NumPy kernel timed alongside the workload.

The shared host this benchmark was built on runs identical work at speeds
that differ by up to 40% between spells lasting from seconds to minutes,
so a plain 25-second wall time moved by 31% (interquartile range over
median) across ten runs of mixed-bracket.  This kernel slows down with the
workload: over eight 9-second blocks of identical pure-crawl items the
block median spread 21% plain and 9% divided by the median probe time of
the block.  A round's times are therefore reported in reference seconds,
scaled by REFERENCE_S over the median probe time during that round.

The kernel uses the benchmark's own arrays and NumPy only, so no change to
the package can move it.  Its working set (a few MB of eigensolver stacks,
a matmul and a reduction) sees the cache and memory contention that a
small kernel misses.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's median time on the reference host: 2 cores,
# OMP_NUM_THREADS=1, NumPy 2.4.6 with OpenBLAS 0.3.31.
REFERENCE_S = 9.0e-3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((2048, 4, 4)) + 1j * rng.standard_normal((2048, 4, 4))
        self._stack = stack + stack.conj().transpose(0, 2, 1)
        self._square = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._rows = rng.standard_normal((8000, 16)) + 1j * rng.standard_normal((8000, 16))

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = perf_counter()
        np.linalg.eigvalsh(self._stack)
        self._square @ self._square
        weights = np.real(np.sum(self._rows.conj() * self._rows, axis=-1))
        np.log2(np.maximum(weights, 1e-12))
        acc = 0
        for i in range(4000):
            acc += i % 7
        return perf_counter() - t0
