"""Host-speed reference kernel.

The benchmark runs on shared hosts whose other tenants slow every process
on them, by up to half and for minutes at a time; a 60 s run cannot
average that out, so medians of raw times differ between runs of the same
code by more than a regression bound. This kernel is a fixed amount of
numpy work (a random gather, a sort, a Gram matrix and a solve) that does
not touch spidereval and does not change when the program does. Timed in
the benchmark process right after each CLI run, it measures the host's
speed at that moment; the end-to-end times are scaled by it (``run.py``)
to seconds at the reference speed ``REFERENCE_S``.

The program does not feel every slowdown the kernel feels: between runs
on a 2-vCPU host the slope of log program time on log kernel time was
0.1 to 0.9, high while the host drifted and low while it was quiet. The
scale factor is therefore ``(REFERENCE_S / kernel time) ** SENSITIVITY``,
the kernel serving as a control variate with a fixed coefficient. Over
eleven series of 60 s runs of the two timed workloads (ten seeds each,
or sliding windows over long interleaved runs) this cut the worst spread
(IQR / median) of the runs' median wall time from 0.19 unscaled and 0.14
with full scaling to 0.11, and the mean spread from 0.10 and 0.08 to 0.06.

Call with BLAS pinned to one thread (``run.py`` pins it before numpy is
imported).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REPS = 5             # the kernel time is the fastest of this many runs
REFERENCE_S = 0.2    # the kernel's time at full speed on a 2-vCPU Xeon host
SENSITIVITY = 0.7    # share of the kernel's log slowdown applied to the program

_DESIGN = np.random.default_rng(0).standard_normal((400, 768))


def _once() -> float:
    rng = np.random.default_rng(1)
    start = perf_counter()
    x = rng.standard_normal(200_000)
    for _ in range(40):
        x[rng.integers(0, 200_000, 200_000)].mean()
        np.sort(x[:50_000])
    for _ in range(3):
        gram = _DESIGN.T @ _DESIGN + np.eye(768)
        np.linalg.solve(gram, _DESIGN.T @ _DESIGN[:, :50])
    return perf_counter() - start


def kernel_s() -> float:
    """The kernel's time at the host's current speed: the fastest of REPS
    runs, so a momentary stall does not count."""
    return min(_once() for _ in range(REPS))
