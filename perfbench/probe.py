"""Machine-speed probe: a fixed mix of the kinds of work groverlab does.

The benchmark's host changes speed by tens of percent over minutes (shared
cores). Timings are therefore reported at a reference speed: each raw time is
multiplied by REFERENCE_S / (probe time measured next to it). The probe runs
scalar math in Python function calls, float formatting and joining, in-place
NumPy arithmetic over an 8 MB array and small symmetric eigensolves, in
roughly equal shares. Its code and sizes are part of the benchmark's
definition: changing them changes every reported time.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The probe's time on the 2-vCPU Intel Xeon VM where the benchmark was
# defined, in its slower state (0.09-0.13 s was seen); it only sets the scale
# of the reported seconds.
REFERENCE_S = 0.12

_RNG = np.random.default_rng(12345)
_BUFFER = np.empty(1 << 20)
_MATRICES = [m + m.T for m in _RNG.standard_normal((16, 48, 48))]


def _scalar(i: float) -> float:
    return math.sin(i) ** 2 / (1.5 + math.cos(i))


def probe() -> float:
    """Seconds one pass of the probe takes now."""
    t0 = perf_counter()
    total = 0.0
    for i in range(60_000):
        total += _scalar(i * 1e-3)
    text = "\n".join(",".join(format(x, ".12g") for x in (i * 0.1, i * 0.2, total)) for i in range(10_000))
    a = _BUFFER
    a.fill(0.25)
    for _ in range(18):
        np.multiply(a, 1.0001, out=a)
        np.subtract(a, 0.5, out=a)
        np.abs(a, out=a)
    for _ in range(12):
        for m in _MATRICES:
            np.linalg.eigvalsh(m)
    elapsed = perf_counter() - t0
    if not text or not np.isfinite(a[0]):
        raise RuntimeError("probe produced no result")
    return elapsed


if __name__ == "__main__":
    print(f"{probe():.4f} s")
