"""A fixed reference computation that tracks how fast the host runs.

On a shared VM the same call can take 1.7 times as long for minutes at a
time while other tenants are busy, with the same instructions and no page
faults; CPU time follows wall time.  Only a measurement taken at the same
time can tell that apart from a change in the program.  The harness runs
:func:`reference_seconds` between tasks, about every :data:`EVERY_S`
seconds, and scales each measured time by ``NOMINAL_S / mean(reference)``:
a time in "nominal seconds" is what the run would have taken on a host
where the reference takes :data:`NOMINAL_S`.

The reference mixes the two kinds of work the library does: vectorized
normal cdf / inverse cdf and small matrix products on 8192-point arrays,
like one replicate of the lattice kernel, and interpreter-bound dict and
float operations, like the Python assembly around it.  It uses numpy and
scipy only, never truncskew, so a change to the library moves the scaled
times as much as the raw ones.
"""

import statistics
import time

import numpy as np
from scipy.special import ndtr, ndtri

# a round figure near the reference's mean time on the 2-vCPU x86_64 VM the
# baseline was measured on; it only sets the scale of nominal seconds
NOMINAL_S = 0.05
EVERY_S = 0.25

_RNG = np.random.default_rng(20240101)
_L = np.tril(_RNG.random((6, 6)))
_Y = _RNG.random((6, 8192))


def _reference_work() -> None:
    for _ in range(25):
        y = _Y.copy()
        for i in range(1, 6):
            s = _L[i, :i] @ y[:i]
            y[i] = ndtri(np.clip(ndtr(0.3 * s), 1e-300, 1.0 - 1e-16))
    table, x = {}, 0.0
    for i in range(150_000):
        table[i & 255] = x
        x += 0.5 * i


def reference_seconds() -> float:
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class Sampler:
    """Reference times taken at most every :data:`EVERY_S` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        self.samples.append(reference_seconds())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from measured to nominal seconds."""
        return NOMINAL_S / statistics.fmean(self.samples)
