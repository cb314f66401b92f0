"""Fixed reference work that measures how fast the host runs at the moment.

On a shared host the speed of one vCPU drifts by about +-20% over seconds to
minutes, whatever the run length, so raw wall times of two runs are not
comparable.  The reference work below is timed between items throughout a
run; it never calls povmkit, so no change to the library can change it.  Its
mix follows the library's cost profile: Python object churn around many small
numpy calls on 2x2 complex and 16x16 real matrices, and a Python loop over
numpy scalars like the simplex's tableau scans.  Its time therefore moves with
the items' time as the host speeds up or slows down.

Each item's time is scaled by ``NOMINAL_MS`` over the median time of the
reference work within ``WINDOW_S`` of the item, so scaled times read as on a
host where the reference work takes ``NOMINAL_MS``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Typical time of ``reference_work`` on the 2-vCPU Xeon host the benchmark
#: was written on (Python 3.11, numpy 2.4, BLAS pinned to one thread).
NOMINAL_MS = 1.0
#: Half-width of the time window whose reference samples scale an item.
WINDOW_S = 0.5

_RNG = np.random.default_rng(20061)
_SMALL = [_RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2)) for _ in range(8)]
_LARGE = [_RNG.standard_normal((16, 16)) for _ in range(2)]
_TABLEAU = _RNG.standard_normal((8, 12))


def reference_work() -> float:
    acc = 0.0
    for m in _SMALL * 4:
        h = np.array(m + m.conj().T, dtype=complex)
        h.setflags(write=False)
        acc += float(np.linalg.eigvalsh(h)[0]) + float(np.max(np.abs(h @ h - h)))
    for b in _LARGE:
        acc += float(np.linalg.eigvalsh(b + b.T)[0]) + float(np.kron(b[:2, :2], b[:2, :2]).sum())
    tableau = _TABLEAU.copy()
    for r in range(tableau.shape[0]):
        for j in range(tableau.shape[1]):
            if tableau[r, j] > 0.5:
                acc += tableau[r, -1] / tableau[r, j]
        tableau[r] -= 0.01 * tableau[(r + 1) % tableau.shape[0]]
    return acc


class Calibrator:
    """Times ``reference_work`` once per ``interval_s`` of item time."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_ns = int(interval_s * 1e9)
        self.samples_ns: list[int] = []
        self.stamps_ns: list[int] = []
        self._due = 0

    def tick(self, elapsed_ns: int) -> None:
        """Account ``elapsed_ns`` of item time and run the reference work it is due."""
        self._due -= elapsed_ns
        while self._due <= 0:
            self.sample()
            self._due += self.interval_ns

    def sample(self) -> None:
        start = time.perf_counter_ns()
        reference_work()
        end = time.perf_counter_ns()
        self.samples_ns.append(end - start)
        self.stamps_ns.append(end)

    def speed_factor(self) -> float:
        """Nominal over median reference time, over all samples."""
        return NOMINAL_MS * 1e6 / statistics.median(self.samples_ns)

    def scale(self, latencies_ns: list[int], stamps_ns: list[int]) -> list[float]:
        """Each latency times the speed factor of the samples within ``WINDOW_S`` of its stamp."""
        window = int(WINDOW_S * 1e9)
        overall = statistics.median(self.samples_ns)
        nominal = NOMINAL_MS * 1e6
        scaled = []
        for latency, stamp in zip(latencies_ns, stamps_ns):
            lo = bisect.bisect_left(self.stamps_ns, stamp - window)
            hi = bisect.bisect_right(self.stamps_ns, stamp + window)
            local = statistics.median(self.samples_ns[lo:hi]) if hi > lo else overall
            scaled.append(latency * nominal / local)
        return scaled
