"""Wall time corrected for the machine's speed while it was measured.

On a shared 2-core machine the same work takes 20-60% longer in some
minutes than in others, and the slow phases last from seconds to many
minutes.  So the benchmark times a fixed calibration task between every
two pieces of timed work and reports *reference seconds*:

    ref_s = wall_s / slowdown,  slowdown = local calibration s / REF_CAL_S

``REF_CAL_S`` is the calibration's time on the reference machine when it
is quiet, where reference seconds equal wall seconds.  The local
calibration time is the median of the four samples nearest the work: the
two around it and one more on each side.  One sample is too noisy to
correct one item, and a whole run's median misses phases shorter than a
run.  Over ten `oracle` runs, items per second spread by 0.23 (IQR
over median) in wall seconds and by 0.11 in reference seconds.

The calibration shares no code with hubloc, so a faster hubloc lowers
reference seconds exactly as it lowers wall seconds.  Raw wall times are
kept in every record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Calibration time on the reference machine (2-core Xeon, 2.1 GHz, quiet).
REF_CAL_S = 0.050

_RNG = np.random.default_rng(0)
# Tableau sizes of the small (n=4) and the large (n=6) workloads.
_SMALL = _RNG.random((150, 300))
_LARGE = _RNG.random((450, 900))


def _pivots(matrix, count):
    T = matrix.copy()
    m = T.shape[0]
    acc = 0
    for r in range(count):
        T -= 1e-6 * np.outer(T[:, r], T[r % m])
        acc += int(np.argmax(T[r % m]))
    return acc


def calibrate() -> float:
    """Seconds for a fixed task made of the kinds of work a dense simplex
    pivot does: Python dict and integer work, and rank-1 updates of a
    small and of a large tableau (about 50 ms on the reference machine)."""
    t0 = time.perf_counter()
    d, acc = {}, 0
    for i in range(60000):
        d[i % 997] = d.get(i % 997, 0) + i
        acc += i * i % 7
    acc += _pivots(_SMALL, 200) + _pivots(_LARGE, 20)
    return time.perf_counter() - t0


class Gauge:
    """Calibration samples taken before, between and after the timed
    pieces of one stretch of a run: sample i precedes piece i."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(calibrate())

    def slowdown(self, i: int) -> float:
        """Calibration time around piece i over its reference time."""
        return statistics.median(self.samples[max(0, i - 1):i + 3]) / REF_CAL_S

    def ref_seconds(self, walls: list[float]) -> list[float]:
        return [w / self.slowdown(i) for i, w in enumerate(walls)]
