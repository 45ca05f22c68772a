"""Host speed calibration.

On a shared host the speed of one core drifts: on the 2-vCPU VM this
benchmark was written on, a fixed pure-Python loop took anywhere between 1x
and 2x its best time, in spells lasting from a fraction of a second to
minutes.  The benchmark therefore runs a fixed calibration routine between
operations and reports every time in reference seconds: the measured time
times REFERENCE_S over the calibration's time measured next to it.  The
routine is exact rational arithmetic in the standard library (the same kind of
work as kgrid's scalars) and shares no code with kgrid, so a change to kgrid
cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# calibration() on the reference host (2-vCPU VM, Python 3.11) at its best
REFERENCE_S = 0.00125
# how much operation time may pass between two calibrations
INTERVAL_S = 0.05


def calibration() -> float:
    """Seconds taken by a fixed amount of Fraction arithmetic."""
    start = time.perf_counter()
    a, b, acc = Fraction(3, 7), Fraction(-5, 11), Fraction(0)
    for i in range(300):
        acc = acc + a * b - Fraction(i, 3)
    return time.perf_counter() - start


def factor(samples: list) -> float:
    """Reference seconds per measured second, from nearby calibrations."""
    return REFERENCE_S / statistics.median(samples)
