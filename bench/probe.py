"""Machine-speed probe: the yardstick every reported time is measured in.

The benchmark runs on shared machines whose speed drifts by half or more
over minutes, as other tenants load the host, so wall-clock times of the
same code taken a few minutes apart disagree by that much.  The probe is a
fixed piece of interpreter work (exact rational arithmetic from the standard
library, allocation-heavy like the program's own Fraction and object code),
timed right before and right after every item.  An item's time divided by
the probe time around it is its cost in probe units, which the drift
cancels out of; multiplied by REFERENCE_S it reads as seconds on a machine
on which the probe takes exactly REFERENCE_S.

The probe never calls the program, so a change to the program cannot
change the yardstick.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The probe's time on the reference machine.  It defines the unit of every
# reported time; it is not a measurement.
REFERENCE_S = 1e-3


def _work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 - 3, i)
    return total


def probe() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probe_median(repeats: int = 5) -> float:
    return statistics.median(probe() for _ in range(repeats))


def to_reference(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took `probe_s`, in reference seconds.
    Only their ratio matters, so both may be given in any one unit."""
    return seconds / probe_s * REFERENCE_S
