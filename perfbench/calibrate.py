"""Calibrated time: wall time scaled to a fixed reference speed.

The machine's speed for pure Python drifts: on the 2-core Xeon this
benchmark was defined on, the same call took anywhere from 1x to 2x its
fastest time within a few minutes, because of load from outside the
container.  ``reference_s`` times a fixed arithmetic loop that never
changes.  A call's calibrated time is its wall time times
``NOMINAL_REF_S / reference_s()``, with the reference timed just before the
call and, for long calls, just after it.  So calibrated seconds are the wall
seconds the call would take at the speed where the reference loop takes
``NOMINAL_REF_S``.
"""

from __future__ import annotations

import time

# reference_s() on the defining machine when it ran fastest (Python 3.11.7).
NOMINAL_REF_S = 0.020


def reference_s() -> float:
    t = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i % 7
    return time.perf_counter() - t
