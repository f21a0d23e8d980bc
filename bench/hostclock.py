"""Wall times scaled to a host of fixed speed.

The benchmark runs on a shared host whose neighbours slow this process by
up to half, for stretches from milliseconds to minutes, so one run's median
pass and the next one's can differ by a quarter.  The slowdown hits the
package's code and a fixed piece of reference code alike.  So after each
timed step the benchmark runs reference units for REF_SHARE of the step's
time, and scales the step by REF_UNIT_S over the mean time of those units:
a step is reported as the time it would take on a host where one unit takes
REF_UNIT_S.  The reference code belongs to the benchmark, so a change to
the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The time of one reference unit on an unloaded 2-core Intel Xeon VM with
# Python 3.11 and numpy 2.4; it only fixes the scale of the reported times.
REF_UNIT_S = 0.8e-3
# Reference time run after each step, as a share of the step's own time.
REF_SHARE = 0.5

_MATRIX = np.arange(96, dtype=np.int64).reshape(8, 12) % 5


def reference_unit() -> int:
    """A fixed mix of what the package's loops do: small integer matrix
    products reduced mod p, tuples of their entries, and a dict keyed by
    them."""
    seen = {}
    m = _MATRIX
    for i in range(120):
        v = (m[:, i % 12] @ m) % 5
        key = tuple(int(c) for c in v)
        seen[key] = seen.get(key, 0) + 1
        if i % 7 == 0:
            m = np.roll(m, 1, axis=1)
    return len(seen)


class HostClock:
    """Follows timed steps with reference units and gives their scale."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self._owed = 0.0

    def follow(self, step_s: float) -> None:
        """Run reference units for REF_SHARE of a step that took step_s."""
        self._owed += REF_SHARE * step_s
        while self._owed > 0:
            start = perf_counter()
            reference_unit()
            took = perf_counter() - start
            self.units += 1
            self.seconds += took
            self._owed -= took

    def scale(self) -> float:
        """Factor that turns this clock's steps into reference-host time."""
        return REF_UNIT_S * self.units / self.seconds
