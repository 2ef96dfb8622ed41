"""Machine-speed gauge.

The shared 2-core machine this benchmark was tuned on changes speed by up to
1.8x, in phases that last tens of seconds, so raw wall times of the same work
spread by about 30% between runs a minute apart. The benchmark therefore
times this fixed reference loop right beside every measurement and reports
each time scaled to the loop's nominal speed:

    time at reference speed = measured time * REFERENCE_S / reference time

On the tuning machine this cut the spread of 20-second medians of a fixed
simulation from 29% to 2% (interquartile range over median). The loop has the
same mix as the simulator's round loop (small numpy arrays, scalar Python
arithmetic) and uses nothing from the package, so a change to the package
cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds the loop takes at full speed on the tuning machine (Intel Xeon,
# 2 cores, Python 3.11, numpy 2.4); it only sets the scale of the figures.
REFERENCE_S = 0.135
ROUNDS = 9000


def reference() -> float:
    rng = np.random.Generator(np.random.Philox(12345))
    total = 0.0
    for _ in range(ROUNDS):
        v = np.clip(rng.random(2) * 1.5 - 0.2, 0.0, 1.0)
        best = int(np.argmax(v))
        p = 1.0 / (2 + 4.0 * (v[best] - v))
        p[best] = 0.0
        p[best] = 1.0 - p.sum()
        a = int(np.searchsorted(np.cumsum(p), rng.random()))
        total += float(v[a])
    return total


def time_reference() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
