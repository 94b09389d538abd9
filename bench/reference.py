"""A fixed reference loop that runs no cartanflat code.

It mixes the two kinds of work cartanflat's jobs spend their time on:
scalar float arithmetic with math functions (what the compiled expression
closures do) and small numpy arrays built, multiplied and reduced per point
(what the scans and RK4 slopes do).  A short slice of it, timed in a cold
worker before each job of a pass and after the last, measures how fast the
host runs that mix while the pass runs, and ``pass_rel`` divides the pass
time by the slices' summed time.

Slices interleaved with the jobs track the host better than one long loop
before the pass: on a shared 2-CPU x86 container whose speed changed from
second to second by up to 1.8x, medians over 4 to 8 passes spread (quartile
distance over median) 0.05-0.08 with slices against 0.12-0.17 with one
0.2 s loop, and 0.19-0.21 for the raw pass time.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Rounds per slice; about 30 ms on a 2-CPU x86 container (Python 3.11).
ROUNDS = 5_500


def reference_loop() -> float:
    weights = np.arange(9.0).reshape(3, 3) / 10.0
    total = 0.0
    for k in range(ROUNDS):
        x = 0.1 + (k % 97) * 0.01
        y = math.sin(x) * math.exp(-x) + x * x / (1.0 + x) - math.sqrt(x)
        z = math.atan(y) * math.cos(x + y)
        m = np.array((x, y, z, y, x, 0.0, z, 0.0, 1.0), dtype=float).reshape(3, 3)
        total += float(np.max(np.abs(m @ weights)))
    return total


def timed_slice() -> dict:
    """Worker task: one timed slice of the reference loop."""
    start = time.perf_counter()
    reference_loop()
    return {"seconds": time.perf_counter() - start}
