"""The machine-speed reference that every reported timing is scaled by.

On a shared host the speed of a vCPU changes by up to 2x, within seconds and
over minutes, as other tenants come and go, so raw wall times of one commit
spread by up to 57% (interquartile range over median) across runs.  The
benchmark therefore times a fixed pure-Python kernel just before and just
after every op and scales the op's wall time to the speed the kernel runs
at on the reference machine.  The kernel does the kind of work that
dominates omlab (``Fraction`` arithmetic), and it does not touch omlab, so a
change to omlab moves the op's time and leaves the kernel's alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Time of ``kernel()`` on an uncontended 2-vCPU Intel Xeon VM (Python 3.11).
REFERENCE_KERNEL_S = 0.0015


def kernel() -> float:
    """Wall seconds of a fixed workload of about 600 ``Fraction`` additions."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(1, k % 97 + 1)
    return time.perf_counter() - start


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, given kernel times around it."""
    return wall * REFERENCE_KERNEL_S / ((before + after) / 2)
