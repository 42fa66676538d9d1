"""A fixed reference computation that measures how fast the machine runs right now.

The benchmark's machine is shared, and its speed swings by tens of percent
within seconds.  Item times are therefore scaled: the reference (exact
Gauss-Jordan elimination of a fixed 9x9 integer matrix over Fractions, the
package's own kind of work) is timed in the process that runs the item, just
before and just after it, and the item's wall time is multiplied by
NOMINAL_S / (mean of the two reference times).  Importing this module pulls in
nothing the package would not import anyway.
"""

import time
from fractions import Fraction

MATRIX = ((3, 4, -8, -1, 7, 6, 3, 0, 6), (2, 9, -3, 7, -5, 0, -5, -6, -1),
          (8, -5, 0, -6, -7, 1, 6, 8, -6), (2, 4, 1, -3, 8, 6, 5, 7, -1),
          (-8, 8, -9, -7, 3, -9, 6, 1, -2), (1, -7, -3, 9, -2, -2, -5, 8, 5),
          (-7, -7, 1, 7, 6, -6, 0, 8, 0), (-6, 8, 1, 8, -3, 8, 9, 0, 5),
          (-7, 3, 1, 9, -2, 0, -4, -3, -4))
NOMINAL_S = 0.0025  # its typical time on the 2-core machine the benchmark was tuned on


def _once() -> float:
    t0 = time.perf_counter()
    m = [[Fraction(x) for x in row] for row in MATRIX]
    rank = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = m[rank][c]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return time.perf_counter() - t0


def seconds() -> float:
    """Median of three timings of the reference elimination."""
    return sorted(_once() for _ in range(3))[1]


def scaled(wall_s: float, reference_s: float) -> float:
    """wall_s at nominal machine speed, given the mean reference time around it."""
    return wall_s * NOMINAL_S / reference_s
