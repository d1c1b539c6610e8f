"""Machine-speed reference for normalizing wall times.

The benchmark host is shared: measured over minutes, the same query runs
up to 1.5x slower or faster as the load from other tenants comes and goes,
which would swamp any change a commit makes.  Each query is therefore
timed next to a fixed reference, and its wall time is scaled by
REFERENCE_S / (local reference time).  A reported time is thus the wall
time the query would take when the reference takes REFERENCE_S.

When the host speeds up, interpreter-bound loops gain more than
memory-bound ones, and aspw lies in between; the reference time is the
geometric mean of one of each: finite-field arithmetic in the style of
aspw's seed code (objects with __slots__, tuple coefficients, modular
products) and random reads from a table of a few megabytes.  Over
five-minute trials this cut the pass-to-pass variation of query time
from about 15% to about 4%, where either part alone left 4-10%.

Never edit this module's functions or constants: both sides of every
comparison must be scaled by the same code.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.003
# references on each side of a timed interval that form its local speed
WINDOW = 4


class _Elem:
    """Element of F_9 = F_3[x]/(x^2 + x + 2) as a coefficient tuple."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        conv = [0, 0, 0]
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] = (conv[i + j] + x * y) % 3
        return _Elem(((conv[0] + conv[2]) % 3, (conv[1] + 2 * conv[2]) % 3))

    def __add__(self, other):
        return _Elem(tuple((x + y) % 3 for x, y in zip(self.c, other.c)))


def _arithmetic():
    xs = [_Elem((i % 3, (i * 7) % 3)) for i in range(24)]
    ys = [_Elem(((i * 5) % 3, (i + 1) % 3)) for i in range(24)]
    out = {}
    for i, x in enumerate(xs):
        acc = _Elem((0, 0))
        for y in ys:
            acc = acc + x * y
        out[i] = acc
    return out


_TABLE = []


def table():
    """The memory loop's table of about 14 MB, built on first use so that
    importing this module costs nothing."""
    if not _TABLE:
        _TABLE.extend(tuple(range(i, i + 8)) for i in range(40000))
    return _TABLE


def _memory():
    rows = table()
    rng = random.Random(3)
    total = 0
    slots = {}
    for _ in range(2000):
        row = rows[rng.randrange(len(rows))]
        slots[row[0] % 997] = row
        total += row[3]
    return total


def time_reference() -> float:
    table()
    clock = time.perf_counter
    t0 = clock()
    _arithmetic()
    t1 = clock()
    _memory()
    t2 = clock()
    return ((t1 - t0) * (t2 - t1)) ** 0.5


def scales(refs, n: int) -> list:
    """Scale factor for each of n intervals, where refs[i] was timed just
    before interval i and refs[n] just after the last one."""
    out = []
    for i in range(n):
        local = refs[max(0, i - WINDOW + 1): i + WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(local))
    return out
