"""A fixed reference computation that gauges the machine's current speed.

The benchmark runs on a few virtual cores of a shared host, whose speed
shifts by tens of percent over seconds and minutes with the host's other
load. The same code gave runs whose pass times differed by 25-40%. Timed
next to every pass, this reference slows down and speeds up with the
machine, so dividing each pass by it takes most of that shift out.

The reference exercises the same kinds of work as the workloads, in about
equal parts: a pure-Python float loop (like the RK4 of ``bayes`` and the
scalar simulator), CSV text formatting and parsing (like the path CSV I/O)
and per-step numpy loops over narrow and wide rows (like the batch
reconstruction and the batch simulator). It uses nothing from ``seirsde``,
so a change to the program never changes it, and it holds under 2 MB, so it
does not lift a run's peak resident set.
"""

import csv
import io
import math
import time

import numpy as np

# The reference's wall time on the 2-vCPU VM the bounds were set on, in a
# fast stretch. A timing divided by ``speed`` reads as if made at that pace.
NOMINAL_S = 0.25

_VALUES = [math.sqrt(i + 0.5) / 7.0 for i in range(3 * 500)]


def _interpreted(n=200_000):
    x, y, h = 0.5, 0.25, 1e-6
    for _ in range(n):
        k1 = x * (1.0 - y) * 0.3 - 0.1 * y
        k2 = (x + 0.5 * h * k1) * (1.0 - y) * 0.3 - 0.1 * y
        y += h * (k1 + 2.0 * k2)
        x -= 0.1 * h * k2
    return x + y


def _text(chunks=16, rows=500):
    total = 0.0
    for _ in range(chunks):
        buf = io.StringIO()
        writer = csv.writer(buf)
        for i in range(rows):
            writer.writerow([i] + [repr(v) for v in _VALUES[3 * i:3 * i + 3]])
        buf.seek(0)
        total += sum(float(v) for row in csv.reader(buf) for v in row[1:])
    return total


def _steps(width, n):
    rng = np.random.default_rng(0)
    x, y = np.full(width, 0.5), np.full(width, 0.2)
    total = 0.0
    for _ in range(n):
        dw = 0.01 * rng.standard_normal(width)
        x = np.maximum(x + 0.001 * x * (1.0 - y) + dw, 0.0)
        y = y + 0.001 * (x - y)
        total += float(np.stack([x, y, x + y], axis=-1).sum())
    return total


def measure():
    """Wall time of one run of the reference, in seconds."""
    start = time.perf_counter()
    _interpreted()
    _text()
    _steps(100, 3500)
    _steps(2000, 800)
    return time.perf_counter() - start


def speed(elapsed):
    """How many times slower than nominal the machine ran the reference."""
    return elapsed / NOMINAL_S
