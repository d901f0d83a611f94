"""Host-speed references: a fixed kernel per workload, timed right after
every op, and a bare interpreter start timed right before every setup
probe, so that op and setup times can be stated at one fixed host speed.

On a shared machine the speed of the same single-threaded work drifts by
up to about 2x over tens of seconds, as neighbours come and go.  One
30-second run then lands mostly in a fast or mostly in a slow stretch, and
raw op times differ by 20-30% between runs of identical code.  The kernel
shares the op's thread and moment, so it slows down with the op; dividing
each op time by the kernel's slowness removes most of that drift and
leaves the program's own speed.  The raw times stay in the run record.

The kernel has a part every workload shares, which mixes interpreter
arithmetic, building a large tuple and dict, and small tuples, calls and
dict updates, and an extra part per workload.  Recorded over minutes of
drift, op by op, interpreter arithmetic tracked the numpy-bound
`frequencies` ops best and small tuples, calls and dict updates tracked
`witness` and `factor` best, so each workload's extra part is more of that
work.  One kernel run is short next to an op, so an op is divided by the
median slowness of the kernel runs after it and its nearest neighbours.

Starting a process drifts on its own, apart from the kernel, so setup
probes are scaled by a bare `python -c pass` instead; the program cannot
change that start, so scaling by it hides no setup work.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time


def _shared() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    values = tuple(1 if (i * 7919) % 13 < 6 else -1 for i in range(10_000))
    table = {i: v for i, v in enumerate(values)}
    total += sum(table[i] for i in range(0, 10_000, 3))
    return total + _small_objects(1_000)


def _arithmetic(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _small_objects(n: int) -> int:
    counts: dict[tuple[int, ...], int] = {}
    for i in range(n):
        t = (i % 7, i % 11, i % 13)
        key = tuple(sorted(t))
        counts[key] = counts.get(key, 0) + sum(1 for a in t if a > 3)
    return len(counts)


#: Per workload, the extra part of its kernel, and the seconds the whole
#: kernel takes on a quiet host (a 2-core Intel Xeon host, Python 3.11);
#: scaled times are stated at that speed.
KERNELS = {
    "frequencies": (lambda: _arithmetic(40_000), 6.44e-3),
    "witness": (lambda: _small_objects(3_000), 7.41e-3),
    "factor": (lambda: _small_objects(3_000), 7.41e-3),
}

#: An op is divided by the median slowness of its own kernel run and of
#: this many on each side.
NEIGHBOURS = 2


def slowness(workload: str) -> float:
    """How many times slower than on a quiet host the workload's kernel runs now."""
    extra, nominal_s = KERNELS[workload]
    start = time.perf_counter()
    _shared()
    extra()
    return (time.perf_counter() - start) / nominal_s


def smoothed(values: list[float]) -> list[float]:
    """Each slowness replaced by the median of it and its NEIGHBOURS on each side."""
    return [
        statistics.median(values[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])
        for i in range(len(values))
    ]


#: Seconds a bare interpreter start takes on a quiet host, as above.
NOMINAL_START_S = 0.045


def start_seconds() -> float:
    """Seconds a bare interpreter start takes now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start
