"""Correction of timings for the speed of a shared host.

On a host shared with other tenants the same pass of work can take 1.7
times as long from one minute to the next, while the ratio between two
pieces of similar work run side by side stays within a few percent.
So the worker times a fixed calibration kernel between operations and
scales every measured time by the kernel's nominal time over its
recent calibration time. The kernels are the benchmark's own code, never the program's, so
a change to the program cannot move them.

Two kernels match the two kinds of work in the program. "python" runs
the interior mass balance of checks.py: interpreter-bound code on short
arrays, like the solvers. "array" maps, fills and unmaps a 4 MiB buffer four
times: the grid scan takes 5,000 to 13,000 fresh pages per call, and
their cost swings with the host's memory load. The buffer is mapped
anew each time, so every page is fresh whatever the allocator's state,
and it is small, so the worker's peak resident memory stays the
program's own. Each workload names the kernel that matches its work.

A corrected time reads as seconds on a host where the kernel takes its
nominal time, about its time on this host when quiet. Raw times are kept next to the corrected ones in each run
record.
"""

import mmap
import statistics
from time import perf_counter

import numpy as np

from checks import Game, interior_point

#: Seconds of operations between two calibrations.
EVERY_S = 0.25

#: Calibrations whose mean gives the current speed.
WINDOW = 12

_GAME = Game([35000.0, 120000.0, 50000.0], [10.0, 30.0, 20.0], [100.0, 300.0, 150.0],
             1000.0, 2000.0)

#: Bytes of the array kernel's private anonymous mapping, and how many
#: times one call maps, fills and unmaps it: 4,096 fresh pages per call.
_FRESH = 4 << 20
_FRESH_MAPS = 4


def _python_kernel():
    for _ in range(6):
        interior_point(_GAME)


def _array_kernel():
    for _ in range(_FRESH_MAPS):
        buf = mmap.mmap(-1, _FRESH, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        view = np.frombuffer(buf, dtype=np.uint8)
        view.fill(1)
        del view  # the mapping cannot close while a view exports it
        buf.close()


#: name: (kernel, its time on this host when quiet, seconds)
KERNELS = {"python": (_python_kernel, 0.003), "array": (_array_kernel, 0.008)}


def calibration_s(kernel):
    """Best of three timings of a calibration kernel."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class HostSpeed:
    """Running correction factor: nominal / recent calibration time."""

    def __init__(self, kernel):
        self.kernel, self.nominal_s = KERNELS[kernel]
        self.samples = [calibration_s(self.kernel) for _ in range(3)]
        self._since = 0.0

    def factor(self):
        # The mean, not the median: the host flips between fast and slow
        # states within a second, and a long operation pays the average.
        return self.nominal_s / statistics.fmean(self.samples[-WINDOW:])

    def spent(self, seconds):
        """Account seconds of operations; recalibrate every EVERY_S of them."""
        self._since += seconds
        if self._since >= EVERY_S:
            self._since = 0.0
            self.samples.append(calibration_s(self.kernel))
