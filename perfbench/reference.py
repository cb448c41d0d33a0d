"""Host speed: a fixed reference kernel sampled while the workload runs.

On a shared host the same code runs up to 2x slower for seconds to
minutes at a time when other tenants are busy.  While a workload's
set-up or pass is being timed, a ``Sampler`` interrupts it every 20 ms of
wall time to run this kernel once.  The block's time minus the kernel's
own time is the block's work; ``Stretch.scaled`` reports that work at
nominal host speed, scaled by ``NOMINAL_S`` over the mean kernel time
sampled inside the block.  Samples are evenly spaced in time, so the mean
weighs each slow spell by its length, as the work's time does; a median
would skip the brief very slow spells that the work still pays for.

The slow spells do not slow all work alike: on a shared 2-vCPU x86-64 VM,
interpreter-bound loops, pickling and small NumPy operations slowed by
up to 2x while SHA-256 slowed by 1.1x, and the workloads slowed like the
former.  The kernel therefore mixes three kinds of work the program
does, each about a third of its time: pickling small Python records,
allocating lists and pickling NumPy arrays.  With SHA-256 as a fourth
part, the workloads still came out 10-20% slower in slow spells.  It is
the benchmark's own code: a change to the program never changes it.
"""

from __future__ import annotations

import contextlib
import pickle
import signal
import statistics
import time
from typing import Iterator, List, Optional

import numpy as np

#: Kernel time on a quiet 2-vCPU x86-64 VM (Python 3.11, NumPy 2.4).
NOMINAL_S = 2.0e-3

#: Wall time between two kernel samples inside a timed block.
INTERVAL_S = 0.02

_RECORDS = [{"round": i, "name": f"device-{i % 64:02d}", "value": i * 0.5}
            for i in range(240)]
_ARRAYS = {f"column-{i}": np.arange(4000.0) + i for i in range(8)}


def kernel() -> int:
    """About 2 ms of mixed work; returns a value so nothing is skipped."""
    total = 0
    for _ in range(5):
        total += len(pickle.loads(pickle.dumps(_RECORDS)))
    for _ in range(8):
        total += len([list(range(50)) for _ in range(150)])
    for _ in range(2):
        total += len(pickle.dumps(_ARRAYS))
    return total


class Stretch:
    """Work timed in one or more blocks, and the kernel times sampled in them."""

    def __init__(self) -> None:
        self.work_s = 0.0
        self.kernel_s: List[float] = []

    def add(self, work_s: float, kernel_s: List[float]) -> None:
        self.work_s += work_s
        self.kernel_s.extend(kernel_s)

    def scaled(self) -> float:
        """The work's seconds at nominal host speed."""
        if not self.kernel_s:
            raise RuntimeError("no kernel samples in a timed stretch")
        return self.work_s * NOMINAL_S / statistics.fmean(self.kernel_s)


class Sampler:
    """Runs the kernel every ``interval_s`` of wall time inside ``timed``.

    ``Sampler(None)`` samples nothing: ``timed`` then only adds wall time
    (a traced run, whose spans must not hold kernel time).  Timers are not
    inherited by forked or spawned processes.
    """

    def __init__(self, interval_s: Optional[float] = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.kernel_total_s = 0.0
        self._into: Optional[List[float]] = None

    def _tick(self, signum, frame) -> None:
        if self._into is None:
            return
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self._into.append(elapsed)
        self.kernel_total_s += elapsed

    def __enter__(self) -> "Sampler":
        if self.interval_s is not None:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def timed(self, stretch: Stretch) -> Iterator[None]:
        """Add the block's wall time, less kernel time, to ``stretch``."""
        samples: List[float] = []
        self._into = samples
        before = self.kernel_total_s
        start = time.perf_counter()
        try:
            yield
        finally:
            self._into = None
            elapsed = time.perf_counter() - start
            stretch.add(elapsed - (self.kernel_total_s - before), samples)
