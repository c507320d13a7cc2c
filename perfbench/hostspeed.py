"""Host clock and host-speed probe of the benchmark.

Host time is the process's CPU time.  The workloads are single threaded
with BLAS pinned to one thread, so CPU time is the time the program ran,
without the stretches where the machine ran other work.  CPU time alone
is not steady on a shared host, though: other tenants of the machine
swing single-thread speed by up to 2x within a minute, and CPU time
moves with it.

:func:`probe` is a fixed slice of interpreter, small-array and memory
work that belongs to the benchmark, not to the program under test, so a
change to the program never moves it.  While a :class:`Sampler` is
active, a profiling timer runs the probe every :data:`SAMPLE_EVERY_S`
CPU seconds, and :meth:`Sampler.measure` brackets a call with two more.
Each probe gives the host speed at that moment, relative to a host on
which it takes :data:`PROBE_REFERENCE_S`.  The samples are evenly
spaced in the call's CPU time, so their mean is the speed averaged over
the call's work, even when the host flips between fast and slow states
within it.  :func:`clock` leaves out the time spent probing, so every
figure timed with it, in the runner or inside a workload, counts only
the program's own work.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections.abc import Callable
from typing import TypeVar

import numpy as np

#: Seconds :func:`probe` takes at the reference host speed.
PROBE_REFERENCE_S = 0.006
#: CPU seconds between two probes while a :class:`Sampler` is active.
SAMPLE_EVERY_S = 0.1

T = TypeVar("T")

#: CPU time spent probing so far.  Process CPU time is process-wide,
#: and so is what :func:`clock` deducts from it.
_probing_s = 0.0

#: An 8 MB array the probe sweeps, larger than the caches of one core.
_SWEEP = np.ones(1 << 20)


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right

    def total(self) -> int:
        return self.left + self.right


def clock() -> float:
    """CPU seconds of this process, less the time spent probing."""
    return time.process_time() - _probing_s


def probe() -> float:
    """Run the probe once; returns its wall seconds.

    The probe mixes the kinds of work the workloads do: dictionary
    updates, small objects and method calls, small matrix products and
    element-wise array calls, and a sweep through memory.  When the host
    flips between its fast and slow states, each kind slows by a
    different factor; the mix slows by about what the workloads do,
    which no single kind did on the VM the benchmark was written on.

    CPU time is kept in scheduler ticks on some hosts (4 ms on that VM),
    too coarse to time a few-millisecond probe, so the probe is timed
    on the wall clock.  A sample the scheduler interrupted reads slow
    and weighs little in a mean of speeds.  The probe's CPU time still
    goes to :func:`clock`'s deduction.
    """
    global _probing_s
    started = time.perf_counter()
    cpu_started = time.process_time()
    table: dict[int, int] = {}
    for number in range(6_000):
        key = number & 1023
        table[key] = table.get(key, 0) + number
    totals = [_Pair(number, number).total() for number in range(3_000)]
    weights = np.ones((8, 8))
    inputs = np.ones((8, 64))
    for _ in range(300):
        np.clip(weights @ inputs, 0.0, 10.0)
        np.zeros(64)
        inputs = inputs * 1.0
    for _ in range(3):
        _SWEEP.sum()
    del table, totals
    _probing_s += time.process_time() - cpu_started
    return time.perf_counter() - started


class Sampler:
    """Probes the host speed at a steady CPU-time rate (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_signal_args: object) -> None:
        self.samples.append(probe())

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def measure(self, call: Callable[[], T]) -> tuple[T, float, float]:
        """(result, :func:`clock` seconds, host speed) of ``call()``."""
        self._sample()
        first = len(self.samples) - 1
        started = clock()
        result = call()
        seconds = clock() - started
        self._sample()
        speeds = [PROBE_REFERENCE_S / sample for sample in self.samples[first:]]
        return result, seconds, statistics.fmean(speeds)
