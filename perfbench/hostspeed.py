"""Host speed, sampled while the benchmark times a call.

The benchmark runs on shared virtual machines whose cores slow down by up to
2x while other tenants load the same physical cores: in bursts of a few
milliseconds, and in spells that last minutes. A solve's wall time then
follows the host more than the code, and two sets of runs of the same code
disagree by more than any useful bound.

So while a call is timed, an interval timer interrupts it every
SAMPLE_INTERVAL_S and times one pass of a fixed reference kernel; one more
pass is timed just before the call and one just after. The kernel's mean
time over those passes says how fast the host ran during the call.
`Timing.scaled_s` is the call's wall time, less the time spent in the
sampler, divided by that slowdown: the time the call would have taken on a
host where the kernel takes NOMINAL_KERNEL_S. The kernel belongs to the
benchmark, not to the library, so a change to the library moves the call's
time but not the kernel's.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

SAMPLE_INTERVAL_S = 0.01
# The kernel's time when the host runs at full speed: about its fastest
# in-call time on the 2-vCPU machine described in README.md. It only sets the
# scale of the reported times.
NOMINAL_KERNEL_S = 80e-6

_MATRIX = np.random.default_rng(0).random((6, 6))


def kernel() -> float:
    """The reference work: small matrix products and float arithmetic in a Python loop."""
    total = 0.0
    for i in range(40):
        total += float((_MATRIX @ _MATRIX)[0, 0]) + i * 0.5
    return total


def _time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


@dataclass
class Timing:
    """One timed call: its wall time, the sampler's share of it and the kernel times."""

    wall_s: float = 0.0
    sampler_s: float = 0.0
    kernel_s: list[float] = field(default_factory=list)

    @property
    def raw_s(self) -> float:
        """Wall time of the call itself, without the sampler's passes."""
        return self.wall_s - self.sampler_s

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the host ran during the call."""
        return statistics.fmean(self.kernel_s) / NOMINAL_KERNEL_S

    @property
    def scaled_s(self) -> float:
        """The call's time at the nominal host speed."""
        return self.raw_s / self.slowdown


class HostClock:
    """Times calls in the main thread while sampling the host's speed."""

    def __init__(self):
        self._timing: Timing | None = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._timing.kernel_s.append(_time_kernel())
        self._timing.sampler_s += time.perf_counter() - start

    @contextmanager
    def timed(self):
        """Time the block; the yielded Timing is filled in when the block ends."""
        timing = self._timing = Timing()
        timing.kernel_s.append(_time_kernel())
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            # The timer stops before the clock is read, so every sampler pass
            # counted in sampler_s lies inside wall_s.
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            timing.wall_s = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            timing.kernel_s.append(_time_kernel())
            self._timing = None
