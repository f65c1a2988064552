"""Host-speed normalisation of the benchmark's timings.

The benchmark shares a virtual machine whose CPU speed drifts over seconds
to minutes, by 20-60 % in a noisy hour, for CPU time and wall time alike: a
fixed pure-Python loop timed in 4 s windows of one 40 s process gave
medians from 25.5 to 33.9 ms on a 2-vCPU host.  Raw repetition times of
one workload then differ by as much between runs of the same code.

So every timed region runs under :func:`sampling`: a one-shot timer signal,
re-armed every ``PERIOD_S``, runs a fixed probe (tuple, frozenset, dict and
integer work that does not touch ``tnt``), and one probe runs on each side
of the region.  The region's time leaves out the time spent in probes and
is scaled by ``PROBE_NOMINAL_S`` over the mean probe time, less its top and
bottom tenth: a mean rather than a median, because a region pays for every
slow spell it runs through.  The results are seconds at the probe's nominal
speed, which is about the calm speed of the host above.  A change of the
program's own speed moves them as it moves raw time.  Raw times are kept in
the run record.
"""
from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

PERIOD_S = 0.05
PROBE_N = 1000
PROBE_NOMINAL_S = 0.0012


def probe() -> int:
    """Fixed work of about ``PROBE_NOMINAL_S`` seconds on a calm host."""
    acc = 0
    seen: dict[frozenset, int] = {}
    for i in range(PROBE_N):
        t = tuple(sorted(((i * 7919) % 31, (i * 104729) % 29, i % 23, (i * 31) % 37)))
        f = frozenset(t)
        seen[f] = seen.get(f, 0) + 1
        acc ^= (hash(t) & 0xFFFF) << (i % 48)
    return len(seen) + acc.bit_count()


class Speed:
    """Probe samples of one timed region."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def timed_probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    @property
    def factor(self) -> float:
        """Nominal over measured probe time: below 1 on a slow host."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return PROBE_NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])


_active: Speed | None = None


def now() -> float:
    """``perf_counter`` less the probe time of the region being sampled."""
    return perf_counter() - (_active.spent if _active is not None else 0.0)


def _on_alarm(signum, frame) -> None:
    if _active is not None:
        _active.timed_probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)


@contextmanager
def sampling():
    """Sample the host's speed while the body runs; yields its :class:`Speed`.

    The handler stays installed after the region: an alarm that is already
    on its way when the region ends then finds no region and does nothing,
    where the default action would end the process.
    """
    global _active
    speed = Speed()
    speed.timed_probe()
    signal.signal(signal.SIGALRM, _on_alarm)
    _active = speed
    speed.spent = 0.0
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
    try:
        yield speed
    finally:
        _active = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        speed.timed_probe()
