"""Host-speed calibration interleaved with the workload.

A shared machine's vCPU changes speed by up to about 1.5x, in spells
from a few milliseconds to seconds long, and drifts over minutes,
whatever the program does.  Wall time
alone then measures the host as much as the program.  :class:`HostClock`
runs a fixed calibration loop every ``PERIOD_S`` of wall time, from a
``SIGALRM`` handler, so it lands inside the workload wherever it is, and
converts host seconds to *nominal* seconds: the time the same code would
take on a host whose calibration loop takes ``NOMINAL_CALIBRATION_S``.

Each stretch of workload time between two calibration ticks is scaled by
``NOMINAL_CALIBRATION_S / c``, where ``c`` is the mean calibration time
of the ticks around it; the calibration time itself is cut out.  The
calibration loop is part of this benchmark and no program change can
touch it, so a faster program still reads faster, while a slower host
mostly no longer does.  Mostly: the host's fast spells speed the loop
up more than they speed up service requests, so service-small's p99
still moves with the host by up to about 20% between runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Wall time between calibration ticks.  Ticks take about 4% of a run
#: at 5 ms, and follow slow spells shorter than the 20 ms first tried.
PERIOD_S = 0.005
#: Calibration ticks each side of a tick whose mean sets its speed.
SMOOTH = 4
#: The calibration loop's time on the nominal host.  Ticking inside the
#: workloads on a 2-vCPU 2.0 GHz Xeon VM under CPython 3.11, it takes
#: about 0.19-0.27 ms as the host's load changes; a nominal second is a
#: second of that VM near the middle of that range.
NOMINAL_CALIBRATION_S = 2.3e-4

#: The clock every benchmark time is read on: this thread's CPU time.
#: The program runs in one thread and never waits, so on an idle host
#: this is its wall time; on a shared one it leaves out the spells the
#: hypervisor gives this vCPU to another guest (steal time, up to 5% of
#: a run), which no calibration tick could see.
now = time.thread_time


def _call(a: int, b: int = 1, **kw: int) -> int:
    return a + b + len(kw)


def calibration_loop() -> int:
    """Fixed interpreter work: keyword calls, strings, tuples and dicts.

    Of the loops tried (tight arithmetic, dict and list traffic, object
    attributes, random lookups in a large dict), this mix followed
    fig3-sweep and service-small best: the ratio of a CLI run's time to
    the mean calibration time during it varied 3-7% between CLI runs,
    where the CLI run's own time varied 14-17%.  Random lookups in a
    dict too large for the caches followed service-small a little
    better but fig3-sweep not at all.
    """
    total = sum(_call(i, b=i, c=1) for i in range(200))
    parts = []
    table: dict = {}
    for i in range(150):
        key = f"k{i % 37}"
        table[key] = table.get(key, ()) + (i,)
        parts.append(str(i))
    return total + len(",".join(parts)) + len(table)


class HostClock:
    """Calibration ticks, every ``period_s`` of wall time while entered."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: :func:`now` at the start and end of each calibration tick.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._previous = None
        self._held = False
        self._due = False

    def tick(self) -> None:
        t0 = now()
        calibration_loop()
        t1 = now()
        self.starts.append(t0)
        self.ends.append(t1)

    def _on_alarm(self, signum, frame) -> None:
        if self._held:
            self._due = True
        else:
            self.tick()

    def hold(self) -> None:
        """Defer ticks until :meth:`release` (around one timed request)."""
        self._held = True

    def release(self) -> None:
        self._held = False
        if self._due:
            self._due = False
            self.tick()

    def __enter__(self) -> "HostClock":
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def read(self) -> "SpeedMap":
        """The ticks so far; safe while the timer keeps ticking."""
        n = len(self.ends)  # a tick appends its start before its end
        return SpeedMap(self.starts[:n], self.ends[:n])


class SpeedMap:
    """Host speed over time, from a fixed set of calibration ticks."""

    def __init__(self, starts: List[float], ends: List[float]) -> None:
        self.starts = starts
        self.ends = ends
        self.raw = [t1 - t0 for t0, t1 in zip(starts, ends)]
        #: Mean calibration seconds of the ticks around each tick.
        self.speeds = [
            statistics.fmean(self.raw[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(self.raw))
        ]

    def nominal(self, t0: float, t1: float) -> float:
        """Nominal seconds of workload in ``[t0, t1]`` (times of :func:`now`).

        Calibration ticks inside the stretch are cut out; each piece
        between them is scaled by the host speed of the tick ending it.
        """
        last = len(self.starts) - 1
        i = bisect.bisect_right(self.ends, t0)
        total = 0.0
        at = t0
        while i <= last and self.starts[i] < t1:
            if self.starts[i] > at:
                total += (self.starts[i] - at) * self._factor(i)
            at = max(at, self.ends[i])
            i += 1
        if t1 > at:
            total += (t1 - at) * self._factor(min(i, last))
        return total

    def _factor(self, i: int) -> float:
        """Nominal seconds per host second up to tick ``i``."""
        return NOMINAL_CALIBRATION_S / self.speeds[i]

    def host_speed(self) -> float:
        """Host seconds per nominal second, from the median tick."""
        return statistics.median(self.raw) / NOMINAL_CALIBRATION_S
