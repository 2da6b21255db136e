"""Host-speed yardstick: times in seconds at a fixed reference speed.

The speed of a shared host swings by up to 2x in phases of a fraction of a
second to minutes, and every vCPU swings alike, so one benchmark run
cannot average the swings away.  The yardstick measures the host's speed
while the workload runs and scales the workload's time to a fixed
reference speed.

A probe is a fixed piece of pure-Python work (dict updates keyed by
tuples, small-int arithmetic, like a PBW product) with the garbage
collector off, so it does not depend on the workload's heap.
``Yardstick.start`` runs one probe and arms an interval timer (SIGALRM);
every PERIOD_S of wall time the handler runs one more, and ``stop`` runs
a last one.  A stretch of wall time ``dt`` between two probes that took
``pa`` and ``pb`` seconds counts as
``dt * REF_PROBE_S * (1 / pa + 1 / pb) / 2``, at the mean of their
speeds: how long that stretch would have taken on a host where one probe
takes REF_PROBE_S.  The probes' own time is left out of every figure.

REF_PROBE_S is a constant, about the median probe time on a 2-core Intel
Xeon host with CPython 3.11.7.  On that host a reference second is about
a wall second; on any host, two versions of the program compare in the
same unit.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.1  # wall time between probes while a run is timed
REF_PROBE_S = 0.0018  # about the median probe time on the reference host

_KEYS = [tuple((7 * i + 3 * j) % 13 for j in range(4)) for i in range(48)]


def probe() -> float:
    """Wall seconds of one fixed piece of work."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = {}
    for a in _KEYS:
        for b in _KEYS:
            key = a[:2] + b[2:]
            acc[key] = acc.get(key, 0) + a[0] * b[1] + a[3] - b[2]
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


class Yardstick:
    """Probes taken through one timed stretch of a process."""

    def __init__(self):
        # (monotonic stamp when the probe began, probe seconds, handler seconds)
        self.probes: list[tuple[float, float, float]] = []

    def _take(self):
        t0 = time.monotonic()
        p = probe()
        self.probes.append((t0, p, time.monotonic() - t0))

    def _on_alarm(self, signum, frame):
        self._take()

    def start(self):
        self._take()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def first_scale(self) -> float:
        """Reference seconds per wall second at the first probe, for a
        stretch before it."""
        return REF_PROBE_S / self.probes[0][1]

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall stretch [t0, t1], probes left out.
        A stretch before the first probe goes at that probe's speed; ``t1``
        must not lie past the last probe."""
        pts = self.probes
        total = max(0.0, min(t1, pts[0][0]) - t0) * REF_PROBE_S / pts[0][1]
        for (ta, pa, ha), (tb, pb, _) in zip(pts, pts[1:]):
            lo, hi = max(t0, ta + ha), min(t1, tb)
            if hi > lo:
                total += (hi - lo) * REF_PROBE_S * (1 / pa + 1 / pb) / 2
        return total

    def probe_seconds(self) -> float:
        """Wall seconds the handler took, all probes together."""
        return sum(h for _, _, h in self.probes)
