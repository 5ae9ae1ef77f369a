"""Machine-speed probe: turns the benchmark's CPU seconds into reference seconds.

On a shared host the CPU time of one and the same sweep drifts by a fifth
within minutes: the virtual CPU runs slower while other tenants load the
physical core under it. Fixed pieces of work, the probes, slow down with
it. ``SpeedProbe`` runs one probe from a SIGALRM handler every
``PROBE_EVERY_S`` of wall time, so the probes sample the same stretches of
machine time as the work around them, and ``elapsed`` rescales an interval's
CPU time by the probes that ran inside it:

    reference s = work CPU s * geometric mean over probe kinds k of
                  (REF_k * mean(1 / CPU s of the kind-k probes))

The probes' own CPU time is taken out of the work's. A change to the program
that makes the work slower or faster moves the reference seconds in
proportion; only the speed of the machine is divided out.

The two kinds take turns, one per tick: a pure-Python loop (interpreter
speed) and a few small numpy calls (the solver's kind of work). Over eight
minutes of ``qstar-2d`` sweeps in one process on a 2-vCPU Xeon VM, sweep
CPU time varied by 6.7% (coefficient of variation); rescaled by the loop
alone it varied by 3.2%, by the numpy calls alone by 3.4%. Both probes live
in the first-level caches, so the program's own memory traffic hardly slows
them. A third kind that walked 2 MiB steadied the figure a little more
(2.6%), but with the program made to evaluate every quadrature basis
twice it read the machine as about 8% slower than with the unchanged
program (scale 0.85-0.87 against 0.90-0.98), so it hid part of the
program's own slowdown.
A slowdown that no probe feels, such as a neighbour thrashing the shared
cache, is not divided out.

The timer counts wall time, not CPU time (ITIMER_PROF): while a CPU-time
timer is armed, Linux advances the process CPU clock only at scheduler
ticks, too coarse to time a 2 ms probe.

Each ``REF_k`` is the kind's typical CPU time on that VM under CPython 3.11,
so reference seconds come out near CPU seconds there. An interval in which
some kind did not run (shorter than two ticks) is rescaled by all the
probes so far, and by 1 if there are none.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

PROBE_EVERY_S = 0.1  # wall seconds between probes

_rng = np.random.default_rng(0)
_M = _rng.random((8, 8)) + 8.0 * np.eye(8)
_v = _rng.random(8)
_a = _rng.random(16)


def _python_loop() -> None:
    s = 0.0
    for i in range(20_000):
        s += i * 0.5


def _small_arrays() -> None:
    for _ in range(80):
        np.linalg.solve(_M, _v)
        np.dot(_M, _v)
        np.exp(-_a).sum()
        np.concatenate((_a, _a))
        np.where(_a > 0.5, _a, 0.0)


# (probe, REF_k: its typical CPU seconds)
PROBES = ((_python_loop, 1.8e-3), (_small_arrays, 1.8e-3))


class SpeedProbe:
    """Probes the machine's speed while it is entered as a context manager."""

    def __init__(self):
        self.cpu = array("d")  # CPU seconds of each probe, in order
        self.kind = array("b")  # its index in PROBES
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        k = len(self.cpu) % len(PROBES)
        c0 = time.process_time()
        PROBES[k][0]()
        c1 = time.process_time()
        self.kind.append(k)
        self.cpu.append(c1 - c0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        """(process CPU time, probes so far), read with no probe in between."""
        while True:
            n = len(self.cpu)
            c = time.process_time()
            if len(self.cpu) == n:
                return c, n

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Reference seconds per work CPU second over the probes [start, stop)."""
        cpu, kind = self.cpu[start:stop], self.kind[start:stop]
        if len(set(kind)) < len(PROBES):
            cpu, kind = self.cpu, self.kind
            if len(set(kind)) < len(PROBES):
                return 1.0
        log = 0.0
        for k, (_, ref) in enumerate(PROBES):
            log += math.log(ref * statistics.fmean(1.0 / c for c, j in zip(cpu, kind) if j == k))
        return math.exp(log / len(PROBES))

    def elapsed(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(work CPU seconds, reference seconds) since ``mark``, probes taken out."""
        c0, n0 = mark
        c1, n1 = self.mark()
        work = c1 - c0 - sum(self.cpu[n0:n1])
        return work, work * self.scale(n0, n1)
