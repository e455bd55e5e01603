"""Machine-speed probe, for wall times that repeat on a shared machine.

On a shared 2-vCPU VM, other tenants slow a core, pure-Python code by up
to about 2x, in spells from under a second to minutes, and the two cores
need not be slowed alike, so raw wall times do not repeat between runs. While a
`Sampler` is active, a SIGALRM handler in this process times a fixed
pure-Python probe every `PERIOD_S`, on whichever core the measured code
runs. `scale` turns a wall time into seconds at the reference speed, at
which the probe takes `REFERENCE_PROBE_S`:

    wall * (REFERENCE_PROBE_S / probe) ** elasticity

where probe is the median probe time around the interval and elasticity
is how strongly the measured code follows the probe: about 1 for
pure-Python work, less for memory-bound numpy work. fit_speed.py fits it
per workload from the records runs leave in `.perfbench_out/`.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_PROBE_S = 0.00045
MARGIN_S = 0.5


def probe() -> float:
    """Seconds taken by a fixed dict-and-tuple workload, independent of nilpow."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(1000):
        d[(i, i % 7)] = d.get((i - 1, (i - 1) % 7), 0) + i
    return time.perf_counter() - t0


class Sampler:
    """Context manager that probes every `PERIOD_S`; `samples` holds
    (monotonic start, probe seconds) pairs."""

    def __enter__(self) -> "Sampler":
        self.samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.monotonic(), probe()))

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def local_probe(self, start: float, end: float) -> float:
        """Median probe time between monotonic times ``start`` and ``end``,
        widened by `MARGIN_S` on each side."""
        around = [d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        return statistics.median(around or [d for _, d in self.samples])

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe itself took between ``start`` and ``end``."""
        return sum(d for t, d in self.samples if start <= t <= end)


def scale(wall: float, probe: float, elasticity: float) -> float:
    """``wall`` seconds measured while the probe took ``probe`` seconds, at
    the reference speed."""
    return wall * (REFERENCE_PROBE_S / probe) ** elasticity
