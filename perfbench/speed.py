"""Host speed, sampled while the program runs.

The shared 2-vCPU host this benchmark was tuned on does not run at one
speed: a fixed piece of Python takes between 1× and 2× its fastest time,
changing every few seconds and drifting over minutes.  Raw wall times of
the same work then spread by 20–60% across runs.  So every timed interval
is also expressed in *reference seconds*: its wall time multiplied by how
fast the host ran during it, relative to a fixed reference speed.

:class:`SpeedProbe` measures that speed from inside the timed process.  A
``SIGALRM`` fires every :data:`INTERVAL_S` of wall time and its handler
times :func:`kernel`, a short interpreter loop.  Over an interval, the
loop's speed is the mean of ``REFERENCE_S / loop time`` over the samples
taken in it (the samples are evenly spaced in time, so this is work done
per wall second).  The program's time moves more than the loop's when
the host's speed changes, and by how much depends on the workload, so the
host's speed for a piece of code is the loop's speed raised to that code's
``sensitivity`` (see ``workloads.py``).  The handler's own time stays
inside the interval it interrupts: about 0.5% of every timed interval.
"""

from __future__ import annotations

import signal
import time
from typing import Any

#: Wall time between samples.
INTERVAL_S = 0.05
#: Kernel time at the reference speed.  It only scales reference seconds;
#: it is about the kernel's time while the program runs on that host's
#: slow state.
REFERENCE_S = 0.00016
#: An interval with fewer samples than this has no speed of its own.
MIN_SAMPLES = 3


def kernel() -> int:
    """A fixed piece of work: integer arithmetic and small-dict stores."""
    total = 0
    counts: dict[int, int] = {}
    for i in range(800):
        total += i * i % 7
        counts[i & 255] = total
    return total


class SpeedProbe:
    """Samples :func:`kernel` times between :meth:`start` and :meth:`stop`.

    Only the main thread of a process may use it, and only one probe at a
    time: it owns ``SIGALRM`` and ``ITIMER_REAL`` while it runs.
    """

    def __init__(self) -> None:
        #: ``(time.monotonic() at the sample, kernel seconds)``
        self.samples: list[tuple[float, float]] = []
        self._previous: Any = signal.SIG_DFL

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: object) -> None:
        started = time.monotonic()
        kernel()
        self.samples.append((started, time.monotonic() - started))

    def speed(self, start: float, end: float, sensitivity: float) -> float | None:
        """Reference seconds per wall second over ``[start, end)`` of
        ``time.monotonic()`` for code with this ``sensitivity``; None when
        too few samples fell in it."""
        inverse = [1.0 / took for at, took in self.samples if start <= at < end]
        if len(inverse) < MIN_SAMPLES:
            return None
        return (REFERENCE_S * sum(inverse) / len(inverse)) ** sensitivity

    def median_ms(self) -> float:
        """The median kernel time so far, in ms: the host's state at a glance."""
        if not self.samples:
            return 0.0
        took = sorted(took for _, took in self.samples)
        return 1000.0 * took[len(took) // 2]
