"""Resource accounting: CPU seconds, peak RSS, and per-span memory peaks.

Three cooperating pieces, all zero-dependency and all safe on platforms
without the :mod:`resource` module (everything degrades to
``time.process_time`` / zeros):

* **Process usage** — :func:`process_usage` reads ``getrusage(RUSAGE_SELF)``
  (user/system CPU seconds, max-RSS high-water mark).  :class:`UsageProbe`
  snapshots CPU at construction and reports the *delta* since, folding in
  whatever worker-process usage was absorbed meanwhile (see below), so a
  CLI invocation or a bench run can report "what this command cost" even
  though ``getrusage`` counters are cumulative for the process lifetime.

* **Cross-process merging** — persistent pool workers outlive any single
  sweep, so ``getrusage(RUSAGE_CHILDREN)`` in the parent only sees reaped
  processes and is useless mid-run.  Instead each worker drains a CPU
  *delta* since its last drain (:func:`drain_worker_usage`) into every
  task result it sends, observability on or off, and the parent folds it
  into a process-wide accumulator (:func:`absorb_child_usage`): CPU
  seconds sum, max-RSS merges with ``max`` (each process reports its own
  high-water mark; the fleet-wide peak is the largest single process, not
  the sum of high-water marks that never coexisted).

* **Deep memory** — per-span tracemalloc peaks.  ``tracemalloc`` costs
  real time (every allocation is traced), so this is *opt-in on top of*
  an active session: diagnostic commands (``stats``, ``trace``) turn it
  on, ledgered production runs leave it off.  Nesting is handled by a
  frame stack: entering a span folds the current interval peak into the
  parent's frame and resets the tracemalloc peak; exiting takes the
  maximum of the interval peak and the propagated child peaks, so a
  span's ``mem_peak_bytes`` is the true high-water mark across its whole
  subtree even though tracemalloc only exposes one global peak counter.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass

try:  # Unix only; Windows lacks the resource module entirely.
    import resource as _resource
except ImportError:  # pragma: no cover - exercised only on non-Unix
    _resource = None  # type: ignore[assignment]

__all__ = [
    "ResourceUsage",
    "UsageProbe",
    "absorb_child_usage",
    "deep_memory_active",
    "disable_deep_memory",
    "drain_worker_usage",
    "enable_deep_memory",
    "max_rss_kb",
    "process_usage",
    "span_mem_enter",
    "span_mem_exit",
]


def _cpu_seconds() -> tuple[float, float]:
    """(user_s, system_s) for this process; process_time fallback."""
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        return usage.ru_utime, usage.ru_stime
    return time.process_time(), 0.0


def max_rss_kb() -> int:
    """This process's max-RSS high-water mark in KiB (0 if unavailable)."""
    if _resource is None:
        return 0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


@dataclass
class ResourceUsage:
    """CPU seconds plus RSS high-water mark; plain data, JSON-friendly."""

    cpu_user_s: float = 0.0
    cpu_system_s: float = 0.0
    max_rss_kb: int = 0

    def to_dict(self) -> dict[str, float | int]:
        return {
            "cpu_user_s": round(self.cpu_user_s, 6),
            "cpu_system_s": round(self.cpu_system_s, 6),
            "max_rss_kb": int(self.max_rss_kb),
        }

    @classmethod
    def from_dict(cls, data: dict[str, float | int]) -> "ResourceUsage":
        return cls(
            cpu_user_s=float(data.get("cpu_user_s", 0.0)),
            cpu_system_s=float(data.get("cpu_system_s", 0.0)),
            max_rss_kb=int(data.get("max_rss_kb", 0)),
        )

    def merged(self, other: "ResourceUsage") -> "ResourceUsage":
        """CPU sums, RSS maxes — the cross-process combination rule."""
        return ResourceUsage(
            cpu_user_s=self.cpu_user_s + other.cpu_user_s,
            cpu_system_s=self.cpu_system_s + other.cpu_system_s,
            max_rss_kb=max(self.max_rss_kb, other.max_rss_kb),
        )


def process_usage() -> ResourceUsage:
    """Cumulative usage for this process since it started."""
    user_s, system_s = _cpu_seconds()
    return ResourceUsage(user_s, system_s, max_rss_kb())


# --------------------------------------------------- child-usage accumulation

# Monotone totals of everything absorbed from worker snapshots.  Probes
# snapshot these at construction and subtract, so concurrent measurement
# windows (a bench run inside a CLI invocation) each see their own share.
_CHILD_CPU_USER = 0.0
_CHILD_CPU_SYSTEM = 0.0
_CHILD_MAX_RSS_KB = 0


def absorb_child_usage(usage: ResourceUsage) -> None:
    """Fold one worker task's usage delta into the process-wide totals."""
    global _CHILD_CPU_USER, _CHILD_CPU_SYSTEM, _CHILD_MAX_RSS_KB
    _CHILD_CPU_USER += usage.cpu_user_s
    _CHILD_CPU_SYSTEM += usage.cpu_system_s
    _CHILD_MAX_RSS_KB = max(_CHILD_MAX_RSS_KB, usage.max_rss_kb)


class UsageProbe:
    """Measures usage across a window: own CPU delta + absorbed child usage.

    ``sample()`` may be called repeatedly; each call reports the window
    from construction to now.  RSS cannot be windowed (it is a process
    high-water mark), so the probe reports the current max-RSS merged
    with the largest worker high-water mark absorbed during the window.
    """

    def __init__(self) -> None:
        self._user0, self._system0 = _cpu_seconds()
        self._child_user0 = _CHILD_CPU_USER
        self._child_system0 = _CHILD_CPU_SYSTEM

    def sample(self) -> ResourceUsage:
        user_s, system_s = _cpu_seconds()
        return ResourceUsage(
            cpu_user_s=(user_s - self._user0)
            + (_CHILD_CPU_USER - self._child_user0),
            cpu_system_s=(system_s - self._system0)
            + (_CHILD_CPU_SYSTEM - self._child_system0),
            max_rss_kb=max(max_rss_kb(), _CHILD_MAX_RSS_KB),
        )


# -------------------------------------------------------- worker-side draining

# Before the first drain or rebase, the window starts at process start.
_WORKER_USER0 = 0.0
_WORKER_SYSTEM0 = 0.0


def drain_worker_usage() -> ResourceUsage:
    """CPU delta since the last drain or rebase (workers persist across
    tasks), plus this process's RSS high-water mark."""
    global _WORKER_USER0, _WORKER_SYSTEM0
    user_s, system_s = _cpu_seconds()
    delta = ResourceUsage(
        user_s - _WORKER_USER0, system_s - _WORKER_SYSTEM0, max_rss_kb()
    )
    _WORKER_USER0, _WORKER_SYSTEM0 = user_s, system_s
    return delta


def reset_worker_usage() -> None:
    """Rebase the worker drain window to *now* (pool prime calls this)."""
    global _WORKER_USER0, _WORKER_SYSTEM0
    _WORKER_USER0, _WORKER_SYSTEM0 = _cpu_seconds()


# ------------------------------------------------------------------ deep memory


class _MemTracker:
    """Nested per-span peaks over tracemalloc's single global peak counter."""

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        self._stack: list[int] = []

    def push(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1] = max(self._stack[-1], peak)
        tracemalloc.reset_peak()
        self._stack.append(0)

    def pop(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        child_peak = self._stack.pop() if self._stack else 0
        span_peak = max(child_peak, peak)
        if self._stack:
            self._stack[-1] = max(self._stack[-1], span_peak)
        tracemalloc.reset_peak()
        return span_peak


_MEM: _MemTracker | None = None


def deep_memory_active() -> bool:
    return _MEM is not None


def enable_deep_memory() -> None:
    """Start tracemalloc and per-span peak attribution (diagnostic runs)."""
    global _MEM
    if not tracemalloc.is_tracing():
        tracemalloc.start()
    _MEM = _MemTracker()


def disable_deep_memory() -> None:
    global _MEM
    _MEM = None
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def span_mem_enter() -> None:
    """Open a memory frame for a starting span (no-op when deep memory off)."""
    if _MEM is not None:
        _MEM.push()


def span_mem_exit() -> int:
    """Close the current memory frame; returns the span's peak bytes (or 0)."""
    if _MEM is not None:
        return _MEM.pop()
    return 0
