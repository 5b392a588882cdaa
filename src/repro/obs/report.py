"""Human-readable summaries of a trace + metrics pair (``repro-fsatpg stats``).

``self time`` is a span's own duration minus the summed durations of its
direct children — the classic profiler attribution that makes "where did
the time actually go" answerable even with deeply nested spans.  ``cpu s``
applies the same attribution to process CPU time, so a span whose wall
time dwarfs its CPU time is visibly I/O- or scheduler-bound.  ``peak mem``
is the largest tracemalloc high-water mark any single call of the name
observed (populated only when deep memory tracking was on for the run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord

__all__ = [
    "SpanStat",
    "aggregate_spans",
    "pool_utilization",
    "render_pool",
    "render_stats",
]


@dataclass
class SpanStat:
    """Aggregated timing + resources for one span name."""

    name: str
    calls: int
    total_s: float
    self_s: float
    cpu_s: float = 0.0
    self_cpu_s: float = 0.0
    mem_peak_bytes: int = 0

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.total_s / self.calls if self.calls else 0.0


def aggregate_spans(events: Sequence[SpanRecord]) -> list[SpanStat]:
    """Per-name call counts, total/self time and CPU, sorted by self time."""
    child_ns: dict[int, int] = {}
    child_cpu_ns: dict[int, int] = {}
    for event in events:
        if event.parent_id is not None:
            child_ns[event.parent_id] = (
                child_ns.get(event.parent_id, 0) + event.duration_ns
            )
            child_cpu_ns[event.parent_id] = (
                child_cpu_ns.get(event.parent_id, 0) + event.cpu_ns
            )
    stats: dict[str, SpanStat] = {}
    for event in events:
        stat = stats.get(event.name)
        if stat is None:
            stat = stats[event.name] = SpanStat(event.name, 0, 0.0, 0.0)
        stat.calls += 1
        stat.total_s += event.duration_ns / 1e9
        stat.self_s += max(
            0, event.duration_ns - child_ns.get(event.span_id, 0)
        ) / 1e9
        stat.cpu_s += event.cpu_ns / 1e9
        stat.self_cpu_s += max(
            0, event.cpu_ns - child_cpu_ns.get(event.span_id, 0)
        ) / 1e9
        stat.mem_peak_bytes = max(stat.mem_peak_bytes, event.mem_peak_bytes)
    return sorted(
        stats.values(), key=lambda s: (-s.self_s, s.name)
    )


def _format_bytes(n: int) -> str:
    """'-' for zero (deep memory off), else a compact KiB/MiB figure."""
    if n <= 0:
        return "-"
    if n < 1024 * 1024:
        return f"{n / 1024.0:.0f}K"
    return f"{n / (1024.0 * 1024.0):.1f}M"


# --------------------------------------------------------- pool utilization


def pool_utilization(metrics: Mapping[str, object]) -> list[dict[str, float]]:
    """Per-worker busy/idle seconds from a metrics snapshot.

    The pool publishes ``pool.worker.<i>.busy_s`` / ``.idle_s`` /
    ``.tasks`` gauges (see :mod:`repro.perf.pool`); this groups them back
    into one row per worker ordinal, sorted by ordinal.
    """
    workers: dict[int, dict[str, float]] = {}
    for name, payload in metrics.items():
        if not name.startswith("pool.worker."):
            continue
        parts = name.split(".")
        if len(parts) != 4:
            continue
        try:
            ordinal = int(parts[2])
        except ValueError:
            continue
        value = payload.get("value", 0.0) if isinstance(payload, dict) else 0.0
        workers.setdefault(ordinal, {"worker": float(ordinal)})[parts[3]] = (
            float(value)
        )
    return [workers[ordinal] for ordinal in sorted(workers)]


def render_pool(metrics: Mapping[str, object]) -> str:
    """Worker-utilization table, or '' when no pool metrics are present."""
    rows = pool_utilization(metrics)
    if not rows:
        return ""
    lines = [
        "pool workers:",
        f"  {'worker':<8} {'tasks':>7} {'busy s':>9} {'idle s':>9} "
        f"{'util %':>7}",
    ]
    for row in rows:
        busy = row.get("busy_s", 0.0)
        idle = row.get("idle_s", 0.0)
        alive = busy + idle
        util = 100.0 * busy / alive if alive > 0 else 0.0
        lines.append(
            f"  {int(row['worker']):<8d} {int(row.get('tasks', 0)):>7d} "
            f"{busy:>9.3f} {idle:>9.3f} {util:>6.1f}%"
        )
    return "\n".join(lines)


def render_stats(
    events: Sequence[SpanRecord],
    registry: MetricsRegistry | None = None,
    top: int = 15,
) -> str:
    """The ``repro-fsatpg stats`` report: top spans + metric tables."""
    lines: list[str] = []
    stats = aggregate_spans(events)
    wall = sum(
        e.duration_ns for e in events if e.parent_id is None
    ) / 1e9
    lines.append(
        f"spans: {len(events)} events, {len(stats)} distinct names, "
        f"{wall:.3f}s in root spans"
    )
    if stats:
        shown = stats[:top]
        # Size the name column from what is actually rendered: long span
        # names (faultsim.ppsfp.build, atpg.*) must not shear the table.
        width = max(4, max(len(stat.name) for stat in shown))
        lines.append(
            f"  {'span':<{width}} {'calls':>7} {'total s':>9} {'self s':>9} "
            f"{'self %':>7} {'cpu s':>9} {'peak mem':>9}"
        )
        total_self = sum(stat.self_s for stat in stats) or 1.0
        for stat in shown:
            lines.append(
                f"  {stat.name:<{width}} {stat.calls:>7d} "
                f"{stat.total_s:>9.3f} {stat.self_s:>9.3f} "
                f"{100.0 * stat.self_s / total_self:>6.1f}% "
                f"{stat.cpu_s:>9.3f} "
                f"{_format_bytes(stat.mem_peak_bytes):>9}"
            )
        if len(stats) > top:
            lines.append(f"  ... {len(stats) - top} more span name(s)")
    if registry is not None and len(registry):
        pool = render_pool(registry.snapshot())
        if pool:
            lines.append(pool)
        lines.append(registry.render())
    return "\n".join(lines)
