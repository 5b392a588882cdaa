"""Observability for the ATPG pipeline: spans, metrics, structured logging.

Three zero-dependency pieces, all disabled by default with unmeasurable
overhead at the instrumented call sites:

* :mod:`repro.obs.trace` — nested span tracing with JSONL and Chrome
  ``trace_event`` export (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket histograms
  for search effort, chaining decisions, fault-sim batches, cache traffic;
* :mod:`repro.obs.log` — a leveled structured logger gated by the CLI's
  global ``--verbose``/``--quiet`` flags.

Enable both collection systems for a block with :func:`observing`::

    from repro import obs

    with obs.observing() as session:
        run_pipeline()
    open("trace.json", "w").write(json.dumps(session.tracer.to_chrome()))
    print(session.registry.render())

Cross-process aggregation: worker processes (see :mod:`repro.perf.engine`)
install fresh collectors via :func:`enable_in_worker`, tasks drain them with
:func:`worker_snapshot`, and the parent folds each returned
:class:`ObsSnapshot` back in with :func:`absorb_snapshot` — worker spans
re-parent under the scheduler span that dispatched them, worker metrics
merge additively.  Span/metric naming conventions are documented in
``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.analytics import (
    Anomaly,
    Frame,
    ScalingFit,
    circuit_frame,
    detect_anomalies,
    diff_payload,
    diff_records,
    load_records,
    record_id,
    render_diff,
    render_fits_latex,
    render_fits_markdown,
    resolve_record,
    run_frame,
    scaling_fits,
    tables_payload,
)
from repro.obs.log import (
    ObsLogger,
    get_logger,
    set_verbosity,
    verbosity_from_flags,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_add,
    current_registry,
    gauge_set,
    histogram_observe,
    metrics_active,
    set_registry,
)
from repro.obs.provenance import (
    ProvenanceEvent,
    ProvenanceLog,
    current_provenance,
    decision_summary,
    provenance_active,
    set_provenance,
)
from repro.obs.report import (
    aggregate_spans,
    pool_utilization,
    render_pool,
    render_stats,
)
from repro.obs.resources import (
    ResourceUsage,
    UsageProbe,
    absorb_child_usage,
    deep_memory_active,
    disable_deep_memory,
    drain_worker_usage,
    enable_deep_memory,
    process_usage,
    reset_worker_usage,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    complete_event,
    current_tracer,
    events_from_jsonl,
    render_span_tree,
    set_tracer,
    span,
    span_tree,
    to_chrome,
    to_jsonl,
    traced,
    tracing_active,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "SECONDS_BUCKETS",
    "Anomaly",
    "Frame",
    "ScalingFit",
    "circuit_frame",
    "detect_anomalies",
    "diff_payload",
    "diff_records",
    "load_records",
    "record_id",
    "render_diff",
    "render_fits_latex",
    "render_fits_markdown",
    "resolve_record",
    "run_frame",
    "scaling_fits",
    "tables_payload",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsLogger",
    "ObsSnapshot",
    "Observation",
    "ProvenanceEvent",
    "ProvenanceLog",
    "ResourceUsage",
    "SpanRecord",
    "Tracer",
    "UsageProbe",
    "absorb_child_usage",
    "absorb_snapshot",
    "aggregate_spans",
    "deep_memory_active",
    "disable_deep_memory",
    "drain_worker_usage",
    "enable_deep_memory",
    "process_usage",
    "reset_worker_usage",
    "complete_event",
    "counter_add",
    "current_provenance",
    "current_registry",
    "current_tracer",
    "decision_summary",
    "disable",
    "enable",
    "enable_in_worker",
    "events_from_jsonl",
    "gauge_set",
    "get_logger",
    "histogram_observe",
    "in_worker",
    "is_active",
    "metrics_active",
    "observing",
    "pool_utilization",
    "provenance_active",
    "render_pool",
    "render_span_tree",
    "render_stats",
    "set_provenance",
    "set_registry",
    "set_tracer",
    "set_verbosity",
    "span",
    "span_tree",
    "to_chrome",
    "to_jsonl",
    "traced",
    "tracing_active",
    "validate_chrome_trace",
    "verbosity_from_flags",
    "worker_snapshot",
]


@dataclass
class Observation:
    """A live collection session: tracer + registry + provenance log."""

    tracer: Tracer
    registry: MetricsRegistry
    provenance: ProvenanceLog


@dataclass
class ObsSnapshot:
    """Picklable spans + metrics + provenance drained from one process.

    Worker CPU does not travel here: the pool sends it with every task
    result, observability on or off (see :mod:`repro.perf.pool`).
    """

    spans: list[SpanRecord] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    provenance: list[ProvenanceEvent] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.spans) or bool(self.metrics) or bool(self.provenance)


def enable() -> Observation:
    """Install fresh collectors (tracer, registry, provenance) process-wide."""
    tracer = Tracer()
    registry = MetricsRegistry()
    provenance = ProvenanceLog()
    set_tracer(tracer)
    set_registry(registry)
    set_provenance(provenance)
    return Observation(tracer, registry, provenance)


def disable() -> None:
    """Remove the process-wide collectors (collection stops)."""
    set_tracer(None)
    set_registry(None)
    set_provenance(None)


def is_active() -> bool:
    return tracing_active() or metrics_active() or provenance_active()


@contextmanager
def observing(*, deep_memory: bool = False) -> Iterator[Observation]:
    """Enable span + metric collection for a block; restores prior state.

    ``deep_memory=True`` additionally turns on tracemalloc-based per-span
    peak attribution for the block (real overhead — diagnostic runs only).
    """
    previous_tracer = current_tracer()
    previous_registry = current_registry()
    previous_provenance = current_provenance()
    session = enable()
    mem_enabled = False
    if deep_memory and not deep_memory_active():
        enable_deep_memory()
        mem_enabled = True
    try:
        yield session
    finally:
        if mem_enabled:
            disable_deep_memory()
        set_tracer(previous_tracer)
        set_registry(previous_registry)
        set_provenance(previous_provenance)


# -------------------------------------------------------- worker aggregation

_IN_WORKER = False


def enable_in_worker() -> None:
    """Install fresh collectors in a pool worker process.

    Called from the pool initializer when the parent had observability on.
    A forked worker inherits the parent's tracer object — including every
    event the parent already recorded — so a *fresh* pair is mandatory to
    keep worker snapshots disjoint from the parent log.
    """
    global _IN_WORKER
    _IN_WORKER = True
    enable()


def in_worker() -> bool:
    return _IN_WORKER


def worker_snapshot() -> ObsSnapshot | None:
    """Drain this worker's spans + metrics, or ``None`` outside a worker.

    Task functions call this at the end of each task; returning ``None``
    when running inline (serial fallback, ``jobs=1``) is what makes the
    merge idempotent — inline spans are already in the parent's log.
    """
    if not _IN_WORKER:
        return None
    tracer = current_tracer()
    registry = current_registry()
    provenance = current_provenance()
    snapshot = ObsSnapshot()
    if tracer is not None:
        snapshot.spans = tracer.snapshot(reset=True)
    if registry is not None:
        snapshot.metrics = registry.snapshot()
        set_registry(MetricsRegistry())
    if provenance is not None:
        snapshot.provenance = provenance.snapshot(reset=True)
    return snapshot


def absorb_snapshot(
    snapshot: ObsSnapshot | None, parent_id: int | None = None
) -> None:
    """Fold a worker's :class:`ObsSnapshot` into the parent's collectors.

    Worker root spans re-parent under ``parent_id`` (default: the span open
    in the parent right now); metrics merge additively.  ``None`` snapshots
    (inline execution) are ignored.
    """
    if snapshot is None:
        return
    tracer = current_tracer()
    if tracer is not None and snapshot.spans:
        tracer.absorb(snapshot.spans, parent_id)
    registry = current_registry()
    if registry is not None and snapshot.metrics:
        registry.merge_snapshot(snapshot.metrics)
    provenance = current_provenance()
    if provenance is not None and snapshot.provenance:
        provenance.absorb(snapshot.provenance)
