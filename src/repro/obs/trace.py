"""Zero-dependency span tracer for the ATPG pipeline.

A *span* is a named, timed interval with optional attributes, nested under
whatever span was open when it started.  Instrumentation sites use the
:func:`span` context manager (or the :func:`traced` decorator)::

    with span("uio.search", circuit="lion") as sp:
        table = compute()
        sp.set(found=table.n_found)

With no tracer installed (the default) a span still measures its own
duration — callers like ``StageTimings`` read ``sp.elapsed_s`` either way —
but nothing is recorded; the only cost is two monotonic-clock reads per
span, which is unmeasurable at the call granularity used here (one span per
pipeline stage, never per search node).  Installing a :class:`Tracer`
(:func:`set_tracer`, usually via :func:`repro.obs.observing`) turns the same
call sites into an event log exportable as

* JSONL — one event object per line (:meth:`Tracer.to_jsonl`), and
* Chrome ``trace_event`` JSON (:meth:`Tracer.to_chrome`), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.

Span identity, parentage, and ordering are deterministic for a
deterministic program: ids are sequential, events are appended in
completion order, and :func:`span_tree` strips every timestamp so tests can
pin the exact tree two runs must share.  Worker-process events are merged
with :meth:`Tracer.absorb`, which re-ids them and re-parents their roots
under the parent process's current span; process ids are normalized to
stable ordinals ("main", "worker-1", ...) at export time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs.resources import span_mem_enter, span_mem_exit

__all__ = [
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "tracing_active",
    "span",
    "traced",
    "complete_event",
    "span_tree",
    "render_span_tree",
    "to_chrome",
    "to_jsonl",
    "events_from_jsonl",
    "validate_chrome_trace",
]

_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass
class SpanRecord:
    """One finished span.  Plain data: picklable, JSON-serializable.

    ``cpu_ns`` is the process CPU time consumed inside the span
    (``time.process_time_ns`` delta — includes child spans, exactly like
    ``duration_ns`` does); ``mem_peak_bytes`` is the tracemalloc
    high-water mark across the span's subtree, populated only when deep
    memory tracking is on (:func:`repro.obs.resources.enable_deep_memory`).
    Both are trailing keyword-style fields so existing positional
    construction keeps working.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    duration_ns: int
    pid: int
    attrs: dict[str, Any] = field(default_factory=dict)
    cpu_ns: int = 0
    mem_peak_bytes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_us": self.start_ns // 1000,
            "dur_us": self.duration_ns // 1000,
            "cpu_us": self.cpu_ns // 1000,
            "mem_peak_bytes": self.mem_peak_bytes,
            "pid": self.pid,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects :class:`SpanRecord` events for one process.

    Not thread-safe: the pipeline is single-threaded per process, and each
    worker process gets its own tracer (see :mod:`repro.perf.engine`).
    """

    def __init__(self) -> None:
        self.events: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 1
        self.pid = os.getpid()

    # ------------------------------------------------------------ recording

    def allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @property
    def current_span_id(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def push(self, span_id: int) -> None:
        self._stack.append(span_id)

    def pop(self) -> None:
        self._stack.pop()

    def record(self, record: SpanRecord) -> None:
        self.events.append(record)

    def add_complete(
        self,
        name: str,
        duration_s: float,
        *,
        start_ns: int | None = None,
        cpu_ns: int = 0,
        mem_peak_bytes: int = 0,
        **attrs: Any,
    ) -> SpanRecord:
        """Append an already-timed span as a child of the current span.

        Used for aggregate phases (e.g. the summed transfer-search time of
        one generation run) and for stage records timed by a stopwatch
        (:meth:`~repro.harness.runtime.StageTimings.add`), where the
        interval was measured elsewhere, and for zero-second ATPG-cache
        hits.
        """
        duration_ns = max(0, int(duration_s * 1e9))
        if start_ns is None:
            start_ns = time.perf_counter_ns() - duration_ns
        record = SpanRecord(
            self.allocate_id(),
            self.current_span_id,
            name,
            start_ns,
            duration_ns,
            self.pid,
            dict(attrs),
            cpu_ns=cpu_ns,
            mem_peak_bytes=mem_peak_bytes,
        )
        self.record(record)
        return record

    # -------------------------------------------------------------- merging

    def absorb(
        self, events: Sequence[SpanRecord], parent_id: int | None = None
    ) -> None:
        """Merge foreign events (typically a worker snapshot) into this log.

        Incoming spans are re-identified to avoid id collisions and their
        roots are re-parented under ``parent_id`` (default: the span open
        right now), so a worker's whole tree hangs off the scheduler span
        that dispatched it.
        """
        if parent_id is None:
            parent_id = self.current_span_id
        mapping: dict[int, int] = {}
        for event in events:
            mapping[event.span_id] = self.allocate_id()
        for event in events:
            parent = (
                mapping[event.parent_id]
                if event.parent_id in mapping
                else parent_id
            )
            self.record(
                SpanRecord(
                    mapping[event.span_id],
                    parent,
                    event.name,
                    event.start_ns,
                    event.duration_ns,
                    event.pid,
                    dict(event.attrs),
                    cpu_ns=event.cpu_ns,
                    mem_peak_bytes=event.mem_peak_bytes,
                )
            )

    def snapshot(self, reset: bool = False) -> list[SpanRecord]:
        """The events recorded so far; ``reset`` drains them."""
        events = list(self.events)
        if reset:
            self.events.clear()
        return events

    # ------------------------------------------------------------ exporting

    def to_chrome(self) -> dict[str, Any]:
        return to_chrome(self.events)

    def to_jsonl(self) -> str:
        return to_jsonl(self.events)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.events)} events, depth {len(self._stack)}>"


# ------------------------------------------------------------- active tracer

_TRACER: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The process-wide tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or remove, with ``None``) the process-wide tracer.

    Returns the previously active tracer so callers can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def tracing_active() -> bool:
    return _TRACER is not None


class _SpanContext:
    """Context manager + handle returned by :func:`span`.

    Always measures elapsed time (``elapsed_s``); records an event only
    when a tracer is active at entry.
    """

    __slots__ = (
        "name",
        "attrs",
        "elapsed_s",
        "_tracer",
        "_span_id",
        "_start_ns",
        "_cpu_start_ns",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.elapsed_s: float = 0.0
        self._tracer: Tracer | None = None
        self._span_id = 0
        self._start_ns = 0
        self._cpu_start_ns = 0

    def set(self, **attrs: Any) -> None:
        """Attach attributes after the span started."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanContext":
        tracer = _TRACER
        self._tracer = tracer
        if tracer is not None:
            self._span_id = tracer.allocate_id()
            tracer.push(self._span_id)
            span_mem_enter()
            self._cpu_start_ns = time.process_time_ns()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end_ns = time.perf_counter_ns()
        self.elapsed_s = (end_ns - self._start_ns) / 1e9
        tracer = self._tracer
        if tracer is not None:
            cpu_ns = time.process_time_ns() - self._cpu_start_ns
            mem_peak = span_mem_exit()
            tracer.pop()
            tracer.record(
                SpanRecord(
                    self._span_id,
                    tracer.current_span_id,
                    self.name,
                    self._start_ns,
                    end_ns - self._start_ns,
                    tracer.pid,
                    self.attrs,
                    cpu_ns=cpu_ns,
                    mem_peak_bytes=mem_peak,
                )
            )


def span(name: str, **attrs: Any) -> _SpanContext:
    """Open a named span around a block::

        with span("testgen.chaining", circuit="lion") as sp:
            run()
            sp.set(tests=len(tests))
    """
    return _SpanContext(name, attrs)


def traced(name: str | None = None, **attrs: Any) -> Callable[[_F], _F]:
    """Decorator form of :func:`span`; defaults to the function's name."""

    def decorate(function: _F) -> _F:
        span_name = name or function.__name__

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(span_name, **attrs):
                return function(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def complete_event(name: str, duration_s: float, **attrs: Any) -> None:
    """Record an already-measured interval (no-op when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.add_complete(name, duration_s, **attrs)


# ----------------------------------------------------------------- exporting


def _pid_ordinals(events: Iterable[SpanRecord]) -> dict[int, int]:
    """Stable pid → ordinal mapping: 0 for the first-seen pid, then 1, 2, ...

    Raw pids vary run to run; ordinals (in first-appearance order, which is
    deterministic) keep exports comparable modulo timestamps.
    """
    ordinals: dict[int, int] = {}
    for event in events:
        if event.pid not in ordinals:
            ordinals[event.pid] = len(ordinals)
    return ordinals


def to_chrome(events: Sequence[SpanRecord]) -> dict[str, Any]:
    """Chrome ``trace_event`` JSON object (the dict form with metadata).

    Spans become complete ("ph": "X") events with microsecond timestamps
    rebased to the earliest span; each process gets a ``process_name``
    metadata record ("main", "worker-1", ...).  Spans that measured a
    tracemalloc peak additionally emit a ``mem_peak`` counter ("ph": "C")
    sample at their start timestamp, so trace viewers draw a per-process
    memory track alongside the flame chart.
    """
    ordinals = _pid_ordinals(events)
    base_ns = min((event.start_ns for event in events), default=0)
    trace_events: list[dict[str, Any]] = []
    for pid, ordinal in ordinals.items():
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": ordinal,
                "tid": 0,
                "args": {"name": "main" if ordinal == 0 else f"worker-{ordinal}"},
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event.name,
                "cat": "repro",
                "ph": "X",
                "ts": (event.start_ns - base_ns) / 1000.0,
                "dur": event.duration_ns / 1000.0,
                "pid": ordinals[event.pid],
                "tid": 0,
                "args": {"id": event.span_id, "parent": event.parent_id,
                         "cpu_us": event.cpu_ns / 1000.0,
                         "mem_peak_bytes": event.mem_peak_bytes,
                         **event.attrs},
            }
        )
        if event.mem_peak_bytes > 0:
            trace_events.append(
                {
                    "name": "mem_peak",
                    "cat": "repro",
                    "ph": "C",
                    "ts": (event.start_ns - base_ns) / 1000.0,
                    "pid": ordinals[event.pid],
                    "tid": 0,
                    "args": {"bytes": event.mem_peak_bytes},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def to_jsonl(events: Sequence[SpanRecord]) -> str:
    """One compact JSON object per line, in completion order."""
    return "\n".join(
        json.dumps(event.to_dict(), sort_keys=True, default=str)
        for event in events
    ) + ("\n" if events else "")


def events_from_jsonl(text: str) -> list[SpanRecord]:
    """Parse :func:`to_jsonl` output back into records (for ``stats``)."""
    events: list[SpanRecord] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        events.append(
            SpanRecord(
                int(data["id"]),
                None if data["parent"] is None else int(data["parent"]),
                str(data["name"]),
                int(data["start_us"]) * 1000,
                int(data["dur_us"]) * 1000,
                int(data.get("pid", 0)),
                dict(data.get("attrs", {})),
                cpu_ns=int(data.get("cpu_us", 0)) * 1000,
                mem_peak_bytes=int(data.get("mem_peak_bytes", 0)),
            )
        )
    return events


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema check for Chrome ``trace_event`` output; returns problems.

    Accepts both the object form (``{"traceEvents": [...]}``) and the bare
    array form.  An empty list means the trace is loadable by
    ``chrome://tracing`` / Perfetto as far as the documented required
    fields go: every event needs ``name``/``ph``/``pid``/``tid``, complete
    events additionally need numeric ``ts`` and ``dur``.  Traces produced
    by this package (``cat`` = ``"repro"``) must additionally carry the
    resource-telemetry fields: numeric ``args.cpu_us`` and
    ``args.mem_peak_bytes`` on every complete event.
    """
    problems: list[str] = []
    if isinstance(obj, dict):
        events = obj.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object lacks a 'traceEvents' array"]
    elif isinstance(obj, list):
        events = obj
    else:
        return ["trace must be a JSON object or array"]
    known_phases = set("BEXiICsftPNODMp(")  # documented trace_event phases
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing required field {key!r}")
        phase = event.get("ph")
        if not (isinstance(phase, str) and len(phase) == 1
                and phase in known_phases):
            problems.append(f"{where}: invalid phase {phase!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    problems.append(f"{where}: {key!r} must be a number")
            if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
                problems.append(f"{where}: negative duration")
            if event.get("cat") == "repro":
                args = event.get("args")
                if not isinstance(args, dict):
                    problems.append(f"{where}: repro event lacks 'args'")
                else:
                    for key in ("cpu_us", "mem_peak_bytes"):
                        if not isinstance(args.get(key), (int, float)):
                            problems.append(
                                f"{where}: repro event args.{key} "
                                "must be a number"
                            )
        elif phase == "C":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: 'ts' must be a number")
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter event lacks 'args'")
            elif not all(
                isinstance(value, (int, float)) for value in args.values()
            ):
                problems.append(
                    f"{where}: counter args must all be numeric"
                )
    return problems


# ----------------------------------------------------------------- span tree


def span_tree(events: Sequence[SpanRecord]) -> list[dict[str, Any]]:
    """Timestamp-free nested view: ``{"name", "children"}`` per span.

    Children are ordered by span id — allocation order, which is start
    order within a process and absorption order across processes, and
    never depends on clock readings (worker monotonic clocks are not
    comparable to the parent's).  Ids, timestamps, pids, and attributes
    are stripped, so two runs of the same workload yield *identical*
    trees — the property the determinism tests pin.
    """
    by_parent: dict[int | None, list[SpanRecord]] = {}
    known = {event.span_id for event in events}
    for event in events:
        parent = event.parent_id if event.parent_id in known else None
        by_parent.setdefault(parent, []).append(event)

    def build(parent: int | None) -> list[dict[str, Any]]:
        children = sorted(by_parent.get(parent, ()), key=lambda e: e.span_id)
        return [
            {"name": event.name, "children": build(event.span_id)}
            for event in children
        ]

    return build(None)


def render_span_tree(events: Sequence[SpanRecord]) -> str:
    """ASCII rendering of :func:`span_tree` (one span per line)."""
    lines: list[str] = []

    def walk(nodes: list[dict[str, Any]], depth: int) -> None:
        for node in nodes:
            lines.append("  " * depth + node["name"])
            walk(node["children"], depth + 1)

    walk(span_tree(events), 0)
    return "\n".join(lines)
