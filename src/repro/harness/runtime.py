"""Timing helpers for the experiment harness and the perf engine.

:class:`Stopwatch`/:func:`stopwatch` time a single block.  :class:`StageTimings`
extends that into structured per-stage records — one :class:`StageRecord` per
(circuit, stage) pair.  The perf engine merges the timings of its worker
processes into one object, and ``repro-fsatpg bench`` serializes them into
``BENCH_perf.json``.

Since the :mod:`repro.obs` subsystem landed, ``StageTimings`` is a thin
wrapper over the span tracer: :meth:`StageTimings.stage` *is* a span — the
recorded seconds are read back from the span's own measurement — and
explicitly-recorded stages (:meth:`StageTimings.add`) emit an equivalent
completed span.  When tracing is enabled, ``BENCH_perf.json`` stage totals
and the exported trace therefore come from the same clock readings and can
never disagree; when tracing is disabled the span calls degrade to bare
monotonic-clock reads.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.trace import _SpanContext, complete_event
from repro.obs.trace import span as trace_span

__all__ = [
    "STAGE_ATPG",
    "STAGE_BRIDGING",
    "STAGE_COLLAPSE",
    "STAGE_DETECTABILITY",
    "STAGE_FAULT_SIM",
    "STAGE_GENERATION",
    "STAGE_SCA",
    "STAGE_SYNTHESIS",
    "STAGE_UIO",
    "Stopwatch",
    "stopwatch",
    "StageRecord",
    "StageTimings",
]

#: Canonical stage names used in timing records and ``BENCH_perf.json``.
STAGE_UIO = "uio"
STAGE_SYNTHESIS = "synthesis"
STAGE_GENERATION = "generation"
STAGE_DETECTABILITY = "detectability"
STAGE_FAULT_SIM = "fault-sim"
STAGE_SCA = "sca"
STAGE_BRIDGING = "bridging"
STAGE_COLLAPSE = "collapse"
STAGE_ATPG = "atpg"


class Stopwatch:
    """Mutable elapsed-seconds holder filled in by :func:`stopwatch`."""

    def __init__(self) -> None:
        self.elapsed_s: float = 0.0

    def __repr__(self) -> str:
        return f"<Stopwatch {self.elapsed_s:.3f}s>"


@contextmanager
def stopwatch() -> Iterator[Stopwatch]:
    """Time a block::

        with stopwatch() as clock:
            work()
        print(clock.elapsed_s)
    """
    clock = Stopwatch()
    started = time.perf_counter()
    try:
        yield clock
    finally:
        clock.elapsed_s = time.perf_counter() - started


@dataclass(frozen=True)
class StageRecord:
    """One timed pipeline stage of one circuit."""

    circuit: str
    stage: str
    seconds: float


class StageTimings:
    """Accumulates :class:`StageRecord` entries across circuits and processes.

    The container is picklable (a plain list), so worker processes return
    their timings in task results and the scheduler merges them.
    """

    def __init__(self) -> None:
        self.records: list[StageRecord] = []

    # ------------------------------------------------------------ recording

    def add(self, circuit: str, stage: str, seconds: float) -> None:
        """Record an externally-measured stage (also emitted as a span)."""
        self.records.append(StageRecord(circuit, stage, seconds))
        complete_event(stage, seconds, circuit=circuit)

    @contextmanager
    def stage(self, circuit: str, stage: str) -> Iterator[_SpanContext]:
        """Time one stage as a span and record it::

            with timings.stage("lion", "uio") as sp:
                compute()
                sp.set(states=8)     # optional: attributes of the span

        The seconds recorded into ``BENCH_perf.json`` are the span's own
        measurement, so trace and bench can never disagree.
        """
        with trace_span(stage, circuit=circuit) as sp:
            yield sp
        self.records.append(StageRecord(circuit, stage, sp.elapsed_s))

    def merge(self, other: "StageTimings") -> None:
        """Fold another timings object (e.g. from a worker) into this one."""
        self.records.extend(other.records)

    # ------------------------------------------------------------ reporting

    def total(self, stage: str | None = None, circuit: str | None = None) -> float:
        """Summed seconds, optionally filtered by stage and/or circuit."""
        return sum(
            record.seconds
            for record in self.records
            if (stage is None or record.stage == stage)
            and (circuit is None or record.circuit == circuit)
        )

    def stages(self) -> tuple[str, ...]:
        """Distinct stage names in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.stage, None)
        return tuple(seen)

    def circuits(self) -> tuple[str, ...]:
        """Distinct circuit names in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            if record.circuit:
                seen.setdefault(record.circuit, None)
        return tuple(seen)

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``BENCH_perf.json`` per-run block)."""
        return {
            "stage_seconds": {name: self.total(stage=name) for name in self.stages()},
            "per_circuit": {
                circuit: {
                    "seconds": self.total(circuit=circuit),
                    "stages": {
                        name: self.total(stage=name, circuit=circuit)
                        for name in self.stages()
                        if any(
                            r.circuit == circuit and r.stage == name
                            for r in self.records
                        )
                    },
                }
                for circuit in self.circuits()
            },
        }

    def __repr__(self) -> str:
        return f"<StageTimings {len(self.records)} records>"
