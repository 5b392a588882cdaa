"""Search-outcome vocabulary and budget of the structural ATPG search.

PODEM is a *complete* bounded search: it returns :data:`STATUS_TEST` with
a cube, :data:`STATUS_UNTESTABLE` only after the whole decision tree was
explored without exceeding the budget (which makes the verdict a proof),
or :data:`STATUS_ABORTED` the moment the backtrack limit or time budget
is exhausted — an aborted search proves nothing and must never be read as
"untestable".

Search forensics: attach a :class:`SearchTrace` to the budget and the
search records every decision and backtrack — line, value, stack depth
and D-frontier size — into a bounded ring buffer.  The last ``capacity``
events survive, plus the total recorded, so an aborted verdict carries a
replayable record of *how* the search died (thrashing one reconvergent
region vs. wandering a huge tree) instead of a one-word reason.  Events
are plain frozen dataclasses: picklable, JSON-friendly, deterministic for
a deterministic search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

__all__ = [
    "STATUS_TEST",
    "STATUS_UNTESTABLE",
    "STATUS_ABORTED",
    "ABORT_BACKTRACKS",
    "ABORT_TIME",
    "DEFAULT_BACKTRACK_LIMIT",
    "DEFAULT_TRACE_CAPACITY",
    "SearchBudget",
    "SearchEvent",
    "SearchOutcome",
    "SearchTrace",
]

STATUS_TEST = "test"
STATUS_UNTESTABLE = "untestable"
STATUS_ABORTED = "aborted"

ABORT_BACKTRACKS = "backtrack-limit"
ABORT_TIME = "time-budget"

#: Generous default: the bundled benchmarks prove every verdict well below
#: this, so hitting it in practice signals a pathological circuit.
DEFAULT_BACKTRACK_LIMIT = 100_000

#: Ring-buffer size for per-fault search traces.  256 events bounds the
#: memory and pickling cost of tracing *every* fault while keeping the
#: whole endgame of an aborted search (the part worth reading).
DEFAULT_TRACE_CAPACITY = 256


@dataclass(frozen=True)
class SearchEvent:
    """One recorded search step.

    ``kind`` is ``"decision"`` (a new assignment was pushed) or
    ``"backtrack"`` (the search flipped or popped a decision).  ``depth``
    is the decision-stack depth *after* the step; ``d_frontier`` is the
    open D-frontier's size at that moment.
    """

    kind: str
    line: str
    value: int
    depth: int
    d_frontier: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "line": self.line,
            "value": self.value,
            "depth": self.depth,
            "d_frontier": self.d_frontier,
            # PODEM justifies no internal lines, so its J-frontier is
            # always empty; the key stays for the payload's readers.
            "j_frontier": 0,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SearchEvent":
        return cls(
            kind=str(data["kind"]),
            line=str(data["line"]),
            value=int(data["value"]),
            depth=int(data["depth"]),
            d_frontier=int(data["d_frontier"]),
        )


class SearchTrace:
    """Bounded ring buffer of :class:`SearchEvent`; keeps the newest events."""

    __slots__ = ("capacity", "total", "_events", "_cursor")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.total = 0
        self._events: list[SearchEvent] = []
        self._cursor = 0

    def record(
        self,
        kind: str,
        line: str,
        value: int,
        depth: int,
        d_frontier: int = 0,
    ) -> None:
        event = SearchEvent(kind, line, value, depth, d_frontier)
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self._events[self._cursor] = event
            self._cursor = (self._cursor + 1) % self.capacity
        self.total += 1

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring (``total`` minus retained)."""
        return self.total - len(self._events)

    def events(self) -> tuple[SearchEvent, ...]:
        """Retained events, oldest first."""
        return tuple(self._events[self._cursor:] + self._events[:self._cursor])

    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "dropped": self.dropped,
            "events": [event.to_dict() for event in self.events()],
        }


class SearchBudget:
    """Backtrack / wall-clock budget (and optional trace) of one search."""

    def __init__(
        self,
        backtrack_limit: int,
        time_budget_s: float | None = None,
        trace: SearchTrace | None = None,
    ) -> None:
        self.backtrack_limit = backtrack_limit
        self.deadline = (
            None if time_budget_s is None else time.monotonic() + time_budget_s
        )
        self.trace = trace

    def time_exceeded(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one bounded fault search.

    ``cube`` (only for :data:`STATUS_TEST`) holds one entry per circuit
    input: 0, 1, or -1 for don't-care.  ``decisions``/``backtracks`` are
    the bounded-search certificate: an untestable verdict says the search
    explored every branch within ``backtracks <= limit``.
    """

    status: str
    cube: tuple[int, ...] | None
    decisions: int
    backtracks: int
    aborted_reason: str | None = None

    @property
    def found(self) -> bool:
        return self.status == STATUS_TEST
