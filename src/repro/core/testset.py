"""Scan tests and test sets, with the paper's cost accounting.

A *test* starts and ends with a scan operation and applies one or more
primary input combinations in between (the paper's terminology, Section 1).
Its *length* is the number of input combinations.  Tests keep their internal
structure — which inputs exercise a target transition, which replay a UIO
sequence, which are transfer moves — as a flat *layout* of three ints per
segment, read as :class:`Segment` views, so that coverage verification and
pretty-printing do not have to re-derive it.

The clock-cycle model (Table 7):

    cycles = M * N_SV * (N_T + 1) + sum of test lengths

where ``N_SV`` cycles are needed per scan operation, ``N_T`` tests share
``N_T + 1`` scan operations (each test's scan-out doubles as nothing — the
paper counts scan-in and scan-out per test but adjacent tests overlap into
``N_T + 1`` total), and ``M`` is the scan-to-functional clock ratio.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import GenerationError
from repro.fsm.state_table import StateTable

__all__ = [
    "SegmentKind",
    "SEGMENT_KINDS",
    "KIND_CODES",
    "Segment",
    "ScanTest",
    "TestSet",
]


class SegmentKind(enum.Enum):
    """Role of a run of inputs inside a scan test."""

    TRANSITION = "transition"  #: one input exercising a target transition
    UIO = "uio"  #: a unique input-output sequence verifying the next state
    TRANSFER = "transfer"  #: a transfer sequence moving to a useful state
    PARTIAL_UIO = "partial_uio"  #: one sequence of a partial UIO set (extension)


#: A layout stores each segment's kind as a code: the kind's index here.
SEGMENT_KINDS: tuple[SegmentKind, ...] = tuple(SegmentKind)
KIND_CODES: dict[SegmentKind, int] = {
    kind: code for code, kind in enumerate(SEGMENT_KINDS)
}
_CODES = frozenset(KIND_CODES.values())
_TRANSITION = KIND_CODES[SegmentKind.TRANSITION]


@dataclass(frozen=True)
class Segment:
    """A typed run of input combinations inside a test.

    ``start_state`` is the (fault-free) state in which the first input of
    the segment is applied.  For ``TRANSITION`` segments, ``inputs`` has
    exactly one element and the segment exercises the transition
    ``(start_state, inputs[0])``.  :attr:`ScanTest.segments` cuts these
    views out of a test's inputs each time it is read.
    """

    kind: SegmentKind
    start_state: int
    inputs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind is SegmentKind.TRANSITION and len(self.inputs) != 1:
            raise GenerationError("a TRANSITION segment carries exactly one input")
        if not self.inputs:
            raise GenerationError("segments cannot be empty")


@dataclass(frozen=True)
class ScanTest:
    """One scan test: scan-in ``initial_state``, apply ``inputs``, scan-out.

    ``layout`` holds the segment structure flat, three ints per segment: its
    kind code (an index into :data:`SEGMENT_KINDS`), its start state, and the
    offset in ``inputs`` where it ends; each segment starts where the one
    before it ends.  An empty layout is a test without segment structure.
    ``tested`` lists the ``(state, input)`` transitions this test is
    credited with testing, in the order they are exercised.
    """

    initial_state: int
    inputs: tuple[int, ...]
    final_state: int
    layout: tuple[int, ...] = ()
    tested: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.inputs:
            raise GenerationError("a test applies at least one input combination")
        layout = self.layout
        if not layout:
            return
        if len(layout) % 3:
            raise GenerationError("a layout holds three ints per segment")
        # The layout must tile the inputs.  Generated tests average about
        # eight segments, where this one loop costs half as much as a
        # C-level pass per condition over slices of the layout.
        start = 0
        for index in range(0, len(layout), 3):
            kind, end = layout[index], layout[index + 2]
            if end <= start:
                raise GenerationError(
                    "segments cannot be empty: layout ends must strictly increase"
                )
            if kind not in _CODES:
                raise GenerationError(f"unknown segment kind code {kind!r}")
            if kind == _TRANSITION and end - start != 1:
                raise GenerationError("a TRANSITION segment carries exactly one input")
            start = end
        if start != len(self.inputs):
            raise GenerationError("segments do not concatenate to inputs")

    @classmethod
    def from_segments(
        cls,
        initial_state: int,
        final_state: int,
        segments: Iterable[Segment],
        tested: Iterable[tuple[int, int]] = (),
        inputs: Sequence[int] | None = None,
    ) -> "ScanTest":
        """The test applying ``segments`` in order.

        Its inputs are the segments' inputs joined.  When ``inputs`` is given
        (a test read from outside the program), the segments must
        concatenate to exactly those inputs; with no segments, the result is
        a test of those inputs without segment structure.
        """
        joined: list[int] = []
        layout: list[int] = []
        for segment in segments:
            joined += segment.inputs
            layout += (KIND_CODES[segment.kind], segment.start_state, len(joined))
        if inputs is None:
            inputs = joined
        elif layout and list(inputs) != joined:
            raise GenerationError("segments do not concatenate to inputs")
        return cls(
            initial_state, tuple(inputs), final_state, tuple(layout), tuple(tested)
        )

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments, as views cut from ``inputs`` on each read."""
        layout, inputs = self.layout, self.inputs
        ends = layout[2::3]
        return tuple(
            [
                Segment(SEGMENT_KINDS[kind], state, inputs[start:end])
                for kind, state, start, end in zip(
                    layout[0::3], layout[1::3], (0, *ends), ends
                )
            ]
        )

    @property
    def length(self) -> int:
        """Number of primary input combinations (the paper's test length)."""
        return len(self.inputs)

    def replay(self, table: StateTable) -> tuple[int, tuple[int, ...]]:
        """Fault-free ``(final_state, outputs)`` of this test on ``table``."""
        return table.run(self.initial_state, self.inputs)

    def check_consistency(
        self, table: StateTable, rows: Sequence[Sequence[int]] | None = None
    ) -> None:
        """Validate segment chaining and the final state against ``table``.

        One walk over the inputs checks each segment's claimed start state,
        every state and input against the table's ranges (raising the
        table's own :class:`StateTableError`), and the final state.
        ``rows`` is ``table.next_state.tolist()``, passed by callers that
        check many tests and built here otherwise: the checker reads the
        array, never the memoized views the generator reads.
        """
        if rows is None:
            rows = table.next_state.tolist()
        n_states, n_inputs = table.n_states, table.n_input_combinations
        state = self.initial_state
        layout, inputs = self.layout, self.inputs
        # (claimed start state, end) per segment; a test without a layout
        # is one unclaimed run of all its inputs.
        segments = (
            zip(layout[1::3], layout[2::3]) if layout else ((state, len(inputs)),)
        )
        start = 0
        for claimed, end in segments:
            if claimed != state:
                raise GenerationError(
                    f"segment claims start state {claimed}, machine is in {state}"
                )
            if not 0 <= state < n_states:
                table.step(state, 0)  # raises the table's range error
            for combo in inputs[start:end]:
                if not 0 <= combo < n_inputs:
                    table.step(state, combo)  # raises the table's range error
                state = rows[state][combo]
            start = end
        if state != self.final_state:
            raise GenerationError(
                f"test records final state {self.final_state}, machine "
                f"reaches {state}"
            )

    def __str__(self) -> str:
        body = ",".join(str(combo) for combo in self.inputs)
        return f"({self.initial_state}, ({body}), {self.final_state})"


@dataclass
class TestSet:
    """An ordered collection of scan tests for one machine."""

    machine_name: str
    n_state_variables: int
    n_transitions: int
    tests: list[ScanTest] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_state_variables < 1:
            raise GenerationError("n_state_variables must be >= 1")
        if self.n_transitions < 1:
            raise GenerationError("n_transitions must be >= 1")

    # ------------------------------------------------------------- measures

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    @property
    def total_length(self) -> int:
        """Sum of test lengths — the paper's Table 5 ``len`` column."""
        return sum(test.length for test in self.tests)

    @property
    def n_length_one(self) -> int:
        return sum(1 for test in self.tests if test.length == 1)

    @property
    def pct_transitions_by_length_one(self) -> float:
        """Percentage of transitions tested by length-1 tests (Table 5 ``1len``).

        A length-1 test exercises exactly one transition, so this is the
        number of length-1 tests over the machine's transition count.
        """
        return 100.0 * self.n_length_one / self.n_transitions

    def clock_cycles(self, scan_ratio: int = 1, n_chains: int = 1) -> int:
        """Test application time per the paper's Table 7 formula.

        ``scan_ratio`` is ``M``, the scan clock period in functional clock
        periods (the paper's slow-scan discussion at the end of Section 2).
        ``n_chains`` splits the state register over several balanced scan
        chains, so each scan operation takes ``ceil(N_SV / n_chains)``
        shifts — a standard DFT lever the paper's single-chain model is the
        special case of.
        """
        if scan_ratio < 1:
            raise GenerationError("scan_ratio must be >= 1")
        if n_chains < 1:
            raise GenerationError("n_chains must be >= 1")
        if not self.tests:
            return 0
        shift_depth = -(-self.n_state_variables // n_chains)  # ceil division
        scan_cycles = shift_depth * (self.n_tests + 1)
        return scan_ratio * scan_cycles + self.total_length

    def cycles_pct_of_baseline(self, scan_ratio: int = 1, n_chains: int = 1) -> float:
        """Cycles as a percentage of the one-test-per-transition baseline."""
        baseline_tests = self.n_transitions
        shift_depth = -(-self.n_state_variables // n_chains)
        baseline = (
            scan_ratio * shift_depth * (baseline_tests + 1) + baseline_tests
        )
        return 100.0 * self.clock_cycles(scan_ratio, n_chains) / baseline

    # ------------------------------------------------------------ utilities

    def covered_transitions(self) -> frozenset[tuple[int, int]]:
        """Union of the transitions the tests are credited with."""
        return frozenset(key for test in self.tests for key in test.tested)

    def by_decreasing_length(self) -> list[ScanTest]:
        """Tests sorted longest first (stable), the Table 3/6 simulation order."""
        return sorted(self.tests, key=lambda test: -test.length)

    def subset(self, keep: Iterable[ScanTest]) -> "TestSet":
        """A new test set holding only ``keep`` (same machine metadata)."""
        kept = list(keep)
        known = set(map(id, self.tests))
        for test in kept:
            if id(test) not in known and test not in self.tests:
                raise GenerationError("subset may only keep tests of this set")
        return TestSet(
            self.machine_name, self.n_state_variables, self.n_transitions, kept
        )

    def __iter__(self) -> Iterator[ScanTest]:
        return iter(self.tests)

    def __len__(self) -> int:
        return len(self.tests)

    def __repr__(self) -> str:
        return (
            f"<TestSet {self.machine_name!r}: {self.n_tests} tests, "
            f"total length {self.total_length}>"
        )


# Not a pytest class, despite the name.
TestSet.__test__ = False  # type: ignore[attr-defined]


def baseline_clock_cycles(
    n_state_variables: int, n_transitions: int, scan_ratio: int = 1
) -> int:
    """Cycles when every transition is a separate length-1 test (Table 7 ``trans``)."""
    return (
        scan_ratio * n_state_variables * (n_transitions + 1) + n_transitions
    )
